"""Resilient online DPM service: daemon, supervision, crash-safe state.

The paper's predictors are meant to run *inside an OS*, making live
shutdown decisions as I/O streams arrive — this package is that online
form.  ``repro serve`` (:mod:`repro.serve.daemon`) accepts streaming
event feeds from concurrent clients over Unix/TCP sockets
(:mod:`repro.serve.protocol`), shards predictor state across supervised
worker subprocesses (:mod:`repro.serve.supervisor`,
:mod:`repro.serve.worker`), journals every processed execution before
answering (:mod:`repro.serve.state`), and survives worker SIGKILLs,
client disconnects, and daemon restarts with **bit-identical**
decisions and table contents — proven against the offline
:meth:`~repro.sim.experiment.ExperimentRunner.run_global` replay by
:mod:`repro.serve.harness` under injected faults.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".client": ("ServeClient", "control_request"),
    ".daemon": ("ServeDaemon",),
    ".harness": ("ScenarioResult", "run_scenario", "verify_equivalence"),
    ".state": ("ShardJournal",),
    ".supervisor": ("ShardSupervisor",),
    ".worker": ("ShardWorker", "shard_of", "table_snapshot"),
})
