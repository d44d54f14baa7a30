"""repro — reproduction of *Program Counter Based Techniques for Dynamic
Power Management* (Gniady, Hu & Lu, HPCA 2004).

The package implements PCAP — the Program-Counter Access Predictor — and
everything its evaluation stands on: the simulated disk power model, a
Linux-style file cache, strace-like trace containers with synthetic
workload generators for the paper's six applications, baseline
predictors (timeout, Learning Tree, ideal oracle, and classic schemes),
the trace-driven simulation engine, and the analysis layer that rebuilds
every table and figure of the paper's evaluation.

Quick start::

    from repro import ExperimentRunner, build_suite

    runner = ExperimentRunner(build_suite(scale=0.2))
    result = runner.run_global("mozilla", "PCAP")
    print(result.stats.hit_fraction, result.ledger.total)

Subpackages:

* :mod:`repro.core` — PCAP and the Global Shutdown Predictor;
* :mod:`repro.predictors` — the predictor protocol and baselines;
* :mod:`repro.disk` — disk power model (paper Table 2);
* :mod:`repro.cache` — file cache and trace filtering;
* :mod:`repro.traces` — trace records, containers, serialization;
* :mod:`repro.workloads` — the six-application synthetic suite;
* :mod:`repro.sim` — simulation engine, metrics, experiment runner;
* :mod:`repro.analysis` — tables, figures, paper comparison.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Re-exported lazily: ``import repro`` imports no subpackage (and so no
# NumPy); each name's subpackage loads on first use.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": ("CacheConfig", "DiskAccess", "PageCache", "filter_execution"),
    ".core": (
        "GlobalShutdownPredictor", "PCAPPredictor", "PCAPVariant",
        "PredictionTable",
    ),
    ".disk": (
        "DiskPowerParameters", "EnergyBreakdown", "SimulatedDisk",
        "fujitsu_mhf2043at",
    ),
    ".predictors": (
        "KNOWN_PREDICTORS", "LocalPredictor", "PredictorSpec",
        "ShutdownIntent", "make_spec",
    ),
    ".sim": (
        "ApplicationResult", "ExperimentRunner", "PredictionStats",
        "SimulationConfig", "paper_config",
    ),
    ".traces": ("ApplicationTrace", "ExecutionTrace", "IOEvent"),
    ".workloads": ("APPLICATIONS", "build_application", "build_suite"),
})
__all__ += ["__version__"]
