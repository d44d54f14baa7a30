"""Start-up: lazy package exports, and NumPy imported before any fork.

No ``repro`` module imports NumPy at load time, so a command that
touches no column data never loads it (``tests/test_cli.py`` checks a
warm ``repro reproduce``).  A process that forks compute workers imports
it before the fork instead, so each worker inherits it rather than
importing it again in every cell worker or shard.
"""

from __future__ import annotations

import importlib
import types

import pytest

import repro
from tests.helpers import run_python

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.cache",
    "repro.core",
    "repro.disk",
    "repro.predictors",
    "repro.predictors.learned",
    "repro.serve",
    "repro.sim",
    "repro.traces",
    "repro.workloads",
)


@pytest.mark.parametrize("name", PACKAGES)
def test_package_exports_resolve(name):
    """Every ``__all__`` name resolves to what it names (never to a
    submodule of the same name) and is listed by ``dir()``; an unknown
    name is an ``AttributeError``."""
    package = importlib.import_module(name)
    listing = dir(package)
    for export in package.__all__:
        value = getattr(package, export)
        assert not isinstance(value, types.ModuleType), export
        assert export in listing, export
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_names_shared_with_submodules_stay_functions():
    import repro.core.pcap
    import repro.sim.sweep
    from repro.core import pcap
    from repro.sim import sweep

    assert callable(pcap) and callable(sweep)
    assert repro.core.pcap is pcap and repro.sim.sweep is sweep


def test_quick_start_import():
    from repro import ExperimentRunner, build_suite
    from repro.sim.experiment import ExperimentRunner as defined

    assert ExperimentRunner is defined and callable(build_suite)


def test_import_repro_loads_no_subpackage(tmp_path):
    out = run_python(
        "-c",
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.')), "
        "'numpy' in sys.modules)",
        cwd=tmp_path,
    ).stdout
    assert out.split() == ["['repro._lazy']", "False"]


#: Runs ``repro.cli.main`` with every forked cell worker recording, as
#: it starts, whether NumPy was already imported, and then every cell
#: it runs.
_RECORD_CELL_WORKERS = """\
import os
import sys
import repro.sim.resilience as resilience
from repro.cli import main

log, worker_main = sys.argv[1], resilience._worker_main


def record(line):
    with open(log, "a", encoding="utf-8") as stream:
        stream.write(f"{os.getpid()} {line}\\n")


def recording(conn, inherited):
    record(f"numpy {'numpy' in sys.modules}")
    run_cell = resilience._CHILD_RUN_CELL

    def run(cell):
        record(f"cell {cell.application}")
        return run_cell(cell)

    resilience._CHILD_RUN_CELL = run
    worker_main(conn, inherited)


resilience._worker_main = recording
sys.exit(main(sys.argv[2:]))
"""


def test_forked_cells_inherit_numpy(tmp_path):
    store = str(tmp_path / "store")
    log = tmp_path / "cells.log"
    run_python("-m", "repro", "trace", "pack", "--scale", "0.1",
               "--out", store, cwd=tmp_path)
    run_python("-c", _RECORD_CELL_WORKERS, str(log), "run", "--store", store,
               "--jobs", "2", "--predictor", "Base", "--predictor", "PCAP",
               cwd=tmp_path)
    records = [
        line.split(" ", 2)
        for line in log.read_text(encoding="utf-8").splitlines()
    ]
    # Two long-lived workers, each of which found NumPy imported.
    starts = {pid: value for pid, what, value in records if what == "numpy"}
    assert list(starts.values()) == ["True", "True"]
    # Two predictors run fused: one cell per application, every one of
    # them on one of those two workers.
    cells = [(pid, value) for pid, what, value in records if what == "cell"]
    assert sorted(app for _, app in cells) == sorted(repro.APPLICATIONS)
    assert {pid for pid, _ in cells} <= set(starts)


#: Starts a two-shard serve daemon whose forked shard workers record
#: whether NumPy was already imported, then drains them.
_RECORD_SHARD_WORKERS = """\
import sys
import repro.serve.supervisor as supervisor
from repro.serve.daemon import ServeDaemon

log, socket_path, state_dir = sys.argv[1:4]
worker_main = supervisor.worker_main


def recording(conn, shard_id, *args):
    with open(log, "a", encoding="utf-8") as stream:
        stream.write(f"{shard_id} {'numpy' in sys.modules}\\n")
    worker_main(conn, shard_id, *args)


supervisor.worker_main = recording
daemon = ServeDaemon(socket_path=socket_path, state_dir=state_dir, shards=2)
for shard in daemon.supervisors:
    shard.drain()
"""


def test_forked_shard_workers_inherit_numpy(tmp_path):
    log = tmp_path / "shards.log"
    run_python("-c", _RECORD_SHARD_WORKERS, str(log), str(tmp_path / "sock"),
               str(tmp_path / "state"), cwd=tmp_path)
    records = log.read_text(encoding="utf-8").split("\n")[:-1]
    assert sorted(records) == ["0 True", "1 True"]
