"""Table 3 — Storage requirements of the prediction tables.

Runs every PCAP variant over every application's full trace history with
table reuse and reports the final entry counts next to the paper's.
"""

from conftest import run_once

from repro.analysis.report import render_table3
from repro.analysis.tables import TABLE3_VARIANTS, build_table3
from repro.core.table import PredictionTable, storage_bytes


def test_table3_storage(benchmark, full_runner):
    rows = run_once(
        benchmark,
        lambda: build_table3(full_runner.run_matrix(TABLE3_VARIANTS)),
    )
    print()
    print(render_table3(rows))

    by_app = {row.application: row.entries for row in rows}

    # Shape: extending the key with history and/or fd never shrinks the
    # table (keys fragment), matching the paper's per-row monotonicity.
    for name, entries in by_app.items():
        assert entries["PCAPh"] >= entries["PCAP"], name
        assert entries["PCAPf"] >= entries["PCAP"], name
        assert entries["PCAPfh"] >= max(
            entries["PCAPh"], entries["PCAPf"]
        ) - 2, name

    # Shape: mozilla needs by far the largest table; tables stay small
    # (hundreds of bytes, the paper's storage argument).
    assert max(by_app, key=lambda n: by_app[n]["PCAPfh"]) == "mozilla"
    for entries in by_app.values():
        table = PredictionTable()
        for i in range(entries["PCAPfh"]):
            table.train(i)
        assert storage_bytes(table) < 4096  # "storage is not a problem"
