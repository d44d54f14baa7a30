"""Builders for the paper's tables (1, 2, 3) from simulation artifacts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.disk.power_model import DiskPowerParameters
from repro.sim.artifact_cache import table1_key
from repro.sim.experiment import ApplicationResult, ExperimentRunner
from repro.sim.idle_periods import stream_gaps


@dataclass(frozen=True, slots=True)
class Table1Row:
    """One row of Table 1 (applications and execution details)."""

    application: str
    executions: int
    global_idle_periods: int
    local_idle_periods: int
    total_ios: int
    disk_accesses: int


def build_table1(runner: ExperimentRunner) -> list[Table1Row]:
    """Compute Table 1 over the runner's suite.

    Global idle periods are breakeven-exceeding gaps of the merged
    (post-cache) disk stream; local idle periods sum each disk-using
    process's own gaps, matching the paper's definitions.

    With an artifact cache attached each row is cached under
    :func:`~repro.sim.artifact_cache.table1_key`, so a warm run reads no
    filter result.  A row computed here fills the runner's filter memo,
    which a local matrix run after it then reads.
    """
    config = runner.config
    cache = runner.artifact_cache
    rows: list[Table1Row] = []
    for application, trace in runner.suite.items():
        key = None
        if cache is not None:
            key = table1_key(runner.fingerprint(application), config)
            row = cache.get_checked(key, Table1Row, application)
            if row is not None:
                rows.append(row)
                continue
        global_count = 0
        local_count = 0
        disk_accesses = 0
        for execution, filtered in zip(trace, runner.filtered(application)):
            disk_accesses += len(filtered.accesses)
            times = [access.time for access in filtered.accesses]
            gaps = stream_gaps(
                times,
                config.service_time,
                start_time=execution.start_time,
                end_time=execution.end_time,
            )
            global_count += sum(
                1 for gap in gaps if gap.length > config.breakeven
            )
            per_process = filtered.per_process()
            for pid, (start, end) in execution.lifetimes().items():
                accesses = per_process.get(pid, [])
                if not accesses:
                    continue
                process_gaps = stream_gaps(
                    [access.time for access in accesses],
                    config.service_time,
                    start_time=start,
                    end_time=end,
                )
                local_count += sum(
                    1 for gap in process_gaps if gap.length > config.breakeven
                )
        row = Table1Row(
            application=application,
            executions=len(trace),
            global_idle_periods=global_count,
            local_idle_periods=local_count,
            total_ios=trace.total_io_count,
            disk_accesses=disk_accesses,
        )
        if key is not None:
            cache.put(key, row)
        rows.append(row)
    return rows


@dataclass(frozen=True, slots=True)
class Table2Row:
    """One parameter of Table 2 (disk states and transitions)."""

    name: str
    value: float
    unit: str


def build_table2(params: DiskPowerParameters) -> list[Table2Row]:
    """Table 2 from the disk model, with the derived breakeven time."""
    return [
        Table2Row("Busy power", params.busy_power, "W"),
        Table2Row("Idle power", params.idle_power, "W"),
        Table2Row("Standby power", params.standby_power, "W"),
        Table2Row("Spin-up energy", params.spinup_energy, "J"),
        Table2Row("Shutdown energy", params.shutdown_energy, "J"),
        Table2Row("Spin-up time", params.spinup_time, "s"),
        Table2Row("Shutdown time", params.shutdown_time, "s"),
        Table2Row("Breakeven time (derived)", params.breakeven_time(), "s"),
    ]


#: The PCAP variants Table 3 reports.
TABLE3_VARIANTS = ("PCAP", "PCAPf", "PCAPh", "PCAPfh")


@dataclass(frozen=True, slots=True)
class Table3Row:
    """Prediction-table entry counts for one application."""

    application: str
    entries: dict[str, int]


def build_table3(
    matrix: dict[str, dict[str, ApplicationResult]],
    variants: Sequence[str] = TABLE3_VARIANTS,
) -> list[Table3Row]:
    """The final prediction-table size of each PCAP variant over each
    application's full trace history, from a global matrix.

    A global run tracks each lane's peak table size across the
    application's executions (see
    :meth:`~repro.sim.experiment.ExperimentRunner.run_global`).
    """
    return [
        Table3Row(
            application=application,
            entries={
                variant: row[variant].table_size or 0
                for variant in variants
            },
        )
        for application, row in matrix.items()
    ]
