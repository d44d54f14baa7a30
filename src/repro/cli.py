"""Command-line interface.

::

    python -m repro reproduce [--scale S]        # all tables + figures
    python -m repro figure 7 [--scale S] [--chart]
    python -m repro table 1 [--scale S]
    python -m repro simulate --app mozilla --predictor PCAP [--scale S]
    python -m repro trace --app mozilla --predictor PCAP [--out t.jsonl]
    python -m repro trace pack --out store/ [--scale S | --from t.jsonl]
    python -m repro trace info store/
    python -m repro generate --app mozilla --out traces.jsonl [--scale S]
    python -m repro import-strace trace.txt --app myapp [--predictor PCAP]
    python -m repro inspect traces.jsonl
    python -m repro run --predictor PCAP --resume sweep.ckpt
    python -m repro fleet --devices 1000 --predictor PCAP --predictor Base
    python -m repro faults [--plan SPEC]
    python -m repro serve --socket /tmp/repro.sock --state-dir state/

Everything prints plain text; ``--chart`` switches the figure commands
to ASCII stacked bars.

``repro run`` is the resilient front end to the suite: per-cell retries
and timeouts, terminal failures reported in a ledger instead of
aborting, and ``--checkpoint``/``--resume`` journalling so an
interrupted run re-executes only unfinished cells.  ``repro faults``
replays a fault plan (default: the canned chaos scenario) against a
small suite and verifies the run survives it; any command accepts a
plan via ``$REPRO_FAULT_PLAN`` or ``--fault-plan`` where offered.

``repro fleet`` simulates a device *population* — N devices round-robin
over the chosen applications — through the device-batched columnar
fleet engine (:mod:`repro.sim.fleet`): one fused replay per
application scattered across the device rows, fleet-total energy and
per-percentile slowdown, optional per-device breakdown.  Output is
deterministic for a fixed population and scale (CI diffs serial
against ``--jobs 2``).

``repro trace pack`` converts traces (generated workloads or JSONL
files, including ``import-strace`` output) into the on-disk columnar
store format (:mod:`repro.traces.store`); every suite-level command
accepts ``--store DIR`` to run against a packed store with bounded
memory instead of generating the suite in memory.

``repro serve`` runs the online form of the paper's predictors: a
long-lived daemon (:mod:`repro.serve`) accepting streaming I/O event
feeds from concurrent clients over a Unix or TCP socket, sharding
predictor state across supervised worker subprocesses, journalling
every execution before answering, and returning live shutdown
decisions that are bit-identical to an offline replay — including
across worker crashes and daemon restarts.  ``repro faults`` gains a
serve phase that proves this under injected connection drops, frame
truncation, and worker stalls.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro import faults

# Module level holds what ``repro reproduce`` runs, and no more: its
# warm run must import neither NumPy nor the other commands' modules
# (DESIGN §10, "Start-up").  The other commands import what they use.
from repro.analysis.compare import all_checks, render_checks
from repro.analysis.figures import (
    FIG6_PREDICTORS,
    FIG7_PREDICTORS,
    FIG8_PREDICTORS,
    FIG9_PREDICTORS,
    FIG10_PREDICTORS,
    GLOBAL_PREDICTORS,
    build_fig6,
    build_fig7,
    build_fig8,
    build_fig9,
    build_fig10,
)
from repro.analysis.report import (
    render_accuracy_figure,
    render_energy_figure,
    render_table1,
    render_table2,
    render_table3,
)
from repro.analysis.tables import (
    TABLE3_VARIANTS,
    build_table1,
    build_table2,
    build_table3,
)
from repro.config import SimulationConfig
from repro.errors import ReproError
from repro.predictors.registry import KNOWN_PREDICTORS
from repro.sim.artifact_cache import resolve_cache
from repro.sim.experiment import ExperimentRunner
from repro.sim.resilience import stderr_progress
from repro.workloads.suite import APPLICATIONS, build_suite


def _runner(args, applications: Optional[tuple[str, ...]] = None):
    cache = resolve_cache(getattr(args, "cache_dir", None))
    store_path = getattr(args, "store", None)
    if store_path:
        from repro.traces.store import TraceStore

        suite = TraceStore(store_path).suite(applications)
    else:
        suite = build_suite(
            scale=args.scale,
            applications=applications or APPLICATIONS,
            cache=cache,
        )
    jobs = getattr(args, "jobs", None)
    runner = ExperimentRunner(
        suite, SimulationConfig(), jobs=jobs, artifact_cache=cache
    )
    if getattr(args, "progress", False):
        runner.progress = stderr_progress
    return runner


def _workload(args) -> str:
    """What a suite command ran on: the packed store it read (which fixes
    the workload, so ``--scale`` is ignored), or the generated scale."""
    store = getattr(args, "store", None)
    return f"store {store}" if store else f"scale {args.scale}"


def _cmd_reproduce(args) -> int:
    runner = _runner(args)
    # Table 1 runs first: on a cold run it fills the runner's filter
    # memo, which the local matrix then reads instead of filtering each
    # execution again.  Only a cold run depends on this order: a warm
    # one reads Table 1's rows and every cell from the artifact cache.
    print(render_table1(build_table1(runner)))
    print()
    print(render_table2(build_table2(runner.config.disk)))
    local = runner.run_matrix(FIG6_PREDICTORS, mode="local")
    matrix = runner.run_matrix(GLOBAL_PREDICTORS)
    figures = {
        "6": (build_fig6(local), "Figure 6: Local predictors", False),
        "7": (build_fig7(matrix), "Figure 7: Global predictors", False),
        "9": (build_fig9(matrix), "Figure 9: Optimizations", True),
        "10": (build_fig10(matrix), "Figure 10: Table reuse", True),
    }
    built = {}
    for key, (figure, title, split) in figures.items():
        print()
        print(render_accuracy_figure(figure, title, split_sources=split))
        built[key] = figure
    fig8 = build_fig8(matrix)
    print()
    print(render_energy_figure(fig8))
    print()
    print(render_table3(build_table3(matrix)))
    print()
    print(render_checks(
        all_checks(built["6"], built["7"], fig8, built["9"], built["10"])
    ))
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.experiments_report import generate_report

    runner = _runner(args)
    document = generate_report(runner, workload=_workload(args))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(document)
        print(f"wrote {args.out}")
    else:
        print(document)
    return 0


def _cmd_figure(args) -> int:
    number = args.number
    builders = {
        6: (build_fig6, FIG6_PREDICTORS, "local"),
        7: (build_fig7, FIG7_PREDICTORS, "global"),
        8: (build_fig8, FIG8_PREDICTORS, "global"),
        9: (build_fig9, FIG9_PREDICTORS, "global"),
        10: (build_fig10, FIG10_PREDICTORS, "global"),
    }
    if number not in builders:
        print(f"no figure {number}; the paper has figures 6-10",
              file=sys.stderr)
        return 2
    from repro.analysis.ascii_charts import (
        render_accuracy_chart,
        render_energy_chart,
    )
    from repro.analysis.svg_charts import (
        render_accuracy_svg,
        render_energy_svg,
    )

    build, predictors, mode = builders[number]
    figure = build(_runner(args).run_matrix(predictors, mode=mode))
    title = f"Figure {number} (measured, {_workload(args)})"
    if number == 8:
        if args.svg:
            _write_svg(args.svg, render_energy_svg(figure, title))
        elif args.chart:
            print(render_energy_chart(figure))
        else:
            print(render_energy_figure(figure))
    elif args.svg:
        _write_svg(args.svg, render_accuracy_svg(figure, title))
    elif args.chart:
        print(render_accuracy_chart(figure, title))
    else:
        print(render_accuracy_figure(
            figure, title, split_sources=number in (9, 10)
        ))
    return 0


def _write_svg(path: str, document: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(document)
    print(f"wrote {path}")


def _cmd_table(args) -> int:
    if args.number not in (1, 2, 3):
        print("the paper has tables 1-3", file=sys.stderr)
        return 2
    if args.number == 2:
        print(render_table2(build_table2(SimulationConfig().disk)))
    elif args.number == 1:
        print(render_table1(build_table1(_runner(args))))
    else:
        matrix = _runner(args).run_matrix(TABLE3_VARIANTS)
        print(render_table3(build_table3(matrix)))
    return 0


def _write_trace(path: str, events) -> None:
    from repro.sim.tracing import write_jsonl

    with open(path, "w", encoding="utf-8") as stream:
        written = write_jsonl(events, stream)
    print(f"wrote {written} trace events to {path}")


def _cmd_simulate(args) -> int:
    from repro.sim.tracing import TraceRecorder

    runner = _runner(args, applications=(args.app,))
    base = runner.run_global(args.app, "Base")
    recorder = TraceRecorder() if args.trace_out else None
    result = runner.run_global(args.app, args.predictor, tracer=recorder)
    stats = result.stats
    print(f"{args.app} x {result.predictor} ({_workload(args)}, "
          f"{result.executions} executions)")
    print(f"  disk accesses      : {result.total_disk_accesses}")
    print(f"  idle periods       : {stats.opportunities}")
    print(f"  coverage           : {stats.hit_fraction:.1%} "
          f"(primary {stats.hit_primary_fraction:.1%}, "
          f"backup {stats.hit_backup_fraction:.1%})")
    print(f"  mispredictions     : {stats.miss_fraction:.1%}")
    print(f"  shutdowns          : {result.shutdowns}")
    print(f"  energy             : {result.energy:.1f} J "
          f"(base {base.energy:.1f} J, "
          f"savings {1 - result.energy / base.energy:.1%})")
    if result.table_size is not None:
        print(f"  prediction table   : {result.table_size} entries")
    if recorder is not None:
        _write_trace(args.trace_out, recorder.events)
    return 0


def _cmd_trace(args) -> int:
    if not args.app:
        print("error: repro trace needs --app (or a subcommand: pack, info)",
              file=sys.stderr)
        return 2
    from repro.analysis.timeline import render_timeline, render_trace_summary
    from repro.sim.tracing import TraceRecorder

    runner = _runner(args, applications=(args.app,))
    recorder = TraceRecorder(
        capacity=args.capacity if args.capacity > 0 else None
    )
    result = runner.run_global(
        args.app, args.predictor, multistate=args.multistate, tracer=recorder
    )
    stats = result.stats
    title = (f"{args.app} x {result.predictor} decision timeline "
             f"({_workload(args)}, {result.executions} executions)")
    print(render_timeline(recorder.events, limit=args.limit, title=title))
    print()
    print(render_trace_summary(recorder.counts()))
    fired = recorder.counts().get("shutdown-fired", 0)
    print(f"reconciliation     : shutdown-fired events {fired}, "
          f"stats hits+misses {stats.shutdowns} "
          f"({'OK' if fired == stats.shutdowns else 'MISMATCH'})")
    if args.out:
        _write_trace(args.out, recorder.events)
    return 0 if fired == stats.shutdowns else 1


def _cmd_trace_pack(args) -> int:
    from repro.traces.store import (
        DEFAULT_CHUNK_ROWS,
        StoreWriter,
        TraceStore,
        pack_jsonl,
    )

    chunk_rows = getattr(args, "chunk_rows", None) or DEFAULT_CHUNK_ROWS
    source = getattr(args, "from_jsonl", None)
    if source:
        with StoreWriter(args.out, chunk_rows=chunk_rows) as writer:
            with open(source, "r", encoding="utf-8") as stream:
                executions = pack_jsonl(stream, writer)
        print(f"packed {executions} execution(s) from {source}")
    else:
        from repro.workloads.streaming import iter_suite_executions

        selected = getattr(args, "app", None)
        if not selected:
            apps = APPLICATIONS
        elif isinstance(selected, str):
            # Parsed by the parent `trace` parser (before the
            # subcommand), where --app is a single value.
            apps = (selected,)
        else:
            apps = tuple(selected)
        executions = 0
        with StoreWriter(args.out, chunk_rows=chunk_rows) as writer:
            for execution in iter_suite_executions(
                scale=args.scale, applications=apps
            ):
                writer.write_execution(execution)
                executions += 1
        print(f"packed {executions} generated execution(s) "
              f"at scale {args.scale}")
    store = TraceStore(args.out)
    print(f"store: {args.out} ({store.rows} rows, {len(store.chunks)} "
          f"chunk(s) of {store.chunk_rows}, "
          f"{len(store.applications)} application(s))")
    return 0


def _cmd_trace_info(args) -> int:
    from repro.traces.store import TraceStore

    store = TraceStore(args.store_dir)
    print(f"trace store      : {store.path}")
    print(f"rows             : {store.rows} "
          f"({len(store.chunks)} chunk(s) of {store.chunk_rows})")
    print(f"fingerprint      : {store.fingerprint}")
    print(f"applications     : {len(store.applications)}")
    for name in store.applications:
        entry = store.application_entry(name)
        print(f"  {name:<12s} {len(entry['executions']):>4d} executions  "
              f"{entry['io_events']:>8d} I/O events  "
              f"fingerprint {entry['fingerprint']}")
    return 0


def _cmd_generate(args) -> int:
    from repro.traces.io_format import write_application_trace

    suite = build_suite(scale=args.scale, applications=(args.app,))
    trace = suite[args.app]
    with open(args.out, "w", encoding="utf-8") as stream:
        write_application_trace(trace, stream)
    print(f"wrote {len(trace.executions)} executions "
          f"({trace.total_io_count} I/O events) to {args.out}")
    return 0


def _cmd_import_strace(args) -> int:
    from repro.sim.tracing import TraceRecorder
    from repro.traces.io_format import write_application_trace
    from repro.traces.strace_import import parse_strace
    from repro.traces.trace import ApplicationTrace

    with open(args.input, "r", encoding="utf-8") as stream:
        execution, stats = parse_strace(stream, application=args.app)
    print(f"imported {stats.io_events} I/O events, {stats.forks} forks, "
          f"{stats.exits} exits ({stats.skipped_lines} lines skipped, "
          f"{stats.failed_syscalls} failed syscalls)")
    if args.out:
        trace = ApplicationTrace(args.app, [execution])
        with open(args.out, "w", encoding="utf-8") as stream:
            write_application_trace(trace, stream)
        print(f"wrote {args.out}")
    if args.predictor:
        runner = ExperimentRunner(
            {args.app: ApplicationTrace(args.app, [execution])},
            SimulationConfig(),
        )
        recorder = TraceRecorder() if args.trace_out else None
        result = runner.run_global(args.app, args.predictor, tracer=recorder)
        print(f"{args.predictor}: coverage "
              f"{result.stats.hit_fraction:.1%}, misses "
              f"{result.stats.miss_fraction:.1%}, energy "
              f"{result.energy:.1f} J")
        if recorder is not None:
            _write_trace(args.trace_out, recorder.events)
    elif args.trace_out:
        print("--trace-out needs --predictor to run a simulation",
              file=sys.stderr)
        return 2
    return 0


def _cmd_bench(args) -> int:
    from repro.perf import (
        DEFAULT_TOLERANCE,
        PerfReport,
        compare_reports,
        render_report,
        run_benchmarks,
    )

    try:
        report = run_benchmarks(quick=args.quick, only=args.only)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    baseline = None
    if args.baseline and not args.update_baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as stream:
                baseline = PerfReport.from_json(stream.read())
        except FileNotFoundError:
            print(f"no baseline at {args.baseline}; skipping the gate",
                  file=sys.stderr)
    print(render_report(report, baseline))
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        from repro.perf import render_markdown_delta

        with open(summary_path, "a", encoding="utf-8") as stream:
            stream.write(render_markdown_delta(report, baseline))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(report.to_json())
        print(f"wrote {args.out}")
    if args.update_baseline:
        written = report
        if args.only:
            # Partial run: merge the measured entries into the existing
            # baseline instead of discarding its other entries.
            try:
                with open(args.baseline, "r", encoding="utf-8") as stream:
                    existing = PerfReport.from_json(stream.read())
            except FileNotFoundError:
                existing = None
            if existing is not None:
                if (existing.mode, existing.scale) != (
                    report.mode, report.scale,
                ):
                    print(
                        f"error: cannot merge a {report.mode}@"
                        f"{report.scale} run into the {existing.mode}@"
                        f"{existing.scale} baseline {args.baseline}",
                        file=sys.stderr,
                    )
                    return 2
                existing.results.update(report.results)
                written = existing
        with open(args.baseline, "w", encoding="utf-8") as stream:
            stream.write(written.to_json())
        print(f"updated baseline {args.baseline}")
        return 0
    if baseline is None:
        return 0
    try:
        regressions = compare_reports(
            report, baseline, tolerance=args.tolerance
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    tolerance = args.tolerance if args.tolerance is not None else (
        DEFAULT_TOLERANCE
    )
    if regressions:
        for item in regressions:
            print(
                f"REGRESSION: {item.name} throughput dropped "
                f"{item.drop:.1%} (baseline {item.baseline_ops:.1f} ops/s, "
                f"now {item.current_ops:.1f} ops/s; tolerance "
                f"{tolerance:.0%})",
                file=sys.stderr,
            )
        return 1
    print(f"perf gate OK (tolerance {tolerance:.0%})")
    return 0


def _render_run_results(matrix) -> str:
    lines = [
        f"  {'application':<12s} {'predictor':<10s} {'coverage':>9s} "
        f"{'misses':>7s} {'energy':>10s} {'shutdowns':>9s}"
    ]
    for application in sorted(matrix):
        for name, result in matrix[application].items():
            lines.append(
                f"  {application:<12s} {name:<10s} "
                f"{result.stats.hit_fraction:>8.1%} "
                f"{result.stats.miss_fraction:>6.1%} "
                f"{result.energy:>8.1f} J {result.shutdowns:>9d}"
            )
    return "\n".join(lines)


def _cmd_run(args) -> int:
    from repro.sim.fused import fused_eligible
    from repro.sim.resilience import ResiliencePolicy

    predictors = args.predictor or ["PCAP"]
    apps = tuple(args.app) if args.app else APPLICATIONS
    runner = _runner(args, applications=apps)
    policy = ResiliencePolicy(
        max_attempts=args.retries + 1,
        cell_timeout=args.cell_timeout,
    )
    checkpoint = args.resume or args.checkpoint
    report = runner.run_matrix_resilient(
        predictors,
        applications=apps,
        multistate=args.multistate,
        policy=policy,
        checkpoint=checkpoint,
    )
    fused_active = fused_eligible(
        runner, len(predictors), multistate=args.multistate
    )
    print(f"resilient run: {len(predictors)} predictor(s) × "
          f"{len(apps)} application(s), {_workload(args)}"
          + (" [fused]" if fused_active else ""))
    print(_render_run_results(report.matrix))
    print()
    print(report.ledger.render())
    plan = faults.active()
    if plan is not None and plan.fired:
        print()
        print(plan.render_fired())
    if checkpoint:
        print(f"checkpoint: {checkpoint} "
              f"({report.ledger.resumed} cell(s) resumed)")
    return 0 if report.complete else 1


def _cmd_fleet(args) -> int:
    from repro.sim.fleet import replicate_devices, run_fleet
    from repro.sim.resilience import ResiliencePolicy

    predictors = args.predictor or ["PCAP"]
    apps = tuple(args.app) if args.app else APPLICATIONS
    runner = _runner(args, applications=apps)
    devices = replicate_devices(apps, args.devices)
    policy = ResiliencePolicy(
        max_attempts=args.retries + 1,
        cell_timeout=args.cell_timeout,
    )
    checkpoint = args.resume or args.checkpoint
    percentiles = tuple(
        float(part) for part in args.percentiles.split(",") if part.strip()
    )
    result = run_fleet(
        runner,
        devices,
        predictors,
        tables=args.tables,
        jobs=runner.jobs,
        progress=runner.progress,
        policy=policy,
        checkpoint=checkpoint,
    )
    print(f"fleet run: {len(devices)} device(s) over {len(apps)} "
          f"application(s), {len(predictors)} predictor lane(s), "
          f"{args.tables} tables, {_workload(args)}")
    print(result.render(percentiles))
    if args.per_device:
        print()
        lane = result.lanes[predictors[0]]
        shown = min(args.per_device, lane.devices)
        print(f"  first {shown} device(s), lane {predictors[0]}:")
        for index in range(shown):
            device = devices[index]
            item = lane.device_result(index)
            delay = (
                item.delay_seconds / item.total_disk_accesses
                if item.total_disk_accesses else 0.0
            )
            print(f"  {device.device_id:<12s} {device.application:<12s} "
                  f"{item.energy:>10.1f} J {delay * 1e3:>8.3f} ms "
                  f"{item.shutdowns:>5d} shutdowns")
    if checkpoint:
        print(f"checkpoint: {checkpoint} "
              f"({result.ledger.resumed} cell(s) resumed)")
    return 0


def _cmd_serve(args) -> int:
    from repro.serve.daemon import ServeDaemon

    tcp = None
    if args.tcp:
        host, _, port = args.tcp.rpartition(":")
        try:
            tcp = (host or "127.0.0.1", int(port))
        except ValueError:
            print(f"error: --tcp needs HOST:PORT, got {args.tcp!r}",
                  file=sys.stderr)
            return 2
    daemon = ServeDaemon(
        socket_path=args.socket,
        tcp=tcp,
        state_dir=args.state_dir,
        predictor=args.predictor,
        shards=args.shards,
        checkpoint_every=args.checkpoint_every,
        stall_timeout=args.stall_timeout,
        max_pending_bytes=args.max_pending_bytes,
        max_queue=args.max_queue,
    )
    print(f"serving on {daemon.address} "
          f"(control {daemon.control_address}, "
          f"{len(daemon.supervisors)} shard(s), "
          f"predictor {daemon.predictor}, "
          f"state {daemon.state_dir})", flush=True)
    daemon.serve_forever()
    print("drained; exiting")
    return 0


def _cmd_faults(args) -> int:
    """Replay a fault plan against a small suite and verify survival."""
    import tempfile

    from repro.errors import TraceFormatError
    from repro.config import fork_available
    from repro.sim.resilience import (
        CANNED_CHAOS_PLAN,
        ResiliencePolicy,
        parse_fault_plan,
    )
    from repro.traces.io_format import (
        read_application_trace,
        write_application_trace,
    )

    plan_text = args.plan or CANNED_CHAOS_PLAN
    user_jobs = args.jobs
    pooled = fork_available() and user_jobs != 1
    if not pooled:
        # Without forked workers a crash would take the whole process
        # down; the in-process path exercises the same retry machinery
        # with an injected exception instead.
        plan_text = plan_text.replace("worker.crash", "worker.fail")
    plan = parse_fault_plan(plan_text)
    predictors = ["PCAP", "TP"]
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    faults.clear()
    with tempfile.TemporaryDirectory(prefix="repro-faults-") as tmp:
        cache_dir = os.path.join(tmp, "cache")

        # 1. Fault-free serial baseline, one classic run per
        #    (application, predictor); it also publishes filter results,
        #    so the faulted run has artifacts for cache.corrupt-read.
        args.cache_dir = cache_dir
        args.jobs = 1
        baseline_runner = _runner(args)
        applications = baseline_runner.applications
        baseline = {
            app: {
                name: baseline_runner.run_global(app, name)
                for name in predictors
            }
            for app in applications
        }

        # 2. The trace format segment: a malformed-line fault must
        #    surface as a clean TraceFormatError, not a crash.
        trace_path = os.path.join(tmp, "trace.jsonl")
        suite = build_suite(scale=args.scale, applications=("mozilla",))
        with open(trace_path, "w", encoding="utf-8") as stream:
            write_application_trace(suite["mozilla"], stream)
        faults.install(plan)
        try:
            with open(trace_path, "r", encoding="utf-8") as stream:
                read_application_trace(stream)
        except TraceFormatError as error:
            check("trace corruption surfaces as TraceFormatError", True,
                  str(error))
        else:
            check("trace corruption surfaces as TraceFormatError",
                  plan.specs_for(faults.TRACE_MALFORMED_LINE) == (),
                  "no error raised")

        # 3. The faulted resilient run, on a fresh runner sharing the
        #    warmed cache (so corrupt-read faults hit real entries).
        if pooled:
            args.jobs = max(2, user_jobs or 0)
        else:
            args.jobs = 1
        runner = _runner(args)
        policy = ResiliencePolicy(
            max_attempts=2, cell_timeout=args.cell_timeout
        )
        report = runner.run_matrix_resilient(
            predictors, policy=policy
        )
        faults.clear()
        ledger = report.ledger

        # 4. Verdicts.  The two predictors run fused, one cell per
        #    application, so a failed cell drops its application's row.
        def targets(spec, cell) -> bool:
            return (
                (spec.cell is None or spec.cell == cell.index)
                and (spec.application is None
                     or spec.application == cell.application)
            )

        crash_cells = {
            outcome.cell.index
            for outcome in ledger.outcomes
            for site in (faults.WORKER_CRASH, faults.WORKER_FAIL)
            for spec in plan.specs_for(site)
            if spec.attempts >= policy.max_attempts
            and targets(spec, outcome.cell)
        }
        failed_apps = {f.cell.application for f in ledger.failures}
        uncovered = [
            f"{app} × {name}"
            for app in applications
            for name in predictors
            if name not in report.matrix.get(app, {})
            and app not in failed_apps
        ]
        check(
            "every application × predictor in the matrix or a failed cell",
            not uncovered,
            f"missing {', '.join(uncovered)}" if uncovered
            else f"{len(ledger.outcomes)} cell(s)",
        )
        check(
            "terminally faulted cells reported as failures",
            {f.cell.index for f in ledger.failures} == crash_cells,
            f"failed cells {sorted(f.cell.index for f in ledger.failures)}, "
            f"expected {sorted(crash_cells)}",
        )
        check("failure ledger is non-empty" if crash_cells
              else "no terminal failures expected",
              bool(ledger.failures) == bool(crash_cells))
        # A worker fault mostly fires in a forked worker, whose plan the
        # parent never sees; what the parent sees is the failed attempt
        # it causes on a matching cell.  A plan without worker faults
        # causes no failed attempt.
        worker_specs = [
            spec
            for site in (faults.WORKER_CRASH, faults.WORKER_HANG,
                         faults.WORKER_FAIL)
            for spec in plan.specs_for(site)
        ]
        check("retries were recorded" if worker_specs
              else "no retries expected",
              bool(ledger.retries) == bool(worker_specs),
              f"{len(ledger.retries)} failed attempt(s)")
        unfired = [
            spec for spec in worker_specs
            if not any(targets(spec, event.cell) for event in ledger.retries)
        ]
        check(
            "every planned worker fault fired",
            not unfired,
            "; ".join(
                f"{spec.site} (cell {spec.cell}, app {spec.application}) "
                "did not fire"
                for spec in unfired
            )
            or f"{len(worker_specs)} worker fault(s)",
        )
        # A corrupted read that fires here must have cost the faulted
        # runner's cache one quarantined entry, then been recomputed.
        # (A torn write is found by the next read of its entry, which
        # for a pickled result may come in a later run.)
        corrupt_reads = [
            record for record in plan.fired
            if record.site == faults.CACHE_CORRUPT_READ
        ]
        quarantined = runner.artifact_cache.stats.quarantined
        check(
            "every corrupted cache read left a quarantined entry",
            quarantined >= len(corrupt_reads),
            f"{len(corrupt_reads)} corrupted read(s), "
            f"{quarantined} quarantined",
        )
        healthy_identical = True
        compared = 0
        for application, row in report.matrix.items():
            for name, result in row.items():
                compared += 1
                if baseline[application][name] != result:
                    healthy_identical = False
        check(
            "healthy cells bit-identical to the fault-free baseline",
            healthy_identical and compared > 0,
            f"{compared} cell(s) compared",
        )

        # 5. The serve phase: a live daemon subprocess under the three
        #    serve fault sites (connection drop, frame truncation,
        #    worker stall past the supervisor deadline), verified
        #    decision- and table-identical to the offline replay.
        if args.serve:
            from repro.serve.harness import (
                CANNED_SERVE_CHAOS_PLAN,
                run_scenario,
                verify_equivalence,
            )

            scenario = run_scenario(
                socket_path=os.path.join(tmp, "serve.sock"),
                state_dir=os.path.join(tmp, "serve-state"),
                clients=2,
                scale=0.05,
                applications=("mozilla", "xemacs"),
                stall_timeout=3.0,
                fault_plan=CANNED_SERVE_CHAOS_PLAN,
            )
            failures = verify_equivalence(scenario)
            check(
                "serve decisions bit-identical to the offline replay",
                not failures,
                failures[0] if failures
                else f"{len(scenario.decisions)} decision(s)",
            )
            kinds = {
                incident.get("kind")
                for incident in scenario.health.get("incidents", [])
            }
            check(
                "serve incidents on the health endpoint",
                {"worker-restart", "conn-drop", "malformed-frame"}
                <= kinds,
                f"kinds {sorted(k for k in kinds if k)}",
            )
            check(
                "daemon drained cleanly on SIGTERM",
                scenario.exit_code == 0,
                f"exit code {scenario.exit_code}",
            )

    print(f"fault plan: {plan_text}")
    print(f"mode: {'pooled' if pooled else 'in-process'} "
          f"(jobs={args.jobs}, cell timeout {args.cell_timeout:g} s)")
    print()
    print(ledger.render())
    print()
    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        suffix = f" ({detail})" if detail else ""
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    print()
    if failed:
        print(f"chaos verdict: FAIL ({len(failed)} check(s) failed)")
        return 1
    print("chaos verdict: OK — the suite survived the fault plan")
    return 0


def _cmd_inspect(args) -> int:
    from repro.traces.io_format import read_application_trace
    from repro.traces.stats import TraceSummary

    with open(args.input, "r", encoding="utf-8") as stream:
        trace = read_application_trace(stream)
    summary = TraceSummary.of(trace)
    print(f"application      : {summary.application}")
    print(f"executions       : {summary.executions}")
    print(f"I/O events       : {summary.total_io_events}")
    print(f"processes (total): {summary.total_processes}")
    for execution in trace.executions[:5]:
        span = execution.end_time - execution.start_time
        print(f"  execution {execution.execution_index}: "
              f"{execution.io_event_count} events, "
              f"{len(execution.pids)} processes, {span:.1f} s")
    if len(trace.executions) > 5:
        print(f"  ... and {len(trace.executions) - 5} more")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Program Counter Based Techniques "
                    "for Dynamic Power Management' (HPCA 2004)",
    )
    parser.add_argument("--fault-plan", metavar="SPEC",
                        help="inject faults per SPEC for any command "
                             "(see repro.faults; $REPRO_FAULT_PLAN is "
                             "the env equivalent)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scale(p):
        p.add_argument("--scale", type=float, default=0.5,
                       help="workload scale (1.0 = the paper's Table 1)")
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes for suite-level runs "
                            "(default: $REPRO_JOBS or 1; 0 = all cores)")
        p.add_argument("--progress", action="store_true",
                       help="report per-cell progress on stderr")
        p.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persist generated traces, filter results, "
                            "cell outcomes and Table 1 rows in DIR "
                            "(default: $REPRO_CACHE_DIR; unset disables "
                            "the artifact cache)")
        p.add_argument("--store", metavar="DIR", default=None,
                       help="run against a packed trace store (see "
                            "'repro trace pack') with memory-bounded "
                            "streaming instead of generating the suite; "
                            "--scale is then ignored (the store fixes "
                            "the workload)")

    p = sub.add_parser("reproduce", help="all tables, figures, and checks")
    add_scale(p)
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser(
        "report", help="generate a Markdown measured-vs-paper report"
    )
    p.add_argument("--out", help="write to a file instead of stdout")
    add_scale(p)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("figure", help="one figure (6-10)")
    p.add_argument("number", type=int)
    p.add_argument("--chart", action="store_true",
                   help="ASCII stacked bars instead of numbers")
    p.add_argument("--svg", metavar="FILE",
                   help="write the figure as a standalone SVG chart")
    add_scale(p)
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("table", help="one table (1-3)")
    p.add_argument("number", type=int)
    add_scale(p)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("simulate", help="one app under one predictor")
    p.add_argument("--app", choices=APPLICATIONS, required=True)
    p.add_argument("--predictor", choices=KNOWN_PREDICTORS, default="PCAP")
    p.add_argument("--trace-out", metavar="FILE",
                   help="record the structured event trace as JSON lines")
    add_scale(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser(
        "trace",
        help="decision timeline of one cell, or trace-store subcommands "
             "(pack, info)",
    )
    p.add_argument("--app", choices=APPLICATIONS, default=None)
    p.add_argument("--predictor", choices=KNOWN_PREDICTORS, default="PCAP")
    p.add_argument("--out", metavar="FILE",
                   help="also write the timeline as JSON lines")
    p.add_argument("--limit", type=int, default=60,
                   help="timeline lines to print (0 = all; default 60)")
    p.add_argument("--capacity", type=int, default=0,
                   help="ring-buffer size; 0 keeps every event (default)")
    p.add_argument("--multistate", action="store_true",
                   help="enable the §7 low-power idle state")
    add_scale(p)
    p.set_defaults(fn=_cmd_trace)
    trace_sub = p.add_subparsers(dest="trace_command", required=False,
                                 metavar="{pack,info}")

    # Flags shared with the parent parser use SUPPRESS defaults so a
    # value parsed before the subcommand (e.g. `trace --scale 1.0 pack`)
    # is not clobbered by a subparser default during the namespace merge.
    tp = trace_sub.add_parser(
        "pack",
        help="pack traces into the on-disk columnar store format",
    )
    tp.add_argument("--out", required=True, metavar="DIR",
                    help="store directory to create (must not exist yet)")
    tp.add_argument("--from", dest="from_jsonl", metavar="FILE",
                    help="pack a JSON-lines trace file (e.g. generate or "
                         "import-strace output) instead of generating "
                         "workloads")
    tp.add_argument("--app", action="append", choices=APPLICATIONS,
                    default=argparse.SUPPRESS,
                    help="generated application subset (repeatable; "
                         "default: all six)")
    tp.add_argument("--scale", type=float, default=argparse.SUPPRESS,
                    help="workload scale for generated traces")
    tp.add_argument("--chunk-rows", type=int, default=None, metavar="N",
                    help="rows per store chunk — the streaming read "
                         "granularity (default 65536)")
    tp.set_defaults(fn=_cmd_trace_pack)

    ti = trace_sub.add_parser("info", help="summarize a packed trace store")
    ti.add_argument("store_dir", metavar="STORE")
    ti.set_defaults(fn=_cmd_trace_info)

    p = sub.add_parser("generate", help="write a workload trace file")
    p.add_argument("--app", choices=APPLICATIONS, required=True)
    p.add_argument("--out", required=True)
    add_scale(p)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("import-strace", help="convert strace -f -ttt -i output")
    p.add_argument("input")
    p.add_argument("--app", default="imported")
    p.add_argument("--out", help="write the converted trace (JSON lines)")
    p.add_argument("--predictor", choices=KNOWN_PREDICTORS,
                   help="also simulate the imported trace")
    p.add_argument("--trace-out", metavar="FILE",
                   help="record the simulation's event trace (JSON lines; "
                        "needs --predictor)")
    p.set_defaults(fn=_cmd_import_strace)

    p = sub.add_parser("inspect", help="summarize a trace file")
    p.add_argument("input")
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser(
        "run",
        help="resilient suite run: retries, timeouts, checkpoint/resume",
    )
    p.add_argument("--predictor", action="append", choices=KNOWN_PREDICTORS,
                   metavar="NAME",
                   help="predictor to run (repeatable; default: PCAP)")
    p.add_argument("--app", action="append", choices=APPLICATIONS,
                   help="application subset (repeatable; default: all)")
    p.add_argument("--multistate", action="store_true",
                   help="enable the §7 low-power idle state")
    p.add_argument("--retries", type=int, default=2,
                   help="retries per cell after the first attempt "
                        "(default 2)")
    p.add_argument("--cell-timeout", type=float, default=None,
                   metavar="SEC",
                   help="per-cell wall-clock timeout (default: none)")
    p.add_argument("--checkpoint", metavar="FILE",
                   help="journal completed cells to FILE (append-only "
                        "JSON lines)")
    p.add_argument("--resume", metavar="FILE",
                   help="resume from FILE: skip cells already journalled "
                        "there, keep journalling new ones")
    p.add_argument("--fault-plan", metavar="SPEC",
                   default=argparse.SUPPRESS,
                   help="inject faults per SPEC (see repro.faults; "
                        "$REPRO_FAULT_PLAN works for every command)")
    add_scale(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "fleet",
        help="simulate a device fleet with the batched columnar engine",
    )
    p.add_argument("--devices", type=int, default=100, metavar="N",
                   help="fleet size; devices are assigned round-robin "
                        "over the applications (default 100)")
    p.add_argument("--predictor", action="append", choices=KNOWN_PREDICTORS,
                   metavar="NAME",
                   help="predictor lane (repeatable; default: PCAP)")
    p.add_argument("--app", action="append", choices=APPLICATIONS,
                   help="application subset (repeatable; default: all)")
    p.add_argument("--tables", choices=("sharded", "shared"),
                   default="sharded",
                   help="prediction-table scope: per-application shards "
                        "(devices independent, bit-identical to "
                        "standalone runs) or one fleet-wide table set")
    p.add_argument("--percentiles", default="50,90,99", metavar="P,P,...",
                   help="slowdown percentiles to report (default "
                        "50,90,99)")
    p.add_argument("--per-device", type=int, default=0, metavar="N",
                   help="also print the first N per-device breakdowns")
    p.add_argument("--retries", type=int, default=2,
                   help="retries per cell after the first attempt "
                        "(default 2)")
    p.add_argument("--cell-timeout", type=float, default=None,
                   metavar="SEC",
                   help="per-cell wall-clock timeout (default: none)")
    p.add_argument("--checkpoint", metavar="FILE",
                   help="journal completed cells to FILE")
    p.add_argument("--resume", metavar="FILE",
                   help="resume from FILE: skip cells already journalled "
                        "there, keep journalling new ones")
    add_scale(p)
    p.set_defaults(fn=_cmd_fleet)

    p = sub.add_parser(
        "faults",
        help="replay a fault plan and verify the pipeline survives it",
    )
    p.add_argument("--plan", metavar="SPEC",
                   help="fault plan to replay (default: the canned chaos "
                        "scenario — worker crash, hung cell, corrupted "
                        "cache entry, malformed trace line)")
    p.add_argument("--cell-timeout", type=float, default=5.0, metavar="SEC",
                   help="per-cell wall-clock timeout (default 5)")
    p.add_argument("--serve", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="also run the serve phase: a live daemon under "
                        "the serve.* fault sites, verified against the "
                        "offline replay (default on; --no-serve skips)")
    add_scale(p)
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser(
        "serve",
        help="run the online DPM service daemon (streaming feed clients, "
             "supervised shard workers, crash-safe state)",
    )
    p.add_argument("--socket", metavar="PATH",
                   help="Unix socket to listen on (control socket at "
                        "PATH.ctl); exactly one of --socket/--tcp")
    p.add_argument("--tcp", metavar="HOST:PORT",
                   help="TCP listen address (control socket at PORT+1)")
    p.add_argument("--state-dir", required=True, metavar="DIR",
                   help="shard journals, checkpoint segments, and the "
                        "quarantine live here; an existing state dir is "
                        "recovered on startup")
    p.add_argument("--predictor", choices=KNOWN_PREDICTORS, default="PCAP")
    p.add_argument("--shards", type=int, default=2, metavar="N",
                   help="supervised worker subprocesses; applications "
                        "hash to shards (default 2)")
    p.add_argument("--checkpoint-every", type=int, default=32, metavar="N",
                   help="journal records between compactions into "
                        "columnar checkpoint segments (default 32)")
    p.add_argument("--stall-timeout", type=float, default=30.0,
                   metavar="SEC",
                   help="per-execution worker deadline before the "
                        "supervisor SIGKILLs and restarts it (default 30)")
    p.add_argument("--max-pending-bytes", type=int,
                   default=8 * 1024 * 1024, metavar="B",
                   help="per-client bound on row payload under assembly "
                        "before a backpressure NACK (default 8 MiB)")
    p.add_argument("--max-queue", type=int, default=64, metavar="N",
                   help="per-shard queue depth before an overloaded "
                        "NACK (default 64)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "bench",
        help="run the throughput benchmarks and the perf-regression gate",
    )
    p.add_argument("--quick", action="store_true",
                   help="small workload (CI perf-smoke mode)")
    p.add_argument("--out", metavar="FILE", default="BENCH_engine.json",
                   help="write the machine-readable report "
                        "(default: BENCH_engine.json; empty disables)")
    p.add_argument("--baseline", metavar="FILE",
                   default="benchmarks/BENCH_engine.json",
                   help="baseline report to gate against "
                        "(default: benchmarks/BENCH_engine.json)")
    p.add_argument("--tolerance", type=float, default=0.30,
                   help="relative throughput drop that fails the gate "
                        "(default: 0.30)")
    p.add_argument("--update-baseline", action="store_true",
                   help="write this run's report as the new baseline "
                        "instead of gating (with --only, merges the "
                        "measured entries into the existing baseline)")
    p.add_argument("--only", action="append", metavar="NAME",
                   help="measure only the named benchmark entry "
                        "(repeatable; the gate skips absent entries)")
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        plan_text = getattr(args, "fault_plan", None)
        if not plan_text and args.command != "faults":
            # The faults command manages its own plan (it must run the
            # fault-free baseline first).
            plan_text = os.environ.get(faults.FAULT_PLAN_ENV_VAR)
        if plan_text:
            faults.install(faults.parse_fault_plan(plan_text))
        return args.fn(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error.strerror or error}: "
              f"{getattr(error, 'filename', '')}", file=sys.stderr)
        return 1
    finally:
        faults.clear()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
