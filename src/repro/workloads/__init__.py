"""Synthetic workload substrate: behaviour models of the paper's six
traced applications (Table 1), plus the generator machinery."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".activities": (
        "HelperProcess", "IOStep", "Phase", "Routine", "RoutineMix", "Think",
        "ThinkTimeModel", "burst", "read_loop", "routine",
    ),
    ".aliasing": ("build_pc_alias",),
    ".extremes": (
        "build_chaos", "build_clockwork", "build_extremes",
        "build_shapeshifter",
    ),
    ".calibration": (
        "CalibrationRow", "calibration_report", "render_calibration",
    ),
    ".base": (
        "ApplicationSpec", "FileSpace", "TraceBuilder",
        "build_application_trace", "build_execution", "execution_count",
    ),
    ".rng": ("lognormal", "make_rng", "stable_pc", "stable_seed"),
    ".streaming": (
        "iter_application_executions", "iter_suite_executions",
        "pack_generated",
    ),
    ".suite": (
        "APPLICATIONS", "application_spec", "build_application", "build_suite",
    ),
})
