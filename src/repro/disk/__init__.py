"""Disk power model substrate (paper Table 2).

Public surface:

* :class:`DiskPowerParameters` / :func:`fujitsu_mhf2043at` — electrical
  and timing parameters plus the derived breakeven time;
* :class:`SimulatedDisk` — event-driven three-state drive with the
  Figure-8 energy ledger;
* :class:`MultiStateDisk` — §7 extension with a low-power idle state;
* :class:`EnergyBreakdown` — the ledger itself;
* :class:`DiskState` — power states.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".disk": ("GapReport", "SimulatedDisk"),
    ".energy": ("EnergyBreakdown", "sum_breakdowns"),
    ".multistate": ("MultiStateDisk",),
    ".power_model": ("DiskPowerParameters", "fujitsu_mhf2043at"),
    ".states": (
        "LEGAL_TRANSITIONS", "DiskState", "check_transition", "is_spun_up",
    ),
})
