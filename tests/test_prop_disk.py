"""Property tests: disk energy conservation against closed forms."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.disk.disk import SimulatedDisk
from repro.disk.power_model import fujitsu_mhf2043at

PARAMS = fujitsu_mhf2043at()

# Gap/service schedules: (gap_before, service) pairs.
segments = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=120.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=20,
)


@given(segments)
def test_energy_without_shutdowns_matches_closed_form(schedule):
    disk = SimulatedDisk(PARAMS, start_time=0.0)
    t = 0.0
    total_busy = 0.0
    total_idle = 0.0
    for gap, service in schedule:
        t += gap
        disk.serve(t, service)
        total_busy += service
        total_idle += gap
        t += service
    disk.finalize(t)
    expected = (
        PARAMS.busy_power * total_busy + PARAMS.idle_power * total_idle
    )
    assert disk.ledger.total == pytest.approx(expected, rel=1e-9, abs=1e-6)
    assert disk.ledger.power_cycle == 0.0


@given(segments)
def test_energy_with_immediate_shutdowns_matches_closed_form(schedule):
    """Shut down at the start of every gap: energy must equal the sum of
    the power model's per-gap closed forms plus busy energy.  A gap too
    short to shut down in idles at idle power."""
    disk = SimulatedDisk(PARAMS, start_time=0.0)
    t = 0.0
    expected = 0.0
    for gap, service in schedule:
        if gap > 1e-6:
            disk.schedule_shutdown(t)
            expected += PARAMS.energy_shutdown_window(gap)
        else:
            expected += PARAMS.idle_power * gap
        t += gap
        disk.serve(t, service)
        expected += PARAMS.busy_power * service
        t += service
    disk.finalize(t)
    assert disk.ledger.total == pytest.approx(expected, rel=1e-9, abs=1e-6)


@given(segments)
def test_shutdowns_never_increase_energy_beyond_base_plus_cycles(schedule):
    """A managed disk can cost at most one cycle energy extra per gap."""
    base = SimulatedDisk(PARAMS, start_time=0.0)
    managed = SimulatedDisk(PARAMS, start_time=0.0)
    t = 0.0
    gaps = 0
    for gap, service in schedule:
        if gap > 1e-6:
            managed.schedule_shutdown(t)
            gaps += 1
        t += gap
        base.serve(t, service)
        managed.serve(t, service)
        t += service
    base.finalize(t)
    managed.finalize(t)
    assert managed.ledger.total <= (
        base.ledger.total + gaps * PARAMS.cycle_energy + 1e-6
    )


@given(segments)
def test_ledger_components_are_non_negative(schedule):
    disk = SimulatedDisk(PARAMS, start_time=0.0)
    t = 0.0
    for index, (gap, service) in enumerate(schedule):
        if gap > 1e-6 and index % 2 == 0:
            disk.schedule_shutdown(t + gap / 2)
        t += gap
        disk.serve(t, service)
        t += service
    disk.finalize(t)
    ledger = disk.ledger
    assert ledger.busy >= 0
    assert ledger.idle_short >= 0
    assert ledger.idle_long >= 0
    assert ledger.power_cycle >= 0
    assert ledger.standby >= 0
