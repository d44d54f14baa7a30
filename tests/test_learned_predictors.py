"""Learning-augmented predictor family (repro.predictors.learned).

The contracts under test:

* **Seeded determinism** — the same Q-DPM seed produces bit-identical
  results on every execution substrate: serial, 2-worker pool, fused
  kernel, store-backed streaming traces, and the resilient executor
  with an injected worker crash.  Exploration is a counter-indexed
  hash stream, so determinism follows from the engine's fixed call
  order — these tests are the regression net for that ordering.
* **λ extremes** — the learned ski rental degenerates exactly as the
  theory says: λ = 0 is bit-identical to its advice source (PCAP with
  the backup timeout disabled), λ = 1 matches the breakeven-timeout
  policy (TP-BE) in every energy- and coverage-level field (only the
  PRIMARY/BACKUP attribution differs, by construction).
* **Registry ergonomics** — unknown predictor names fail with a typed
  ConfigurationError listing the registry and close-match suggestions.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro import faults
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultSpec
from repro.predictors.learned import (
    QDPMVariant,
    exploration_draw,
    multistate_schedule,
)
from repro.predictors.learned.feedback import PIControllerVariant
from repro.core.variants import PCAPVariant, PCAPVariantConfig
from repro.predictors.registry import (
    KNOWN_PREDICTORS,
    PredictorSpec,
    make_spec,
    qdpm_spec,
    ski_spec,
)
from repro.sim.experiment import ExperimentRunner
from repro.sim.fused import run_fused_application
from repro.sim.parallel import fork_available
from repro.sim.resilience import ResiliencePolicy
from repro.workloads import build_suite, pack_generated
from repro.workloads.extremes import build_clockwork
from tests.helpers import classic_matrix

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="pool path needs the fork start method"
)

QUICK = ResiliencePolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)

APPS = ("mozilla", "mplayer")
LEARNED = ("QDPM", "SKI", "PI")


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def runner(config):
    return ExperimentRunner(
        build_suite(scale=0.25, applications=APPS), config
    )


@pytest.fixture(scope="module")
def parallel_runner(config):
    return ExperimentRunner(
        build_suite(scale=0.25, applications=APPS), config
    )


def result_without_name(result) -> dict:
    """Every ApplicationResult field except the predictor label."""
    return {
        field.name: getattr(result, field.name)
        for field in fields(result)
        if field.name != "predictor"
    }


# ---------------------------------------------------------------------------
# Exploration stream
# ---------------------------------------------------------------------------


def test_exploration_draw_is_a_pure_function():
    stream = [exploration_draw(7, n) for n in range(100)]
    again = [exploration_draw(7, n) for n in range(100)]
    assert stream == again
    assert all(0.0 <= u < 1.0 for u in stream)


def test_exploration_draw_seed_sensitivity():
    assert [exploration_draw(0, n) for n in range(20)] != [
        exploration_draw(1, n) for n in range(20)
    ]


# ---------------------------------------------------------------------------
# Q-DPM unit behaviour
# ---------------------------------------------------------------------------


def test_qdpm_hyperparameter_validation(config):
    with pytest.raises(ConfigurationError):
        QDPMVariant(config, epsilon=1.5)
    with pytest.raises(ConfigurationError):
        QDPMVariant(config, learning_rate=0.0)
    with pytest.raises(ConfigurationError):
        QDPMVariant(config, discount=1.0)


def test_qdpm_greedy_when_epsilon_zero(config):
    shared = QDPMVariant(config, epsilon=0.0)
    state = (1, 2)
    shared.q[(state, 2)] = 1.0
    assert shared.choose(state) == 2
    # Ties break toward the lowest rung.
    assert shared.choose((0, 0)) == 0


def test_qdpm_reward_shape(config):
    shared = QDPMVariant(config)
    breakeven = config.breakeven
    wait_rung = 0  # delay = wait_window
    never_rung = len(shared.actions) - 1
    # Paying shutdown: off-window beats breakeven.
    assert shared.reward(wait_rung, breakeven * 3) == 1.0
    # Premature fire: fired but off-window below breakeven.
    assert shared.reward(wait_rung, config.wait_window + 0.1) == -1.0
    # Correct restraint on a short gap / slept-through long gap.
    assert shared.reward(never_rung, breakeven / 2) == 0.5
    assert shared.reward(never_rung, breakeven * 3) == -1.0


def test_qdpm_learns_a_table(runner, config):
    spec = qdpm_spec(config)
    result = runner.run_global("mozilla", spec)
    assert result.table_size > 0
    assert result.predictor == "QDPM"


def test_qdpm_spec_name_pins_hyperparameters(config):
    assert qdpm_spec(config).name == "QDPM"
    assert "seed=3" in qdpm_spec(config, seed=3).name


# ---------------------------------------------------------------------------
# Registry ergonomics
# ---------------------------------------------------------------------------


def test_unknown_predictor_suggests_close_matches(config):
    with pytest.raises(ConfigurationError) as excinfo:
        make_spec("QDMP", config)
    message = str(excinfo.value)
    assert "did you mean" in message
    assert "QDPM" in message


def test_unknown_predictor_lists_registry(config):
    with pytest.raises(ConfigurationError) as excinfo:
        make_spec("not-a-predictor-at-all", config)
    message = str(excinfo.value)
    for name in KNOWN_PREDICTORS:
        assert name in message


def test_learned_names_registered(config):
    for name in LEARNED:
        assert name in KNOWN_PREDICTORS
        assert make_spec(name, config).name == name


# ---------------------------------------------------------------------------
# Seeded determinism across execution substrates
# ---------------------------------------------------------------------------


def test_same_seed_bit_identical_serial(runner, config):
    for name in LEARNED:
        first = runner.run_global("mozilla", make_spec(name, config))
        second = runner.run_global("mozilla", make_spec(name, config))
        assert first == second, name


def test_learned_fused_matches_classic(runner, config):
    for application in APPS:
        fused = run_fused_application(
            runner,
            application,
            [make_spec(name, config) for name in LEARNED],
        )
        classic = [
            runner.run_global(application, make_spec(name, config))
            for name in LEARNED
        ]
        assert fused == classic, application


@needs_fork
def test_learned_pooled_matches_serial(parallel_runner):
    pooled = parallel_runner.run_matrix(LEARNED, applications=APPS, jobs=2)
    serial = parallel_runner.run_matrix(LEARNED, applications=APPS, jobs=1)
    assert pooled == serial == classic_matrix(parallel_runner, LEARNED, APPS)


def test_learned_store_backed_matches_in_memory(tmp_path, runner, config):
    store = pack_generated(
        tmp_path / "store", scale=0.25, applications=APPS, chunk_rows=512
    )
    stored = ExperimentRunner(store.suite(), config)
    for name in LEARNED:
        from_store = stored.run_global("mozilla", make_spec(name, config))
        in_memory = runner.run_global("mozilla", make_spec(name, config))
        assert from_store == in_memory, name


@needs_fork
def test_learned_resilient_crash_retry_identical(parallel_runner):
    plan = FaultPlan([FaultSpec(site="worker.crash", cell=0, attempts=1)])
    with faults.injected(plan):
        report = parallel_runner.run_matrix_resilient(
            LEARNED, applications=APPS, jobs=2, policy=QUICK
        )
    assert report.complete
    assert [e.kind for e in report.ledger.retries] == ["crash"]
    assert report.matrix == classic_matrix(parallel_runner, LEARNED, APPS)


# ---------------------------------------------------------------------------
# Ski-rental λ extremes
# ---------------------------------------------------------------------------


def no_backup_pcap_spec(config) -> PredictorSpec:
    """PCAP with its backup timeout disabled — SKI's advice source.

    Built directly (``pcap_spec`` force-resolves the config's backup
    timeout, which is exactly what the advice must not have).
    """
    shared = PCAPVariant(
        PCAPVariantConfig(
            wait_window=config.wait_window, backup_timeout=None
        )
    )
    return PredictorSpec(
        name="PCAP-noback",
        local_factory=shared.create_local,
        end_execution_hook=shared.on_execution_end,
        table_size_fn=lambda: shared.table_size,
    )


def test_lambda_zero_is_pure_advice(runner, config):
    """λ = 0 trusts the table completely: bit-identical to no-backup
    PCAP in every field except the predictor label."""
    for application in APPS:
        ski = runner.run_global(application, ski_spec(config, lam=0.0))
        advice = runner.run_global(application, no_backup_pcap_spec(config))
        assert result_without_name(ski) == result_without_name(advice)


def test_lambda_one_is_pure_ski_rental(runner, config):
    """λ = 1 ignores the advice: both branches collapse to the breakeven
    timeout, so everything the energy model sees matches TP-BE.  (Only
    the PRIMARY/BACKUP attribution differs: SKI's hedge timer reports as
    the backup channel.)"""
    for application in APPS:
        ski = runner.run_global(application, ski_spec(config, lam=1.0))
        tpbe = runner.run_global(application, make_spec("TP-BE", config))
        assert ski.ledger == tpbe.ledger
        assert ski.shutdowns == tpbe.shutdowns
        assert ski.stats.hits == tpbe.stats.hits
        assert ski.stats.misses == tpbe.stats.misses
        assert ski.delayed_requests == tpbe.delayed_requests
        assert ski.delay_seconds == tpbe.delay_seconds


def test_ski_lambda_validation(config):
    with pytest.raises(ConfigurationError):
        ski_spec(config, lam=-0.1)
    with pytest.raises(ConfigurationError):
        ski_spec(config, lam=1.1)


def test_ski_pairs_with_multistate_disk(runner):
    """The multi-state pairing of Antoniadis et al.: deeper low-power
    states can only help a policy that already avoids premature fires."""
    flat = runner.run_global("mozilla", "SKI")
    laddered = runner.run_global("mozilla", "SKI", multistate=True)
    assert laddered.energy < flat.energy


# ---------------------------------------------------------------------------
# Multi-state λ schedule
# ---------------------------------------------------------------------------

LADDER = ((1.0, 0.0), (0.6, 2.0), (0.2, 8.0))


def test_multistate_schedule_advice_free_is_classic():
    schedule = multistate_schedule(LADDER, 1.0, advice_long=True)
    assert schedule == [2.0 / 0.4, 8.0 / 0.8]
    assert schedule == multistate_schedule(LADDER, 1.0, advice_long=False)


def test_multistate_schedule_scales_with_lambda():
    eager = multistate_schedule(LADDER, 0.5, advice_long=True)
    wary = multistate_schedule(LADDER, 0.5, advice_long=False)
    classic = multistate_schedule(LADDER, 1.0, advice_long=True)
    assert all(e < c < w for e, c, w in zip(eager, classic, wary))
    # Full trust on a predicted-short gap: never transition.
    assert multistate_schedule(LADDER, 0.0, advice_long=False) == [
        float("inf"),
        float("inf"),
    ]
    # Schedules are non-decreasing down the ladder.
    for schedule in (eager, wary, classic):
        assert schedule == sorted(schedule)


def test_multistate_schedule_validation():
    with pytest.raises(ConfigurationError):
        multistate_schedule(LADDER, 2.0, advice_long=True)
    with pytest.raises(ConfigurationError):
        multistate_schedule(((1.0, 0.0), (1.0, 2.0)), 1.0, advice_long=True)
    with pytest.raises(ConfigurationError):
        multistate_schedule(((1.0, 0.0), (0.5, -1.0)), 1.0, advice_long=True)
    assert multistate_schedule(((1.0, 0.0),), 1.0, advice_long=True) == []


# ---------------------------------------------------------------------------
# PI feedback controller
# ---------------------------------------------------------------------------


def test_pi_gain_validation(config):
    with pytest.raises(ConfigurationError):
        PIControllerVariant(config, setpoint=1.0)
    with pytest.raises(ConfigurationError):
        PIControllerVariant(config, kp=0.0, ki=0.0)
    with pytest.raises(ConfigurationError):
        PIControllerVariant(config, smoothing=0.0)


def test_pi_timeout_tightens_on_friendly_workload(config):
    """On clockwork every gap is long: no premature fires, irritation
    stays under the setpoint, and the controller ratchets the timeout
    down from the configured TP timer."""
    shared = PIControllerVariant(config)
    spec = PredictorSpec(
        name="PI-probe",
        local_factory=shared.create_local,
        end_execution_hook=shared.on_execution_end,
        table_size_fn=lambda: shared.table_size,
    )
    runner = ExperimentRunner({"clockwork": build_clockwork(8)}, config)
    runner.run_global("clockwork", spec)
    assert shared.updates > 0
    assert shared.timeout < config.timeout
    assert shared.timeout >= shared.min_timeout
