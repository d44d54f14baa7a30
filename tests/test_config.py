"""SimulationConfig validation and derived quantities."""

import pytest

from repro.cache.page_cache import CacheConfig
from repro.config import SimulationConfig, paper_config
from repro.errors import ConfigurationError


def test_paper_defaults():
    config = paper_config()
    assert config.wait_window == 1.0
    assert config.timeout == 10.0
    assert config.cache.capacity_bytes == 256 * 1024
    assert config.cache.flush_interval == 30.0
    assert config.breakeven == pytest.approx(5.43, abs=0.03)


def test_access_duration_scales_with_blocks():
    config = SimulationConfig()
    assert config.access_duration(0) == pytest.approx(config.service_time)
    assert config.access_duration(10) > config.access_duration(1)


def test_wait_window_must_stay_below_breakeven():
    with pytest.raises(ConfigurationError):
        SimulationConfig(wait_window=6.0)


def test_nonpositive_timeout_rejected():
    with pytest.raises(ConfigurationError):
        SimulationConfig(timeout=0.0)


def test_negative_service_time_rejected():
    with pytest.raises(ConfigurationError):
        SimulationConfig(service_time=-0.1)


def test_custom_cache_config_carried():
    cache = CacheConfig(capacity_bytes=1024 * 1024)
    config = SimulationConfig(cache=cache)
    assert config.cache.capacity_blocks == 256


def test_config_is_immutable():
    config = SimulationConfig()
    with pytest.raises(Exception):
        config.timeout = 5.0


# --- environment-variable resolution (REPRO_JOBS) ---------------------------
#
# Malformed values used to fall back silently (not-a-number meant
# "serial"), which turned configuration mistakes into wrong execution
# strategies without a word.  The resolver now raises ConfigurationError
# with the offending value spelled out.


def test_default_jobs_strict_env(monkeypatch):
    from repro.config import JOBS_ENV_VAR, default_jobs

    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    assert default_jobs() == 1

    monkeypatch.setenv(JOBS_ENV_VAR, "")
    assert default_jobs() == 1  # empty is "unset", not an error

    monkeypatch.setenv(JOBS_ENV_VAR, " 4 ")
    assert default_jobs() == 4  # surrounding whitespace tolerated

    monkeypatch.setenv(JOBS_ENV_VAR, "0")
    assert default_jobs() >= 1  # 0 = all cores (CI relies on this)

    monkeypatch.setenv(JOBS_ENV_VAR, "abc")
    with pytest.raises(ConfigurationError, match="REPRO_JOBS='abc'"):
        default_jobs()

    monkeypatch.setenv(JOBS_ENV_VAR, "2.5")
    with pytest.raises(ConfigurationError):
        default_jobs()

    monkeypatch.setenv(JOBS_ENV_VAR, "-1")
    with pytest.raises(ConfigurationError, match="negative"):
        default_jobs()

