"""RestartGovernor policy: backoff doubling, progress resets, the
crash-loop circuit breaker and its half-open probe — all against an
injected clock, no processes involved."""

from __future__ import annotations

import pytest

from repro.service.health import RestartGovernor


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def governor(**kwargs) -> tuple[RestartGovernor, FakeClock]:
    clock = FakeClock()
    defaults = dict(
        base_delay=0.05, max_delay=2.0, max_failures=5, cooldown=15.0
    )
    defaults.update(kwargs)
    return RestartGovernor(clock=clock, **defaults), clock


class TestBackoff:
    def test_progress_death_restarts_at_base_delay(self):
        gov, _ = governor()
        assert gov.record_death(progress=True) == 0.05
        assert not gov.circuit_open

    def test_no_progress_deaths_double_the_delay(self):
        gov, _ = governor()
        delays = [gov.record_death(progress=False) for _ in range(4)]
        assert delays == [0.05, 0.1, 0.2, 0.4]

    def test_delay_caps_at_max(self):
        gov, _ = governor(max_delay=0.2, max_failures=100)
        delays = [gov.record_death(progress=False) for _ in range(5)]
        assert delays == [0.05, 0.1, 0.2, 0.2, 0.2]

    def test_progress_resets_the_streak(self):
        gov, _ = governor()
        gov.record_death(progress=False)
        gov.record_death(progress=False)
        gov.record_progress()
        assert gov.record_death(progress=False) == 0.05

    def test_progressful_death_resets_the_streak(self):
        gov, _ = governor()
        gov.record_death(progress=False)
        gov.record_death(progress=False)
        gov.record_death(progress=True)
        assert gov.record_death(progress=False) == 0.05


class TestCircuitBreaker:
    def test_opens_after_max_consecutive_failures(self):
        gov, _ = governor(max_failures=3)
        gov.record_death(progress=False)
        assert not gov.circuit_open
        gov.record_death(progress=False)
        assert not gov.circuit_open
        assert gov.record_death(progress=False) == 15.0
        assert gov.circuit_open

    def test_retry_after_counts_down_with_the_clock(self):
        gov, clock = governor(max_failures=1, cooldown=10.0)
        gov.record_death(progress=False)
        assert 9_000 < gov.retry_after_ms() <= 10_001
        clock.now += 6.0
        assert 3_000 < gov.retry_after_ms() <= 4_001

    def test_half_open_after_cooldown(self):
        gov, clock = governor(max_failures=1, cooldown=10.0)
        gov.record_death(progress=False)
        assert gov.circuit_open
        clock.now += 10.0
        assert not gov.circuit_open  # half-open: one attempt allowed

    def test_progress_closes_the_circuit(self):
        gov, clock = governor(max_failures=2, cooldown=10.0)
        gov.record_death(progress=False)
        gov.record_death(progress=False)
        assert gov.circuit_open
        clock.now += 10.0
        gov.record_progress()  # the probe served a command
        assert not gov.circuit_open
        assert gov.retry_after_ms() == 0
        # and the streak restarted from zero
        assert gov.record_death(progress=False) == 0.05

    def test_failed_probe_reopens(self):
        gov, clock = governor(max_failures=1, cooldown=10.0)
        gov.record_death(progress=False)
        clock.now += 10.0
        assert gov.record_death(progress=False) == 10.0  # probe died too
        assert gov.circuit_open


class TestValidation:
    def test_rejects_bad_delays(self):
        with pytest.raises(ValueError):
            RestartGovernor(base_delay=0.0)
        with pytest.raises(ValueError):
            RestartGovernor(base_delay=1.0, max_delay=0.5)

    def test_rejects_bad_max_failures(self):
        with pytest.raises(ValueError):
            RestartGovernor(max_failures=0)
