"""The metrics registry."""

import sys
import threading

import pytest

from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry


class TestInstruments:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(4)
        assert reg.snapshot() == {"hits": 5}

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3)
        reg.gauge("depth").set(7)
        assert reg.snapshot() == {"depth": 7}

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for value in (2, 8, 5):
            reg.histogram("tracks").observe(value)
        assert reg.snapshot()["tracks"] == {
            "count": 3,
            "total": 15,
            "min": 2,
            "max": 8,
            "mean": 5.0,
        }

    def test_empty_histogram_summary(self):
        reg = MetricsRegistry()
        summary = reg.histogram("empty").summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(TypeError, match="Counter"):
            reg.gauge("x")

    def test_snapshot_is_key_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zebra").inc()
        reg.counter("apple").inc()
        assert list(reg.snapshot()) == ["apple", "zebra"]

    def test_render_text(self):
        reg = MetricsRegistry()
        reg.counter("wal.appends").inc(3)
        reg.histogram("river.tracks").observe(2)
        text = reg.render_text()
        assert "wal.appends 3" in text
        assert "river.tracks count=1 total=2 min=2 max=2 mean=2" in text

    def test_render_text_when_empty(self):
        assert MetricsRegistry().render_text() == "(no metrics recorded)"

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.snapshot() == {}

    def test_concurrent_updates_lose_nothing(self):
        # More threads than cores and a short switch interval; every
        # counter name is first looked up by all the threads at once, so
        # each must reach the same instrument and every update land.
        threads, rounds = 8, 2000
        reg = MetricsRegistry()
        barrier = threading.Barrier(threads)

        def work():
            barrier.wait(timeout=30)
            for i in range(rounds):
                reg.counter(f"c.{i}").inc()
                reg.quantile_histogram(f"h.{i % 4}").observe(0.001)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        snap = reg.snapshot()
        assert [snap[f"c.{i}"] for i in range(rounds)] == [threads] * rounds
        observed = sum(snap[f"h.{k}"]["count"] for k in range(4))
        assert observed == threads * rounds


class TestModuleRegistry:
    def test_module_helpers_hit_the_default_registry(self):
        metrics.counter("m.c").inc(2)
        metrics.gauge("m.g").set(1.5)
        metrics.histogram("m.h").observe(10)
        snap = metrics.registry().snapshot()
        assert snap["m.c"] == 2
        assert snap["m.g"] == 1.5
        assert snap["m.h"]["count"] == 1

    def test_set_registry_swaps_and_restores(self):
        fresh = MetricsRegistry()
        previous = metrics.set_registry(fresh)
        try:
            metrics.counter("only.here").inc()
            assert "only.here" in fresh.snapshot()
            assert "only.here" not in previous.snapshot()
        finally:
            metrics.set_registry(previous)
