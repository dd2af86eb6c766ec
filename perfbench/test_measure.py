"""Tests of the benchmark's own logic.  Run from the repository root:
``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import measure, run


def test_percentiles_carry_their_sample_count():
    values = list(range(1, 201))  # 1..200
    summary = measure.summarize(values)
    assert summary == measure.Percentiles(n=200, p50=100, p99=198)
    assert measure.summarize([]) == measure.Percentiles(0, 0.0, 0.0)


def test_scale_takes_the_host_speed_out():
    ref = measure.REFERENCE_S
    assert measure.scale(0.2, ref, ref) == pytest.approx(0.2)
    # A host running the calibration pass at half speed ran the work
    # at half speed too.
    assert measure.scale(0.4, 2 * ref, 2 * ref) == pytest.approx(0.2)
    assert measure.scale(0.3, ref, 2 * ref) == pytest.approx(0.2)


def test_percentile_is_nearest_rank():
    assert measure.percentile([5.0], 99) == 5.0
    assert measure.percentile([3, 1, 2], 50) == 2
    assert measure.percentile([1, 2, 3, 4], 50) == 2
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    assert measure.median([1, 2, 3, 4]) == 2.5


def test_schedule_repeats_for_a_seed_and_differs_across_seeds():
    first = measure.arrival_schedule(7, "nominal", 500.0, 2.0, 64)
    assert first == measure.arrival_schedule(7, "nominal", 500.0, 2.0, 64)
    assert first != measure.arrival_schedule(8, "nominal", 500.0, 2.0, 64)
    assert first != measure.arrival_schedule(7, "step0", 500.0, 2.0, 64)


def test_schedule_shape():
    arrivals = measure.arrival_schedule(1, "nominal", 1000.0, 5.0, 64)
    times = [a.t for a in arrivals]
    assert times == sorted(times) and 0 < times[0] and times[-1] < 5.0
    assert 4500 < len(arrivals) < 5500  # Poisson, mean 5000
    assert {a.seat for a in arrivals} == set(range(64))
    reads = [a for a in arrivals if not a.is_edit]
    assert len(reads) == len(arrivals) // measure.READ_EVERY
    assert {a.method for a in arrivals} == {"rotate", "move_by", "cells"}


def _step(offered, p99=10.0, failures=0, late=1.0, first=3.0, second=3.5):
    return measure.StepResult(
        offered_rps=offered,
        achieved_rps=offered * 0.99,
        edit_p99_ms=p99,
        edits=int(offered),
        failures=failures,
        gen_late_p99_ms=late,
        outstanding_first=first,
        outstanding_second=second,
    )


def test_sustained_is_the_highest_passing_step():
    steps = [_step(1000), _step(1100), _step(1210, p99=60.0), _step(1331)]
    assert measure.sustained_step(steps).offered_rps == 1331
    assert measure.sustained_step(steps[:3]).offered_rps == 1100


def test_each_failure_mode_fails_a_step():
    for bad in (
        _step(1100, p99=measure.SLO_MS),
        _step(1100, failures=1),
        _step(1100, late=measure.LATE_LIMIT_MS + 0.1),
        _step(1100, first=3.0, second=20.0),
        dataclasses.replace(_step(1100), cut_short=True),
    ):
        assert not bad.passed()
        assert measure.sustained_step([_step(1000), bad]).offered_rps == 1000


def test_no_sustained_rate_when_no_step_passes():
    assert measure.sustained_step([_step(1000, failures=3)]) is None
    assert measure.sustained_step([]) is None


def test_ramp_ends_after_consecutive_failures():
    bad = _step(1210, p99=80.0)
    assert not measure.ramp_over([_step(1000), bad])
    assert not measure.ramp_over([bad, _step(1100), bad])
    assert measure.ramp_over([_step(1000), bad, bad])


def test_backlog_tolerates_equilibrium_jitter():
    assert not _step(1000, first=5.0, second=15.5).backlog_grew
    assert _step(1000, first=5.0, second=15.6).backlog_grew
    assert _step(1000, first=11.9, second=54.8).backlog_grew


def test_attribution_parts_sum_to_client_latency():
    stages = {"shard_queue": 120, "handler": 830, "fsync": 400, "direct": 952}
    parts = measure.attribute(2100, stages)
    assert parts["wire"] == 1148
    assert parts["wire"] + parts["shard_queue"] + parts["handler"] + parts["other"] == 2100
    # Queue plus handler cover the shard's turnaround to within rounding.
    assert abs(parts["other"]) <= 2
    assert parts["fsync"] <= parts["handler"]


def test_attribution_of_a_read_has_no_fsync():
    parts = measure.attribute(900, {"shard_queue": 10, "handler": 200, "fsync": 0, "direct": 211})
    assert parts["fsync"] == 0
    assert sum(parts[k] for k in ("wire", "shard_queue", "handler", "other")) == 900


def test_counts_are_layer_metrics_and_bounds_fit_the_contract():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert set(run.COUNTS) <= {m["name"] for m in spec["per_layer"]}
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


class _Scenario:
    """A stand-in scenario whose slices record when they ran."""

    def __init__(self, name, total, trace, clock=None):
        self.name, self.total, self.trace, self.clock = name, total, trace, clock

    def slices(self):
        for i in range(self.total):
            self.trace.append((self.name, i))
            if self.clock is not None:
                self.clock[0] += 1.0
            yield


def test_interleave_spreads_probe_slices_over_the_run(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    trace = []
    own = _Scenario("own", 10, trace, clock)  # one second per slice
    probe = _Scenario("probe", 5, trace)
    run.interleave(own, [probe], seconds=10.0)
    order = [name for name, _ in trace]
    assert order.count("probe") == 5 and order.count("own") == 10
    # A probe slice whenever own time passes another fifth of the run.
    assert order == ["own", "probe"] + ["own", "own", "probe"] * 4 + ["own"]


def test_interleave_finishes_probes_when_own_work_ends_early():
    trace = []
    run.interleave(_Scenario("own", 1, trace), [_Scenario("probe", 3, trace)], seconds=1e6)
    assert [name for name, _ in trace] == ["own", "probe", "probe", "probe"]
