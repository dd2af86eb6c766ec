"""Distributed request telemetry: stages, histograms, aggregation.

Covers the layers bottom-up: the classification and flight-recorder
primitives in :mod:`repro.service.telemetry`; detached (cross-thread,
cross-process) spans in :mod:`repro.obs.trace`; the ``trace`` /
``stages`` envelope fields on the wire; then the live aggregation —
``service.telemetry`` on a single-process service and on a supervised
sharded one, heartbeat piggybacking included — and the satellite
regression: per-session metrics isolation across shards.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import wire
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.service import telemetry
from repro.service.client import ServiceClient
from repro.service.serve import ServiceThread
from repro.service.telemetry import (
    FlightRecorder,
    command_class,
    record_request,
    us,
)
from repro.service.top import render


class TestCommandClass:
    def test_control_plane(self):
        assert command_class("service.ping") == "control"
        assert command_class("service.telemetry") == "control"

    def test_library_commands(self):
        assert command_class("library.publish") == "library"

    def test_reads(self):
        assert command_class("cells") == "read"
        assert command_class("stats") == "read"
        assert command_class("library.resolve") == "library"

    def test_edits_are_the_replayable_commands(self):
        assert command_class("rotate") == "edit"
        assert command_class("new_cell") == "edit"

    def test_everything_else_is_io(self):
        assert command_class("plot") == "io"
        assert command_class("no_such_method") == "io"


class TestUs:
    def test_rounds_to_integer_microseconds(self):
        assert us(0.001) == 1000
        assert us(0.0000004) == 0
        assert us(0.0000006) == 1

    def test_stage_values_are_json_safe_integers(self):
        assert isinstance(us(1.5), int)


class TestFlightRecorder:
    def entry(self, n, method="rotate", error=None):
        return dict(
            method=method, total_us=n, session="s", shard=0,
            trace_id=f"t{n}", stages={"handler": n}, error=error,
        )

    def test_keeps_the_n_slowest_worst_first(self):
        recorder = FlightRecorder(keep=3)
        for n in (5, 1, 9, 7, 3):
            recorder.add(self.entry(n))
        assert [e["total_us"] for e in recorder.slowest()] == [9, 7, 5]

    def test_errored_ring_is_most_recent_first(self):
        recorder = FlightRecorder(keep=2)
        for n in (1, 2, 3):
            recorder.add(self.entry(n, error="boom"))
        assert [e["total_us"] for e in recorder.errored()] == [3, 2]

    def test_errored_requests_do_not_crowd_the_slow_heap(self):
        recorder = FlightRecorder(keep=2)
        recorder.add(self.entry(100, error="boom"))
        recorder.add(self.entry(1))
        slowest = recorder.slowest()
        assert [e["total_us"] for e in slowest] == [100, 1]
        assert [e["total_us"] for e in recorder.errored()] == [100]


class TestTelemetryHub:
    """The telemetry a server keeps: :func:`record_request` into its
    registry and its flight recorder."""

    def record(self, method, **kwargs):
        registry, recorder = MetricsRegistry(), FlightRecorder()
        record_request(registry, recorder, method, **kwargs)
        return registry.snapshot(), recorder

    def test_records_counts_and_histograms_per_class_and_stage(self):
        snap, _ = self.record(
            "rotate",
            total_us=4000,
            stages={"handler": 3000, "fsync": 1000},
        )
        assert snap["rpc.requests"] == 1
        assert snap["rpc.all.total"]["count"] == 1
        assert snap["rpc.edit.total"]["count"] == 1
        assert snap["rpc.all.handler"]["count"] == 1
        assert snap["rpc.edit.fsync"]["count"] == 1
        assert "rpc.errors" not in snap

    def test_errors_count_and_land_in_the_recorder(self):
        snap, recorder = self.record(
            "rotate", total_us=10, error="riot.no_such"
        )
        assert snap["rpc.errors"] == 1
        assert recorder.errored()[0]["error"] == "riot.no_such"
        assert recorder.slowest()[0]["method"] == "rotate"


class TestDetachedSpans:
    def test_begin_allocates_ref_before_close(self):
        tracer = trace.Tracer()
        span = tracer.begin("supervisor.request", method="rotate")
        label, _, span_id = span.ref.partition(":")
        assert label == trace.process_label()
        assert int(span_id) == span.record.span_id
        assert tracer.open_count() == 1
        span.close()
        assert tracer.open_count() == 0
        (rec,) = tracer.finished()
        assert rec.name == "supervisor.request"

    def test_remote_parent_and_trace_id_ride_the_record(self):
        tracer = trace.Tracer()
        span = tracer.begin(
            "shard.request", trace_id="t-1", remote_parent="client:7"
        )
        span.close()
        (rec,) = tracer.finished()
        assert rec.trace_id == "t-1"
        assert rec.remote_parent == "client:7"

    def test_detached_close_off_thread_leaves_stack_alone(self):
        tracer = trace.Tracer()
        span = tracer.begin("shard.request")
        worker = threading.Thread(target=span.close)
        worker.start()
        worker.join()
        with tracer.span("unrelated"):
            pass
        assert {r.name for r in tracer.finished()} == {
            "shard.request", "unrelated"
        }

    def test_module_begin_is_null_span_when_disabled(self):
        span = trace.begin("client.request")
        assert span is trace.NULL_SPAN
        assert span.ref is None
        span.close()  # no-op

    def test_close_is_idempotent(self):
        tracer = trace.Tracer()
        span = tracer.begin("x")
        span.close()
        span.close()
        assert len(tracer.finished()) == 1


class TestEnvelopeFields:
    def request(self):
        from repro.api.registry import spec_for

        return spec_for("rotate").request(name="g0")

    def test_request_trace_context_round_trips(self):
        line = wire.encode_request(
            "rotate", self.request(), id=1,
            trace={"id": "t-1", "parent": "client:3"},
        )
        envelope = wire.parse_request(line)
        assert envelope.trace == {"id": "t-1", "parent": "client:3"}

    def test_request_without_trace_is_total(self):
        # Protocol v1 emits every field always; no context is null.
        line = wire.encode_request("rotate", self.request(), id=1)
        assert '"trace":null' in line
        assert wire.parse_request(line).trace is None

    def test_result_stages_round_trip(self):
        line = wire.encode_result(3, "rotate", {"ok": True},
                                  stages={"handler": 42})
        envelope = wire.parse_response(line)
        assert envelope.stages == {"handler": 42}

    def test_error_carries_stages_too(self):
        line = wire.encode_error(
            4, "riot.no_such", "nope", stages={"handler": 7}
        )
        envelope = wire.parse_response(line)
        assert not envelope.ok
        assert envelope.stages == {"handler": 7}


@pytest.fixture(scope="module")
def single():
    with ServiceThread() as srv:
        yield srv


def drive(host, port, session, commands=3):
    with ServiceClient(host, port, session=session) as client:
        client.call("new_cell", name="bench")
        client.call("create", at=(0, 0), cell_name="nand", name="g0")
        for _ in range(commands):
            client.call("rotate", name="g0")
        return client.call("stats").text, dict(client.last_stages)


class TestSingleProcessTelemetry:
    def test_result_shape_and_stage_histograms(self, single):
        host, port = single.address
        drive(host, port, "tel-single")
        with ServiceClient(host, port) as control:
            result = control.call("service.telemetry", slow=True)
        assert result.process == "server"
        assert result.pid is not None
        assert result.merged["rpc.requests"] >= 5
        assert result.merged["rpc.edit.total"]["count"] >= 5
        for stage in ("shard_queue", "handler", "fsync"):
            assert result.merged[f"rpc.all.{stage}"]["count"] >= 5
        assert result.shards == ()
        assert result.slowest, "flight recorder should have entries"
        worst = result.slowest[0]
        assert worst.total_us > 0 and "handler" in worst.stages

    def test_flight_recorder_gated_by_slow_flag(self, single):
        host, port = single.address
        with ServiceClient(host, port) as control:
            result = control.call("service.telemetry")
        assert result.slowest == () and result.errored == ()

    def test_single_process_responses_carry_shard_side_stages(self, single):
        host, port = single.address
        _, stages = drive(host, port, "tel-stages")
        for stage in ("shard_queue", "handler", "fsync", "client"):
            assert stage in stages
        assert stages["client"] >= stages["handler"]

    def test_render_smoke(self, single):
        host, port = single.address
        with ServiceClient(host, port) as control:
            result = control.call("service.telemetry", slow=True)
        report = render(result, slow=True)
        assert "latency by command class" in report
        assert "latency by stage" in report


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    journal_dir = tmp_path_factory.mktemp("telemetry-wals")
    with ServiceThread(shards=2, journal_dir=journal_dir) as srv:
        yield srv


def shard_of(host, port, session):
    with ServiceClient(host, port) as control:
        listed = control.call("service.sessions").sessions
    (index,) = [s.shard for s in listed if s.name == session]
    return index


class TestShardedTelemetry:
    def test_merged_counts_requests_exactly_once(self, sharded):
        host, port = sharded.address
        with ServiceClient(host, port) as control:
            before = control.call("service.telemetry")
        n_before = before.merged.get("rpc.requests", 0)
        drive(host, port, "tel-count", commands=4)
        with ServiceClient(host, port) as control:
            after = control.call("service.telemetry")
        # new_cell + create + 4 rotates + stats: 7 requests, counted
        # once — not once at the supervisor and again at the shard.
        assert after.merged["rpc.requests"] - n_before == 7
        assert after.process == "supervisor"

    def test_per_shard_views_come_from_heartbeat_piggyback(self, sharded):
        host, port = sharded.address
        drive(host, port, "tel-shardview")
        index = shard_of(host, port, "tel-shardview")
        with ServiceClient(host, port) as control:
            result = control.call("service.telemetry")
        assert len(result.shards) == 2
        by_index = {s.index: s for s in result.shards}
        view = by_index[index]
        assert view.alive
        assert view.metrics is not None
        assert view.metrics["rpc.all.total"]["count"] >= 6
        # The shard's own rpc view keeps only shard-side stages.
        assert f"rpc.all.handler" in view.metrics
        assert "rpc.all.relay" not in view.metrics

    def test_supervisor_counters_stay_out_of_shard_sums(self, sharded):
        host, port = sharded.address
        drive(host, port, "tel-prefix")
        with ServiceClient(host, port) as control:
            result = control.call("service.telemetry")
        supervisor_keys = [
            k for k in result.merged if k.startswith("supervisor.")
        ]
        assert supervisor_keys, "supervisor's own counters are prefixed"
        assert "supervisor.requests" in result.merged
        # The shards' service.* counters sum separately, unprefixed.
        assert result.merged["service.requests"] >= 1

    def test_sharded_stage_decomposition_reaches_the_client(self, sharded):
        # The client negotiated direct routing, so the decomposition is
        # the data-plane one: the shard's own turnaround under
        # ``direct``, no supervisor hop at all.
        host, port = sharded.address
        _, stages = drive(host, port, "tel-decomp")
        for stage in ("client", "direct", "shard_queue", "handler", "fsync"):
            assert stage in stages, stages
        assert "relay" not in stages and "supervisor_queue" not in stages
        assert stages["client"] >= stages["direct"] >= stages["handler"]

    def test_flight_recorder_attributes_shard_and_session(self, sharded):
        host, port = sharded.address
        drive(host, port, "tel-flight")
        with ServiceClient(host, port) as control:
            result = control.call("service.telemetry", slow=True)
        assert result.slowest
        entry = result.slowest[0]
        assert entry.session is not None
        assert entry.shard in (0, 1)
        # Every entry comes from a shard's own recorder: the request
        # went direct, so its stages carry the shard's turnaround.
        assert "direct" in entry.stages

    def test_trace_context_stitches_when_client_traces(self, sharded):
        host, port = sharded.address
        tracer = trace.enable(trace.Tracer())
        previous = trace.set_process_label("client")
        try:
            drive(host, port, "tel-traced", commands=2)
        finally:
            trace.disable()
            trace.set_process_label(previous)
        roots = [
            r for r in tracer.finished() if r.name == "client.request"
        ]
        assert roots
        assert all(r.trace_id for r in roots)
        with ServiceClient(host, port) as control:
            result = control.call("service.telemetry", slow=True)
        traced = [e for e in result.slowest if e.trace_id]
        assert traced, "flight recorder lost the trace ids"
        client_ids = {r.trace_id for r in roots}
        assert {e.trace_id for e in traced} & client_ids


class TestSessionIsolationAcrossShards:
    """Satellite: two concurrent sessions must not bleed counters into
    each other's ``stats`` view across shards."""

    def test_stats_stay_per_session(self, sharded):
        host, port = sharded.address
        # Find two session names that land on different shards.
        names = [f"iso-{i}" for i in range(8)]
        placed: dict[str, int] = {}
        for name in names:
            with ServiceClient(host, port, session=name) as probe:
                probe.call("new_cell", name="bench")
            placed[name] = shard_of(host, port, name)
            if len(set(placed.values())) == 2:
                break
        assert len(set(placed.values())) == 2, placed
        by_shard: dict[int, str] = {v: k for k, v in placed.items()}
        a, b = by_shard.values()

        results: dict[str, str] = {}

        def hammer(session: str, rotations: int) -> None:
            with ServiceClient(host, port, session=session) as client:
                client.call(
                    "create", at=(0, 0), cell_name="nand", name="g0"
                )
                for _ in range(rotations):
                    client.call("rotate", name="g0")
                results[session] = client.call("stats").text

        threads = [
            threading.Thread(target=hammer, args=(a, 6)),
            threading.Thread(target=hammer, args=(b, 2)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # new_cell + create + N rotates, counted per session only
        # (the read-only stats command is not an editor command).
        assert "editor.commands 8" in results[a], results[a]
        assert "editor.commands 4" in results[b], results[b]
