"""ServiceClient retry/backoff against a scripted fake server: which
codes retry, which raise, how ``retry_after_ms`` paces, and the
connect-time backoff window."""

from __future__ import annotations

import json
import random
import socket
import threading
import time

import pytest

from repro.api.errors import UnknownCommand
from repro.api.types import PROTOCOL_VERSION
from repro.api.wire import encode_error, encode_result
from repro.errors import ReproError
from repro.service.client import NO_RETRY, RetryPolicy, ServiceClient
from repro.service.control import HelloResult, PingResult
from repro.service.errors import (
    BackpressureError,
    OverloadedError,
    SessionMovedError,
    ShardFailedError,
)

#: A fast schedule so tests spend milliseconds, not seconds.
FAST = RetryPolicy(
    attempts=8, base_delay=0.005, max_delay=0.02, connect_window=5.0, seed=7
)


def _respond(behavior: str, envelope: dict) -> str | None:
    """The wire line a scripted behavior answers with (None = hang up)."""
    id, method = envelope.get("id"), envelope.get("method", "")
    if behavior == "ok":
        if method == "service.ping":
            return encode_result(
                id, method, PingResult(version=PROTOCOL_VERSION, sessions=0)
            )
        # Echo-style success for session commands under test.
        from repro.api.registry import spec_for

        result = spec_for(method).result(**envelope.get("params", {}))
        return encode_result(id, method, result)
    if behavior == "overloaded":
        return encode_error(
            id, OverloadedError("shed", retry_after_ms=10)
        )
    if behavior == "backpressure":
        return encode_error(id, BackpressureError("queue full"))
    if behavior == "shard_failed":
        return encode_error(
            id, ShardFailedError("shard died", retry_after_ms=5)
        )
    if behavior == "moved":
        return encode_error(
            id,
            SessionMovedError(
                "route generation 0 is stale", retry_after_ms=5
            ),
        )
    assert behavior == "drop"
    return None


class ScriptedServer:
    """One behavior per request, in order; 'drop' closes the socket
    (the client is expected to reconnect for the next behavior).

    ``service.hello`` is answered transparently — not scripted, not
    recorded — because every new client opens with the handshake;
    ``hello=False`` simulates a pre-handshake server that rejects it
    with ``api.unknown_command``.  Either way no capabilities are
    advertised, so clients under test send everything on the socket
    they hold."""

    def __init__(self, behaviors: list[str], *, hello: bool = True) -> None:
        self.hello = hello
        self.behaviors = list(behaviors)
        self.requests: list[dict] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.1)  # poll _closing while accepting
        self.port = self._listener.getsockname()[1]
        self._closing = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while self.behaviors and not self._closing:
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(0.1)  # poll _closing while reading
            # The makefile must be closed explicitly below: it holds
            # the fd open past conn.close(), so a 'drop' would never
            # actually send FIN to the client otherwise.
            file = conn.makefile("rwb")
            try:
                while self.behaviors and not self._closing:
                    try:
                        raw = file.readline()
                    except socket.timeout:
                        continue
                    if not raw:
                        break
                    envelope = json.loads(raw)
                    if envelope.get("method") == "service.hello":
                        if self.hello:
                            answer = encode_result(
                                envelope.get("id"),
                                "service.hello",
                                HelloResult(
                                    version=PROTOCOL_VERSION,
                                    server="scripted",
                                    capabilities=(),
                                ),
                            )
                        else:
                            answer = encode_error(
                                envelope.get("id"),
                                UnknownCommand(
                                    "unknown command 'service.hello'"
                                ),
                            )
                        file.write(answer.encode() + b"\n")
                        file.flush()
                        continue
                    self.requests.append(envelope)
                    behavior = self.behaviors.pop(0)
                    response = _respond(behavior, envelope)
                    if response is None:
                        break  # hang up; next behavior reconnects
                    file.write(response.encode() + b"\n")
                    file.flush()
            finally:
                file.close()
                conn.close()

    def close(self) -> None:
        self._closing = True
        self._listener.close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "ScriptedServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def client_for(server: ScriptedServer, **kwargs) -> ServiceClient:
    kwargs.setdefault("retry", FAST)
    return ServiceClient("127.0.0.1", server.port, session="s", **kwargs)


class TestErrorRetries:
    def test_overloaded_retried_until_success(self):
        with ScriptedServer(["overloaded", "overloaded", "ok"]) as srv:
            with client_for(srv) as client:
                result = client.call("new_cell", name="top")
        assert result.name == "top"
        assert client.retries == 2

    def test_backpressure_retried(self):
        with ScriptedServer(["backpressure", "ok"]) as srv:
            with client_for(srv) as client:
                assert client.call("new_cell", name="t").name == "t"

    def test_overloaded_honors_retry_after_hint(self):
        with ScriptedServer(["overloaded", "ok"]) as srv:
            with client_for(srv) as client:
                start = time.monotonic()
                client.call("new_cell", name="top")
                waited = time.monotonic() - start
        # the 10ms hint floors the (otherwise ~5ms) backoff delay
        assert waited >= 0.010

    def test_shard_failed_retried_for_replayable(self):
        with ScriptedServer(["shard_failed", "ok"]) as srv:
            with client_for(srv) as client:
                assert client.call("new_cell", name="top").name == "top"
                assert client.retries == 1

    def test_shard_failed_retried_for_control_plane(self):
        with ScriptedServer(["shard_failed", "ok"]) as srv:
            with client_for(srv) as client:
                pong = client.call("service.ping")
        assert pong.version == PROTOCOL_VERSION

    def test_shard_failed_retried_for_side_effect_commands(self):
        # A down shard refuses before anything is queued, so even
        # writecif, which is not replayable, is sent again — and runs
        # once, on the attempt that is answered.
        with ScriptedServer(["shard_failed", "ok"]) as srv:
            with client_for(srv) as client:
                written = client.call("writecif", cell="top", path="/tmp/x.cif")
                assert client.retries == 1
        assert written.path == "/tmp/x.cif"
        assert [r["method"] for r in srv.requests] == ["writecif"] * 2
        assert srv.behaviors == []  # the refusal, then the one run

    def test_attempts_exhausted_raises_last_error(self):
        policy = RetryPolicy(
            attempts=3, base_delay=0.001, max_delay=0.002, seed=1
        )
        with ScriptedServer(["overloaded"] * 3) as srv:
            with client_for(srv, retry=policy) as client:
                with pytest.raises(ReproError) as excinfo:
                    client.call("new_cell", name="x")
        assert excinfo.value.code == "service.overloaded"
        assert len(srv.requests) == 3

    def test_moved_retried_for_replayable(self):
        # A stale route generation: refresh and retry — new_cell is
        # replayable, so a duplicate send is safe.
        with ScriptedServer(["moved", "ok"]) as srv:
            with client_for(srv) as client:
                assert client.call("new_cell", name="top").name == "top"
                assert client.retries == 1

    def test_moved_retried_for_side_effect_commands(self):
        # A stale generation is refused before anything is queued, so even
        # writecif, which is not replayable, is sent again — and runs
        # once, on the attempt that is answered.
        with ScriptedServer(["moved", "ok"]) as srv:
            with client_for(srv) as client:
                written = client.call("writecif", cell="top", path="/tmp/x.cif")
                assert client.retries == 1
        assert written.path == "/tmp/x.cif"
        assert [r["method"] for r in srv.requests] == ["writecif"] * 2
        assert srv.behaviors == []  # the refusal, then the one run

    def test_no_retry_policy_fails_fast(self):
        with ScriptedServer(["overloaded", "ok"]) as srv:
            with client_for(srv, retry=NO_RETRY) as client:
                with pytest.raises(ReproError) as excinfo:
                    client.call("new_cell", name="x")
        assert excinfo.value.code == "service.overloaded"
        assert len(srv.requests) == 1


class TestConnectionLoss:
    def test_dropped_connection_retried_for_replayable(self):
        with ScriptedServer(["drop", "ok"]) as srv:
            with client_for(srv) as client:
                assert client.call("new_cell", name="top").name == "top"

    def test_dropped_connection_not_retried_for_side_effects(self):
        with ScriptedServer(["drop", "ok"]) as srv:
            with client_for(srv) as client:
                with pytest.raises((ConnectionError, OSError)):
                    client.call("writecif", cell="top", path="/tmp/x.cif")


class TestHello:
    def test_capabilities_recorded_from_handshake(self):
        with ScriptedServer(["ok"]) as srv:
            with client_for(srv) as client:
                assert client.call("new_cell", name="t").name == "t"
        assert client.capabilities == ()
        assert client.server_label == "scripted"
        assert client.server_version == PROTOCOL_VERSION

    def test_old_server_rejecting_hello_still_works(self):
        # A pre-handshake server answers api.unknown_command; the
        # client treats that as the empty capability set and sends
        # session commands on the same socket.
        with ScriptedServer(["ok"], hello=False) as srv:
            with client_for(srv) as client:
                assert client.call("new_cell", name="t").name == "t"
        assert client.capabilities == ()
        assert client.server_label is None


class _ZeroJitter(random.Random):
    """An injected RNG whose ``random()`` is always 0.0 — the jitter
    factor becomes exactly 1, so delays equal the deterministic
    ``base * 2**n`` schedule."""

    def random(self) -> float:  # noqa: A003 - mirrors random.Random
        return 0.0


class TestDeterministicBackoff:
    """The injectable rng/sleep seams: retry schedules asserted
    exactly, in zero wall time."""

    def test_injected_rng_and_sleep_pin_the_schedule(self):
        slept: list[float] = []
        policy = RetryPolicy(
            attempts=4, base_delay=0.05, max_delay=1.0, jitter=0.5
        )
        with ScriptedServer(["backpressure"] * 3 + ["ok"]) as srv:
            with client_for(
                srv, retry=policy, rng=_ZeroJitter(), sleep=slept.append
            ) as client:
                client.call("new_cell", name="top")
        # backpressure carries no retry_after_ms hint, so the pure
        # exponential schedule shows through: base * 2**attempt.
        assert client.retry_delays == [0.05, 0.1, 0.2]
        assert slept == client.retry_delays

    def test_retry_after_hint_floors_injected_schedule(self):
        slept: list[float] = []
        policy = RetryPolicy(attempts=3, base_delay=0.001, max_delay=1.0)
        with ScriptedServer(["overloaded", "ok"]) as srv:
            with client_for(
                srv, retry=policy, rng=_ZeroJitter(), sleep=slept.append
            ) as client:
                client.call("new_cell", name="top")
        # overloaded's 10ms hint floors the otherwise 1ms delay.
        assert slept == [0.010]

    def test_same_seed_same_delays(self):
        def run(seed: int) -> list[float]:
            policy = RetryPolicy(
                attempts=4, base_delay=0.001, max_delay=0.004, seed=seed
            )
            slept: list[float] = []
            with ScriptedServer(["backpressure"] * 3 + ["ok"]) as srv:
                with client_for(srv, retry=policy, sleep=slept.append) as client:
                    client.call("new_cell", name="top")
            return slept

        assert run(99) == run(99)
        assert run(99) != run(100)

    def test_injected_sleep_never_blocks(self):
        # Eight scripted failures, zero real sleeping: the whole retry
        # storm resolves in well under the schedule's nominal seconds.
        start = time.monotonic()
        policy = RetryPolicy(attempts=8, base_delay=0.5, max_delay=4.0, seed=1)
        with ScriptedServer(["overloaded"] * 7 + ["ok"]) as srv:
            with client_for(srv, retry=policy, sleep=lambda _d: None) as client:
                client.call("new_cell", name="top")
        assert client.retries == 7
        assert time.monotonic() - start < 2.0


class TestConnectBackoff:
    def test_connects_to_late_starting_server(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()  # nothing listening yet
        accepted = threading.Event()

        def start_late():
            time.sleep(0.3)
            late = socket.create_server(("127.0.0.1", port))
            conn, _ = late.accept()
            accepted.set()
            conn.close()
            late.close()

        threading.Thread(target=start_late, daemon=True).start()
        client = ServiceClient(
            "127.0.0.1",
            port,
            session="s",
            retry=RetryPolicy(
                base_delay=0.02, max_delay=0.1, connect_window=10.0, seed=3
            ),
        )
        client.close()
        assert accepted.wait(timeout=5)

    def test_zero_window_fails_fast(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()
        start = time.monotonic()
        with pytest.raises(OSError):
            ServiceClient("127.0.0.1", port, session="s", retry=NO_RETRY)
        assert time.monotonic() - start < 2.0
