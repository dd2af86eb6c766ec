"""A small blocking client for the service.

Strict request/response: each :meth:`ServiceClient.call` sends one
canonical protocol-v1 line and blocks for its answer.  Results come
back as the same typed dataclasses the server produced
(:mod:`repro.api.types` / :mod:`repro.service.control`); failures
raise :class:`repro.errors.ReproError` carrying the wire error code::

    with ServiceClient("127.0.0.1", 7450, session="alice") as c:
        c.call("new_cell", name="top")
        c.call("create", at=(0, 20000), cell_name="nand", name="n0")
        routed = c.call("do_route")          # RouteCommandResult
        print(routed.wires, routed.channels)

**Control wire, data wire.**  The socket given to the constructor is
the *control wire*: the supervisor, or a single-process server.  On
connect the client sends ``service.hello`` once.  A single-process
server executes session commands on that same socket.  A supervisor
executes none; it advertises the ``direct_routing`` capability, so the
client asks ``service.route`` for the owning shard's address (a lease
with a generation number and a TTL), dials the shard, and stamps the
generation on every session command it sends there.  The
``service.*`` control plane always stays on the control wire.

``service.moved`` — a stale generation after a shard restart, or a
ring move — refreshes the route: when the error's ``detail`` carries
the new address and generation the client adopts it in place,
otherwise it asks the supervisor again.

The client rides out transient failures by itself (capped exponential
backoff with jitter, see :class:`RetryPolicy`):

* **connect** retries ``ConnectionRefusedError`` until the window
  closes — a client started moments before its server wins the race;
* ``service.overloaded``, ``service.backpressure``,
  ``service.shard_failed`` and ``service.moved`` are retried for
  *every* method (after re-routing), honouring the server's
  ``retry_after_ms`` pacing hint: each is a refusal raised before the
  command is queued — a route refused while the shard is down or
  crash-looping, a stale lease, a full queue, a shed — so nothing
  executed;
* a failed wire is retried (after reconnecting / re-routing) for
  every method while the request was not yet sent — a shard socket
  that refuses the dial — and once it was, only for *replayable*
  commands, read-only queries and the ``service.*`` control plane.  A
  replayable command that reached the WAL before the crash is
  re-applied by replay, so the retry converges on the same state; a
  non-replayable command (plots, file writes) is not known to be
  idempotent and its failure is surfaced instead.

Everything else — command errors, bad requests, shutdown — raises
immediately; retrying cannot help.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass, replace

from repro.api.codec import from_jsonable
from repro.api.registry import REGISTRY, spec_for
from repro.api.wire import encode_request, parse_response, response_error
from repro.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.service import control
from repro.service.control import CONTROL
from repro.service.errors import ServiceError
from repro.service.telemetry import command_class
from repro.service.telemetry import us as _us

#: Error codes retried whatever the method: each is a refusal raised
#: before the command is queued, so a retry can never duplicate
#: anything.
REFUSALS = frozenset(
    {
        "service.overloaded",
        "service.backpressure",
        "service.shard_failed",
        "service.moved",
    }
)


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for connects and retryable failures.

    Delay for attempt *n* (0-based) is ``base_delay * 2**n`` capped at
    ``max_delay``, then multiplied by a random factor in
    ``[1 - jitter, 1]`` so a thundering herd spreads out; a server
    ``retry_after_ms`` hint acts as a floor on top.  ``attempts=1``
    disables request retries entirely (fail on first error), and
    ``connect_window=0`` disables connect retries.
    """

    attempts: int = 8
    base_delay: float = 0.05
    max_delay: float = 1.0
    jitter: float = 0.5
    connect_window: float = 10.0
    #: Seed for the jitter RNG — set it in tests for reproducibility.
    seed: int | None = None

    def delay(
        self, attempt: int, rng: random.Random, hint_ms: int | None = None
    ) -> float:
        base = min(self.max_delay, self.base_delay * (2**attempt))
        jittered = base * (1.0 - self.jitter * rng.random())
        if hint_ms:
            jittered = max(jittered, hint_ms / 1000.0)
        return jittered


#: Retries disabled — every failure surfaces on the first attempt.
NO_RETRY = RetryPolicy(attempts=1, connect_window=0.0)


def method_types(method: str) -> tuple[type, type]:
    """(request type, result type) for any wire method, control plane
    included."""
    pair = CONTROL.get(method)
    if pair is not None:
        return pair
    spec = spec_for(method)
    return spec.request, spec.result


def _replay_safe(method: str) -> bool:
    """May a retry duplicate-execute this method without harm?"""
    if method in CONTROL:
        return True
    spec = REGISTRY.get(method)
    return spec is not None and (spec.readonly or spec.replayable)


class ServiceClient:
    """A blocking protocol-v1 connection bound to one session name."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        session: str | None = None,
        timeout: float = 60.0,
        retry: RetryPolicy | None = None,
        rng: random.Random | None = None,
        sleep=None,
    ) -> None:
        self.host = host
        self.port = port
        self.session = session
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        #: The jitter source.  Injectable two ways: pass ``rng`` to
        #: substitute the whole generator (a stub returning 0.0 makes
        #: delays exact), or set ``RetryPolicy.seed`` to keep real
        #: jitter but a reproducible stream.
        self._rng = rng if rng is not None else random.Random(self.retry.seed)
        #: Injectable clock for retry pauses — tests pass a recorder so
        #: retry-path assertions run in zero wall time.
        self._sleep = sleep if sleep is not None else time.sleep
        self._sock: socket.socket | None = None
        self._file = None
        #: The data wire to the session's shard (lazy: ``None`` until
        #: the first routed request, and again after every failure).
        self._direct_sock: socket.socket | None = None
        self._direct_file = None
        self._direct_target: tuple[str, int] | None = None
        self._route: control.RouteResult | None = None
        self._route_expires = 0.0
        self._next_id = 0
        #: What the server's ``service.hello`` advertised — empty for
        #: pre-handshake servers, which reject the command.
        self.capabilities: tuple[str, ...] = ()
        self.server_version: int | None = None
        self.server_label: str | None = None
        #: Retries performed over this client's lifetime (observability).
        self.retries = 0
        #: The delay handed to each retry sleep, in order (tests assert
        #: the schedule; bounded by attempts so it cannot grow unruly).
        self.retry_delays: list[float] = []
        #: Requests answered over the shard's own data socket, and how
        #: many ``service.route`` round trips the lease cache needed.
        self.direct_calls = 0
        self.route_refreshes = 0
        #: The last response's stage decomposition (integer µs), with
        #: the client-measured round trip added under ``"client"`` —
        #: ``{}`` until the first response carrying stages arrives.
        self.last_stages: dict = {}
        self._connect()
        self._hello()

    # -- connection ----------------------------------------------------------

    def _connect(self) -> None:
        deadline = time.monotonic() + self.retry.connect_window
        attempt = 0
        while True:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                self._file = self._sock.makefile("rwb")
                return
            except (ConnectionRefusedError, ConnectionResetError, OSError):
                if time.monotonic() >= deadline:
                    raise
                self._sleep(
                    min(
                        self.retry.delay(attempt, self._rng),
                        max(0.0, deadline - time.monotonic()),
                    )
                )
                attempt += 1

    def _reconnect(self) -> None:
        self.close()
        self._connect()

    def _hello(self) -> None:
        """Negotiate once per client, single-shot (no retry loop): an
        old server rejecting the command (``api.unknown_command``) —
        or even hanging up on it — simply means no capabilities, and
        the client behaves exactly like its pre-direct-routing
        ancestor."""
        try:
            answer = self._round_trip(
                "service.hello",
                control.HelloRequest(client="repro-client/1"),
                file=self._file,
            )
        except (ReproError, ConnectionError, BrokenPipeError, OSError):
            self.capabilities = ()
            return
        self.capabilities = tuple(answer.capabilities)
        self.server_version = answer.version
        self.server_label = answer.server

    # -- routing -------------------------------------------------------------

    def _routed(self, method: str) -> bool:
        """Does ``method`` travel the data wire to the session's shard?"""
        return (
            self.session is not None
            and "direct_routing" in self.capabilities
            and not method.startswith("service.")
        )

    def _lease(self) -> control.RouteResult:
        """The cached route lease, renewed through the supervisor when
        missing or expired.  Single-shot: a refusal raises into the
        request loop, which retries it."""
        now = time.monotonic()
        if self._route is not None and now < self._route_expires:
            return self._route
        self._route = None
        answer = self._round_trip(
            "service.route",
            control.RouteRequest(session=self.session),
            file=self._file,
        )
        self.route_refreshes += 1
        if not answer.direct:
            raise ServiceError(
                f"server offered no route for session {self.session!r}"
            )
        self._route = answer
        self._route_expires = now + max(answer.lease_ms, 0) / 1000.0
        return answer

    def _dial(self, route: control.RouteResult) -> None:
        """Connect the data wire to ``route``'s shard, unless it is."""
        target = (route.host, route.port)
        if self._direct_file is not None and self._direct_target == target:
            return
        self._close_direct()
        self._direct_sock = socket.create_connection(
            target, timeout=self.timeout
        )
        self._direct_file = self._direct_sock.makefile("rwb")
        self._direct_target = target

    def _close_direct(self) -> None:
        if self._direct_file is not None:
            try:
                self._direct_file.close()
            except OSError:
                pass
            self._direct_file = None
        if self._direct_sock is not None:
            try:
                self._direct_sock.close()
            except OSError:
                pass
            self._direct_sock = None
        self._direct_target = None

    def _forget_route(self) -> None:
        self._close_direct()
        self._route = None
        self._route_expires = 0.0

    def _absorb_moved(self, exc: ReproError) -> None:
        """Fold a ``service.moved`` into the route cache: adopt the
        address/generation its detail carries (a restarted shard
        answering on its pinned port), or forget the route so the next
        attempt re-asks the supervisor."""
        self._close_direct()
        detail = getattr(exc, "detail", None)
        route = self._route
        self._route = None
        if (
            route is not None
            and detail is not None
            and detail.host
            and detail.port is not None
            and detail.generation is not None
        ):
            self._route = replace(
                route,
                shard=detail.shard if detail.shard is not None else route.shard,
                host=detail.host,
                port=detail.port,
                generation=detail.generation,
            )
        else:
            self._route_expires = 0.0

    # -- requests ------------------------------------------------------------

    def call(self, method: str, **params):
        """Build the typed request from ``params``, round-trip it, and
        return the typed result (raising the wire error otherwise)."""
        request_cls, _ = method_types(method)
        return self.request(method, request_cls(**params))

    def request(self, method: str, request):
        """Round-trip an already-built request dataclass, retrying
        transient failures per the client's :class:`RetryPolicy`."""
        routed = self._routed(method)
        for attempt in range(max(1, self.retry.attempts)):
            last_attempt = attempt >= self.retry.attempts - 1
            on_direct = sent = False
            try:
                file, generation = self._file, None
                if routed:
                    route = self._lease()
                    on_direct = True
                    self._dial(route)
                    file, generation = self._direct_file, route.generation
                sent = True
                result = self._round_trip(
                    method, request, file=file, generation=generation
                )
                if on_direct:
                    self.direct_calls += 1
                return result
            except ReproError as exc:
                code = getattr(exc, "code", None)
                if code == "service.moved":
                    self._absorb_moved(exc)
                if last_attempt or code not in REFUSALS:
                    raise
                hint = getattr(exc, "retry_after_ms", None)
                self._pause(self.retry.delay(attempt, self._rng, hint))
            except OSError:
                # A wire failed; whether a sent request reached the
                # server is unknown, so only a command safe to re-run
                # is sent again.
                if on_direct:
                    self._forget_route()
                if last_attempt or (sent and not _replay_safe(method)):
                    raise
                self._pause(self.retry.delay(attempt, self._rng))
                if not on_direct:
                    self._reconnect()
        raise AssertionError("unreachable")  # pragma: no cover

    def _pause(self, delay: float) -> None:
        self.retries += 1
        self.retry_delays.append(delay)
        self._sleep(delay)

    def _round_trip(self, method: str, request, *, file, generation=None):
        self._next_id += 1
        id = self._next_id
        # The root span of the distributed trace: its reference rides
        # the envelope so the server's spans stitch back to it.
        span = trace.begin("client.request", method=method)
        context = None
        if span.ref is not None:
            trace_id = trace.new_trace_id()
            span.context(trace_id)
            context = {"id": trace_id, "parent": span.ref}
        t0 = time.perf_counter()
        try:
            line = encode_request(
                method,
                request,
                id=id,
                session=self.session,
                trace=context,
                generation=generation,
            )
            file.write(line.encode("utf-8") + b"\n")
            file.flush()
            raw = file.readline()
            if not raw:
                raise ConnectionResetError("connection closed by server")
            envelope = parse_response(raw)
        finally:
            span.close()
        elapsed = time.perf_counter() - t0
        obs_metrics.quantile_histogram(
            f"rpc.client.{command_class(method)}"
        ).observe(elapsed)
        self.last_stages = dict(envelope.stages or {})
        self.last_stages["client"] = _us(elapsed)
        if envelope.id != id:
            raise ServiceError(
                f"response id {envelope.id!r} does not match request {id!r}"
            )
        if not envelope.ok:
            raise response_error(envelope)
        _, result_cls = method_types(method)
        return from_jsonable(result_cls, envelope.result, where=method)

    def close(self) -> None:
        self._close_direct()
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
