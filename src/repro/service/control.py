"""The ``service.*`` control commands.

Session commands go to a session's worker; these are answered by the
server itself and need no ``session`` field.  Their request/result
dataclasses follow the same rules as :mod:`repro.api.types` (frozen,
total, strictly decoded) — they are part of protocol version 1.

Three of them form the negotiated routing handshake:

* ``service.hello`` — version/capability negotiation.  A server
  advertises what it can do (``direct_routing``, ``telemetry``);
  clients gate behavior on the capability set instead of guessing
  from the topology.
* ``service.route`` — the supervisor maps a session id to its owning
  shard's data-socket address and restart generation.  Clients dial
  the shard directly, stamp the generation on each session command
  and keep the route until a ``service.moved`` or a dropped data wire
  makes them ask again; a down shard is answered with an error
  carrying a retry hint.
* ``service.describe`` — the typed registry exported as a
  machine-readable :class:`repro.api.manifest.Manifest`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.errors import UnknownCommand
from repro.api.manifest import Manifest
from repro.api.wire import PROTOCOL_VERSION


@dataclass(frozen=True)
class PingRequest:
    #: Ask the pong to carry the answering process's merged metrics
    #: snapshot.  The supervisor's heartbeat sets this, so shard
    #: telemetry rides the wire traffic that already exists instead of
    #: needing a second channel.
    telemetry: bool = False


@dataclass(frozen=True)
class PingResult:
    version: int
    sessions: int
    #: The piggybacked snapshot (``telemetry=True`` requests only):
    #: the process registry merged with every session's scoped registry
    #: and the request-stage histograms, via
    #: :func:`repro.obs.metrics.merge_snapshots`.
    metrics: dict | None = None


@dataclass(frozen=True)
class SessionsRequest:
    pass


@dataclass(frozen=True)
class SessionInfo:
    """One live session as the server sees it."""

    name: str
    queued: int
    executed: int
    failed: int
    journal: str | None
    #: Which shard hosts the session (supervisor mode); ``None`` on a
    #: single-process server.
    shard: int | None = None


@dataclass(frozen=True)
class SessionsResult:
    sessions: tuple[SessionInfo, ...]


@dataclass(frozen=True)
class ServiceStatsRequest:
    pass


@dataclass(frozen=True)
class ShardStats:
    """One worker process as the supervisor sees it."""

    index: int
    pid: int | None
    alive: bool
    restarts: int
    sessions: int
    queued: int
    circuit_open: bool = False


@dataclass(frozen=True)
class ServiceStatsResult:
    """Service-wide counters.

    Every count field is read from the answering server's metrics
    snapshot through :data:`STATS_METRICS` (:func:`stats_result`).  A
    supervisor adds to each its own count (its control traffic) plus
    the same field of every live shard's answer, so ``connections``,
    ``requests`` and ``errors`` cover the direct data plane too, and of
    every dead shard life's last heartbeat snapshot, so no count falls
    when a shard restarts.  What a life counted after its last
    heartbeat (0.5 s apart by default) dies with it.  The supervisor's
    own requests to its shards (heartbeats, fan-outs) travel the
    shards' pipes, not their sockets, and count nowhere.  The
    defaulted fields were added with sharding and old writers simply
    omit them — ``pid`` describes the answering process, ``queued`` is
    the commands in flight (summed over shards), ``shed`` counts
    admission-control refusals, ``shard_failures`` counts in-flight
    requests failed by shard deaths, and ``shards`` carries one
    :class:`ShardStats` per worker process (empty single-process)."""

    connections: int
    requests: int
    errors: int
    timeouts: int
    backpressure: int
    sessions: int
    pid: int | None = None
    queued: int = 0
    shed: int = 0
    shard_failures: int = 0
    #: Requests that arrived on a shard's own data socket, stamped
    #: with the generation of the route the client holds.
    direct_requests: int = 0
    shards: tuple[ShardStats, ...] = ()
    #: Shared cell library traffic (zero when no --library-dir).
    library_publishes: int = 0
    library_conflicts: int = 0
    library_cascades: int = 0
    #: Pipeline artifact-cache traffic summed over this process's
    #: sessions (the supervisor sums over shards).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0


#: Each count field of :class:`ServiceStatsResult` and the metric it
#: reads.  ``{server}`` is the answering server's counter prefix
#: (``service``, or ``supervisor``); the ``library.*`` and
#: ``pipeline.cache.*`` counts are the sum of its sessions' registries.
STATS_METRICS: dict[str, str] = {
    "connections": "{server}.connections",
    "requests": "{server}.requests",
    "errors": "{server}.errors",
    "timeouts": "{server}.timeouts",
    "backpressure": "{server}.backpressure",
    "shed": "{server}.shed",
    "shard_failures": "{server}.shard_failures",
    "direct_requests": "{server}.direct",
    "library_publishes": "library.publishes",
    "library_conflicts": "library.conflicts",
    "library_cascades": "library.cascades",
    "cache_hits": "pipeline.cache.hits",
    "cache_misses": "pipeline.cache.misses",
    "cache_evictions": "pipeline.cache.evictions",
}


def stats_result(
    snapshot: dict, server: str, *shards, **fields
) -> ServiceStatsResult:
    """``service.stats`` from one server's metrics snapshot: each count
    field is its metric plus the same field of every shard answer given;
    ``fields`` sets the rest."""
    counts = {
        field: snapshot.get(name.format(server=server), 0)
        + sum(getattr(shard, field) for shard in shards)
        for field, name in STATS_METRICS.items()
    }
    return ServiceStatsResult(**counts, **fields)


@dataclass(frozen=True)
class TelemetryRequest:
    #: Include the flight recorder (the N slowest and the N most
    #: recently errored requests, stage decomposition attached).
    slow: bool = False


@dataclass(frozen=True)
class ShardTelemetry:
    """One shard's latest piggybacked metrics snapshot."""

    index: int
    alive: bool
    #: ``None`` until the first telemetry heartbeat answers (or while
    #: the shard is down).
    metrics: dict | None


#: How many slowest and errored requests a flight recorder keeps, and
#: how many of each ``service.telemetry`` answers with.
FLIGHT_KEEP = 32


@dataclass(frozen=True)
class FlightRecord:
    """One flight-recorder entry: a slow or errored request."""

    method: str
    total_us: int
    session: str | None = None
    shard: int | None = None
    trace_id: str | None = None
    #: Stage decomposition in integer microseconds (see
    #: :data:`repro.service.telemetry.STAGES`).
    stages: dict | None = None
    error: str | None = None


@dataclass(frozen=True)
class TelemetryResult:
    """The distributed-telemetry view ``service.telemetry`` serves.

    ``metrics`` is the answering process's own view: its server's
    registry (request-stage quantile histograms under
    ``rpc.<class>.<stage>`` and the ``service.*`` counters, or a
    supervisor's ``supervisor.*``), merged with its sessions' and the
    process registry.  On a supervisor, ``shards`` carries each
    worker's latest snapshot and ``merged`` is the whole-service merge
    of all of them — histograms merge bucket-wise, so the merged
    percentiles are exact over the union of observations."""

    process: str
    pid: int | None
    metrics: dict
    merged: dict
    shards: tuple[ShardTelemetry, ...] = ()
    slowest: tuple[FlightRecord, ...] = ()
    errored: tuple[FlightRecord, ...] = ()


@dataclass(frozen=True)
class HelloRequest:
    """Capability negotiation.  Sent once per connection, first."""

    #: Free-form client label for logs (``"repro-client/1"``).
    client: str = ""
    #: The highest protocol version the client speaks.
    protocol: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class HelloResult:
    version: int
    #: Which process answered: ``"supervisor"``, ``"shard<N>"`` or
    #: ``"service"`` (single-process).
    server: str
    #: Stable capability strings.  ``direct_routing`` — the server
    #: answers ``service.route`` with dialable shard addresses;
    #: ``telemetry`` — ``service.telemetry`` is live.  Old servers
    #: reject ``service.hello`` entirely (``api.unknown_command``),
    #: which clients treat as the empty set.
    capabilities: tuple[str, ...]


@dataclass(frozen=True)
class RouteRequest:
    """Where does this session live?  Also performs admission: routing
    an unknown session name claims it (subject to the session cap).
    A supervisor answers for a down shard with an error instead of a
    route — ``service.shard_failed`` while it restarts,
    ``service.overloaded`` while its crash-loop circuit is open — each
    with a ``retry_after_ms`` hint for when to ask again."""

    session: str


@dataclass(frozen=True)
class RouteResult:
    session: str
    #: True when the answer names the session's shard, which a
    #: supervisor always does.  A single-process server answers
    #: False: the connection the client already holds is where its
    #: session commands execute.
    direct: bool
    shard: int | None = None
    host: str | None = None
    port: int | None = None
    #: The shard's restart generation.  Direct requests stamp it; a
    #: mismatch (the shard restarted since) answers ``service.moved``.
    generation: int | None = None


@dataclass(frozen=True)
class DescribeRequest:
    pass


@dataclass(frozen=True)
class ShutdownRequest:
    pass


@dataclass(frozen=True)
class ShutdownResult:
    """Acknowledged before the drain: sessions still open and how many
    of them have a WAL to checkpoint on the way down."""

    sessions: int
    journaled: int


#: method name -> (request type, result type)
CONTROL: dict[str, tuple[type, type]] = {
    "service.ping": (PingRequest, PingResult),
    "service.hello": (HelloRequest, HelloResult),
    "service.route": (RouteRequest, RouteResult),
    "service.describe": (DescribeRequest, Manifest),
    "service.sessions": (SessionsRequest, SessionsResult),
    "service.stats": (ServiceStatsRequest, ServiceStatsResult),
    "service.telemetry": (TelemetryRequest, TelemetryResult),
    "service.shutdown": (ShutdownRequest, ShutdownResult),
}


def control_types(method: str) -> tuple[type, type]:
    pair = CONTROL.get(method)
    if pair is None:
        raise UnknownCommand(f"unknown control command {method!r}")
    return pair
