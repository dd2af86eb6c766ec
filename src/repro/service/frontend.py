"""The line-protocol front end both server shapes share.

A :class:`LineServer` speaks protocol v1 (:mod:`repro.api.wire`) on one
listening socket: newline-delimited JSON, one task per request line so
a slow command never holds up the next line, and one write lock per
connection so answers never interleave.  It owns everything that does
not depend on *where* a session command executes:

* parse errors, answered with whatever request id can be fished out of
  the broken line;
* the ``service.*`` control plane — one handler per method, named after
  it (``service.ping`` → ``_on_ping``);
* the refusals every session command meets first: the service is
  draining, or the line names no session;
* the graceful drain — stop accepting, let the subclass finish its
  work (:meth:`LineServer._drain`), hang up on open connections;
* the fault-injection hooks (:mod:`repro.service.chaos`): a swallowed
  ``service.ping`` sends no answer at all, and every answer written
  reaches the chaos policy's acknowledgement hook;
* the server's one metrics registry (:attr:`LineServer.metrics`),
  which every report the server serves reads.

Subclasses supply :meth:`LineServer._session_command` and the
handlers.  :class:`repro.service.server.RiotService` — the
single-process server, and each shard — executes session commands;
:class:`repro.service.supervisor.Supervisor` executes none, and
answers ``service.moved``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re

from repro.api import wire
from repro.api.codec import from_jsonable
from repro.api.errors import BadRequest
from repro.api.manifest import build_manifest
from repro.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.service import control
from repro.service.errors import (
    BadSessionName,
    SessionLimitError,
    ShutdownError,
)

#: Session names double as WAL file stems, so keep them path-safe.
SESSION_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def check_session_name(name: str) -> None:
    if not SESSION_NAME.match(name):
        raise BadSessionName(
            f"bad session name {name!r} (want [A-Za-z0-9._-], "
            "64 chars max, not starting with . or -)"
        )


class LineServer:
    """Accept loop, request lines, control dispatch and drain."""

    #: What ``service.hello`` advertises.
    capabilities: tuple[str, ...] = ("telemetry",)
    #: This server's counter names start ``service.``, a supervisor's
    #: ``supervisor.``, so merging them never mixes the two.
    counter_prefix = "service"

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_sessions: int,
        process_label: str,
        chaos=None,
    ) -> None:
        self.host = host
        self.port = port
        self.max_sessions = max_sessions
        #: This process's name in telemetry and in ``service.hello``.
        self.process_label = process_label
        #: Fault-injection policy (:class:`repro.service.chaos.ChaosPolicy`),
        #: normally ``None``; set by ``REPRO_CHAOS`` runs.
        self.chaos = chaos
        #: The one place this server counts: its own counters and the
        #: ``rpc.*`` request histograms.  The loop's counters are bound
        #: once, so a request line costs no lookup by name.
        self.metrics = obs_metrics.MetricsRegistry()
        self._connections = self._counter("connections")
        self._requests = self._counter("requests")
        self._errors = self._counter("errors")
        self._handlers = {
            method: getattr(self, "_on_" + method.removeprefix("service."))
            for method in control.CONTROL
        }
        self._server: asyncio.AbstractServer | None = None
        self._closing = False
        self._closed: asyncio.Event | None = None
        self._shutdown_task: asyncio.Task | None = None
        self._conn_writers: set = set()

    async def _listen(self) -> None:
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        await self._closed.wait()

    def _counter(self, name: str) -> obs_metrics.Counter:
        return self.metrics.counter(f"{self.counter_prefix}.{name}")

    def metrics_snapshot(self) -> dict:
        """Everything this server counted (a session server merges in
        its sessions' registries): the one source of ``service.stats``,
        ``service.ping``, ``service.telemetry`` and ``--metrics``."""
        return self.metrics.snapshot()

    def telemetry_snapshot(self) -> dict:
        """:meth:`metrics_snapshot` merged with the process registry,
        which holds whatever ran outside a session: what this process
        reports in ``service.ping`` and ``service.telemetry``."""
        return obs_metrics.merge_snapshots(
            obs_metrics.registry().snapshot(), self.metrics_snapshot()
        )

    def export_metrics(self) -> dict:
        """This server's entries in the ``--metrics`` export."""
        return self.metrics_snapshot()

    def _admit(self, name: str, open_sessions: int) -> None:
        """Refuse a new session that cannot name a WAL file, or one
        past ``max_sessions``."""
        check_session_name(name)
        if open_sessions >= self.max_sessions:
            raise SessionLimitError(
                f"session limit reached ({self.max_sessions})"
            )

    # -- connections --------------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        self._connections.inc()
        self._conn_writers.add(writer)
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(
                    self._serve_line(line, writer, write_lock)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
        except (ConnectionResetError, OSError):
            pass
        finally:
            self._conn_writers.discard(writer)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_line(self, line: bytes, writer, write_lock) -> None:
        self._requests.inc()
        response = await self._respond(line)
        if response is None:  # chaos swallowed it (drop-heartbeat)
            return
        async with write_lock:
            with contextlib.suppress(ConnectionResetError, OSError):
                writer.write(response.encode("utf-8") + b"\n")
                await writer.drain()
        if self.chaos is not None:
            # The acknowledgement point: the response is on the wire.
            self.chaos.after_response(line, response)

    async def _respond(self, line: bytes) -> str | None:
        try:
            envelope = wire.parse_request(line)
        except ReproError as exc:
            self._errors.inc()
            return wire.encode_error(_fish_id(line), exc)
        try:
            if envelope.method.startswith("service."):
                return await self._control(envelope)
            if self._closing:
                return wire.encode_error(
                    envelope.id, ShutdownError("service is shutting down")
                )
            if not envelope.session:
                raise BadRequest(
                    f"method {envelope.method!r} needs a 'session' field"
                )
            return await self._session_command(envelope)
        except ReproError as exc:
            self._errors.inc()
            return wire.encode_error(envelope.id, exc)

    async def _session_command(self, envelope: wire.RequestEnvelope) -> str:
        raise NotImplementedError

    # -- the control plane ---------------------------------------------------

    async def _control(self, envelope: wire.RequestEnvelope) -> str | None:
        request_cls, _ = control.control_types(envelope.method)
        request = from_jsonable(
            request_cls, dict(envelope.params), where=envelope.method
        )
        result = await self._handlers[envelope.method](request)
        if result is None:
            return None
        return wire.encode_result(envelope.id, envelope.method, result)

    async def _on_hello(self, request) -> control.HelloResult:
        return control.HelloResult(
            version=wire.PROTOCOL_VERSION,
            server=self.process_label,
            capabilities=self.capabilities,
        )

    async def _on_describe(self, request):
        return build_manifest(control.CONTROL)

    # -- shutdown -------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent, signal-handler safe)."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self._shutdown())

    async def _shutdown(self) -> None:
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._drain()
        # Hang up on open connections so their handler tasks finish
        # before the loop does (a cancelled readline is noisy).
        for writer in list(self._conn_writers):
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        await asyncio.sleep(0.01)
        self._closed.set()

    async def _drain(self) -> None:
        """Finish the work in hand before the connections close."""


def _fish_id(line: bytes):
    """Best-effort request id recovery from an unparseable envelope."""
    try:
        data = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if isinstance(data, dict):
        id = data.get("id")
        if isinstance(id, (int, str)):
            return id
    return None
