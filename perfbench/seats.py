"""The ``seats`` scenario: designers editing through the sharded service.

A ``python -m repro serve --shards 1 --journal-dir DIR`` subprocess
hosts the seats.  All load comes from this one process: one asyncio
loop holding two connections, the supervisor's control wire
(``service.hello``, ``service.route``, ``service.stats``,
``service.shutdown``) and the shard's direct data wire, over which
every seat's commands are multiplexed by the envelope ``session``
field and stamped with the route lease generation.

The loop is open: arrivals follow a seeded Poisson schedule
(:func:`perfbench.measure.arrival_schedule`), each request is timed
from the moment it was *due*, and how late the generator ran is
recorded beside it.  A nominal-rate phase gives the latency figures; a
stepped ramp of offered rates gives the highest sustained rate.

Output checks: every read returns the seat's expected cell list, and
after the graceful shutdown each seat's WAL holds exactly the edits
that were acknowledged — the edit tape is not idempotent, so a lost or
a duplicated apply both show.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import measure

#: A request unanswered this long counts as failed (timed out).
REQUEST_TIMEOUT_S = 10.0
#: A ramp step stops sending at this many unanswered requests: well
#: below the shard's shed threshold (256 in flight) and the per-session
#: queue bound, so overload ends a step instead of failing requests.
MAX_INFLIGHT = 100
#: The instance every seat edits, and the stock cell it instantiates.
INSTANCE = "u"
STOCK_CELL = "nand"


@dataclass(frozen=True)
class SeatsConfig:
    seats: int
    nominal_rps: float
    #: The nominal phase is cut into windows, spread over the run.
    windows: int
    window_s: float
    #: Offered rate of each ramp step, in requests per second.
    ramp: tuple[float, ...]
    step_s: float
    #: Ramps in the run; ``sustained_rps`` is the median of theirs.
    ramps: int
    #: Server spawns in the run; ``setup_s`` is their median.
    spawns: int


#: Each ramp step offers this much more than the one before.
RAMP_FACTOR = 1.12


#: Every ramp starts here and climbs past the knee (about 1600-1800
#: req/s on the 2-vCPU host).
RAMP = tuple(800.0 * RAMP_FACTOR**k for k in range(14))


def config(seconds: float, *, full: bool) -> SeatsConfig:
    """The full 64-seat scenario gives half of ``seconds`` to the
    nominal phase and the rest to three ramps; the probe other
    workloads run has six 0.75 s windows and one ramp of shorter
    steps.  ``sustained_rps`` is the median of the ramps'.  The nominal
    rate is low enough that a slow spell on the shared host, which can
    halve the service's capacity, does not turn it into a queueing
    test."""
    if full:
        return SeatsConfig(
            seats=64, nominal_rps=300.0, windows=8, window_s=0.5 * seconds / 8,
            ramp=RAMP, step_s=0.5, ramps=3, spawns=3,
        )
    return SeatsConfig(
        seats=64, nominal_rps=300.0, windows=6, window_s=0.75,
        ramp=RAMP, step_s=0.3, ramps=1, spawns=1,
    )


class Request:
    """One command in flight: when it was due, sent and answered."""

    __slots__ = (
        "seat", "method", "params", "kind", "t_sched", "t_send", "t_recv",
        "ok", "code", "stages", "result", "future", "inflight", "scale",
    )

    def __init__(self, seat: int, method: str, params: dict, kind: str) -> None:
        self.seat = seat
        self.method = method
        self.params = params
        self.kind = kind
        self.t_sched = self.t_send = self.t_recv = 0.0
        self.ok = False
        self.code: str | None = None
        self.stages: dict = {}
        self.result: dict | None = None
        self.future: asyncio.Future | None = None
        #: Requests in flight on the wire when this one was sent.
        self.inflight = 0
        #: Reference seconds per wall second while this one was in
        #: flight (see :mod:`perfbench.measure`): ramp rates are reported
        #: scaled by it.
        self.scale = 1.0

    def latency_ms(self) -> float:
        """Due-to-answered wall time; a failure counts at the deadline."""
        if not self.ok:
            return REQUEST_TIMEOUT_S * 1000.0
        return (self.t_recv - self.t_sched) * 1000.0


class Wire:
    """One protocol-v1 connection with any number of requests in flight;
    responses are matched to requests by envelope id."""

    def __init__(self, reader, writer, encode) -> None:
        self.reader = reader
        self.writer = writer
        self._encode = encode
        self.pending: dict[int, Request] = {}
        self._next_id = 0
        self._task = asyncio.ensure_future(self._read_loop())

    def prepare(
        self, req: Request, session: str | None, generation: int | None
    ) -> tuple[int, bytes]:
        """Assign ``req`` the next envelope id and encode its line."""
        self._next_id += 1
        line = self._encode(req.method, req.params, self._next_id, session, generation)
        return self._next_id, line

    def send(self, id: int, line: bytes, req: Request) -> None:
        self.pending[id] = req
        self.writer.write(line)

    async def call(self, req: Request, session=None, generation=None) -> Request:
        req.future = asyncio.get_running_loop().create_future()
        id, line = self.prepare(req, session, generation)
        req.t_sched = req.t_send = time.perf_counter()
        self.send(id, line, req)
        await self.writer.drain()
        await asyncio.wait_for(req.future, REQUEST_TIMEOUT_S)
        return req

    async def _read_loop(self) -> None:
        try:
            while True:
                raw = await self.reader.readline()
                if not raw:
                    break
                now = time.perf_counter()
                data = json.loads(raw)
                req = self.pending.pop(data.get("id"), None)
                if req is None:
                    continue
                req.t_recv = now
                req.ok = bool(data.get("ok"))
                req.stages = data.get("stages") or {}
                if req.ok:
                    req.result = data.get("result")
                else:
                    req.code = (data.get("error") or {}).get("code", "unknown")
                if req.future is not None and not req.future.done():
                    req.future.set_result(req)
        finally:
            for req in self.pending.values():
                req.code = req.code or "connection.closed"
                if req.future is not None and not req.future.done():
                    req.future.set_result(req)
            self.pending.clear()

    def expire(self) -> None:
        """Fail whatever is still unanswered (the deadline passed)."""
        for req in self.pending.values():
            req.code = "timeout"
        self.pending.clear()

    async def drain_responses(self, timeout: float = REQUEST_TIMEOUT_S) -> None:
        deadline = time.perf_counter() + timeout
        while self.pending and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        self.expire()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


def _encoder():
    """Protocol-v1 request lines through the program's own codec."""
    from repro.api import types as t
    from repro.api.wire import encode_request
    from repro.service import control

    types = {
        "service.hello": control.HelloRequest,
        "service.route": control.RouteRequest,
        "service.stats": control.ServiceStatsRequest,
        "service.shutdown": control.ShutdownRequest,
        "new_cell": t.NewCellRequest,
        "create": t.CreateRequest,
        "rotate": t.RotateRequest,
        "move_by": t.MoveByRequest,
        "cells": t.CellsRequest,
    }

    def encode(method, params, id, session, generation) -> bytes:
        request = types[method](**params)
        return (
            encode_request(
                method, request, id=id, session=session, generation=generation
            )
            + "\n"
        ).encode("utf-8")

    return encode


class Server:
    """The ``serve`` subprocess, its banner address and its exit."""

    def __init__(self, src: Path, work: Path, seats: int) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.journal_dir = work / "wal"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        env.pop("REPRO_CHAOS", None)
        self._out = open(work / "server.out", "w+")
        self._err_path = work / "server.err"
        self._err = open(self._err_path, "w+")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--shards", "1", "--journal-dir", str(self.journal_dir),
                "--max-sessions", str(seats + 8),
            ],
            stdout=self._out,
            stderr=self._err,
            env=env,
        )
        self.host = ""
        self.port = 0

    async def wait_banner(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            self._out.seek(0)
            match = re.search(r"listening on (\S+):(\d+)", self._out.read())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self.proc.poll() is not None:
                break
            await asyncio.sleep(0.01)
        raise RuntimeError(f"server did not start: {self.stderr()[-2000:]}")

    def stderr(self) -> str:
        return self._err_path.read_text(errors="replace")

    def wait(self, timeout: float = 60.0) -> int:
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9
        finally:
            self._out.close()
            self._err.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.wait()


def _peak_rss_mb(pids) -> float:
    """Summed peak resident set (``VmHWM``) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", text, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


@dataclass
class Fleet:
    """A running server with every seat admitted and routed."""

    server: Server
    control: Wire
    data: Wire
    generation: int
    setup_s: float


def seat_name(seat: int) -> str:
    return f"seat{seat:02d}"


def seat_cell(seat: int) -> str:
    return f"top{seat:02d}"


async def _start_fleet(src: Path, work: Path, cfg: SeatsConfig, encode, log: list) -> Fleet:
    """Spawn the server, negotiate, route every seat and wait for every
    seat's first acknowledgement (its ``new_cell``) — the time
    ``setup_s`` measures."""
    t0 = time.perf_counter()
    server = Server(src, work, cfg.seats)
    try:
        await server.wait_banner()
        reader, writer = await _connect(server.host, server.port)
        control = Wire(reader, writer, encode)
        hello = await control.call(
            Request(-1, "service.hello", {"client": "perfbench"}, "control")
        )
        log.append(hello)
        if not hello.ok or "direct_routing" not in hello.result["capabilities"]:
            raise RuntimeError(f"service.hello refused direct routing: {hello.code}")
        routes = await asyncio.gather(
            *(
                control.call(
                    Request(s, "service.route", {"session": seat_name(s)}, "control")
                )
                for s in range(cfg.seats)
            )
        )
        log.extend(routes)
        targets = {
            (r.result["host"], r.result["port"], r.result["generation"])
            for r in routes
            if r.ok and r.result.get("direct")
        }
        if len(targets) != 1 or not all(r.ok for r in routes):
            raise RuntimeError(f"expected one direct shard route, got {targets}")
        ((host, port, generation),) = targets
        reader, writer = await _connect(host, port)
        data = Wire(reader, writer, encode)
        firsts = await asyncio.gather(
            *(
                data.call(
                    Request(s, "new_cell", {"name": seat_cell(s)}, "setup"),
                    seat_name(s),
                    generation,
                )
                for s in range(cfg.seats)
            )
        )
        log.extend(firsts)
        setup_s = time.perf_counter() - t0
        if not all(r.ok for r in firsts):
            raise RuntimeError("a seat's first command failed")
        return Fleet(server, control, data, generation, setup_s)
    except BaseException:
        server.kill()
        raise


async def _create_instances(fleet: Fleet, cfg: SeatsConfig) -> list:
    """Give every seat the one instance its edits move and rotate."""
    return await asyncio.gather(
        *(
            fleet.data.call(
                Request(
                    s, "create",
                    {"at": (0, 20000), "cell_name": STOCK_CELL, "name": INSTANCE},
                    "setup",
                ),
                seat_name(s),
                fleet.generation,
            )
            for s in range(cfg.seats)
        )
    )


async def _connect(host: str, port: int):
    return await asyncio.open_connection(host, port, limit=1 << 20)


async def _stop_fleet(fleet: Fleet, log: list) -> int:
    """Drain, ask for a graceful shutdown and wait for the server to
    exit; the server is killed if any of that fails."""
    bye = Request(-1, "service.shutdown", {}, "control")
    log.append(bye)
    try:
        await fleet.data.drain_responses()
        await fleet.data.close()
        await fleet.control.call(bye)
        await fleet.control.close()
    except BaseException:
        fleet.server.kill()
        raise
    return await asyncio.to_thread(fleet.server.wait)


async def _drive(
    fleet: Fleet, arrivals, log: list, max_inflight: int | None = None
) -> list[Request]:
    """Send ``arrivals`` open loop, each at its due time; returns the
    requests sent (answers keep arriving after this returns).  Sending
    stops early once ``max_inflight`` requests are unanswered, so an
    overloaded ramp step ends before the server starts shedding."""
    prepared = []
    for a in arrivals:
        params = {"name": INSTANCE}
        if a.method == "move_by":
            params = {"name": INSTANCE, "dx": a.dx, "dy": a.dy}
        elif a.method == "cells":
            params = {}
        req = Request(a.seat, a.method, params, "edit" if a.is_edit else "read")
        id, line = fleet.data.prepare(req, seat_name(a.seat), fleet.generation)
        prepared.append((a.t, id, line, req))
    wire = fleet.data
    writer = wire.writer
    t0 = time.perf_counter() + 0.01
    sent = []
    for offset, id, line, req in prepared:
        if max_inflight is not None and len(wire.pending) >= max_inflight:
            break
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        req.t_sched = due
        req.t_send = time.perf_counter()
        req.inflight = len(wire.pending)
        wire.send(id, line, req)
        sent.append(req)
        log.append(req)
        if writer.transport.get_write_buffer_size() > 1 << 16:
            await writer.drain()
        elif delay <= 0:
            await asyncio.sleep(0)
    return sent


def _expected_cells(seat: int) -> list[str]:
    """What ``cells`` must answer for ``seat``: the stock menu every
    service session starts with, plus the seat's own composition."""
    from repro.core.editor import RiotEditor
    from repro.library.stock import filter_library

    editor = RiotEditor()
    editor.library = filter_library(editor.technology)
    editor.new_cell(seat_cell(seat))
    return list(editor.library.names)


def _check_wals(journal_dir: Path, cfg: SeatsConfig, edits: list[Request]) -> list[str]:
    """Each seat's WAL must hold new_cell, create, then exactly its
    acknowledged edits in send order."""
    from repro.core import wal

    problems = []
    acked: dict[int, list] = {s: [] for s in range(cfg.seats)}
    for req in edits:
        if req.ok:
            acked[req.seat].append((req.method, req.params))
    for seat in range(cfg.seats):
        path = journal_dir / "shard-0" / f"{seat_name(seat)}.wal"
        journal = wal.load_path(path)
        if journal.corruption is not None:
            problems.append(f"{seat_name(seat)}: WAL corrupt at {journal.corruption}")
            continue
        entries = [(e.command, dict(e.kwargs)) for e in journal.entries]
        head = [c for c, _ in entries[:2]]
        if head != ["new_cell", "create"]:
            problems.append(f"{seat_name(seat)}: WAL starts {head}")
            continue
        if entries[2:] != acked[seat]:
            problems.append(
                f"{seat_name(seat)}: WAL holds {len(entries) - 2} edits, "
                f"{len(acked[seat])} acknowledged"
            )
    return problems


def _step_result(
    offered: float, reqs: list[Request], duration: float, cut_short: bool
) -> measure.StepResult:
    edits = [r for r in reqs if r.kind == "edit"]
    middle = reqs[0].t_sched + duration / 2 if reqs else 0.0
    halves = (
        [r.inflight for r in reqs if r.t_sched < middle] or [0],
        [r.inflight for r in reqs if r.t_sched >= middle] or [0],
    )
    answered = sum(1 for r in reqs if r.ok)
    late = [(r.t_send - r.t_sched) * 1000.0 for r in reqs]
    scale = reqs[0].scale if reqs else 1.0
    return measure.StepResult(
        offered_rps=offered,
        achieved_rps=answered / duration / scale,
        edit_p99_ms=measure.summarize(r.latency_ms() for r in edits).p99,
        edits=len(edits),
        failures=sum(1 for r in reqs if not r.ok),
        gen_late_p99_ms=measure.summarize(late).p99,
        outstanding_first=sum(halves[0]) / len(halves[0]),
        outstanding_second=sum(halves[1]) / len(halves[1]),
        cut_short=cut_short,
    )


class Seats:
    """The scenario's work as a sequence of slices — the set-up, each
    nominal window, each ramp step — so that a run can interleave it
    with others.  The server stays up, idle, between slices; one event
    loop runs each slice to completion, with nothing left in flight."""

    def __init__(self, src: Path, work: Path, cfg: SeatsConfig, seed: int) -> None:
        self.src, self.work, self.cfg, self.seed = src, work, cfg, seed
        self.total = 1 + cfg.windows + cfg.ramps * len(cfg.ramp)
        self.setups: list[float] = []
        #: Each nominal window's requests.
        self.windows: list[list[Request]] = []
        self.ramps: list[list[measure.StepResult]] = []
        self.log: list[Request] = []
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0

    def slices(self):
        cfg, seed = self.cfg, self.seed
        loop = asyncio.new_event_loop()
        fleet = None
        try:
            encode = _encoder()
            for k in range(cfg.spawns):
                if fleet is not None:
                    loop.run_until_complete(_stop_fleet(fleet, self.log))
                before = measure.pace()
                fleet = loop.run_until_complete(
                    _start_fleet(self.src, self.work / f"spawn{k}", cfg, encode, self.log)
                )
                self.setups.append(measure.scale(fleet.setup_s, before, measure.pace()))
            creates = loop.run_until_complete(_create_instances(fleet, cfg))
            self.log.extend(creates)
            yield
            for w in range(cfg.windows):
                arrivals = measure.arrival_schedule(
                    seed, f"nominal{w}", cfg.nominal_rps, cfg.window_s, cfg.seats
                )
                self.windows.append(self._drive(loop, fleet, arrivals, None))
                yield
            for r in range(cfg.ramps):
                steps: list[measure.StepResult] = []
                self.ramps.append(steps)
                for i, rate in enumerate(cfg.ramp):
                    arrivals = measure.arrival_schedule(
                        seed, f"ramp{r}-step{i}", rate, cfg.step_s, cfg.seats
                    )
                    reqs = self._drive(loop, fleet, arrivals, MAX_INFLIGHT)
                    steps.append(
                        _step_result(rate, reqs, cfg.step_s, len(reqs) < len(arrivals))
                    )
                    yield
                    if measure.ramp_over(steps):
                        break
            stats = Request(-1, "service.stats", {}, "control")
            loop.run_until_complete(fleet.control.call(stats))
            self.log.append(stats)
            pids = [fleet.server.proc.pid]
            if stats.ok:
                pids += [s["pid"] for s in stats.result.get("shards", ()) if s.get("pid")]
            self.peak_rss_mb = _peak_rss_mb(pids)
            exit_code = loop.run_until_complete(_stop_fleet(fleet, self.log))
            server, fleet = fleet.server, None
        finally:
            if fleet is not None:
                fleet.server.kill()
            for task in asyncio.all_tasks(loop):
                task.cancel()
            loop.run_until_complete(asyncio.sleep(0))
            loop.close()
        if exit_code != 0:
            self.problems.append(f"server exited {exit_code}: {server.stderr()[-500:]}")
        edits = [r for r in self.log if r.kind == "edit"]
        self.problems += _check_wals(server.journal_dir, cfg, edits)
        expected = {}
        for req in self.log:
            if req.kind == "read" and req.ok:
                if req.seat not in expected:
                    expected[req.seat] = _expected_cells(req.seat)
                if list(req.result["names"]) != expected[req.seat]:
                    self.problems.append(
                        f"{seat_name(req.seat)}: read returned {req.result['names']}"
                    )
                    break

    def _drive(self, loop, fleet: Fleet, arrivals, max_inflight: int | None) -> list[Request]:
        """Send ``arrivals`` and wait for every answer, between two paces
        that give the requests their scale.  The harness's own garbage
        collection is kept out of the window, so it does not pause the
        clock requests are timed with."""
        before = measure.pace()
        gc.collect()
        gc.disable()
        try:
            reqs = loop.run_until_complete(_drive(fleet, arrivals, self.log, max_inflight))
            loop.run_until_complete(fleet.data.drain_responses())
        finally:
            gc.enable()
        scale = measure.scale(1.0, before, measure.pace())
        for req in reqs:
            req.scale = scale
        return reqs

    @property
    def nominal(self) -> list[Request]:
        return [r for window in self.windows for r in window]

    @property
    def setup_s(self) -> float:
        return measure.median(self.setups)


def sustained_rps(steps: list[measure.StepResult]) -> float:
    """One ramp's sustained rate: the answered rate of its highest
    passing step, 0 when none passed."""
    best = measure.sustained_step(steps)
    return best.achieved_rps if best else 0.0


def end_to_end(result: Seats) -> dict:
    """Nominal-phase median latencies and the median ramp's sustained
    rate."""
    out = {"samples": {}}
    for kind in ("edit", "read"):
        reqs = [r for r in result.nominal if r.kind == kind]
        out[f"{kind}_p50_ms"] = measure.median(r.latency_ms() for r in reqs)
        out["samples"][f"{kind}s"] = len(reqs)
    out["sustained_rps"] = measure.median(sustained_rps(steps) for steps in result.ramps)
    out["samples"]["ramps"] = len(result.ramps)
    return out


def per_layer(result: Seats) -> dict:
    """The nominal phase's tail latencies — each the median of the
    windows' p99s, so one burst of interference from outside the system
    spoils one window instead of the whole tail — and where its latency
    went, from each response's stage record and the client's own
    clock."""
    out = {}
    for kind in ("edit", "read"):
        out[f"seats.{kind}_p99_ms"] = measure.median(
            measure.percentile([r.latency_ms() for r in window if r.kind == kind], 99)
            for window in result.windows
        )
    parts: dict[str, list[float]] = {"wire": [], "shard_queue": [], "handler": [], "fsync": []}
    for req in result.nominal:
        if not req.ok:
            continue
        client_us = round((req.t_recv - req.t_sched) * 1e6)
        split = measure.attribute(client_us, req.stages)
        for name in ("wire", "shard_queue", "handler"):
            parts[name].append(split[name] / 1000.0)
        if req.kind == "edit":
            parts["fsync"].append(split["fsync"] / 1000.0)
    for name, values in parts.items():
        summary = measure.summarize(values)
        out[f"service.{name}_ms.p50"] = summary.p50
        out[f"service.{name}_ms.p99"] = summary.p99
    late = measure.summarize((r.t_send - r.t_sched) * 1000.0 for r in result.nominal)
    out["service.gen_late_ms.p99"] = late.p99
    codes = [r.code for r in result.log if r.code]
    out["service.errors"] = len(codes)
    out["service.backpressure"] = codes.count("service.backpressure")
    out["service.moved"] = codes.count("service.moved")
    return out
