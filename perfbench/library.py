"""The ``library`` scenario: a shared cell store under a publishing seat.

An on-disk :class:`repro.cellstore.CellStore` sits behind an
in-process ``Session(cellstore=...)``; every operation is a typed
``library.*`` request through ``Session.dispatch``.  Set-up publishes
a hot leaf and D dependent compositions, each built in its own scratch
session so it carries its own REPLAY journal: two instances of the hot
leaf at seeded positions, wired through the leaf's power and ground
connectors and abutted.

The run then mixes, in a seeded order:

* ``library.get`` of a dependent (its closure loads into the session)
  and ``library.resolve`` of a dependent's ref — reads;
* ``library.publish`` of a fresh leaf nothing depends on — a blob fsync
  plus a refs-log fsync;
* ``library.publish`` of a new hot-leaf version, whose cascade replays
  every dependent.  Two of every three versions are compatible; the
  third renames the ``PWRR`` connector.

Output checks: reads return the hash published at set-up; a fresh
publish is version 1 with no impact; a compatible hot version leaves
every dependent surviving, and the renaming one breaks every
dependent at its ``connect`` with the stable code ``args.key``.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import measure

HOT = "hot"
#: The hot leaf's connector the breaking version renames.
RENAMED = ("PWRR", "PWRX")
BREAK_CODE = ("connect", "args.key")


@dataclass(frozen=True)
class LibraryConfig:
    dependents: int
    #: Operations on each store before the next round sets up a fresh
    #: one.  The store grows with every publish and some operations
    #: scan it, so a fixed round keeps their cost the same in every run
    #: however many operations the host's speed fits into it.
    ops_per_round: int
    #: Rounds in a fixed-work run; a timed run makes rounds while
    #: another one fits in its seconds.
    rounds: int


#: Operations per slice of the run.
BATCH = 25


#: The probe and the traced run make three rounds; the full scenario
#: makes rounds for the run's seconds.
CONFIG = LibraryConfig(dependents=20, ops_per_round=200, rounds=3)


def _payloads() -> dict:
    """The hot leaf's three payloads (sticks text of the stock ``nand``
    renamed ``hot``) and a template for fresh leaves."""
    from repro.core.editor import RiotEditor
    from repro.library.stock import filter_library
    from repro.sticks.writer import write_sticks

    editor = RiotEditor()
    nand = filter_library(editor.technology).get("nand")
    text = write_sticks([nand.sticks_cell])
    base = text.replace("STICKS nand", f"STICKS {HOT}")
    lines = base.splitlines(keepends=True)
    wires = [i for i, line in enumerate(lines) if line.startswith("WIRE ")]
    # A compatible variant: the same cell with its first two wires
    # listed in the other order — new bytes, same connectors.
    swapped = list(lines)
    swapped[wires[0]], swapped[wires[1]] = lines[wires[1]], lines[wires[0]]
    return {
        "hot": base,
        "compatible": "".join(swapped),
        "breaking": base.replace(f"PIN {RENAMED[0]} ", f"PIN {RENAMED[1]} "),
        "fresh": text,
    }


def _stock_session(store):
    from repro.api.session import Session
    from repro.cellstore.cascade import fresh_editor

    return Session(editor=fresh_editor(), cellstore=store)


@dataclass
class Store:
    store: object
    session: object
    published: dict  # composition name -> hash
    setup_s: float


def set_up(root: Path, cfg: LibraryConfig, seed: int, payloads: dict) -> Store:
    """Create the store, publish the hot leaf, then every dependent."""
    from repro.api import types as t
    from repro.cellstore import CellStore
    from repro.cellstore.cascade import overlay_payload

    rng = random.Random(f"perfbench:{seed}:dependents")
    laps = measure.Laps()
    store = CellStore(root)
    session = _stock_session(store)
    overlay_payload(session.editor.library, "sticks", payloads["hot"])
    session.dispatch(t.LibraryPublishRequest(name=HOT, expected_version=0))
    published = {}
    lam = 250
    for i in range(cfg.dependents):
        name = f"dep{i:03d}"
        seat = _stock_session(store)
        seat.dispatch(t.LibraryGetRequest(ref=f"{HOT}@1"))
        seat.dispatch(t.NewCellRequest(name=name))
        x, y = rng.randint(0, 60) * lam, rng.randint(0, 60) * lam
        gap, lift = rng.randint(4, 40) * lam, rng.randint(-8, 8) * lam
        seat.dispatch(t.CreateRequest(at=(x, y), cell_name=HOT, name="h0"))
        seat.dispatch(
            t.CreateRequest(at=(x + 5200 + gap, y + lift), cell_name=HOT, name="h1")
        )
        for left, right in (("PWRL", "PWRR"), ("GNDL", "GNDR")):
            seat.dispatch(
                t.ConnectRequest(
                    from_instance="h1",
                    from_connector=left,
                    to_instance="h0",
                    to_connector=right,
                )
            )
        seat.dispatch(t.AbutRequest())
        result = seat.dispatch(t.LibraryPublishRequest(name=name, expected_version=0))
        if result.deps != (f"{HOT}@1",):
            raise RuntimeError(f"{name} pinned {result.deps}, expected {HOT}@1")
        published[name] = result.hash
    return Store(store, session, published, laps.lap())


@dataclass
class Op:
    kind: str  # "get", "resolve", "publish" or "cascade"
    wall_s: float
    survivors: int = 0
    dependents: int = 0


def op_kinds(seed: int, round: int, count: int) -> list[str]:
    """The seeded operation kinds of one round."""
    rng = random.Random(f"perfbench:{seed}:library-ops:{round}")
    kinds = []
    for _ in range(count):
        r = rng.random()
        kinds.append(
            "get" if r < 0.4 else "resolve" if r < 0.7 else "publish" if r < 0.9 else "cascade"
        )
    return kinds


def run_ops(st: Store, kinds, rng: random.Random, payloads: dict, ops: list, problems: list):
    """Execute ``kinds`` in order, appending each timed operation to
    ``ops`` and any output-check problem to ``problems``; yields after
    every :data:`BATCH` operations.  Operation times are in reference
    seconds, scaled by the paces taken before and after their batch."""
    from repro.api import types as t
    from repro.cellstore.cascade import overlay_payload

    session, names = st.session, sorted(st.published)
    library = session.editor.library
    fresh = versions = 0
    batch: list[Op] = []
    before = measure.pace()
    for i, kind in enumerate(kinds):
        if i and i % BATCH == 0:
            _flush(batch, before, ops)
            yield
            before = measure.pace()
        if kind in ("get", "resolve"):
            name = names[rng.randrange(len(names))]
            request = (
                t.LibraryGetRequest(ref=name)
                if kind == "get"
                else t.LibraryResolveRequest(ref=f"{name}@1")
            )
            start = time.perf_counter()
            result = session.dispatch(request)
            batch.append(Op(kind, time.perf_counter() - start))
            if result.hash != st.published[name]:
                problems.append(f"{kind} {name}: hash {result.hash} != published")
        elif kind == "publish":
            fresh += 1
            leaf = f"leaf{fresh:05d}"
            overlay_payload(
                library, "sticks", payloads["fresh"].replace("STICKS nand", f"STICKS {leaf}")
            )
            start = time.perf_counter()
            result = session.dispatch(t.LibraryPublishRequest(name=leaf))
            batch.append(Op(kind, time.perf_counter() - start))
            if result.version != 1 or result.impact:
                problems.append(f"publish {leaf}: version {result.version}, impact {result.impact}")
        else:
            versions += 1
            breaking = versions % 3 == 0
            overlay_payload(
                library, "sticks", payloads["breaking" if breaking else "compatible"]
            )
            start = time.perf_counter()
            result = session.dispatch(t.LibraryPublishRequest(name=HOT))
            wall = time.perf_counter() - start
            survivors = sum(1 for e in result.impact if e.survived)
            batch.append(Op(kind, wall, survivors, len(result.impact)))
            problems += _check_impact(result.impact, len(names), breaking)
    _flush(batch, before, ops)


def _flush(batch: list, before: float, ops: list) -> None:
    """Scale ``batch``'s times by the paces around it and move it to ``ops``."""
    after = measure.pace()
    for op in batch:
        op.wall_s = measure.scale(op.wall_s, before, after)
    ops.extend(batch)
    batch.clear()


def _check_impact(impact, dependents: int, breaking: bool) -> list[str]:
    if len(impact) != dependents:
        return [f"cascade replayed {len(impact)} of {dependents} dependents"]
    for entry in impact:
        if not breaking and not entry.survived:
            return [f"{entry.composition} broke under a compatible version: {entry.failures}"]
        if breaking:
            first = entry.failures[0] if entry.failures else None
            if entry.survived or (first.command, first.code) != BREAK_CODE:
                return [f"{entry.composition} did not break with {BREAK_CODE}: {entry.failures}"]
    return []


class Library:
    """The scenario's work as a sequence of slices of :data:`BATCH`
    operations each, so that a run can interleave it with others.  The
    first slice of every round also sets up its store; ``setup_s`` is
    the median set-up.

    With ``seconds`` None the scenario makes ``cfg.rounds`` rounds (a
    fixed amount of work, as probes and the traced run need); otherwise
    rounds while another one fits in ``seconds`` of its own time.
    ``tracer`` (a :class:`perfbench.layers.Tracer`) is installed around
    the operations only."""

    def __init__(self, work: Path, cfg: LibraryConfig, seed: int,
                 seconds: float | None, tracer=None) -> None:
        self.work, self.cfg, self.seed = work, cfg, seed
        self.seconds, self.tracer = seconds, tracer
        self.setups: list[float] = []
        self.ops: list[Op] = []
        self.problems: list[str] = []
        self.total = cfg.rounds * -(-cfg.ops_per_round // BATCH)

    def slices(self):
        cfg = self.cfg
        payloads = _payloads()
        spent = 0.0
        for round in itertools.count():
            if self.seconds is None:
                if round == cfg.rounds:
                    return
            elif round and spent + spent / round > self.seconds:
                return
            start = time.perf_counter()
            root = self.work / f"store{round}"
            st = set_up(root, cfg, self.seed, payloads)
            self.setups.append(st.setup_s)
            batches = run_ops(
                st,
                op_kinds(self.seed, round, cfg.ops_per_round),
                random.Random(f"perfbench:{self.seed}:library-targets:{round}"),
                payloads,
                self.ops,
                self.problems,
            )
            finished = object()
            done = False
            while not done:
                with self.tracer or contextlib.nullcontext():
                    done = next(batches, finished) is finished
                spent += time.perf_counter() - start
                yield
                start = time.perf_counter()
            shutil.rmtree(root, ignore_errors=True)

    @property
    def setup_s(self) -> float:
        return measure.median(self.setups)

    @property
    def wall_s(self) -> float:
        """Summed operation times: the traced run's base."""
        return sum(op.wall_s for op in self.ops)


def end_to_end(result: Library) -> dict:
    def ms(kind):
        return [op.wall_s * 1000.0 for op in result.ops if op.kind == kind]

    cascades = [
        op.wall_s * 1000.0 / op.dependents for op in result.ops if op.kind == "cascade"
    ]
    return {
        "publish_p50_ms": measure.median(ms("publish")),
        "get_p50_ms": measure.median(ms("get")),
        "cascade_ms_per_dep": measure.median(cascades),
        "samples": {
            "publishes": len(ms("publish")),
            "gets": len(ms("get")),
            "cascades": len(cascades),
        },
    }


def per_layer(result: Library) -> dict:
    cascades = [op for op in result.ops if op.kind == "cascade"]
    dependents = sum(op.dependents for op in cascades)
    return {
        "cellstore.survival_ratio": (
            sum(op.survivors for op in cascades) / dependents if dependents else 0.0
        )
    }
