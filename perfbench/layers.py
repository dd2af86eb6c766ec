"""Per-layer tracing from outside the program.

The traced run wraps the public functions at each layer boundary —
``Session.dispatch``, ``Instance.connectors``, ``bounding_box``,
``plan_route``, ``compact``, the floorplan checks, ``hash_cell``,
``CellStore.publish`` and the rest of :data:`TARGETS` — with a counter
and a timer, then restores them.  Nothing in ``src/`` changes.

Counts include every call.  Time is outermost-only per group, so a
recursive ``bounding_box`` or a ``dispatch`` nested inside a cascade
replay is not counted twice; a group's time therefore includes its
own nested calls to other groups (``core.stretch.s`` includes the
abutment a stretch finishes with).
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner`` is a module path, optionally
    followed by ``:Class``; ``group`` names the metrics it feeds."""

    owner: str
    attr: str
    group: str
    timed: bool = True


TARGETS = (
    Target("repro.api.session:Session", "dispatch", "api.dispatch"),
    Target("repro.composition.instance:Instance", "connectors", "composition.connectors"),
    Target("repro.composition.instance:Instance", "connector", "composition.connector", timed=False),
    Target("repro.composition.instance:Instance", "bounding_box", "composition.bbox"),
    Target("repro.composition.cell:LeafCell", "bounding_box", "composition.bbox"),
    Target("repro.composition.cell:CompositionCell", "bounding_box", "composition.bbox"),
    Target("repro.composition.cell:CompositionCell", "refresh_connectors", "composition.refresh"),
    Target("repro.geometry.point:Point", "__post_init__", "geometry.point", timed=False),
    Target("repro.core.river", "plan_route", "core.river"),
    Target("repro.core.river", "route_channel", "core.river"),
    Target("repro.core.abut", "abut", "core.abut"),
    Target("repro.core.stretch_op", "stretch", "core.stretch"),
    Target("repro.rest.compactor", "compact", "rest.compact"),
    Target("repro.rest.compactor", "compact_axis", "rest.compact"),
    Target("repro.floorplan.checks", "check_abut_edges", "floorplan.check_abut"),
    Target("repro.floorplan.checks", "check_stretch_edges", "floorplan.check_stretch"),
    Target("repro.floorplan.checks", "check_route_edges", "floorplan.check_route"),
    Target("repro.floorplan.checks", "check_no_overlaps", "floorplan.check_overlap"),
    Target("repro.floorplan.checks", "check_wal_replay", "floorplan.check_replay"),
    Target("repro.pipeline.hashing", "hash_cell", "pipeline.hash"),
    Target("repro.cellstore.store:CellStore", "publish", "cellstore.publish"),
    Target("repro.cellstore.store:CellStore", "resolve", "cellstore.resolve"),
    Target("repro.cellstore.cascade", "assess_impact", "cellstore.impact"),
    Target("repro.cellstore.cascade", "replay_with_codes", "cellstore.replay"),
)

#: ``Session.dispatch`` time is also split by request type.
DISPATCH_SPLIT = {
    "CreateRequest": "api.create",
    "ConnectRequest": "api.connect",
    "AbutRequest": "api.abut",
    "StretchRequest": "api.stretch",
    "RouteRequest": "api.route",
}


class Tracer:
    """Counts and outermost-call times per group while installed."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self._depth: Counter = Counter()
        self._undo: list = []

    # -- the wrappers ----------------------------------------------------

    def _timed(self, group: str, original):
        calls, seconds, depth = self.calls, self.seconds, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[group] += 1
            if depth[group]:
                depth[group] += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    depth[group] -= 1
            depth[group] = 1
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[group] += clock() - start
                depth[group] = 0

        return wrapper

    def _counted(self, group: str, original):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[group] += 1
            return original(*args, **kwargs)

        return wrapper

    def _dispatch(self, original):
        """``Session.dispatch``: the api group plus a per-type split."""
        inner = self._timed("api.dispatch", original)
        seconds, depth = self.seconds, self._depth
        clock = time.perf_counter

        def wrapper(session, request, *args, **kwargs):
            split = DISPATCH_SPLIT.get(type(request).__name__)
            if split is None or depth[split]:
                return inner(session, request, *args, **kwargs)
            depth[split] = 1
            start = clock()
            try:
                return inner(session, request, *args, **kwargs)
            finally:
                seconds[split] += clock() - start
                depth[split] = 0

        return wrapper

    def _fsync(self, original):
        """``os.fsync``, counted only while a ``CellStore.publish`` runs."""
        calls, seconds, depth = self.calls, self.seconds, self._depth
        clock = time.perf_counter

        def wrapper(fd):
            if not depth["cellstore.publish"]:
                return original(fd)
            calls["cellstore.fsync"] += 1
            start = clock()
            try:
                return original(fd)
            finally:
                seconds["cellstore.fsync"] += clock() - start

        return wrapper

    # -- install / uninstall ---------------------------------------------

    def _replace(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def install(self) -> "Tracer":
        for target in TARGETS:
            module_name, _, cls = target.owner.partition(":")
            module = importlib.import_module(module_name)
            holder = getattr(module, cls) if cls else module
            original = holder.__dict__[target.attr]
            if target.attr == "dispatch":
                wrapper = self._dispatch(original)
            elif target.timed:
                wrapper = self._timed(target.group, original)
            else:
                wrapper = self._counted(target.group, original)
            self._replace(holder, target.attr, wrapper)
            if not cls:
                # ``from module import name`` copies elsewhere see the
                # wrapper too.
                for other in list(sys.modules.values()):
                    namespace = getattr(other, "__dict__", None)
                    if other is module or namespace is None:
                        continue
                    if namespace.get(target.attr) is original:
                        self._replace(other, target.attr, wrapper)
        self._replace(os, "fsync", self._fsync(os.fsync))
        return self

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


#: Every count and time the tracer reports, with its unit.
TRACED = (
    ("api.dispatch.calls", "api.dispatch", "calls"),
    ("api.dispatch.s", "api.dispatch", "s"),
    *((f"{group}.s", group, "s") for group in DISPATCH_SPLIT.values()),
    ("composition.connectors.calls", "composition.connectors", "calls"),
    ("composition.connectors.s", "composition.connectors", "s"),
    ("composition.connector.calls", "composition.connector", "calls"),
    ("composition.bbox.calls", "composition.bbox", "calls"),
    ("composition.bbox.s", "composition.bbox", "s"),
    ("composition.refresh.calls", "composition.refresh", "calls"),
    ("geometry.point.calls", "geometry.point", "calls"),
    ("core.river.calls", "core.river", "calls"),
    ("core.river.s", "core.river", "s"),
    ("core.abut.s", "core.abut", "s"),
    ("core.stretch.s", "core.stretch", "s"),
    ("rest.compact.calls", "rest.compact", "calls"),
    ("rest.compact.s", "rest.compact", "s"),
    ("floorplan.check_abut.s", "floorplan.check_abut", "s"),
    ("floorplan.check_stretch.s", "floorplan.check_stretch", "s"),
    ("floorplan.check_route.s", "floorplan.check_route", "s"),
    ("floorplan.check_overlap.s", "floorplan.check_overlap", "s"),
    ("floorplan.check_replay.s", "floorplan.check_replay", "s"),
    ("pipeline.hash.s", "pipeline.hash", "s"),
    ("cellstore.publish.s", "cellstore.publish", "s"),
    ("cellstore.resolve.s", "cellstore.resolve", "s"),
    ("cellstore.impact.s", "cellstore.impact", "s"),
    ("cellstore.replay.s", "cellstore.replay", "s"),
    ("cellstore.fsync.calls", "cellstore.fsync", "calls"),
    ("cellstore.fsync.s", "cellstore.fsync", "s"),
)


def report(tracer: Tracer) -> dict:
    """The tracer's numbers under their metric names."""
    out = {}
    for name, group, kind in TRACED:
        out[name] = tracer.calls[group] if kind == "calls" else tracer.seconds[group]
    return out
