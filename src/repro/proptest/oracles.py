"""Invariant oracles: the paper's guarantees as checkable properties.

Each oracle pairs a generator with a checker.  The checker either
returns (invariants held), returns ``"vacuous"`` (the case was
legitimately rejected before the invariant applied — e.g. a shrunk
wire set that is no longer planar), or raises :class:`OracleFailure`
with a description of the violated guarantee.

The oracle names map onto the paper's correctness claims:

``river``
    "no routes change layers and no two routes on the same layer
    cross", wires terminate exactly on their connector pairs, and the
    channel is sized to contain every wire.
``abut``
    abutment translates only the from instance and makes the named
    connector pairs coincide (warning, not moving further, when later
    pairs cannot be made); a refused overlap restores the original
    placement exactly.
``stretch``
    a REST-stretched cell puts every constrained pin exactly on its
    target, keeps all other coordinates' relative order (monotone
    maps), never moves the untouched axis, and still satisfies every
    minimum-spacing rule.
``wal``
    the write-ahead journal of a session, salvaged and replayed into
    a fresh editor over the same cell library, reproduces an
    equivalent session (same menu, same instances, same placements).
``pipeline``
    content-addressed cached verification equals fresh verification,
    before and after random cell edits.
``model``
    the composition model's cached views — every bounding box, every
    instance's connector list and each connector looked up by name —
    equal a cache-free recompute after every edit of a random tape.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Callable

from repro.composition.cell import CompositionError
from repro.composition.connector import INSIDE, classify_side
from repro.composition.instance import InstanceConnector
from repro.core.errors import RiotError
from repro.core.river import RiverRoute, route_channel
from repro.geometry.box import union_all
from repro.geometry.layers import nmos_technology
from repro.proptest import gen
from repro.proptest.gen import CaseInvalid
from repro.proptest.prng import Rng
from repro.rest.connectivity import build_connectivity
from repro.rest.errors import InfeasibleConstraints
from repro.rest.spacing import column_separation


class OracleFailure(AssertionError):
    """A generated case violated one of the paper's guarantees."""


@dataclass(frozen=True)
class Oracle:
    """One checkable guarantee: how to generate cases and check them."""

    name: str
    claim: str
    generate: Callable[[Rng], dict]
    check: Callable[[dict], str | None]
    #: Budget divisor: a run of N cases executes N // cost of these.
    cost: int = 1


# -- river -----------------------------------------------------------------


def _segments(wire, height: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    pts = wire.points(height)
    return [(a, b) for a, b in zip(pts, pts[1:]) if a != b]


def _seg_conflict(a, b) -> bool:
    """Do two Manhattan centreline segments share any point?"""
    (ax0, ay0), (ax1, ay1) = a
    (bx0, by0), (bx1, by1) = b
    a_vert, b_vert = ax0 == ax1, bx0 == bx1
    if a_vert and b_vert:
        if ax0 != bx0:
            return False
        lo = max(min(ay0, ay1), min(by0, by1))
        hi = min(max(ay0, ay1), max(by0, by1))
        return lo <= hi
    if not a_vert and not b_vert:
        if ay0 != by0:
            return False
        lo = max(min(ax0, ax1), min(bx0, bx1))
        hi = min(max(ax0, ax1), max(bx0, bx1))
        return lo <= hi
    if b_vert:
        a, b = b, a
        (ax0, ay0), (ax1, ay1) = a
        (bx0, by0), (bx1, by1) = b
    # a vertical, b horizontal
    return (
        min(bx0, bx1) <= ax0 <= max(bx0, bx1)
        and min(ay0, ay1) <= by0 <= max(ay0, ay1)
    )


def same_layer_conflicts(route: RiverRoute) -> list[tuple[str, str]]:
    """Every pair of distinct same-layer wires whose centrelines meet."""
    conflicts = []
    by_layer: dict[str, list] = {}
    for wire in route.wires:
        by_layer.setdefault(wire.layer_name, []).append(wire)
    for group in by_layer.values():
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                if any(
                    _seg_conflict(sa, sb)
                    for sa in _segments(a, route.height)
                    for sb in _segments(b, route.height)
                ):
                    conflicts.append((a.name, b.name))
    return conflicts


def check_river(case: dict) -> str | None:
    wires = gen.build_river_wires(case)
    technology = gen.build_technology(case)
    tracks = int(case.get("tracks_per_channel", 8))
    if tracks < 1:
        return "vacuous"
    try:
        route = route_channel(wires, technology, tracks_per_channel=tracks)
    except RiotError:
        return "vacuous"  # non-planar after shrinking: legitimately refused

    for wire in route.wires:
        pts = wire.points(route.height)
        if pts[0] != (wire.u_in, wire.entry_v):
            raise OracleFailure(
                f"wire {wire.name!r} does not start on its entry connector: "
                f"{pts[0]} != {(wire.u_in, wire.entry_v)}"
            )
        if pts[-1] != (wire.u_out, route.height):
            raise OracleFailure(
                f"wire {wire.name!r} does not end on its exit connector: "
                f"{pts[-1]} != {(wire.u_out, route.height)}"
            )
        for u, v in pts:
            if not 0 <= v <= route.height:
                raise OracleFailure(
                    f"wire {wire.name!r} leaves the channel at {(u, v)} "
                    f"(height {route.height})"
                )

    conflicts = same_layer_conflicts(route)
    if conflicts:
        raise OracleFailure(
            "same-layer wires cross or touch: "
            + ", ".join(f"{a}/{b}" for a, b in conflicts)
        )

    for layer, group in _group_by_layer(route).items():
        sep = technology.min_separation(layer)
        joggers = [w for w in group if w.needs_jog]
        for i, a in enumerate(joggers):
            for b in joggers[i + 1 :]:
                if a.track_v != b.track_v:
                    continue
                gap = max(
                    min(b.u_in, b.u_out) - b.width // 2
                    - (max(a.u_in, a.u_out) + a.width // 2),
                    min(a.u_in, a.u_out) - a.width // 2
                    - (max(b.u_in, b.u_out) + b.width // 2),
                )
                if gap <= sep:
                    raise OracleFailure(
                        f"wires {a.name!r} and {b.name!r} share track "
                        f"{a.track_v} with edge gap {gap} <= {sep}"
                    )

    max_tracks = max(route.tracks_by_layer.values(), default=0)
    expected = max(1, -(-max_tracks // tracks))
    if route.channels != expected:
        raise OracleFailure(
            f"channel count {route.channels} != ceil({max_tracks}/{tracks})"
        )
    return None


def _group_by_layer(route: RiverRoute) -> dict[str, list]:
    groups: dict[str, list] = {}
    for wire in route.wires:
        groups.setdefault(wire.layer_name, []).append(wire)
    return groups


# -- abut ------------------------------------------------------------------


def check_abut(case: dict) -> str | None:
    from repro.core.abut import abut

    editor, from_name, to_name, pairs = gen.build_abut_setup(case)
    cell = editor.cell
    before = {
        inst.name: inst.transform for inst in cell.instances
    }
    try:
        result = abut(editor.pending, overlap=bool(case.get("overlap")))
    except RiotError as exc:
        if "would overlap" not in str(exc):
            return "vacuous"
        # Refused overlap must restore every placement exactly.
        for inst in cell.instances:
            if inst.transform != before[inst.name]:
                raise OracleFailure(
                    f"refused abutment left {inst.name!r} moved: "
                    f"{before[inst.name]} -> {inst.transform}"
                ) from None
        return None

    # One-to-many rule: only the from instance may have moved.
    for inst in cell.instances:
        if inst.name != from_name and inst.transform != before[inst.name]:
            raise OracleFailure(
                f"abutment moved non-from instance {inst.name!r}"
            )

    resolved = [c.resolve() for c in editor.pending]
    a0, b0 = resolved[0]
    if a0.position != b0.position:
        raise OracleFailure(
            f"first connector pair not coincident after abutment: "
            f"{a0.position} != {b0.position}"
        )
    made = sum(1 for a, b in resolved if a.position == b.position)
    if result.made != made:
        raise OracleFailure(
            f"reported {result.made} made connections, geometry says {made}"
        )
    if len(result.warnings) != len(resolved) - made:
        raise OracleFailure(
            f"{len(result.warnings)} warnings for {len(resolved) - made} "
            "unmade connections"
        )
    return None


# -- stretch ---------------------------------------------------------------


def _axis_of(point, axis: str) -> int:
    return point.x if axis == "x" else point.y


def check_stretch(case: dict) -> str | None:
    from repro.rest.compactor import column_occupants
    from repro.rest.stretch import stretch_pins

    cell, axis, targets, technology = gen.build_stretch_setup(case)
    try:
        stretched = stretch_pins(cell, axis, targets, technology, name="stretched")
    except InfeasibleConstraints as exc:
        raise OracleFailure(
            f"feasible targets rejected as infeasible: {exc}"
        ) from None

    for name, target in targets.items():
        got = _axis_of(stretched.pin(name).point, axis)
        if got != target:
            raise OracleFailure(
                f"pin {name!r} at {got} on {axis}, constrained to {target}"
            )

    old_points = list(cell.all_points())
    new_points = list(stretched.all_points())
    other = "y" if axis == "x" else "x"
    for p_old, p_new in zip(old_points, new_points):
        if _axis_of(p_old, other) != _axis_of(p_new, other):
            raise OracleFailure(
                f"stretch along {axis} moved the {other} axis: "
                f"{p_old} -> {p_new}"
            )
    for i, (p_old, p_new) in enumerate(zip(old_points, new_points)):
        for q_old, q_new in list(zip(old_points, new_points))[i + 1 :]:
            a_old, a_new = _axis_of(p_old, axis), _axis_of(p_new, axis)
            b_old, b_new = _axis_of(q_old, axis), _axis_of(q_new, axis)
            if a_old == b_old and a_new != b_new:
                raise OracleFailure(
                    f"stretch split a column: {a_old} -> {a_new} and {b_new}"
                )
            if a_old < b_old and a_new > b_new:
                raise OracleFailure(
                    f"stretch reordered columns {a_old},{b_old} -> "
                    f"{a_new},{b_new}"
                )

    connectivity = build_connectivity(stretched)
    columns = column_occupants(stretched, technology, axis, connectivity)
    ordered = sorted(columns)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            needed = column_separation(
                columns[a], columns[b], technology, connectivity.gate_pairs
            )
            if b - a < needed:
                raise OracleFailure(
                    f"columns {a} and {b} are {b - a} apart but the design "
                    f"rules need {needed}"
                )
    return None


# -- wal -------------------------------------------------------------------


def check_wal(case: dict) -> str | None:
    from repro.core import wal
    from repro.core.errors import ReplayError
    from repro.core.editor import RiotEditor

    with tempfile.TemporaryDirectory(prefix="riot-proptest-") as tmp:
        path = f"{tmp}/session.rpl"
        editor = RiotEditor(nmos_technology(), wal=path)
        editor.library = gen.build_session_library(case)
        gen.apply_session_ops(editor, case)
        want = gen.describe_editor(editor)
        recorded = len(editor.journal.entries)
        editor.journal.writer.close()

        salvaged = wal.load_path(path)
        if salvaged.corruption is not None:
            raise OracleFailure(
                f"cleanly closed WAL reports corruption: {salvaged.corruption}"
            )
        if len(salvaged.entries) != recorded:
            raise OracleFailure(
                f"WAL holds {len(salvaged.entries)} entries, editor "
                f"committed {recorded}"
            )

        fresh = RiotEditor(nmos_technology())
        fresh.library = gen.build_session_library(case)
        try:
            report = salvaged.replay(fresh, mode="strict")
        except ReplayError as exc:
            raise OracleFailure(
                f"strict replay of a committed journal failed: {exc}"
            ) from None
        if report.executed != recorded:
            raise OracleFailure(
                f"replay executed {report.executed} of {recorded} commands"
            )
        got = gen.describe_editor(fresh)
        if got != want:
            raise OracleFailure(
                f"replayed session differs from original:\n"
                f"  original: {want}\n  replayed: {got}"
            )
    return None


# -- pipeline --------------------------------------------------------------


def _report_digest(report) -> str:
    return report.summary()


def check_pipeline(case: dict) -> str | None:
    from repro.core.editor import RiotEditor
    from repro.pipeline import run_verification

    editor = RiotEditor(nmos_technology())
    editor.library = gen.build_session_library(case.get("session", {}))
    instances = gen.apply_session_ops(editor, case.get("session", {}))
    cell = editor.cell
    if cell is None or not cell.instances:
        return "vacuous"
    technology = editor.technology

    def verify(cache=None) -> str:
        try:
            result = run_verification([cell], technology, cache=cache)
        except CompositionError:
            raise
        return _report_digest(result.reports[cell.name])

    with tempfile.TemporaryDirectory(prefix="riot-proptest-") as tmp:
        fresh = verify()
        cold = verify(cache=tmp)
        if cold != fresh:
            raise OracleFailure(
                f"cold-cache verification differs from fresh:\n"
                f"  fresh: {fresh}\n  cached: {cold}"
            )
        warm = verify(cache=tmp)
        if warm != fresh:
            raise OracleFailure(
                f"warm-cache verification differs from fresh:\n"
                f"  fresh: {fresh}\n  cached: {warm}"
            )

        edit = case.get("edit", {})
        if instances:
            target = instances[int(edit.get("inst", 0)) % len(instances)]
            editor.move_by(target, int(edit.get("dx", 0)), int(edit.get("dy", 0)))
            fresh2 = verify()
            cached2 = verify(cache=tmp)
            if cached2 != fresh2:
                raise OracleFailure(
                    f"post-edit cached verification differs from fresh:\n"
                    f"  fresh: {fresh2}\n  cached: {cached2}"
                )
    return None


# -- floorplan -------------------------------------------------------------


def gen_floorplan(rng: Rng) -> dict:
    """A small-tier synthetic chip (the full generator, smallest size)."""
    from repro.floorplan.generator import gen_floorplan_case

    return gen_floorplan_case(rng, "small")


def check_floorplan(case: dict) -> str | None:
    """Assemble the chip end to end and run every floorplan invariant:
    abut coincidence, stretch rebinding, route separation, no sibling
    overlaps, and strict WAL replay equivalence."""
    from repro.errors import ReproError
    from repro.floorplan.assemble import assemble_floorplan
    from repro.floorplan.checks import run_floorplan_checks

    try:
        report = assemble_floorplan(case)
    except ReproError as exc:
        raise OracleFailure(f"assembly failed: {exc}") from exc
    try:
        run_floorplan_checks(report)
    except OracleFailure:
        raise
    except AssertionError as exc:
        raise OracleFailure(str(exc)) from exc
    return None


# -- model -----------------------------------------------------------------
#
# The reference below computes the composition model from scratch,
# caching nothing; the oracle holds the cached views to it after every
# op.


def _fresh_cell_box(cell):
    if cell.is_leaf:
        return cell.bounding_box()
    return union_all(_fresh_instance_box(inst) for inst in cell.instances)


def _fresh_instance_box(inst):
    cell_box = _fresh_cell_box(inst.cell)
    box = inst.transform.apply_box(cell_box)
    if inst.is_array:
        last = inst.element_transform(inst.nx - 1, inst.ny - 1)
        box = box.union(last.apply_box(cell_box))
    return box


def _fresh_connectors(inst) -> list:
    box = _fresh_instance_box(inst)
    result = []
    for conn in inst.cell.connectors:
        for i, j, transform in inst.element_transforms():
            position = transform.apply(conn.position)
            side = (
                classify_side(position, box)
                if box.contains_point(position)
                else INSIDE
            )
            if inst.is_array and side == INSIDE:
                continue
            result.append(
                InstanceConnector(
                    instance=inst,
                    base_name=conn.name,
                    element=(i, j),
                    name=f"{conn.name}[{i},{j}]" if inst.is_array else conn.name,
                    position=position,
                    layer=conn.layer,
                    width=conn.width,
                    side=side,
                )
            )
    return result


def _fresh_connector(fresh: list, name: str):
    for conn in fresh:
        if conn.name == name:
            return conn
    for conn in fresh:
        if conn.base_name == name and conn.element == (0, 0):
            return conn
    return None


def _model_drift(library) -> str | None:
    """The first cached view that differs from its fresh recompute."""
    for cell in library.cells:
        if cell.is_leaf or not cell.instances:
            continue
        if cell.bounding_box() != _fresh_cell_box(cell):
            return (
                f"cell {cell.name}: bounding box {cell.bounding_box()} != "
                f"fresh {_fresh_cell_box(cell)}"
            )
        for inst in cell.instances:
            where = f"{cell.name}.{inst.name}"
            if inst.bounding_box() != _fresh_instance_box(inst):
                return (
                    f"{where}: bounding box {inst.bounding_box()} != "
                    f"fresh {_fresh_instance_box(inst)}"
                )
            fresh = _fresh_connectors(inst)
            if inst.connectors() != fresh:
                return f"{where}: connectors {inst.connectors()} != fresh {fresh}"
            names = [conn.name for conn in fresh]
            names += [conn.name for conn in inst.cell.connectors]
            for name in names:
                try:
                    cached = inst.connector(name)
                except KeyError:
                    cached = None
                if cached != _fresh_connector(fresh, name):
                    return (
                        f"{where}: connector({name!r}) {cached} != fresh "
                        f"{_fresh_connector(fresh, name)}"
                    )
    return None


def check_model(case: dict) -> str | None:
    from repro.api.session import Session
    from repro.core.editor import RiotEditor

    editor = RiotEditor(nmos_technology())
    editor.library = gen.build_session_library(case)
    session = Session(editor=editor)
    for step, op in enumerate(case.get("ops", [])):
        gen.apply_model_op(session, op)
        drift = _model_drift(editor.library)
        if drift is not None:
            raise OracleFailure(f"after op {step} ({op.get('op')}): {drift}")
    return None


# -- registry --------------------------------------------------------------

ORACLES: dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        Oracle(
            name="river",
            claim=(
                "a river route never changes layers, never crosses wires on "
                "one layer, and terminates exactly on its connector pairs"
            ),
            generate=gen.gen_river_case,
            check=check_river,
        ),
        Oracle(
            name="abut",
            claim=(
                "abutment moves only the from instance, coincides the named "
                "connector pairs, and a refused overlap restores placement"
            ),
            generate=gen.gen_abut_case,
            check=check_abut,
        ),
        Oracle(
            name="stretch",
            claim=(
                "REST stretching satisfies every injected pin constraint and "
                "every minimum-spacing rule while preserving topology"
            ),
            generate=gen.gen_stretch_case,
            check=check_stretch,
        ),
        Oracle(
            name="wal",
            claim=(
                "replaying a session's write-ahead journal reproduces an "
                "equivalent session"
            ),
            generate=gen.gen_session_case,
            check=check_wal,
            cost=4,
        ),
        Oracle(
            name="floorplan",
            claim=(
                "a generated chip assembles with abut/stretch/route edges "
                "that coincide, separate, and strict-replay from the journal"
            ),
            generate=gen_floorplan,
            check=check_floorplan,
            cost=16,
        ),
        Oracle(
            name="model",
            claim=(
                "cached bounding boxes and connector views equal a fresh "
                "recompute after every edit, rollback and leaf replacement"
            ),
            generate=gen.gen_model_case,
            check=check_model,
        ),
        Oracle(
            name="pipeline",
            claim=(
                "cached verification results equal fresh results, before and "
                "after random cell edits"
            ),
            generate=gen.gen_pipeline_case,
            check=check_pipeline,
            cost=8,
        ),
    )
}

__all__ = [
    "ORACLES",
    "CaseInvalid",
    "Oracle",
    "OracleFailure",
    "same_layer_conflicts",
]
