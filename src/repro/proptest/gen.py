"""Random-case generators.

Every generator produces a *case*: a plain JSON-able dict (ints,
strings, lists, dicts only).  Cases serialise to the corpus directory
unchanged, shrink by structural edits, and materialise into live
objects through the ``build_*`` functions.  Generators construct cases
that are valid by construction (planar wire sets, pins on boundaries,
feasible stretch targets); shrinking may produce cases the builders
reject, which raise :class:`CaseInvalid` and count as vacuous passes.

All coordinates are centimicrons in the default NMOS technology
(lambda = 250) unless the case carries its own ``lambda``.
"""

from __future__ import annotations

from repro.composition.cell import LeafCell
from repro.composition.library import CellLibrary
from repro.core.editor import RiotEditor
from repro.core.river import RiverWire
from repro.geometry.box import Box
from repro.geometry.layers import Technology, nmos_technology
from repro.geometry.point import Point
from repro.proptest.prng import Rng
from repro.sticks.model import Contact, Device, Pin, SticksCell, SymbolicWire


class CaseInvalid(ValueError):
    """A (typically shrunk) case the builders cannot materialise."""


#: Routing layers the generators draw from, with plausible wire widths
#: (centimicrons) per layer.
ROUTE_LAYERS = ("metal", "poly", "diffusion")
ROUTE_WIDTHS = {"metal": (750, 1000, 1250), "poly": (500, 750), "diffusion": (500, 750)}

LAMBDAS = (100, 250, 400)


def build_technology(case: dict) -> Technology:
    lam = int(case.get("lambda", 250))
    if lam < 25:
        raise CaseInvalid(f"lambda {lam} below the 0.25-micron floor")
    return nmos_technology(lam)


def gen_technology_case(rng: Rng) -> dict:
    return {"lambda": rng.choice(LAMBDAS)}


# -- river connector vectors ---------------------------------------------


def gen_river_case(rng: Rng) -> dict:
    """A planar-by-construction multi-layer wire set.

    Per layer: strictly increasing entry positions; exits are entries
    plus a shared shift plus a non-decreasing cumulative growth, which
    keeps exits strictly increasing too — exactly the order-preserving
    sets a river route is defined on.
    """
    tech_case = gen_technology_case(rng)
    lam = tech_case["lambda"]
    wires = []
    for layer in rng.sample(ROUTE_LAYERS, rng.randint(1, len(ROUTE_LAYERS))):
        count = rng.randint(0, 6)
        if not count:
            continue
        u = rng.randint(-20, 20) * lam
        shift = rng.randint(-30, 30) * lam
        grow = 0
        for index in range(count):
            u += rng.randint(8, 40) * lam
            grow += rng.randint(0, 20) * lam
            wires.append(
                {
                    "name": f"{layer}{index}",
                    "layer": layer,
                    "width": rng.choice(ROUTE_WIDTHS[layer]),
                    "u_in": u,
                    "u_out": u + shift + grow,
                    "entry_v": rng.randint(0, 4) * lam,
                }
            )
    if not wires:
        wires.append(
            {
                "name": "w0",
                "layer": "metal",
                "width": 1000,
                "u_in": 0,
                "u_out": 0,
                "entry_v": 0,
            }
        )
    return {
        "lambda": lam,
        "tracks_per_channel": rng.randint(1, 8),
        "wires": wires,
    }


def build_river_wires(case: dict) -> list[RiverWire]:
    wires = []
    for w in case.get("wires", []):
        try:
            wires.append(
                RiverWire(
                    str(w["name"]),
                    str(w["layer"]),
                    int(w["width"]),
                    int(w["u_in"]),
                    int(w["u_out"]),
                    entry_v=int(w["entry_v"]),
                )
            )
        except (KeyError, TypeError) as exc:
            raise CaseInvalid(f"bad wire {w!r}: {exc}") from None
    if not wires:
        raise CaseInvalid("river case with no wires")
    lam = int(case.get("lambda", 250))
    for w in wires:
        if w.width < lam or w.entry_v < 0:
            raise CaseInvalid(f"bad wire geometry {w.name!r}")
        if w.layer_name not in ROUTE_WIDTHS:
            raise CaseInvalid(f"unknown layer {w.layer_name!r}")
    return wires


# -- symbolic leaf cells ----------------------------------------------------


def gen_sticks_case(rng: Rng, name: str = "cell", pin_side: str = "bottom") -> dict:
    """A small valid Sticks leaf cell on a 12-lambda column grid.

    Pins sit on the ``pin_side`` edge of an explicit boundary, one per
    column, so the cell abuts and stretches like the paper's leaf
    cells.  Columns optionally carry a vertical wire, a contact, or a
    transistor; one horizontal spine wire may tie columns together.
    The 12-lambda pitch clears the worst pairwise separation any
    column combination can demand (two facing transistor diffusions:
    9 lambda), so generated cells satisfy the design rules as built —
    the ``stretch`` oracle's feasibility argument depends on it.
    """
    lam = 250
    grid = 12 * lam
    columns = rng.randint(2, 5)
    depth = rng.randint(3, 6) * grid  # cell extent away from the pin edge
    case: dict = {
        "name": name,
        "lambda": lam,
        "pin_side": pin_side,
        "columns": columns,
        "grid": grid,
        "depth": depth,
        "pins": [],
        "risers": [],
        "contacts": [],
        "devices": [],
        "spine": None,
    }
    for i in range(columns):
        layer = rng.choice(("metal", "poly"))
        case["pins"].append({"name": f"P{i}", "layer": layer, "column": i})
        if rng.chance(0.7):
            case["risers"].append({"column": i, "layer": layer})
        if rng.chance(0.25):
            other = "poly" if layer == "metal" else "metal"
            case["contacts"].append({"column": i, "layer_a": layer, "layer_b": other})
        elif rng.chance(0.2):
            case["devices"].append(
                {"column": i, "kind": rng.choice(("enh", "dep"))}
            )
    if columns >= 2 and rng.chance(0.5):
        case["spine"] = {"layer": "metal"}
    return case


def _oriented(case: dict, along: int, across: int) -> tuple[int, int]:
    """Map (position along the pin edge, distance into the cell) to (x, y)."""
    side = case.get("pin_side", "bottom")
    depth = int(case["depth"])
    if side == "bottom":
        return along, across
    if side == "top":
        return along, depth - across
    if side == "left":
        return across, along
    if side == "right":
        return depth - across, along
    raise CaseInvalid(f"unknown pin side {side!r}")


def build_sticks_cell(case: dict) -> SticksCell:
    grid = int(case["grid"])
    columns = int(case["columns"])
    depth = int(case["depth"])
    lam = int(case.get("lambda", 250))
    if columns < 1 or grid <= 0 or depth <= 0:
        raise CaseInvalid("degenerate sticks case")
    margin = 4 * lam
    width = (columns - 1) * grid

    cell = SticksCell(str(case["name"]))
    col_x = lambda i: int(i) * grid  # noqa: E731 - tiny helper

    for pin in case.get("pins", []):
        if not 0 <= int(pin["column"]) < columns:
            raise CaseInvalid(f"pin column {pin['column']} out of range")
        x, y = _oriented(case, col_x(pin["column"]), 0)
        cell.pins.append(Pin(str(pin["name"]), str(pin["layer"]), Point(x, y)))
    for riser in case.get("risers", []):
        x0, y0 = _oriented(case, col_x(riser["column"]), 0)
        x1, y1 = _oriented(case, col_x(riser["column"]), depth - margin)
        cell.wires.append(
            SymbolicWire(str(riser["layer"]), (Point(x0, y0), Point(x1, y1)))
        )
    for contact in case.get("contacts", []):
        x, y = _oriented(case, col_x(contact["column"]), depth // 2)
        cell.contacts.append(
            Contact(str(contact["layer_a"]), str(contact["layer_b"]), Point(x, y))
        )
    for device in case.get("devices", []):
        x, y = _oriented(case, col_x(device["column"]), depth - 2 * margin)
        cell.devices.append(Device(str(device["kind"]), Point(x, y)))
    if case.get("spine") and columns >= 2:
        x0, y0 = _oriented(case, 0, depth - margin)
        x1, y1 = _oriented(case, width, depth - margin)
        cell.wires.append(
            SymbolicWire(str(case["spine"]["layer"]), (Point(x0, y0), Point(x1, y1)))
        )

    lo_x, lo_y = _oriented(case, -margin, 0)
    hi_x, hi_y = _oriented(case, width + margin, depth)
    cell.boundary = Box(lo_x, lo_y, hi_x, hi_y)
    try:
        cell.validate()
    except Exception as exc:
        raise CaseInvalid(str(exc)) from None
    if not cell.pins:
        raise CaseInvalid("sticks case lost all its pins")
    return cell


# -- abutment setups --------------------------------------------------------


_FACING = {"left": "right", "right": "left", "top": "bottom", "bottom": "top"}
_AWAY = {"left": (-1, 0), "right": (1, 0), "top": (0, 1), "bottom": (0, -1)}


def gen_abut_case(rng: Rng) -> dict:
    """Two (or three) leaf instances with connectors on facing edges.

    The from instance's pins face the to instance's pins on the
    opposed edge; pin pitches may differ, so abutment coincides the
    first pair exactly and warns about the rest — the paper's exact
    contract.  An optional bystander instance near the seam exercises
    the no-overlap rule.
    """
    to_side = rng.choice(("left", "right", "top", "bottom"))
    from_side = _FACING[to_side]
    to_cell = gen_sticks_case(rng.fork("to"), name="to_leaf", pin_side=to_side)
    from_cell = gen_sticks_case(rng.fork("from"), name="from_leaf", pin_side=from_side)
    # Matching layers per pair index so pending validation accepts them.
    pair_count = rng.randint(1, min(len(from_cell["pins"]), len(to_cell["pins"])))
    pairs = []
    for i in range(pair_count):
        layer = rng.choice(("metal", "poly"))
        from_cell["pins"][i]["layer"] = layer
        to_cell["pins"][i]["layer"] = layer
        pairs.append([from_cell["pins"][i]["name"], to_cell["pins"][i]["name"]])
    dx, dy = _AWAY[_FACING[to_side]]
    lam = 250
    case = {
        "to_cell": to_cell,
        "from_cell": from_cell,
        "to_side": to_side,
        "from_at": [dx * rng.randint(40, 120) * lam, dy * rng.randint(40, 120) * lam],
        "jitter": [rng.randint(-10, 10) * lam, rng.randint(-10, 10) * lam],
        "pairs": pairs,
        "overlap": 1 if rng.chance(0.3) else 0,
        "bystander": None,
    }
    if rng.chance(0.3):
        case["bystander"] = {
            "cell": gen_sticks_case(rng.fork("bystander"), name="bystander_leaf"),
            "at": [rng.randint(-40, 40) * lam, rng.randint(-40, 40) * lam],
        }
    return case


def build_abut_setup(case: dict):
    """Materialise an abut case.

    Returns ``(editor, from_name, to_name, pairs)`` with instances
    placed and every pair added to the editor's pending list.
    """
    technology = nmos_technology()
    editor = RiotEditor(technology)
    for key in ("to_cell", "from_cell"):
        sticks = build_sticks_cell(case[key])
        editor.library.add(LeafCell.from_sticks(sticks, technology))
    editor.new_cell("top")
    editor.create(Point(0, 0), cell_name=case["to_cell"]["name"], name="TO")
    jitter = case.get("jitter", [0, 0])
    editor.create(
        Point(
            int(case["from_at"][0]) + int(jitter[0]),
            int(case["from_at"][1]) + int(jitter[1]),
        ),
        cell_name=case["from_cell"]["name"],
        name="FROM",
    )
    if case.get("bystander"):
        sticks = build_sticks_cell(case["bystander"]["cell"])
        editor.library.add(LeafCell.from_sticks(sticks, technology))
        editor.create(
            Point(*[int(v) for v in case["bystander"]["at"]]),
            cell_name=case["bystander"]["cell"]["name"],
            name="BYSTANDER",
        )
    pairs = [tuple(p) for p in case.get("pairs", [])]
    if not pairs:
        raise CaseInvalid("abut case with no pairs")
    cell = editor.cell
    try:
        for from_conn, to_conn in pairs:
            editor.pending.add(
                cell.instance("FROM"), str(from_conn), cell.instance("TO"), str(to_conn)
            )
    except Exception as exc:
        raise CaseInvalid(f"pending rejected: {exc}") from None
    return editor, "FROM", "TO", pairs


# -- stretch setups --------------------------------------------------------------


def gen_stretch_case(rng: Rng) -> dict:
    """A leaf cell plus feasible pin targets along one axis.

    Targets keep the pins' original order and only ever *grow* the
    gaps between pinned columns, so a correct solver can always
    satisfy them — any :class:`InfeasibleConstraints` is an oracle
    failure, not a generation artifact.
    """
    pin_side = rng.choice(("bottom", "left"))  # pins vary along x or y
    axis = "x" if pin_side == "bottom" else "y"
    cell = gen_sticks_case(rng.fork("cell"), name="stretchee", pin_side=pin_side)
    grid = cell["grid"]
    pin_names = [p["name"] for p in cell["pins"]]
    chosen = sorted(
        rng.sample(range(len(pin_names)), rng.randint(1, len(pin_names)))
    )
    targets = {}
    extra = 0
    for index in chosen:
        extra += rng.randint(0, 6) * 250
        targets[pin_names[index]] = index * grid + extra
    return {"cell": cell, "axis": axis, "targets": targets}


def build_stretch_setup(case: dict):
    """Returns ``(cell, axis, targets, technology)``.

    Raises :class:`CaseInvalid` unless the case is *feasible by
    construction*: the cell satisfies every pairwise column separation
    as built, and the targets keep the pinned columns' order while
    only growing (or keeping) the gaps between them.  Under those two
    conditions a stretched placement always exists — map each pinned
    column to its target and interpolate, and every pairwise distance
    weakly grows — so :class:`InfeasibleConstraints` from the solver
    is a genuine bug, never a generation (or shrinking) artifact.
    """
    from repro.rest.compactor import column_occupants
    from repro.rest.connectivity import build_connectivity
    from repro.rest.spacing import column_separation

    cell = build_sticks_cell(case["cell"])
    axis = case.get("axis")
    if axis not in ("x", "y"):
        raise CaseInvalid(f"bad axis {axis!r}")
    targets = {str(k): int(v) for k, v in case.get("targets", {}).items()}
    if not targets:
        raise CaseInvalid("stretch case with no targets")
    for name in targets:
        if not cell.has_pin(name):
            raise CaseInvalid(f"target pin {name!r} missing")
    technology = build_technology(case["cell"])

    connectivity = build_connectivity(cell)
    columns = column_occupants(cell, technology, axis, connectivity)
    ordered = sorted(columns)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            needed = column_separation(
                columns[a], columns[b], technology, connectivity.gate_pairs
            )
            if b - a < needed:
                raise CaseInvalid(
                    f"cell violates spacing as built: columns {a},{b}"
                )

    def along(point):
        return point.x if axis == "x" else point.y

    pinned = sorted(
        (along(cell.pin(name).point), target, name)
        for name, target in targets.items()
    )
    for (a_pos, a_target, a_name), (b_pos, b_target, b_name) in zip(
        pinned, pinned[1:]
    ):
        if a_pos == b_pos and a_target != b_target:
            raise CaseInvalid(
                f"pins {a_name!r},{b_name!r} share a column but disagree"
            )
        if b_target - a_target < b_pos - a_pos:
            raise CaseInvalid(
                f"targets shrink the {a_name!r}->{b_name!r} gap"
            )
    return cell, axis, targets, technology


# -- editor command sequences --------------------------------------------------------


def gen_session_case(rng: Rng) -> dict:
    """A random editor session: a few leaf cells and a command tape.

    Commands may legitimately fail (the editor is transactional);
    failures exercise rollback and WAL-tail truncation, which is
    precisely what the ``wal`` oracle wants to stress.
    """
    leaves = [
        gen_sticks_case(rng.fork(f"leaf{i}"), name=f"leaf{i}", pin_side="bottom")
        for i in range(rng.randint(1, 3))
    ]
    ops: list[dict] = [{"op": "new_cell", "name": "top"}]
    created = 0
    lam = 250
    for step in range(rng.randint(3, 14)):
        r = rng.fork(step)
        kind = r.choice(
            (
                "create",
                "create",
                "move",
                "move_by",
                "rotate",
                "mirror",
                "replicate",
                "bus",
                "do_abut",
                "do_route",
                "finish",
            )
        )
        if kind == "create" or created == 0:
            ops.append(
                {
                    "op": "create",
                    "leaf": r.randint(0, len(leaves) - 1),
                    "at": [r.randint(-60, 60) * lam, r.randint(-60, 60) * lam],
                    "orientation": r.choice(
                        ("R0", "R0", "R0", "R90", "R180", "R270", "MX", "MY")
                    ),
                    "nx": 2 if r.chance(0.15) else 1,
                    "ny": 1,
                }
            )
            created += 1
        elif kind in PLACEMENT_EDITS:
            ops.append(_gen_placement_op(r, kind, r.randint(0, created - 1)))
        elif kind == "bus" and created >= 2:
            pair = r.sample(range(created), 2)
            ops.append({"op": "bus", "from": pair[0], "to": pair[1]})
        elif kind in ("do_abut", "do_route"):
            ops.append({"op": kind})
        elif kind == "finish":
            ops.append({"op": "finish"})
    return {"leaves": leaves, "ops": ops}


#: Ops that move, turn or replicate one instance.
PLACEMENT_EDITS = ("move", "move_by", "rotate", "mirror", "replicate")


def _gen_placement_op(r: Rng, kind: str, inst: int) -> dict:
    lam = 250
    op = {"op": kind, "inst": inst}
    if kind == "move":
        op["to"] = [r.randint(-60, 60) * lam, r.randint(-60, 60) * lam]
    elif kind == "move_by":
        op["dx"] = r.randint(-20, 20) * lam
        op["dy"] = r.randint(-20, 20) * lam
    elif kind == "mirror":
        op["axis"] = r.choice(("x", "y"))
    elif kind == "replicate":
        op["nx"] = r.randint(1, 3)
        op["ny"] = r.randint(1, 2)
    return op


def _placement_request(op: dict, name: str):
    """The typed request for a :data:`PLACEMENT_EDITS` op on ``name``."""
    from repro.api import types as t

    kind = op.get("op")
    if kind == "move":
        return t.MoveRequest(name=name, to=(int(op["to"][0]), int(op["to"][1])))
    if kind == "move_by":
        return t.MoveByRequest(name=name, dx=int(op["dx"]), dy=int(op["dy"]))
    if kind == "rotate":
        return t.RotateRequest(name=name)
    if kind == "mirror":
        return t.MirrorRequest(name=name, axis=str(op.get("axis", "x")))
    return t.ReplicateRequest(
        name=name, nx=int(op.get("nx", 1)), ny=int(op.get("ny", 1))
    )


def build_session_library(case: dict) -> CellLibrary:
    technology = nmos_technology()
    library = CellLibrary(technology)
    for leaf_case in case.get("leaves", []):
        sticks = build_sticks_cell(leaf_case)
        library.add(LeafCell.from_sticks(sticks, technology))
    if not len(library):
        raise CaseInvalid("session case with no leaf cells")
    return library


def apply_session_ops(editor: RiotEditor, case: dict) -> list[str]:
    """Run the command tape; returns the instance names created.

    The tape is dispatched through the typed command API — the same
    entry points the REPL, REPLAY and the service use — so the fuzz
    oracle exercises the real command surface, not editor internals.
    Command failures are tolerated (and recorded nowhere — the
    transactional editor rolls them back, including the WAL tail);
    structurally impossible ops (index before any create) are skipped.
    """
    from repro.api import types as t
    from repro.api.session import Session

    session = Session(editor=editor)
    leaf_names = [leaf["name"] for leaf in case.get("leaves", [])]
    instances: list[str] = []

    def inst(op, key="inst"):
        if not instances:
            return None
        return instances[int(op[key]) % len(instances)]

    for op in case.get("ops", []):
        kind = op.get("op")
        request = None
        created_name = None
        if kind == "new_cell":
            request = t.NewCellRequest(name=str(op["name"]))
        elif kind == "create":
            leaf = leaf_names[int(op["leaf"]) % len(leaf_names)]
            created_name = f"I{len(instances)}"
            request = t.CreateRequest(
                at=(int(op["at"][0]), int(op["at"][1])),
                cell_name=leaf,
                orientation=str(op.get("orientation", "R0")),
                nx=int(op.get("nx", 1)),
                ny=int(op.get("ny", 1)),
                name=created_name,
            )
        elif kind in PLACEMENT_EDITS and inst(op):
            request = _placement_request(op, inst(op))
        elif kind == "bus" and len(instances) >= 2:
            request = t.BusRequest(
                from_instance=inst(op, "from"), to_instance=inst(op, "to")
            )
        elif kind == "do_abut":
            request = t.AbutRequest()
        elif kind == "do_route":
            request = t.RouteRequest()
        elif kind == "finish":
            request = t.FinishRequest()
        if request is None:
            continue
        try:
            session.dispatch(request)
        except Exception:
            continue  # transactional: the editor rolled it back
        if created_name is not None:
            instances.append(created_name)
    return instances


def describe_editor(editor: RiotEditor) -> dict:
    """A JSON-able digest of editor state, for session equivalence."""
    cells = {}
    for cell in editor.library.cells:
        if cell.is_leaf:
            continue
        cells[cell.name] = [
            {
                "name": inst.name,
                "cell": inst.cell.name,
                "orientation": inst.transform.orientation.name,
                "translation": [
                    inst.transform.translation.x,
                    inst.transform.translation.y,
                ],
                "nx": inst.nx,
                "ny": inst.ny,
                "dx": inst.dx,
                "dy": inst.dy,
            }
            for inst in cell.instances
        ]
    return {
        "menu": editor.library.names,
        "cells": cells,
        "pending": editor.pending.display_strings(),
    }


# -- composition-model cases ------------------------------------------------------

ORIENTATIONS = ("R0", "R90", "R180", "R270", "MX", "MY", "MXR90", "MYR90")
#: Unrotated placements are likelier to face each other and connect.
MODEL_ORIENTATIONS = ("R0",) * 4 + ORIENTATIONS


def _gen_model_create(r: Rng, cell: str) -> dict:
    lam = 250
    return {
        "op": "create",
        "cell": cell,
        "at": [r.randint(-60, 60) * lam, r.randint(-60, 60) * lam],
        "orientation": r.choice(MODEL_ORIENTATIONS),
        "nx": r.randint(1, 3) if r.chance(0.3) else 1,
        "ny": r.randint(1, 2) if r.chance(0.3) else 1,
    }


def _gen_model_ops(r: Rng, leaves: list[str], cells: tuple[str, ...]) -> list[dict]:
    """One random edit to whichever cell is open when it runs; a bus
    specification comes with the connection command that uses it."""
    kind = r.choice(
        (
            "create", "create", "move", "move_by", "rotate", "mirror",
            "replicate", "bus", "bus", "bus", "do_abut", "recreate", "edit",
            "finish", "replace",
        )
    )
    if kind in ("create", "recreate"):
        op = _gen_model_create(r, r.choice(leaves + ["blk"]))
        if kind == "recreate":
            op.update(op="recreate", inst=r.randint(0, 7))
        return [op]
    if kind == "bus":
        return [
            {"op": "bus", "from": r.randint(0, 7), "to": r.randint(0, 7)},
            {"op": r.choice(("do_abut", "do_route", "do_stretch"))},
        ]
    if kind == "edit":
        return [{"op": "edit", "name": r.choice(cells)}]
    if kind == "replace":
        return [
            {
                "op": "replace",
                "leaf": r.randint(0, len(leaves) - 1),
                "cell": gen_sticks_case(
                    r.fork("leaf"), name="new", pin_side=r.choice(tuple(_FACING))
                ),
            }
        ]
    if kind in PLACEMENT_EDITS:
        return [_gen_placement_op(r, kind, r.randint(0, 7))]
    return [{"op": kind}]


def gen_model_case(rng: Rng) -> dict:
    """Leaf cells, a composition ``blk`` and a composition ``top`` that
    instantiates leaves and ``blk``, then a tape of edits that reopens
    either cell, connects, stretches, fails and rolls back, and swaps
    leaf definitions under both — the inputs the composition model's
    cached views derive from, changed every way the editor changes them.
    """
    # The first two leaves have pins on facing sides, so some bus
    # specifications find pairs to connect.
    first = rng.fork("side").choice(tuple(_FACING))
    sides = [first, _FACING[first], rng.fork("side2").choice(tuple(_FACING))]
    leaves = [
        gen_sticks_case(rng.fork(f"leaf{i}"), name=f"leaf{i}", pin_side=sides[i])
        for i in range(rng.randint(2, 3))
    ]
    names = [leaf["name"] for leaf in leaves]
    ops: list[dict] = [{"op": "new_cell", "name": "blk"}]
    for i in range(rng.randint(1, 3)):
        r = rng.fork(f"blk{i}")
        ops.append(_gen_model_create(r, r.choice(names)))
    ops.append({"op": "finish"})
    ops.append({"op": "new_cell", "name": "top"})
    ops.append(_gen_model_create(rng.fork("top-blk"), "blk"))
    for i in range(rng.randint(1, 3)):
        r = rng.fork(f"top{i}")
        ops.append(_gen_model_create(r, r.choice(names)))
    for step in range(rng.randint(6, 20)):
        ops.extend(_gen_model_ops(rng.fork(step), names, ("blk", "top")))
    return {"leaves": leaves, "ops": ops}


def apply_model_op(session, op: dict) -> None:
    """Run one op of a :func:`gen_model_case` tape against the open cell.

    Instance indices address the open cell's instances modulo their
    count; a bus's ``to`` indexes the instances other than its ``from``.
    Command failures are tolerated: the editor rolls them back.
    ``replace`` swaps a leaf definition through the library, as
    re-reading a changed leaf file does.
    """
    from repro.api import types as t

    editor = session.editor
    kind = op.get("op")
    if kind == "replace":
        leaves = [cell for cell in editor.library.cells if cell.is_leaf]
        if not leaves:
            return
        name = leaves[int(op["leaf"]) % len(leaves)].name
        try:
            sticks = build_sticks_cell(dict(op["cell"], name=name))
        except CaseInvalid:
            return
        editor.library.replace(name, LeafCell.from_sticks(sticks, editor.technology))
        return

    instances = editor.cell.instances if editor.cell is not None else []

    def inst(key: str = "inst") -> str:
        return instances[int(op[key]) % len(instances)].name

    request = None
    if kind == "new_cell":
        request = t.NewCellRequest(name=str(op["name"]))
    elif kind == "edit":
        request = t.EditRequest(name=str(op["name"]))
    elif kind == "finish":
        request = t.FinishRequest()
    elif kind == "do_abut":
        request = t.AbutRequest()
    elif kind == "do_route":
        request = t.RouteRequest()
    elif kind == "do_stretch":
        request = t.StretchRequest()
    elif kind in ("create", "recreate"):
        request = t.CreateRequest(
            at=(int(op["at"][0]), int(op["at"][1])),
            cell_name=str(op["cell"]),
            orientation=str(op.get("orientation", "R0")),
            nx=int(op.get("nx", 1)),
            ny=int(op.get("ny", 1)),
            # A name already taken: the instance is built and placed,
            # then refused, and the command rolls back.
            name=inst() if kind == "recreate" and instances else None,
        )
    elif not instances:
        return
    elif kind in PLACEMENT_EDITS:
        request = _placement_request(op, inst())
    elif kind == "bus" and len(instances) > 1:
        source = inst("from")
        others = [other.name for other in instances if other.name != source]
        request = t.BusRequest(
            from_instance=source, to_instance=others[int(op["to"]) % len(others)]
        )
    if request is None:
        return
    try:
        session.dispatch(request)
    except Exception:
        pass  # transactional: the editor rolled it back


# -- pipeline cases ---------------------------------------------------------------


def gen_pipeline_case(rng: Rng) -> dict:
    """A small composition plus one random edit, for cache equivalence."""
    session = gen_session_case(rng.fork("session"))
    lam = 250
    return {
        "session": session,
        "edit": {
            "inst": rng.randint(0, 7),
            "dx": rng.randint(-15, 15) * lam,
            "dy": rng.randint(-15, 15) * lam,
        },
    }


# -- floorplan building blocks ----------------------------------------------

#: Lane pitches (in lambda) the datapath-slice generator draws from.
#: All clear the worst same-layer separation two horizontal lane wires
#: plus a mid-lane contact can demand, so slices satisfy the design
#: rules as built and stretching to a *larger* pitch stays feasible.
SLICE_PITCHES = (8, 10, 12)


def gen_lane_layers(rng: Rng, lanes: int) -> list[str]:
    """Per-lane routing layers for one datapath row family.

    Lane 0 is always metal so pad straps (metal pins) can land on
    every row.  Some rows are solid metal buses — the configuration
    that piles same-layer jogs into one channel and makes narrow
    river channels overflow; the rest mix metal and poly.
    """
    if rng.fork("bus").chance(0.35):
        return ["metal"] * lanes
    return ["metal"] + [rng.choice(("metal", "poly")) for _ in range(lanes - 1)]


def gen_slice_case(
    rng: Rng,
    name: str,
    lane_layers: list[str],
    pitch_lam: int,
) -> dict:
    """A two-sided datapath bit-slice: one horizontal wire per lane,
    with ``L{i}``/``R{i}`` pins at the *same* height on the left and
    right boundary edges.

    Because each lane's pins share a y coordinate, REST stretches
    (which re-space y coordinates as a unit) keep the two sides
    aligned — a stretched slice still chains.  Lanes sit strictly
    inside the explicit boundary's vertical extent so only the L/R
    pins are promoted when slices compose.
    """
    lam = 250
    case: dict = {
        "kind": "slice",
        "name": name,
        "lambda": lam,
        "pitch": int(pitch_lam) * lam,
        "width": rng.randint(10, 16) * lam,
        "lanes": [],
    }
    for i, layer in enumerate(lane_layers):
        lane = {"layer": layer, "contact": False}
        if rng.chance(0.3):
            lane["contact"] = True
        case["lanes"].append(lane)
    return case


def build_slice_cell(case: dict) -> SticksCell:
    lanes = case.get("lanes", [])
    pitch = int(case["pitch"])
    width = int(case["width"])
    if not lanes or pitch <= 0 or width <= 0:
        raise CaseInvalid("degenerate slice case")
    cell = SticksCell(str(case["name"]))
    for i, lane in enumerate(lanes):
        y = (i + 1) * pitch
        layer = str(lane["layer"])
        cell.pins.append(Pin(f"L{i}", layer, Point(0, y)))
        cell.pins.append(Pin(f"R{i}", layer, Point(width, y)))
        cell.wires.append(SymbolicWire(layer, (Point(0, y), Point(width, y))))
        if lane.get("contact"):
            other = "poly" if layer == "metal" else "metal"
            cell.contacts.append(Contact(layer, other, Point(width // 2, y)))
    cell.boundary = Box(0, 0, width, (len(lanes) + 1) * pitch)
    try:
        cell.validate()
    except Exception as exc:
        raise CaseInvalid(str(exc)) from None
    return cell


def gen_pad_case(rng: Rng, name: str, facing: str) -> dict:
    """A bond-pad leaf with a single metal pin centred on the
    ``facing`` edge (the side that looks at the core)."""
    if facing not in _FACING:
        raise CaseInvalid(f"unknown pad facing {facing!r}")
    lam = 250
    return {
        "kind": "pad",
        "name": name,
        "lambda": lam,
        "facing": facing,
        "size": rng.randint(20, 26) * lam,
        "contact": rng.chance(0.5),
    }


def build_pad_cell(case: dict) -> SticksCell:
    size = int(case["size"])
    facing = str(case["facing"])
    if size <= 0 or facing not in _FACING:
        raise CaseInvalid("degenerate pad case")
    mid = size // 2
    edge = {
        "left": Point(0, mid),
        "right": Point(size, mid),
        "bottom": Point(mid, 0),
        "top": Point(mid, size),
    }[facing]
    cell = SticksCell(str(case["name"]))
    cell.pins.append(Pin("PAD", "metal", edge))
    cell.wires.append(SymbolicWire("metal", (edge, Point(mid, mid))))
    if case.get("contact"):
        cell.contacts.append(Contact("metal", "poly", Point(mid, mid)))
    cell.boundary = Box(0, 0, size, size)
    try:
        cell.validate()
    except Exception as exc:
        raise CaseInvalid(str(exc)) from None
    return cell
