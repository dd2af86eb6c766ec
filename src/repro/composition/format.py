"""The composition format — Riot's session save file.

"The composition format is used by Riot to save an editing session.
It contains a description of composition cells including the hierarchy
description, locations of instances, locations of connectors on the
composition cells, and references to files which contain the leaf
cells used in those compositions."

The format is line-oriented:

```
RIOTCOMP 1
LEAF name kind sourcefile        # reference, not content
COMPOSITION name
CONNECTOR name layer width x y
INSTANCE instname cellname orient tx ty [ARRAY nx ny dx dy]
END
```

Leaf cell *content* lives in its own CIF or Sticks file; loading a
composition requires those leaves to be in the library already.
"""

from __future__ import annotations

from repro.composition.cell import CompositionCell, CompositionError, LeafCell
from repro.composition.connector import Connector
from repro.composition.instance import Instance
from repro.composition.library import CellLibrary
from repro.errors import ReproError
from repro.geometry.orientation import Orientation
from repro.geometry.point import Point
from repro.geometry.transform import Transform

FORMAT_VERSION = 1


class CompositionFormatError(ReproError):
    """A malformed composition file."""

    code = "composition.format"

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def save_composition(cells: list[CompositionCell]) -> str:
    """Serialise composition cells (dependency order, leaves by reference)."""
    ordered = _dependency_order(cells)
    lines = [f"RIOTCOMP {FORMAT_VERSION}"]

    leaves: dict[str, LeafCell] = {}
    for cell in ordered:
        for inst in cell.instances:
            if inst.cell.is_leaf and inst.cell.name not in leaves:
                leaves[inst.cell.name] = inst.cell
    for name, leaf in leaves.items():
        kind = "sticks" if leaf.is_stretchable else "cif"
        source = leaf.source_file or "-"
        lines.append(f"LEAF {name} {kind} {source}")

    for cell in ordered:
        lines.append(f"COMPOSITION {cell.name}")
        for conn in cell.connectors:
            lines.append(
                f"CONNECTOR {conn.name} {conn.layer.name} {conn.width} "
                f"{conn.position.x} {conn.position.y}"
            )
        for inst in cell.instances:
            t = inst.transform
            entry = (
                f"INSTANCE {inst.name} {inst.cell.name} "
                f"{t.orientation.name} {t.translation.x} {t.translation.y}"
            )
            if inst.is_array:
                entry += f" ARRAY {inst.nx} {inst.ny} {inst.dx} {inst.dy}"
            lines.append(entry)
        lines.append("END")
    return "\n".join(lines) + "\n"


def load_composition(
    text: str, library: CellLibrary, *, replace: bool = False
) -> list[CompositionCell]:
    """Load composition cells, resolving instances against ``library``.

    Leaf references must already be present in the library (load their
    CIF/Sticks files first); missing leaves raise with the reference's
    recorded source file so the caller knows what to load.  Every
    loaded composition cell is added to the library; the list returned
    is in file order.

    With ``replace=True`` a cell whose name is already in the library
    rebinds the existing definition (every instance of it re-points at
    the loaded shape) instead of erroring — re-fetching a published
    composition into a session that already holds it is a rebind, not
    a collision.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip().startswith("RIOTCOMP"):
        raise CompositionFormatError("missing RIOTCOMP header")
    header = lines[0].split()
    if len(header) != 2 or header[1] != str(FORMAT_VERSION):
        raise CompositionFormatError(
            f"unsupported composition format version in {lines[0]!r}"
        )

    loaded: list[CompositionCell] = []
    current: CompositionCell | None = None

    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0].upper()
        args = fields[1:]

        if keyword == "LEAF":
            if len(args) != 3:
                raise CompositionFormatError("LEAF needs: name kind source", lineno)
            name, _kind, source = args
            if name not in library:
                raise CompositionFormatError(
                    f"leaf cell {name!r} is not in the library "
                    f"(load its source {source!r} first)",
                    lineno,
                )
        elif keyword == "COMPOSITION":
            if current is not None:
                raise CompositionFormatError(
                    "COMPOSITION before END of previous cell", lineno
                )
            if len(args) != 1:
                raise CompositionFormatError("COMPOSITION needs one name", lineno)
            current = CompositionCell(args[0])
        elif keyword == "CONNECTOR":
            if current is None:
                raise CompositionFormatError("CONNECTOR outside COMPOSITION", lineno)
            if len(args) != 5:
                raise CompositionFormatError(
                    "CONNECTOR needs: name layer width x y", lineno
                )
            name, layer_name = args[0], args[1]
            width, x, y = _ints(args[2:], lineno)
            layer = library.technology.layer(layer_name)
            current.set_connectors(
                current.connectors + [Connector(name, Point(x, y), layer, width)]
            )
        elif keyword == "INSTANCE":
            if current is None:
                raise CompositionFormatError("INSTANCE outside COMPOSITION", lineno)
            current.add_instance(_parse_instance(args, library, lineno))
        elif keyword == "END":
            if current is None:
                raise CompositionFormatError("END without COMPOSITION", lineno)
            try:
                if replace and current.name in library:
                    library.replace(current.name, current)
                else:
                    library.add(current)
            except CompositionError as exc:
                raise CompositionFormatError(str(exc), lineno) from None
            loaded.append(current)
            current = None
        else:
            raise CompositionFormatError(f"unknown keyword {keyword!r}", lineno)

    if current is not None:
        raise CompositionFormatError(
            f"composition cell {current.name!r} missing END"
        )
    return loaded


def _ints(tokens: list[str], lineno: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise CompositionFormatError(
            f"expected integers, got {tokens}", lineno
        ) from None


def _parse_instance(
    args: list[str], library: CellLibrary, lineno: int
) -> Instance:
    if len(args) not in (5, 10):
        raise CompositionFormatError(
            "INSTANCE needs: name cell orient tx ty [ARRAY nx ny dx dy]", lineno
        )
    inst_name, cell_name, orient_name = args[0], args[1], args[2]
    tx, ty = _ints(args[3:5], lineno)
    try:
        cell = library.get(cell_name)
    except KeyError as exc:
        raise CompositionFormatError(str(exc), lineno) from None
    try:
        orientation = Orientation.from_name(orient_name)
    except ValueError as exc:
        raise CompositionFormatError(str(exc), lineno) from None
    transform = Transform(orientation, Point(tx, ty))
    if len(args) == 10:
        if args[5].upper() != "ARRAY":
            raise CompositionFormatError(
                f"expected ARRAY, got {args[5]!r}", lineno
            )
        nx, ny, dx, dy = _ints(args[6:], lineno)
        if nx < 1 or ny < 1:
            raise CompositionFormatError(
                f"array counts must be >= 1, got {nx}x{ny}", lineno
            )
        return Instance(inst_name, cell, transform, nx, ny, dx, dy)
    return Instance(inst_name, cell, transform)


def _dependency_order(cells: list[CompositionCell]) -> list[CompositionCell]:
    ordered: list[CompositionCell] = []
    done: set[int] = set()
    visiting: set[int] = set()

    def visit(cell: CompositionCell) -> None:
        if id(cell) in done:
            return
        if id(cell) in visiting:
            raise CompositionError(f"recursive composition at {cell.name!r}")
        visiting.add(id(cell))
        for inst in cell.instances:
            if not inst.cell.is_leaf:
                visit(inst.cell)
        visiting.discard(id(cell))
        done.add(id(cell))
        ordered.append(cell)

    for cell in cells:
        visit(cell)
    return ordered
