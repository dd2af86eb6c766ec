"""Leaf and composition cells — Riot's separated hierarchy.

``LeafCell`` wraps an elaborated CIF cell or a Sticks cell behind one
interface (bounding box + connectors).  ``CompositionCell`` holds only
instances, as the paper requires, plus the connector list promoted
when the cell is finished.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.cif.semantics import CifCell
from repro.composition.connector import Connector
from repro.errors import ReproError
from repro.geometry.box import Box, union_all
from repro.geometry.layers import Technology
from repro.sticks.expand import expanded_bounding_box
from repro.sticks.model import SticksCell

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.composition.instance import Instance


class CompositionError(ReproError):
    """A violation of the separated-hierarchy rules."""

    code = "composition.error"


class LeafCell:
    """A leaf of the hierarchy: committed CIF geometry or Sticks symbols.

    The distinction matters to Riot's connection commands: "the pads
    cannot be stretched by Riot and all connections to them will have
    to be made by routing, but connections to the other cells can be
    made by stretching" — only sticks-backed leaves are stretchable.
    """

    def __init__(
        self,
        name: str,
        bounding_box: Box,
        connectors: list[Connector],
        cif_cell: CifCell | None = None,
        sticks_cell: SticksCell | None = None,
        source_file: str | None = None,
    ) -> None:
        if (cif_cell is None) == (sticks_cell is None):
            raise CompositionError(
                f"leaf cell {name!r} needs exactly one backing "
                "(CIF or Sticks)"
            )
        self.name = name
        self._bounding_box = bounding_box
        self._connectors = list(connectors)
        self.cif_cell = cif_cell
        self.sticks_cell = sticks_cell
        self.source_file = source_file
        _check_connector_names(name, self._connectors)
        for conn in self._connectors:
            if not bounding_box.contains_point(conn.position):
                raise CompositionError(
                    f"leaf cell {name!r}: connector {conn.name!r} at "
                    f"{conn.position} lies outside {bounding_box}"
                )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_cif(cls, cif_cell: CifCell, source_file: str | None = None) -> "LeafCell":
        connectors = [
            Connector(c.name, c.position, c.layer, c.width)
            for c in cif_cell.connectors
        ]
        return cls(
            cif_cell.name,
            cif_cell.bounding_box(),
            connectors,
            cif_cell=cif_cell,
            source_file=source_file,
        )

    @classmethod
    def from_sticks(
        cls,
        sticks_cell: SticksCell,
        technology: Technology,
        source_file: str | None = None,
    ) -> "LeafCell":
        sticks_cell.validate()
        connectors = []
        for pin in sticks_cell.pins:
            layer = technology.layer(pin.layer)
            width = pin.width if pin.width is not None else technology.min_width(layer)
            connectors.append(Connector(pin.name, pin.point, layer, width))
        return cls(
            sticks_cell.name,
            expanded_bounding_box(sticks_cell, technology),
            connectors,
            sticks_cell=sticks_cell,
            source_file=source_file,
        )

    def shell(self, source_file: str | None = None) -> "LeafCell":
        """A new leaf over this one's backing cell, box and connector
        list, with its own ``name`` and ``source_file``.  A library
        writes only a leaf's ``name``, so one parse can back the leaves
        of any number of libraries."""
        leaf = object.__new__(LeafCell)
        # Every attribute ``__init__`` sets, in its order: that keeps
        # the compact attribute layout a ``__dict__`` copy would lose.
        leaf.name = self.name
        leaf._bounding_box = self._bounding_box
        leaf._connectors = self._connectors
        leaf.cif_cell = self.cif_cell
        leaf.sticks_cell = self.sticks_cell
        leaf.source_file = source_file
        return leaf

    # -- the Cell interface --------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return True

    @property
    def is_stretchable(self) -> bool:
        """Only symbolic (Sticks) leaves can go through REST."""
        return self.sticks_cell is not None

    def bounding_box(self) -> Box:
        return self._bounding_box

    @property
    def connectors(self) -> list[Connector]:
        return list(self._connectors)

    def connector(self, name: str) -> Connector:
        return _find_connector(self.name, self._connectors, name)

    def __repr__(self) -> str:
        kind = "sticks" if self.is_stretchable else "cif"
        return f"LeafCell({self.name!r}, {kind})"


class CompositionCell:
    """An interior cell: instances only, never primitive geometry.

    Connectors are those promoted from instances when the cell is
    finished (``refresh_connectors``) — "a composition cell created by
    Riot includes those connectors from its instances which lie on its
    bounding box".  That list is replaced, never mutated in place, so
    instances of this cell can tell by identity whether it changed.
    """

    #: ``(instance boxes, box)``: the bounding box with the boxes it is
    #: the union of.  Left out of pickles and copies.
    _box_cache: tuple | None = None

    def __init__(self, name: str) -> None:
        self.name = name
        self.instances: list["Instance"] = []
        self._connectors: list[Connector] = []

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_box_cache", None)
        return state

    # -- instance management ---------------------------------------------------

    def add_instance(self, instance: "Instance") -> "Instance":
        if any(existing.name == instance.name for existing in self.instances):
            raise CompositionError(
                f"cell {self.name!r} already has an instance named "
                f"{instance.name!r}"
            )
        if instance.cell is self:
            raise CompositionError(
                f"cell {self.name!r} cannot instantiate itself"
            )
        self.instances.append(instance)
        return instance

    def remove_instance(self, instance: "Instance") -> None:
        try:
            self.instances.remove(instance)
        except ValueError:
            raise CompositionError(
                f"instance {instance.name!r} is not in cell {self.name!r}"
            ) from None

    def instance(self, name: str) -> "Instance":
        for inst in self.instances:
            if inst.name == name:
                return inst
        raise KeyError(f"cell {self.name!r} has no instance {name!r}")

    def unique_instance_name(self, base: str) -> str:
        """A fresh instance name derived from ``base``."""
        existing = {inst.name for inst in self.instances}
        if base not in existing:
            return base
        i = 2
        while f"{base}{i}" in existing:
            i += 1
        return f"{base}{i}"

    # -- transactional editing --------------------------------------------------

    def snapshot(self) -> tuple:
        """Copy-on-write state for transactional commands: the instance
        list, each instance's placement, and the promoted connectors.
        Instance objects themselves are shared (pending connections
        hold references to them), only their mutable placement fields
        are captured."""
        return (
            list(self.instances),
            [
                (inst, inst.transform, inst.nx, inst.ny, inst.dx, inst.dy, inst.cell)
                for inst in self.instances
            ],
            list(self._connectors),
        )

    def restore(self, state: tuple) -> None:
        """Roll back to a :meth:`snapshot` after a failed command."""
        instances, placements, connectors = state
        self.instances[:] = instances
        for inst, transform, nx, ny, dx, dy, cell in placements:
            inst.transform = transform
            inst.nx = nx
            inst.ny = ny
            inst.dx = dx
            inst.dy = dy
            inst.cell = cell
        self._connectors = list(connectors)

    def uses_cell(self, cell) -> bool:
        """True when ``cell`` appears anywhere in this subtree."""
        for inst in self.instances:
            if inst.cell is cell:
                return True
            if isinstance(inst.cell, CompositionCell) and inst.cell.uses_cell(cell):
                return True
        return False

    # -- the Cell interface ----------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return False

    @property
    def is_stretchable(self) -> bool:
        return False

    def bounding_box(self) -> Box:
        if not self.instances:
            raise CompositionError(f"composition cell {self.name!r} is empty")
        boxes = tuple(inst.bounding_box() for inst in self.instances)
        cached = self._box_cache
        if cached is not None and cached[0] == boxes:
            return cached[1]
        box = union_all(boxes)
        self._box_cache = (boxes, box)
        return box

    @property
    def connectors(self) -> list[Connector]:
        return list(self._connectors)

    def connector(self, name: str) -> Connector:
        return _find_connector(self.name, self._connectors, name)

    def set_connectors(self, connectors: Iterable[Connector]) -> None:
        connectors = list(connectors)
        _check_connector_names(self.name, connectors)
        self._connectors = connectors

    def refresh_connectors(self) -> list[Connector]:
        """Promote instance connectors lying on this cell's bounding box.

        Name collisions between different instances are disambiguated
        with an ``instance.connector`` prefix, matching how the replay
        file identifies connections by names.
        """
        box = self.bounding_box()
        edge: list[tuple[str, Connector]] = []
        for inst in self.instances:
            for iconn in inst.connectors():
                pos = iconn.position
                on_edge = (
                    pos.x in (box.llx, box.urx) or pos.y in (box.lly, box.ury)
                ) and box.contains_point(pos)
                if on_edge:
                    edge.append(
                        (
                            iconn.name,
                            Connector(iconn.name, pos, iconn.layer, iconn.width),
                        )
                    )
        names = [name for name, _ in edge]
        promoted = []
        seen: set[str] = set()
        for inst_conn_name, conn in edge:
            name = conn.name
            if names.count(name) > 1:
                name = self._prefixed_name(conn)
            if name in seen:
                continue  # identical promoted twice (e.g. shared rail)
            seen.add(name)
            promoted.append(
                Connector(name, conn.position, conn.layer, conn.width)
            )
        self.set_connectors(promoted)
        return promoted

    def _prefixed_name(self, conn: Connector) -> str:
        for inst in self.instances:
            for iconn in inst.connectors():
                if iconn.position == conn.position and iconn.name == conn.name:
                    return f"{inst.name}.{conn.name}"
        return conn.name

    def __repr__(self) -> str:
        return f"CompositionCell({self.name!r}, {len(self.instances)} instances)"


Cell = LeafCell | CompositionCell


def _check_connector_names(cell_name: str, connectors: list[Connector]) -> None:
    seen: set[str] = set()
    for conn in connectors:
        if conn.name in seen:
            raise CompositionError(
                f"cell {cell_name!r}: duplicate connector {conn.name!r}"
            )
        seen.add(conn.name)


def _find_connector(
    cell_name: str, connectors: list[Connector], name: str
) -> Connector:
    for conn in connectors:
        if conn.name == name:
            return conn
    raise KeyError(f"cell {cell_name!r} has no connector {name!r}")
