"""Instances: a cell placed with a transform and array replication.

"Internally, Riot keeps an instance as a pointer to the defining cell
with a transformation, replication counts, and replication spacings.
An instance is represented on the screen by the bounding box and
connectors of the defining cell positioned, oriented, and replicated
by the instance information."

Arrays expose only their outside-edge connectors: "array elements must
connect properly by abutment, because Riot allows no access to
interior connectors on arrays."

That view is derived, so an instance caches it: the bounding box and
the connector list (with a name index) are kept beside the inputs they
were computed from and reused while those inputs compare equal — the
same objects, on the fast path.  Every edit assigns new values
(``Transform``, ``Point`` and ``Box`` are frozen, leaf cells never
change, a composition's promoted-connector list is replaced, never
mutated in place), so the comparison is a sound validity test and no
mutation site has to invalidate anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.composition.connector import INSIDE, classify_side
from repro.geometry.box import Box, union_all
from repro.geometry.layers import Layer
from repro.geometry.point import Point
from repro.geometry.transform import Transform


@dataclass(frozen=True)
class InstanceConnector:
    """A connector of an instance, in parent coordinates.

    ``name`` is the externally visible name (``IN`` for single
    instances, ``IN[i,j]`` for array elements); ``base_name`` is the
    defining cell's connector name; ``element`` the (column, row) of
    the array element it belongs to.
    """

    instance: "Instance"
    base_name: str
    element: tuple[int, int]
    name: str
    position: Point
    layer: Layer
    width: int
    side: str

    def __str__(self) -> str:
        return f"{self.instance.name}.{self.name}@{self.position}"


class Instance:
    """A placed (and possibly replicated) use of a cell."""

    #: ``(inputs, box)`` and ``(inputs, connectors, by_name)``: the
    #: derived views with the inputs they were computed from.  Class
    #: defaults until first computed; left out of pickles and copies.
    _box_cache: tuple | None = None
    _view_cache: tuple | None = None

    def __init__(
        self,
        name: str,
        cell,
        transform: Transform | None = None,
        nx: int = 1,
        ny: int = 1,
        dx: int | None = None,
        dy: int | None = None,
    ) -> None:
        if nx < 1 or ny < 1:
            raise ValueError(f"replication counts must be >= 1, got {nx}x{ny}")
        self.name = name
        self.cell = cell
        self.transform = transform or Transform.identity()
        self.nx = nx
        self.ny = ny
        # Default replication spacing abuts the elements edge to edge.
        width, height = self.abutting_spacing()
        self.dx = dx if dx is not None else width
        self.dy = dy if dy is not None else height

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_box_cache", None)
        state.pop("_view_cache", None)
        return state

    # -- geometry ------------------------------------------------------------

    @property
    def is_array(self) -> bool:
        return self.nx > 1 or self.ny > 1

    def abutting_spacing(self) -> tuple[int, int]:
        """The ``(dx, dy)`` that abuts array elements edge to edge: the
        cell's width and height as this instance orients it, so a
        quarter turn swaps them.  Spacings are parent-frame offsets."""
        box = self.cell.bounding_box()
        if self.transform.orientation.swaps_axes:
            return box.height, box.width
        return box.width, box.height

    def element_transform(self, i: int, j: int) -> Transform:
        """The parent-space transform of array element (i, j)."""
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise IndexError(
                f"element ({i},{j}) outside array {self.nx}x{self.ny}"
            )
        return self.transform.translated(i * self.dx, j * self.dy)

    def element_transforms(self) -> Iterator[tuple[int, int, Transform]]:
        for j in range(self.ny):
            for i in range(self.nx):
                yield i, j, self.element_transform(i, j)

    def _inputs(self) -> tuple:
        """What the placed views derive from.  A cached view holds while
        these compare equal to the ones it was computed from."""
        cell = self.cell
        box = cell.bounding_box()
        return (cell, box, self.transform, self.nx, self.ny, self.dx, self.dy)

    def bounding_box(self) -> Box:
        inputs = self._inputs()
        cached = self._box_cache
        if cached is not None and cached[0] == inputs:
            return cached[1]
        cell_box = self.cell.bounding_box()
        box = self.transform.apply_box(cell_box)
        if self.is_array:
            last = self.element_transform(self.nx - 1, self.ny - 1)
            box = box.union(last.apply_box(cell_box))
        self._box_cache = (inputs, box)
        return box

    # -- movement ---------------------------------------------------------------

    def translate(self, dx: int, dy: int) -> None:
        self.transform = self.transform.translated(dx, dy)

    def move_to(self, lower_left: Point) -> None:
        """Translate so the instance bounding box's lower-left is here."""
        box = self.bounding_box()
        self.translate(lower_left.x - box.llx, lower_left.y - box.lly)

    def rotate90(self) -> None:
        """Rotate 90 degrees CCW about the parent origin."""
        from repro.geometry.orientation import R90

        self.transform = Transform(R90, Point(0, 0)).compose(self.transform)

    def mirror_x(self) -> None:
        from repro.geometry.orientation import MX

        self.transform = Transform(MX, Point(0, 0)).compose(self.transform)

    def mirror_y(self) -> None:
        from repro.geometry.orientation import MY

        self.transform = Transform(MY, Point(0, 0)).compose(self.transform)

    # -- connectors ----------------------------------------------------------------

    def connectors(self) -> list[InstanceConnector]:
        """Visible connectors in parent coordinates.

        For arrays, only connectors on the outside edge of the array
        are visible; interior connectors are inaccessible (they must
        connect by element abutment).  Each call returns a fresh list.
        """
        # The cell's own list object: replaced, never mutated in place.
        inputs = (self._inputs(), self.cell._connectors)
        cached = self._view_cache
        if cached is None or cached[0] != inputs:
            cached = self._view_cache = (inputs, *self._place_connectors())
        return list(cached[1])

    def _place_connectors(self) -> tuple[tuple, dict]:
        instance_box = self.bounding_box()
        elements = list(self.element_transforms())
        placed: list[InstanceConnector] = []
        for conn in self.cell._connectors:
            for i, j, transform in elements:
                position = transform.apply(conn.position)
                side = _parent_side(position, instance_box)
                if self.is_array and side == INSIDE:
                    # "Riot allows no access to interior connectors on
                    # arrays" — only the outside edge is visible.
                    continue
                name = conn.name if not self.is_array else f"{conn.name}[{i},{j}]"
                placed.append(
                    InstanceConnector(
                        instance=self,
                        base_name=conn.name,
                        element=(i, j),
                        name=name,
                        position=position,
                        layer=conn.layer,
                        width=conn.width,
                        side=side,
                    )
                )
        # Visible names first; an array's bare base names then address
        # element (0,0), unless a visible name already took them.
        by_name: dict[str, InstanceConnector] = {}
        for conn in placed:
            by_name.setdefault(conn.name, conn)
        if self.is_array:
            for conn in placed:
                if conn.element == (0, 0):
                    by_name.setdefault(conn.base_name, conn)
        return tuple(placed), by_name

    def connector(self, name: str) -> InstanceConnector:
        """Look up by visible name; bare base names address element (0,0).

        Served from the name index built with the connector list, which
        :meth:`connectors` brings up to date.
        """
        self.connectors()
        found = self._view_cache[2].get(name)
        if found is None:
            raise KeyError(
                f"instance {self.name!r} has no visible connector {name!r}"
            )
        return found

    def connectors_on_side(self, side: str) -> list[InstanceConnector]:
        return [c for c in self.connectors() if c.side == side]

    def __repr__(self) -> str:
        array = f", {self.nx}x{self.ny}" if self.is_array else ""
        return f"Instance({self.name!r} of {self.cell.name!r}{array})"


def _parent_side(position: Point, instance_box: Box) -> str:
    """Classify against the instance's parent-space bounding box."""
    if not instance_box.contains_point(position):
        return INSIDE  # oriented arrays may move a connector inward
    return classify_side(position, instance_box)


def instances_bounding_box(instances: list[Instance]) -> Box:
    return union_all(inst.bounding_box() for inst in instances)
