"""The cell library — Riot's cell menu.

"Internally, Riot has a list of cells that the user may edit ... The
upper menu area contains the names of the cells which are currently
defined and which may be instantiated."  The library preserves
insertion order because that order *is* the menu; route cells made by
the river router are appended here like any other cell.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.cif.parser import parse_cif
from repro.cif.semantics import elaborate
from repro.composition.cell import Cell, CompositionError, LeafCell
from repro.geometry.layers import Technology
from repro.sticks.parser import parse_sticks

#: How many distinct leaf texts :data:`LEAF_PARSES` keeps.  The stock
#: library is three texts per technology; the rest are texts sessions
#: read and cell-store payloads they overlay.
LEAF_PARSE_LIMIT = 64


def _parse_leaves(kind: str, technology: Technology, text: str) -> tuple[LeafCell, ...]:
    if kind == "cif":
        design = elaborate(parse_cif(text), technology)
        return tuple(LeafCell.from_cif(cif_cell) for cif_cell in design.cells)
    if kind == "sticks":
        return tuple(
            LeafCell.from_sticks(sticks_cell, technology)
            for sticks_cell in parse_sticks(text)
        )
    raise ValueError(f"unknown leaf kind {kind!r}")


class LeafParses:
    """Parsed leaf cells by ``(kind, technology, text)``, so a process
    reads each leaf text once however many libraries load it.

    The parsed cells are prototypes and never leave: callers get a
    :meth:`LeafCell.shell` of each.  The least recently used text is
    dropped past ``limit``.  Sessions build libraries on their own
    threads, so every access holds the lock; parsing does not, and two
    threads missing on one text both parse it and keep either result.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._lock = threading.Lock()
        self._parsed: OrderedDict[tuple, tuple[LeafCell, ...]] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._parsed)

    def leaves(
        self,
        kind: str,
        technology: Technology,
        text: str,
        source_file: str | None = None,
    ) -> list[LeafCell]:
        """New leaf cells for ``kind`` (``"cif"`` or ``"sticks"``)
        text, each a shell over the one parse of it."""
        return [
            prototype.shell(source_file)
            for prototype in self._prototypes(kind, technology, text)
        ]

    def _prototypes(
        self, kind: str, technology: Technology, text: str
    ) -> tuple[LeafCell, ...]:
        key = (kind, technology, text)
        with self._lock:
            cells = self._parsed.get(key)
            if cells is not None:
                self._parsed.move_to_end(key)
                return cells
        cells = _parse_leaves(kind, technology, text)
        with self._lock:
            self._parsed[key] = cells
            self._parsed.move_to_end(key)
            while len(self._parsed) > self.limit:
                self._parsed.popitem(last=False)
        return cells


#: The process's leaf parses, shared by every library.
LEAF_PARSES = LeafParses(LEAF_PARSE_LIMIT)


class CellLibrary:
    """An ordered, name-keyed registry of cells."""

    def __init__(self, technology: Technology) -> None:
        self.technology = technology
        self._cells: dict[str, Cell] = {}

    # -- basic registry ----------------------------------------------------

    def add(self, cell: Cell) -> Cell:
        if cell.name in self._cells:
            raise CompositionError(f"library already has a cell {cell.name!r}")
        self._cells[cell.name] = cell
        return cell

    def get(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(
                f"no cell {name!r} in library (have: {', '.join(self._cells) or 'none'})"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def names(self) -> list[str]:
        """Cell names in menu order (insertion order)."""
        return list(self._cells)

    @property
    def cells(self) -> list[Cell]:
        return list(self._cells.values())

    def snapshot(self) -> dict:
        """The menu membership, for transactional rollback.  Shallow:
        cells added by a failed command vanish on restore; in-place
        cell mutation is the :meth:`CompositionCell.restore` side."""
        return dict(self._cells)

    def restore(self, state: dict) -> None:
        self._cells = dict(state)

    def remove(self, name: str) -> None:
        """Delete a cell; refuses while any other cell instantiates it."""
        cell = self.get(name)
        for other in self._cells.values():
            if other is cell:
                continue
            if not other.is_leaf and other.uses_cell(cell):
                raise CompositionError(
                    f"cannot delete {name!r}: still instantiated by {other.name!r}"
                )
        del self._cells[name]

    def rename(self, old: str, new: str) -> Cell:
        cell = self.get(old)
        if new in self._cells:
            raise CompositionError(f"library already has a cell {new!r}")
        del self._cells[old]
        cell.name = new
        self._cells[new] = cell
        return cell

    def replace(self, name: str, replacement: Cell) -> Cell:
        """Swap a cell definition, rebinding every instance of it.

        This is what re-reading a modified leaf cell does; it is the
        scenario the paper's REPLAY exists for, since positional
        connections to the old shape silently break.
        """
        old = self.get(name)
        for other in self._cells.values():
            if other.is_leaf:
                continue
            for inst in other.instances:
                if inst.cell is old:
                    inst.cell = replacement
        del self._cells[name]
        replacement.name = name
        self._cells[name] = replacement
        return replacement

    def unique_name(self, base: str) -> str:
        if base not in self._cells:
            return base
        i = 2
        while f"{base}{i}" in self._cells:
            i += 1
        return f"{base}{i}"

    # -- bulk loading --------------------------------------------------------

    def leaves(
        self, kind: str, text: str, source_file: str | None = None
    ) -> list[LeafCell]:
        """New leaf cells for ``kind`` (``"cif"`` or ``"sticks"``) text
        in this library's technology, not yet registered."""
        return LEAF_PARSES.leaves(kind, self.technology, text, source_file)

    def load_cif(self, text: str, source_file: str | None = None) -> list[LeafCell]:
        """Elaborate CIF text and register every symbol as a leaf cell."""
        return [self.add(leaf) for leaf in self.leaves("cif", text, source_file)]

    def load_sticks(self, text: str, source_file: str | None = None) -> list[LeafCell]:
        """Parse Sticks text and register every cell as a leaf cell."""
        return [self.add(leaf) for leaf in self.leaves("sticks", text, source_file)]
