"""The Riot editor: cell list, cell under edit, pending connections.

Every public method is one Riot command; each call is recorded in the
REPLAY journal so a session can be re-run after leaf cells change
("the replay file uses instance names and connector names to identify
connections, and the positions are re-calculated").

Commands are transactional: each mutating method runs against a
copy-on-write snapshot of the open cell (plus the cell menu, the
selection, and — for non-consuming commands — the pending list), and a
command that raises mid-way is rolled back, so a failure never leaves
half-applied edits.  The rollback extends to the journal: the failed
command's entry is dropped from memory and, when a write-ahead journal
is attached (``wal=``), truncated off the on-disk tail — the WAL is
never more than one entry ahead of committed editor state.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

from repro.composition.cell import CompositionCell, LeafCell
from repro.composition.format import load_composition, save_composition
from repro.composition.instance import Instance
from repro.composition.library import CellLibrary
from repro.composition.netcheck import ConnectionReport, check_connections
from repro.core.abut import AbutResult, abut, abut_edges
from repro.core.errors import RiotError
from repro.core.pending import PendingList
from repro.core.replay import Journal
from repro.core.river import RiverRoute, plan_route
from repro.core.route_cells import (
    build_bringout_cell,
    build_route_cell,
    register_route_cell,
)
from repro.core.stretch_op import StretchResult, stretch
from repro.geometry.layers import Technology, nmos_technology
from repro.obs import metrics, trace
from repro.geometry.orientation import Orientation
from repro.geometry.point import Point
from repro.geometry.transform import Transform


@dataclass
class _EditorSnapshot:
    """Pre-command state captured by :func:`transactional`."""

    cell: CompositionCell | None
    cell_state: tuple | None
    selected: str | None
    library: dict
    pending: list | None
    tracks: int


def transactional(method=None, *, restore_pending: bool = True):
    """Make an editor command atomic: on any exception, roll the editor
    back to its pre-command snapshot and drop the command's journal
    entry (memory and WAL tail), then re-raise.

    ``restore_pending=False`` is for the connection-executing commands
    (ABUT/ROUTE/STRETCH) whose contract is that "the logical connection
    information is thrown out" whether or not they succeed — their own
    ``finally`` clears the pending list and rollback must not resurrect
    it.  That surviving side effect must still reach the journal: the
    failed command's own entry is rolled back, so without a substitute
    ``clear_pending`` entry a replayed session would keep connections
    the live session has discarded (and diverge, or refuse a later
    ``connect`` the live session accepted).
    """

    def decorate(func):
        span_name = "command." + func.__name__

        @functools.wraps(func)
        def wrapper(self, *args, **kwargs):
            with trace.span(span_name, category="command") as span:
                snapshot = self._snapshot(include_pending=restore_pending)
                had_pending = len(self.pending) > 0
                mark = self.journal.mark()
                try:
                    result = func(self, *args, **kwargs)
                except Exception:
                    self._restore(snapshot)
                    self.journal.rollback(mark)
                    if not restore_pending and had_pending and not len(self.pending):
                        self.journal.record("clear_pending")
                    metrics.counter("editor.rollbacks").inc()
                    span.set("rolled_back", True)
                    raise
                # The WAL sequence number of the entry this command
                # produced: its index in the journal, which is also its
                # line position in the on-disk replay file — the join
                # key between a trace line and the journal entry.
                if len(self.journal.entries) > mark[0]:
                    span.set("wal_seq", mark[0])
                metrics.counter("editor.commands").inc()
                self.journal.maybe_checkpoint()
                return result

        return wrapper

    return decorate(method) if method is not None else decorate


@dataclass
class RouteOpResult:
    """What the ROUTE command did."""

    route_cell: str
    instance: Instance
    solved: RiverRoute
    moved_by: Point
    warnings: list[str] = field(default_factory=list)


class RiotEditor:
    """The top-level tool object.

    ``tracks_per_channel`` is the routing default the textual
    interface can change ("set defaults for routing operations").
    """

    def __init__(
        self,
        technology: Technology | None = None,
        tracks_per_channel: int = 8,
        wal=None,
    ) -> None:
        self.technology = technology or nmos_technology()
        self.library = CellLibrary(self.technology)
        self.cell: CompositionCell | None = None
        self.pending = PendingList()
        self.selected_cell: str | None = None
        self.tracks_per_channel = tracks_per_channel
        self.journal = Journal()
        self.messages: list[str] = []
        if wal is not None:
            if isinstance(wal, (str, os.PathLike)):
                from repro.core.wal import JournalWriter

                wal = JournalWriter(wal)
            self.journal.attach(wal)

    # -- internal helpers -------------------------------------------------

    def _require_cell(self) -> CompositionCell:
        if self.cell is None:
            raise RiotError("no cell under edit (use new_cell or edit)")
        return self.cell

    def _snapshot(self, include_pending: bool = True) -> _EditorSnapshot:
        return _EditorSnapshot(
            cell=self.cell,
            cell_state=self.cell.snapshot() if self.cell is not None else None,
            selected=self.selected_cell,
            library=self.library.snapshot(),
            pending=self.pending.snapshot() if include_pending else None,
            tracks=self.tracks_per_channel,
        )

    def _restore(self, snapshot: _EditorSnapshot) -> None:
        self.cell = snapshot.cell
        if snapshot.cell is not None and snapshot.cell_state is not None:
            snapshot.cell.restore(snapshot.cell_state)
        self.selected_cell = snapshot.selected
        self.library.restore(snapshot.library)
        if snapshot.pending is not None:
            self.pending.restore(snapshot.pending)
        self.tracks_per_channel = snapshot.tracks

    def _warn(self, warnings: list[str]) -> None:
        for message in warnings:
            self.messages.append(message)

    # -- environment interface ------------------------------------------------

    def read_cif(self, text: str, source_file: str | None = None) -> list[str]:
        """Load CIF leaf cells into the cell menu."""
        added = self.library.load_cif(text, source_file)
        return [cell.name for cell in added]

    def read_sticks(self, text: str, source_file: str | None = None) -> list[str]:
        added = self.library.load_sticks(text, source_file)
        return [cell.name for cell in added]

    def read_composition(self, text: str) -> list[str]:
        loaded = load_composition(text, self.library)
        return [cell.name for cell in loaded]

    def write_composition(self) -> str:
        """Save the session: every composition cell, leaves by reference."""
        cells = [c for c in self.library.cells if not c.is_leaf]
        if not cells:
            raise RiotError("no composition cells to save")
        return save_composition(cells)

    def write_generated_sticks(self) -> str:
        """Sticks text for every session-generated symbolic leaf.

        Route cells, bring-outs and stretched cells are created during
        editing and have no source file; saving a session needs their
        content alongside the composition file so a later ``read`` can
        restore them ("references to files which contain the leaf
        cells used in those compositions").
        """
        from repro.sticks.writer import write_sticks

        generated = [
            cell.sticks_cell
            for cell in self.library.cells
            if cell.is_leaf and cell.is_stretchable and cell.source_file is None
        ]
        return write_sticks(generated)

    @transactional
    def delete_cell(self, name: str) -> None:
        self.journal.record("delete_cell", name=name)
        self.library.remove(name)
        if self.cell is not None and self.cell.name == name:
            self.cell = None
        if self.selected_cell == name:
            self.selected_cell = None

    @transactional
    def rename_cell(self, old: str, new: str) -> None:
        self.journal.record("rename_cell", old=old, new=new)
        self.library.rename(old, new)
        if self.selected_cell == old:
            self.selected_cell = new

    # -- cell editing lifecycle ---------------------------------------------------

    @transactional
    def new_cell(self, name: str) -> CompositionCell:
        """Start a fresh composition cell and edit it."""
        self.journal.record("new_cell", name=name)
        cell = CompositionCell(name)
        self.library.add(cell)
        self.cell = cell
        self.pending.clear()
        return cell

    @transactional
    def edit(self, name: str) -> CompositionCell:
        """Invoke the graphical editor on a composition cell."""
        self.journal.record("edit", name=name)
        cell = self.library.get(name)
        if cell.is_leaf:
            raise RiotError(
                f"{name!r} is a leaf cell; Riot edits only composition cells"
            )
        self.cell = cell
        self.pending.clear()
        return cell

    @transactional
    def finish(self) -> list[str]:
        """Finish the cell under edit: promote edge connectors."""
        self.journal.record("finish")
        cell = self._require_cell()
        promoted = cell.refresh_connectors()
        return [conn.name for conn in promoted]

    # -- instance creation and manipulation ------------------------------------------

    @transactional
    def select(self, cell_name: str) -> None:
        """Point at a name in the cell menu."""
        self.library.get(cell_name)  # raises on unknown
        self.journal.record("select", cell_name=cell_name)
        self.selected_cell = cell_name

    @transactional
    def create(
        self,
        at: Point,
        cell_name: str | None = None,
        orientation: str = "R0",
        nx: int = 1,
        ny: int = 1,
        dx: int | None = None,
        dy: int | None = None,
        name: str | None = None,
    ) -> Instance:
        """The CREATE command: instantiate the selected cell at ``at``.

        ``at`` is where the instance bounding box's lower-left lands.
        Optional replication makes an array; optional rotation and
        mirroring are given by orientation name (R0/R90/.../MXR90).
        """
        cell_name = cell_name or self.selected_cell
        if cell_name is None:
            raise RiotError("CREATE: no cell selected")
        target = self._require_cell()
        defining = self.library.get(cell_name)
        if defining is target:
            raise RiotError("CREATE: a cell cannot instantiate itself")
        name = name or target.unique_instance_name(cell_name)
        self.journal.record(
            "create",
            at=[at.x, at.y],
            cell_name=cell_name,
            orientation=orientation,
            nx=nx,
            ny=ny,
            dx=dx,
            dy=dy,
            name=name,
        )
        instance = Instance(
            name,
            defining,
            Transform(Orientation.from_name(orientation), Point(0, 0)),
            nx,
            ny,
            dx,
            dy,
        )
        instance.move_to(at)
        target.add_instance(instance)
        return instance

    @transactional
    def delete_instance(self, name: str) -> None:
        cell = self._require_cell()
        instance = cell.instance(name)
        self.journal.record("delete_instance", name=name)
        dropped = self.pending.drop_instance(instance)
        if dropped:
            self.messages.append(
                f"dropped {dropped} pending connection(s) of {name!r}"
            )
        cell.remove_instance(instance)

    @transactional
    def move(self, name: str, to: Point) -> Instance:
        """Move an instance so its bounding box lower-left is at ``to``."""
        cell = self._require_cell()
        instance = cell.instance(name)
        self.journal.record("move", name=name, to=[to.x, to.y])
        instance.move_to(to)
        return instance

    @transactional
    def move_by(self, name: str, dx: int, dy: int) -> Instance:
        cell = self._require_cell()
        instance = cell.instance(name)
        self.journal.record("move_by", name=name, dx=dx, dy=dy)
        instance.translate(dx, dy)
        return instance

    @transactional
    def rotate(self, name: str) -> Instance:
        """Rotate 90 degrees CCW in place (bounding box corner kept)."""
        cell = self._require_cell()
        instance = cell.instance(name)
        self.journal.record("rotate", name=name)
        corner = instance.bounding_box().lower_left
        instance.rotate90()
        instance.move_to(corner)
        return instance

    @transactional
    def mirror(self, name: str, axis: str = "x") -> Instance:
        """Mirror in place; ``axis`` is 'x' (flip x) or 'y' (flip y)."""
        cell = self._require_cell()
        instance = cell.instance(name)
        if axis not in ("x", "y"):
            raise RiotError(f"mirror axis must be 'x' or 'y', got {axis!r}")
        self.journal.record("mirror", name=name, axis=axis)
        corner = instance.bounding_box().lower_left
        if axis == "x":
            instance.mirror_x()
        else:
            instance.mirror_y()
        instance.move_to(corner)
        return instance

    @transactional
    def replicate(
        self,
        name: str,
        nx: int,
        ny: int = 1,
        dx: int | None = None,
        dy: int | None = None,
    ) -> Instance:
        """Turn an instance into an array (or change its replication)."""
        cell = self._require_cell()
        instance = cell.instance(name)
        if nx < 1 or ny < 1:
            raise RiotError(f"replication counts must be >= 1, got {nx}x{ny}")
        self.journal.record("replicate", name=name, nx=nx, ny=ny, dx=dx, dy=dy)
        width, height = instance.abutting_spacing()
        instance.nx = nx
        instance.ny = ny
        instance.dx = dx if dx is not None else width
        instance.dy = dy if dy is not None else height
        return instance

    # -- connection specification --------------------------------------------------------

    @transactional
    def connect(
        self,
        from_instance: str,
        from_connector: str,
        to_instance: str,
        to_connector: str,
    ) -> str:
        """Add one pending connection; returns its display string."""
        cell = self._require_cell()
        self.journal.record(
            "connect",
            from_instance=from_instance,
            from_connector=from_connector,
            to_instance=to_instance,
            to_connector=to_connector,
        )
        connection = self.pending.add(
            cell.instance(from_instance),
            from_connector,
            cell.instance(to_instance),
            to_connector,
        )
        return str(connection)

    @transactional
    def bus(self, from_instance: str, to_instance: str) -> int:
        """Bus-type specification: pair up all facing connectors."""
        cell = self._require_cell()
        self.journal.record(
            "bus", from_instance=from_instance, to_instance=to_instance
        )
        return self.pending.add_bus(
            cell.instance(from_instance), cell.instance(to_instance)
        )

    @transactional
    def unconnect(self, index: int) -> str:
        self.journal.record("unconnect", index=index)
        return str(self.pending.remove(index))

    @transactional
    def clear_pending(self) -> None:
        self.journal.record("clear_pending")
        self.pending.clear()

    # -- the three connection commands --------------------------------------------------------

    @transactional(restore_pending=False)
    def do_abut(self, overlap: bool = False) -> AbutResult:
        """ABUT with pending connections.

        "After the connection specification command, the logical
        connection information is thrown out" — the pending list is
        cleared whether or not every connection succeeded.
        """
        self.journal.record("do_abut", overlap=overlap)
        try:
            result = abut(self.pending, overlap=overlap)
        finally:
            self.pending.clear()
        self._warn(result.warnings)
        return result

    @transactional
    def do_abut_edges(self, from_instance: str, to_instance: str) -> AbutResult:
        """ABUT without connectors: edge matching by relative position."""
        cell = self._require_cell()
        self.journal.record(
            "do_abut_edges", from_instance=from_instance, to_instance=to_instance
        )
        return abut_edges(cell.instance(from_instance), cell.instance(to_instance))

    @transactional(restore_pending=False)
    def do_route(self, move_from: bool = True) -> RouteOpResult:
        """ROUTE: river-route the pending connections.

        A new route cell enters the cell menu and is instantiated
        between the instances; unless ``move_from`` is false, the from
        instance then abuts the far side of the route.
        """
        cell = self._require_cell()
        self.journal.record("do_route", move_from=move_from)
        try:
            frame, wires, solved, _shift = plan_route(
                self.pending,
                self.technology,
                self.tracks_per_channel,
                move_from=move_from,
            )
            from_instance = self.pending.from_instance
            assert from_instance is not None
            built = build_route_cell("route", frame, wires, solved, self.pending)
            leaf = register_route_cell(built, self.library)
            instance = cell.add_instance(
                Instance(cell.unique_instance_name(leaf.name), leaf)
            )
            moved_by = Point(0, 0)
            if move_from:
                first = self.pending[0]
                current = from_instance.connector(first.from_connector).position
                target = built.from_targets[first.from_connector]
                moved_by = target - current
                from_instance.translate(moved_by.x, moved_by.y)
        finally:
            self.pending.clear()
        return RouteOpResult(leaf.name, instance, solved, moved_by)

    @transactional(restore_pending=False)
    def do_stretch(self, overlap: bool = False) -> StretchResult:
        """STRETCH: re-space the from instance's connectors via REST."""
        self.journal.record("do_stretch", overlap=overlap)
        try:
            result = stretch(self.pending, self.library, overlap=overlap)
        finally:
            self.pending.clear()
        self._warn(result.warnings)
        return result

    # -- finishing a cell -----------------------------------------------------------------------

    @transactional
    def bring_out(
        self,
        instance_name: str,
        connector_names: list[str],
        side: str | None = None,
    ) -> Instance:
        """Route connectors straight out to the cell's bounding box edge.

        By default the wires leave on the side the connectors face;
        ``side`` overrides the direction (the wire then runs straight
        across whatever is in its way — Riot's router "ignores objects
        in the path of the route").  The straight-line route cell this
        makes is entered in the cell menu like any other cell.
        """
        cell = self._require_cell()
        instance = cell.instance(instance_name)
        self.journal.record(
            "bring_out",
            instance_name=instance_name,
            connector_names=list(connector_names),
            side=side,
        )
        if not connector_names:
            raise RiotError("bring_out: no connectors named")
        connectors = [instance.connector(n) for n in connector_names]
        if side is None:
            sides = {c.side for c in connectors}
            if len(sides) != 1:
                raise RiotError(
                    f"bring_out: connectors must share one side, got {sorted(sides)}"
                )
            side = next(iter(sides))
        elif side not in ("left", "right", "top", "bottom"):
            raise RiotError(f"bring_out: unknown side {side!r}")
        box = cell.bounding_box()
        edge = {
            "left": box.llx,
            "right": box.urx,
            "top": box.ury,
            "bottom": box.lly,
        }[side]
        sticks = build_bringout_cell("bringout", connectors, edge, side)
        sticks.name = self.library.unique_name("bringout")
        leaf = LeafCell.from_sticks(sticks, self.technology)
        self.library.add(leaf)
        return cell.add_instance(
            Instance(cell.unique_instance_name(leaf.name), leaf)
        )

    # -- checking -------------------------------------------------------------------------------------

    def check(self) -> ConnectionReport:
        """The positional connectivity report for the cell under edit."""
        cell = self._require_cell()
        return check_connections(cell.instances, self.technology)

    # -- replay ----------------------------------------------------------------------------------------

    def replay_from(self, journal_text: str) -> int:
        """Re-run a recorded session against this editor's current
        library (typically after leaf cells were re-read).  Strict: the
        first failing entry raises.  Returns the number of commands
        executed."""
        journal = Journal.from_text(journal_text)
        return journal.replay(self).executed

    def recover_from(self, journal_text: str, mode: str = "skip"):
        """Crash recovery: salvage ``journal_text`` (stopping at a
        corrupt tail instead of raising), replay it — ``skip`` mode
        carries on past entries that no longer execute — and adopt the
        committed history as this editor's journal.  Returns the
        :class:`repro.core.replay.RecoveryReport`."""
        from repro.core import wal

        return wal.recover(self, wal.load_text(journal_text), mode=mode)
