"""Regression: a failed ROUTE must journal its pending-clear.

Found by analysis while building the wal oracle.  ROUTE/ABUT/STRETCH
throw the pending list away whether or not they succeed ("after the
connection specification command, the logical connection information
is thrown out"), but the transactional wrapper also rolls the failed
command's entry out of the journal.  Without a substitute
``clear_pending`` entry, a replayed session kept connections the live
session had discarded: here, two crossed pairs that the route refuses
live on as pending connections after replay, and the session digests
diverge.
"""

from repro.composition.cell import LeafCell
from repro.core import wal
from repro.core.editor import RiotEditor
from repro.core.errors import RiotError
from repro.geometry.layers import nmos_technology
from repro.geometry.point import Point
from repro.proptest import gen

TO_CELL = {
    "name": "to_leaf", "lambda": 250, "pin_side": "top",
    "columns": 2, "grid": 3000, "depth": 9000,
    "pins": [
        {"name": "P0", "layer": "metal", "column": 0},
        {"name": "P1", "layer": "metal", "column": 1},
    ],
    "risers": [], "contacts": [], "devices": [], "spine": None,
}
FROM_CELL = {
    "name": "from_leaf", "lambda": 250, "pin_side": "bottom",
    "columns": 2, "grid": 3000, "depth": 9000,
    "pins": [
        {"name": "P0", "layer": "metal", "column": 0},
        {"name": "P1", "layer": "metal", "column": 1},
    ],
    "risers": [], "contacts": [], "devices": [], "spine": None,
}


def _editor(path=None):
    editor = RiotEditor(nmos_technology(), wal=path)
    for case in (TO_CELL, FROM_CELL):
        editor.library.add(
            LeafCell.from_sticks(gen.build_sticks_cell(case), editor.technology)
        )
    return editor


def test_failed_route_replays_to_an_equivalent_session(tmp_path):
    path = tmp_path / "session.rpl"
    editor = _editor(str(path))
    editor.new_cell("top")
    editor.create(Point(0, 0), cell_name="to_leaf", name="TO")
    editor.create(Point(0, 30000), cell_name="from_leaf", name="FROM")
    # Crossed pairs pass pending validation and fail inside plan_route.
    editor.connect("FROM", "P0", "TO", "P1")
    editor.connect("FROM", "P1", "TO", "P0")
    try:
        editor.do_route()
        raise AssertionError("crossed pairs must be refused")
    except RiotError:
        pass
    assert len(editor.pending) == 0
    want = gen.describe_editor(editor)
    editor.journal.writer.close()

    fresh = _editor()
    journal = wal.load_path(str(path))
    report = journal.replay(fresh, mode="strict")
    assert report.clean
    assert len(fresh.pending) == 0
    assert gen.describe_editor(fresh) == want


def test_failed_route_with_empty_pending_adds_no_entry(tmp_path):
    path = tmp_path / "session.rpl"
    editor = _editor(str(path))
    editor.new_cell("top")
    before = len(editor.journal.entries)
    try:
        editor.do_route()
        raise AssertionError("ROUTE with no pending must be refused")
    except RiotError:
        pass
    # Nothing was cleared, so nothing extra may be journalled.
    assert len(editor.journal.entries) == before
    editor.journal.writer.close()
