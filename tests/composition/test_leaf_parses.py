"""Leaf texts are parsed once per process (``LEAF_PARSES``) and every
library gets its own leaf objects over the shared parse.

The reference is a cache-free parse of the same text: every leaf a
library holds must match it (content hash, box, connectors, source
file), no leaf object may sit in two libraries, and both must still
hold after another library has renamed, replaced and stretched its
copy of a cell."""

import sys
import threading
import time

import pytest

from repro.api import types as t
from repro.api.session import Session
from repro.cellstore.cascade import overlay_payload
from repro.cif.parser import parse_cif
from repro.cif.semantics import elaborate
from repro.composition.cell import LeafCell
from repro.composition.library import LEAF_PARSE_LIMIT, LEAF_PARSES, CellLibrary
from repro.core.editor import RiotEditor
from repro.geometry.layers import nmos_technology
from repro.library.fittings import fittings_sticks_text
from repro.library.gates import logic_sticks_text
from repro.library.pads import pads_cif_text
from repro.library.stock import filter_library
from repro.pipeline.hashing import hash_cell
from repro.sticks.parser import parse_sticks

STOCK = (
    ("cif", pads_cif_text(), "pads.cif"),
    ("sticks", logic_sticks_text(), "logic.sticks"),
    ("sticks", fittings_sticks_text(), "fittings.sticks"),
)


def fresh_parse(kind, text, technology, source_file=None) -> dict:
    """Leaf cells by name, parsed without the memo."""
    if kind == "cif":
        design = elaborate(parse_cif(text), technology)
        cells = [LeafCell.from_cif(c, source_file=source_file) for c in design.cells]
    else:
        cells = [
            LeafCell.from_sticks(c, technology, source_file=source_file)
            for c in parse_sticks(text)
        ]
    return {cell.name: cell for cell in cells}


def stock_reference(technology, *, sources: bool = True) -> dict:
    reference = {}
    for kind, text, source_file in STOCK:
        reference.update(
            fresh_parse(kind, text, technology, source_file if sources else None)
        )
    return reference


def assert_matches(library: CellLibrary, reference: dict) -> None:
    assert library.names == list(reference)
    for name, expected in reference.items():
        leaf = library.get(name)
        assert vars(leaf).keys() == vars(expected).keys()
        assert leaf.name == name
        assert hash_cell(leaf) == hash_cell(expected)
        assert leaf.bounding_box() == expected.bounding_box()
        assert leaf.connectors == expected.connectors
        assert leaf.source_file == expected.source_file


def assert_disjoint(*libraries: CellLibrary) -> None:
    seen: dict[int, int] = {}
    for index, library in enumerate(libraries):
        for cell in library.cells:
            assert seen.setdefault(id(cell), index) == index, (
                f"{cell!r} is in libraries {seen[id(cell)]} and {index}"
            )


def overlaid(technology) -> CellLibrary:
    library = CellLibrary(technology)
    for kind, text, _ in STOCK:
        overlay_payload(library, kind, text)
    return library


def read_through_editor(technology) -> CellLibrary:
    session = Session(editor=RiotEditor(technology))
    for _, text, source_file in STOCK:
        session.store.write(source_file, text)
        session.dispatch(t.ReadRequest(name=source_file))
    return session.editor.library


def disturb(library: CellLibrary) -> None:
    """Stretch an instance of ``nand``, rename ``nand``, then replace
    the renamed cell with a new ``or2`` leaf: every write a library
    makes to a leaf."""
    editor = RiotEditor(library.technology)
    editor.library = library
    session = Session(editor=editor)
    session.dispatch(t.NewCellRequest(name="top"))
    session.dispatch(t.CreateRequest(at=(0, 0), cell_name="nand", name="n0"))
    session.dispatch(
        t.CreateRequest(at=(0, 20000), cell_name="srcell", nx=2, name="sr")
    )
    for pin, tap in (("A", "TAP[0,0]"), ("B", "TAP[1,0]")):
        session.dispatch(
            t.ConnectRequest(
                from_instance="n0", from_connector=pin, to_instance="sr", to_connector=tap
            )
        )
    assert session.dispatch(t.StretchRequest()).new_cell == "nand_s"
    session.dispatch(t.CreateRequest(at=(0, 40000), cell_name="nand", name="n1"))
    library.rename("nand", "nand_a")
    (or2,) = [
        leaf for leaf in library.leaves("sticks", logic_sticks_text()) if leaf.name == "or2"
    ]
    library.replace("nand_a", or2)
    assert library.get("nand_a") is or2 and or2.name == "nand_a"
    assert editor.cell.instance("n1").cell is library.get("nand_a")


class TestAgainstFreshParse:
    def test_stock_library_on_later_loads(self):
        technology = nmos_technology()
        reference = stock_reference(technology)
        first = filter_library(technology)
        # A technology equal in value shares the parse.
        later = [filter_library(technology), filter_library(nmos_technology())]
        for library in (first, *later):
            assert_matches(library, reference)
        assert_disjoint(first, *later)

    def test_overlay_of_sticks_and_cif_payloads(self):
        technology = nmos_technology()
        reference = stock_reference(technology, sources=False)
        libraries = [overlaid(technology) for _ in range(2)]
        for library in libraries:
            assert_matches(library, reference)
        assert_disjoint(*libraries, filter_library(technology))

    def test_editor_read(self):
        technology = nmos_technology()
        reference = stock_reference(technology)
        libraries = [read_through_editor(technology) for _ in range(2)]
        for library in libraries:
            assert_matches(library, reference)
        assert_disjoint(*libraries, filter_library(technology))

    def test_another_librarys_writes_stay_in_that_library(self):
        technology = nmos_technology()
        reference = stock_reference(technology)
        built_before = filter_library(technology)
        read_before = read_through_editor(technology)
        disturbed = filter_library(technology)
        disturb(disturbed)
        built_after = filter_library(technology)
        read_after = read_through_editor(technology)
        for library in (built_before, read_before, built_after, read_after):
            assert_matches(library, reference)
        assert_disjoint(built_before, read_before, disturbed, built_after, read_after)

    def test_unknown_kind_is_refused_and_not_remembered(self):
        library = CellLibrary(nmos_technology())
        before = len(LEAF_PARSES)
        with pytest.raises(ValueError, match="gds"):
            library.leaves("gds", "no such format")
        assert len(LEAF_PARSES) == before


SWITCH_INTERVAL = 1e-6
THREADS = 8
#: Each thread overlays this many payloads of its own, so together
#: they overflow the memo's bound and force evictions under contention.
ROUNDS = LEAF_PARSE_LIMIT // THREADS * 2


def own_payload(thread: int, round: int) -> str:
    return (
        f"STICKS t{thread}_{round}\n"
        "BBOX 0 0 2000 1500\n"
        f"PIN IN poly 0 {500 + round} 500\n"
        "PIN OUT poly 2000 750 500\n"
        "WIRE poly - 0 750 2000 750\n"
        "END\n"
    )


class TestSharedAcrossThreads:
    def test_session_threads_see_only_their_own_leaves(self):
        stock = filter_library(nmos_technology()).names
        rounds_done: list[int] = []
        problems: list[str] = []
        peak = [0]
        seats_done = threading.Event()
        deadline = time.monotonic() + 60.0

        def seat(thread: int) -> None:
            try:
                for round in range(ROUNDS):
                    if time.monotonic() > deadline:
                        problems.append(f"thread {thread} ran out of time")
                        return
                    library = filter_library(nmos_technology())
                    if library.names != stock or any(
                        library.get(name).name != name for name in stock
                    ):
                        problems.append(f"thread {thread} got {library.names}")
                    (added,) = overlay_payload(
                        library, "sticks", own_payload(thread, round)
                    )
                    renamed = f"nand_{thread}_{round}"
                    library.rename("nand", renamed)
                    expected = [n for n in stock if n != "nand"] + [added, renamed]
                    if library.names != expected or library.get(renamed).name != renamed:
                        problems.append(f"thread {thread} sees {library.names}")
                    pin = library.get(added).connector("IN").position.y
                    if pin != 500 + round:
                        problems.append(f"thread {thread} got pin IN at {pin}")
                rounds_done.append(ROUNDS)
            except Exception as exc:  # reported below, with the thread
                problems.append(f"thread {thread}: {exc!r}")

        def watch() -> None:
            while not seats_done.is_set():
                peak[0] = max(peak[0], len(LEAF_PARSES))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL)
        try:
            watcher = threading.Thread(target=watch)
            watcher.start()
            seats = [threading.Thread(target=seat, args=(i,)) for i in range(THREADS)]
            for thread in seats:
                thread.start()
            for thread in seats:
                thread.join(timeout=90.0)
                assert not thread.is_alive()
            seats_done.set()
            watcher.join(timeout=10.0)
            assert not watcher.is_alive()
        finally:
            seats_done.set()
            sys.setswitchinterval(previous)
        assert problems == []
        assert rounds_done == [ROUNDS] * THREADS
        assert THREADS * ROUNDS > LEAF_PARSE_LIMIT
        assert 0 < peak[0] <= LEAF_PARSE_LIMIT
