"""The composition model's cached views: reused while their inputs are
the same, recomputed when an edit assigns new ones, and invisible to
pickles and content hashes."""

import pickle

import pytest

from repro.composition.cell import CompositionCell
from repro.composition.instance import Instance
from repro.geometry.box import Box
from repro.geometry.orientation import MX, R90
from repro.geometry.point import Point
from repro.geometry.transform import Transform
from repro.pipeline.hashing import hash_cell

from tests.composition.conftest import make_cif_leaf, make_sticks_leaf


@pytest.fixture()
def leaf(tech):
    return make_cif_leaf(tech=tech)  # 2000x1000, IN left, OUT right


@pytest.fixture()
def chip(tech):
    """``top`` holds a leaf, an array and an instance of ``blk``, which
    holds a leaf and a mirrored array of a Sticks leaf."""
    blk = CompositionCell("blk")
    blk.add_instance(Instance("b0", make_cif_leaf(tech=tech)))
    blk.add_instance(
        Instance(
            "b1",
            make_sticks_leaf(tech=tech),
            Transform(MX, Point(6000, 0)),
            nx=2,
            ny=2,
        )
    )
    blk.refresh_connectors()
    top = CompositionCell("top")
    top.add_instance(
        Instance("u", make_cif_leaf(tech=tech), Transform.translate(0, 5000))
    )
    top.add_instance(
        Instance("arr", make_cif_leaf(tech=tech), Transform(R90, Point(0, 0)), nx=3)
    )
    top.add_instance(Instance("sub", blk, Transform.translate(10000, 0)))
    return top


def _views(cell) -> list:
    """Every view of ``cell`` and its instances, by value."""
    out = [cell.bounding_box(), list(cell.connectors)]
    for inst in cell.instances:
        conns = inst.connectors()
        out += [inst.name, inst.bounding_box()]
        out.append([(c.name, c.position, c.side) for c in conns])
        names = [c.name for c in conns] + [c.name for c in inst.cell.connectors]
        for name in names:
            try:
                found = inst.connector(name)
            except KeyError:
                found = None
            out.append((name, found and (found.name, found.position, found.side)))
    return out


class TestReuse:
    def test_unchanged_inputs_return_the_cached_objects(self, leaf):
        inst = Instance("a", leaf, nx=3)
        assert inst.bounding_box() is inst.bounding_box()
        assert inst.connector("IN[0,0]") is inst.connector("IN[0,0]")

    def test_connectors_is_a_fresh_list_each_call(self, leaf):
        inst = Instance("u", leaf)
        first = inst.connectors()
        first.clear()
        assert [c.name for c in inst.connectors()] == ["IN", "OUT"]
        assert inst.connectors() is not inst.connectors()

    def test_array_base_names_are_indexed(self, leaf):
        inst = Instance("a", leaf, ny=2)
        assert inst.connector("IN") is inst.connector("IN[0,0]")
        with pytest.raises(KeyError, match="no visible connector"):
            inst.connector("IN[5,5]")


class TestRecompute:
    def test_placement_edits(self, leaf):
        inst = Instance("u", leaf)
        assert inst.connector("IN").position == Point(0, 500)
        inst.translate(100, 0)
        assert inst.connector("IN").position == Point(100, 500)
        inst.rotate90()
        assert inst.bounding_box() == Box(-1000, 100, 0, 2100)
        inst.nx = 2
        assert {c.name for c in inst.connectors()} == {
            "IN[0,0]", "OUT[0,0]", "IN[1,0]", "OUT[1,0]",
        }

    def test_cell_rebinding(self, leaf, tech):
        inst = Instance("u", leaf)
        inst.cell = make_cif_leaf(
            width=3000, connectors=(("A", 0, 500, "metal", 400),), tech=tech
        )
        assert inst.bounding_box() == Box(0, 0, 3000, 1000)
        assert [c.name for c in inst.connectors()] == ["A"]

    def test_editing_a_child_composition_reaches_its_parent(self, chip):
        sub = chip.instance("sub")
        blk = sub.cell
        before = chip.bounding_box()
        blk.instance("b0").translate(0, 20000)
        assert sub.bounding_box() == blk.bounding_box().translated(10000, 0)
        assert chip.bounding_box().ury > before.ury
        # Promoted connectors change only when the child is finished.
        blk.refresh_connectors()
        assert [(c.name, c.position) for c in sub.connectors()] == [
            (c.name, c.position.translated(10000, 0)) for c in blk.connectors
        ]

    def test_restore_rolls_the_views_back(self, chip):
        state = chip.snapshot()
        before = _views(chip)
        chip.instance("u").rotate90()
        chip.instance("arr").nx = 1
        assert _views(chip) != before
        chip.restore(state)
        assert _views(chip) == before


class TestPickles:
    def test_caching_is_invisible_to_pickles_and_hashes(self, chip):
        fresh = pickle.dumps(chip)
        digest = hash_cell(chip)
        views = _views(chip)
        assert pickle.dumps(chip) == fresh
        assert hash_cell(chip) == digest
        clone = pickle.loads(fresh)
        assert _views(clone) == views
        assert hash_cell(clone) == digest

    def test_unpickled_cell_recomputes_after_an_edit(self, chip):
        _views(chip)
        clone = pickle.loads(pickle.dumps(chip))
        clone.instance("u").translate(0, 1000)
        chip.instance("u").translate(0, 1000)
        assert _views(clone) == _views(chip)
