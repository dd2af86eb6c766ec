"""Tests for instances, arrays and connector visibility."""

import pytest

from repro.composition.connector import BOTTOM, INSIDE, LEFT, RIGHT, TOP
from repro.composition.instance import Instance, instances_bounding_box
from repro.geometry.box import Box
from repro.geometry.orientation import ALL_ORIENTATIONS, MX, R90
from repro.geometry.point import Point
from repro.geometry.transform import Transform

from tests.composition.conftest import make_cif_leaf


@pytest.fixture()
def leaf(tech):
    return make_cif_leaf(tech=tech)  # 2000x1000, IN left, OUT right


class TestPlacement:
    def test_identity_bbox(self, leaf):
        inst = Instance("u1", leaf)
        assert inst.bounding_box() == Box(0, 0, 2000, 1000)

    def test_translated_bbox(self, leaf):
        inst = Instance("u1", leaf, Transform.translate(100, 200))
        assert inst.bounding_box() == Box(100, 200, 2100, 1200)

    def test_rotated_bbox(self, leaf):
        inst = Instance("u1", leaf, Transform(R90, Point(0, 0)))
        assert inst.bounding_box() == Box(-1000, 0, 0, 2000)

    def test_move_to(self, leaf):
        inst = Instance("u1", leaf, Transform(R90, Point(0, 0)))
        inst.move_to(Point(0, 0))
        assert inst.bounding_box() == Box(0, 0, 1000, 2000)

    def test_translate(self, leaf):
        inst = Instance("u1", leaf)
        inst.translate(10, 20)
        inst.translate(-10, -20)
        assert inst.bounding_box() == Box(0, 0, 2000, 1000)

    def test_rotate90_mutator(self, leaf):
        inst = Instance("u1", leaf)
        inst.rotate90()
        assert inst.transform.orientation == R90

    def test_mirror_mutators(self, leaf):
        inst = Instance("u1", leaf)
        inst.mirror_x()
        assert inst.transform.orientation == MX
        inst.mirror_x()
        assert inst.transform.orientation.name == "R0"

    def test_bad_replication(self, leaf):
        with pytest.raises(ValueError, match=">= 1"):
            Instance("u1", leaf, nx=0)


class TestConnectors:
    def test_single_instance_connectors(self, leaf):
        inst = Instance("u1", leaf, Transform.translate(100, 0))
        conns = inst.connectors()
        assert len(conns) == 2
        by_name = {c.name: c for c in conns}
        assert by_name["IN"].position == Point(100, 500)
        assert by_name["IN"].side == LEFT
        assert by_name["OUT"].side == RIGHT

    def test_connector_lookup(self, leaf):
        inst = Instance("u1", leaf)
        assert inst.connector("IN").base_name == "IN"
        with pytest.raises(KeyError, match="no visible connector"):
            inst.connector("NOPE")

    def test_rotation_changes_side(self, leaf):
        inst = Instance("u1", leaf, Transform(R90, Point(0, 0)))
        # IN was on the left edge; after a 90-degree CCW rotation it is
        # on the bottom edge of the new bounding box.
        assert inst.connector("IN").side == BOTTOM

    def test_mirror_swaps_sides(self, leaf):
        inst = Instance("u1", leaf, Transform(MX, Point(0, 0)))
        assert inst.connector("IN").side == RIGHT
        assert inst.connector("OUT").side == LEFT

    def test_connectors_on_side(self, leaf):
        inst = Instance("u1", leaf)
        lefts = inst.connectors_on_side(LEFT)
        assert [c.name for c in lefts] == ["IN"]


class TestArrays:
    def test_array_bbox(self, leaf):
        inst = Instance("a", leaf, nx=4)
        assert inst.bounding_box() == Box(0, 0, 8000, 1000)

    def test_default_spacing_abuts(self, leaf):
        inst = Instance("a", leaf, nx=2, ny=3)
        assert inst.dx == 2000
        assert inst.dy == 1000

    def test_custom_spacing(self, leaf):
        inst = Instance("a", leaf, nx=2, dx=2500)
        assert inst.bounding_box() == Box(0, 0, 4500, 1000)

    def test_element_transform_bounds(self, leaf):
        inst = Instance("a", leaf, nx=2)
        with pytest.raises(IndexError):
            inst.element_transform(2, 0)

    def test_outside_edge_connectors_only(self, leaf):
        inst = Instance("a", leaf, nx=3)
        conns = inst.connectors()
        names = {c.name for c in conns}
        # IN of element 0 on left edge, OUT of element 2 on right edge;
        # the four facing connectors between elements are interior.
        assert names == {"IN[0,0]", "OUT[2,0]"}

    def test_array_connector_sides(self, leaf):
        inst = Instance("a", leaf, nx=3)
        assert inst.connector("IN[0,0]").side == LEFT
        assert inst.connector("OUT[2,0]").side == RIGHT

    def test_vertical_array_exposes_columns(self, leaf):
        inst = Instance("a", leaf, ny=2)
        names = {c.name for c in inst.connectors()}
        # Left/right connectors of both rows remain on the array edge.
        assert names == {"IN[0,0]", "IN[0,1]", "OUT[0,0]", "OUT[0,1]"}

    def test_base_name_lookup_falls_back(self, leaf):
        inst = Instance("a", leaf, ny=2)
        assert inst.connector("IN").element == (0, 0)

    def test_is_array_flag(self, leaf):
        assert not Instance("u", leaf).is_array
        assert Instance("u", leaf, nx=2).is_array

    def test_gapped_array_interior_stays_hidden(self, leaf):
        # Even with a gap between elements, interior-facing connectors
        # are not on the array bounding box edge and stay hidden.
        inst = Instance("a", leaf, nx=2, dx=3000)
        names = {c.name for c in inst.connectors()}
        assert "OUT[0,0]" not in names
        assert "IN[1,0]" not in names

    @pytest.mark.parametrize("orientation", ALL_ORIENTATIONS, ids=lambda o: o.name)
    def test_default_spacing_tiles_in_every_orientation(self, leaf, orientation):
        inst = Instance("a", leaf, Transform(orientation, Point(0, 0)), nx=3, ny=2)
        cell_box = leaf.bounding_box()
        elements = [t.apply_box(cell_box) for _, _, t in inst.element_transforms()]
        for k, a in enumerate(elements):
            for b in elements[k + 1 :]:
                assert not a.overlaps(b), f"{a} overlaps {b}"
        # No overlap and no gap: the elements exactly fill the array box.
        assert sum(box.area for box in elements) == inst.bounding_box().area

    def test_replicate_spaces_quarter_turns_by_oriented_box(self, tech):
        from repro.core.editor import RiotEditor

        editor = RiotEditor(tech)
        editor.library.add(make_cif_leaf(tech=tech))  # 2000x1000
        editor.new_cell("top")
        editor.create(Point(0, 0), "leaf", orientation="R90", name="a")
        inst = editor.replicate("a", 3, 2)
        assert (inst.dx, inst.dy) == (1000, 2000)
        assert inst.bounding_box() == Box(0, 0, 3000, 4000)

    def test_mirrored_array_edges(self, leaf):
        inst = Instance("a", leaf, Transform(MX, Point(0, 0)), nx=2, dx=2000)
        names = {c.name for c in inst.connectors()}
        # Mirroring flips which connectors land on the outside: element
        # (0,0) spans [-2000,0], so its OUT (local x=2000 -> parent
        # x=-2000) is now the left edge of the array.
        assert names == {"OUT[0,0]", "IN[1,0]"}
        assert inst.connector("OUT[0,0]").side == LEFT
        assert inst.connector("IN[1,0]").side == RIGHT


class TestHelpers:
    def test_instances_bounding_box(self, leaf):
        a = Instance("a", leaf)
        b = Instance("b", leaf, Transform.translate(0, 5000))
        assert instances_bounding_box([a, b]) == Box(0, 0, 2000, 6000)

    def test_repr(self, leaf):
        assert "2x1" in repr(Instance("a", leaf, nx=2))
