"""The content-addressed store, and cache *correctness*: cached
verification must be indistinguishable from fresh verification, and
editing a leaf must invalidate exactly its dependents."""

import dataclasses

import pytest

from repro.composition.cell import LeafCell
from repro.core.verify import verify_cell
from repro.geometry.point import Point
from repro.pipeline import ContentCache, hash_cell, run_verification
from repro.sticks.model import SymbolicWire

from .conftest import TECH, stock_editor


class TestContentCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ContentCache(tmp_path)
        assert cache.get("ab" * 32) == (False, None)
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) == (True, {"x": 1})

    def test_falsy_value_is_a_hit(self, tmp_path):
        cache = ContentCache(tmp_path)
        cache.put("cd" * 32, [])
        hit, value = cache.get("cd" * 32)
        assert hit and value == []

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ContentCache(tmp_path)
        key = "ef" * 32
        cache.put(key, 42)
        path = cache._path(key)
        path.write_bytes(b"\x80garbage")
        assert cache.get(key) == (False, None)
        assert not path.exists()

    def test_unpicklable_value_reports_failure(self, tmp_path):
        cache = ContentCache(tmp_path)
        assert cache.put("01" * 32, lambda: None) is False
        assert "01" * 32 not in cache

    def test_no_stray_temp_files_after_put(self, tmp_path):
        cache = ContentCache(tmp_path)
        cache.put("23" * 32, list(range(100)))
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_len_counts_entries(self, tmp_path):
        cache = ContentCache(tmp_path)
        cache.put("ab" * 32, 1)
        cache.put("cd" * 32, 2)
        assert len(cache) == 2


class TestEviction:
    def test_evict_removes_entry(self, tmp_path):
        cache = ContentCache(tmp_path)
        cache.put("ab" * 32, 1)
        assert cache.evict("ab" * 32) is True
        assert cache.get("ab" * 32) == (False, None)

    def test_evicting_absent_key_is_a_noop(self, tmp_path):
        cache = ContentCache(tmp_path)
        assert cache.evict("cd" * 32) is False

    def test_evictions_are_counted(self, tmp_path):
        from repro.obs import metrics

        reg = metrics.MetricsRegistry()
        cache = ContentCache(tmp_path)
        cache.put("ab" * 32, 1)
        with metrics.scope(reg):
            cache.evict("ab" * 32)
            cache.evict("ab" * 32)  # miss: not counted
        assert reg.snapshot()["pipeline.cache.evictions"] == 1

    def test_corrupt_drop_counts_as_eviction(self, tmp_path):
        from repro.obs import metrics

        reg = metrics.MetricsRegistry()
        cache = ContentCache(tmp_path)
        key = "ef" * 32
        cache.put(key, 42)
        cache._path(key).write_bytes(b"\x80garbage")
        with metrics.scope(reg):
            assert cache.get(key) == (False, None)
        assert reg.snapshot()["pipeline.cache.evictions"] == 1


def report_fingerprint(report):
    """Everything observable about a VerificationReport, as data."""
    return (
        report.cell_name,
        report.shape_count,
        report.summary(),
        sorted(str(v) for v in report.drc.violations),
        sorted(
            (layer, str(box), node) for layer, box, node in report.netlist.shapes
        ),
        sorted(str(c) for c in report.connections.made),
        sorted(str(n.a) + str(n.b) for n in report.connections.near_misses),
        sorted(str(c) for c in report.connections.unconnected),
    )


def composition_cells_of_stock():
    """Every stock leaf, wrapped in a one-instance composition."""
    editor = stock_editor()
    leaf_names = list(editor.library.names)
    cells = []
    for leaf_name in leaf_names:
        editor.new_cell(f"wrap_{leaf_name}")
        editor.create(at=Point(0, 0), cell_name=leaf_name, name="u")
        editor.finish()
        cells.append(editor.cell)
    return cells


STOCK_CELLS = composition_cells_of_stock()


class TestCachedEqualsFresh:
    """Property over the whole stock library: for every cell, the
    report computed through a warm cache is identical to one computed
    from scratch."""

    @pytest.mark.parametrize(
        "cell", STOCK_CELLS, ids=[c.name for c in STOCK_CELLS]
    )
    def test_stock_cell_cached_report_identical(self, cell, tmp_path):
        fresh = verify_cell(cell, TECH)
        cold = verify_cell(cell, TECH, cache=tmp_path / "c")
        warm = verify_cell(cell, TECH, cache=tmp_path / "c")
        assert report_fingerprint(cold) == report_fingerprint(fresh)
        assert report_fingerprint(warm) == report_fingerprint(fresh)

    def test_warm_run_is_pure_hits(self, tmp_path):
        editor = stock_editor()
        editor.new_cell("row")
        editor.create(at=Point(0, 0), cell_name="srcell", nx=3, name="a")
        editor.finish()
        run_verification([editor.cell], TECH, cache=tmp_path)
        result = run_verification([editor.cell], TECH, cache=tmp_path)
        timing = result.timing
        assert timing.cache_misses == 0
        for kind in ("expand", "cif", "elaborate", "drc", "extract"):
            assert timing.executed(kind) == 0, kind


def stock_srcell_hash() -> str:
    """The hash of srcell in a freshly stocked library."""
    return hash_cell(stock_editor().library.get("srcell"))


class TestInvalidationExactness:
    """Editing one leaf re-verifies only that leaf's dependents."""

    def build(self):
        editor = stock_editor()
        editor.new_cell("rowa")
        editor.create(at=Point(0, 0), cell_name="srcell", nx=2, name="a")
        editor.finish()
        editor.new_cell("rowb")
        editor.create(at=Point(0, 0), cell_name="fit_strap", nx=2, name="b")
        editor.finish()
        return editor

    def mutate_srcell(self, editor):
        """A leaf edit: srcell replaced by a copy with one extra metal
        stub.  The parsed stock leaf is shared by every library in the
        process, so the edit goes into a copy, never into it."""
        sticks = editor.library.get("srcell").sticks_cell
        y = sticks.boundary.ury - 200
        stub = SymbolicWire(
            "metal",
            (Point(sticks.boundary.llx, y), Point(sticks.boundary.llx + 600, y)),
            750,
        )
        edited = dataclasses.replace(sticks, wires=[*sticks.wires, stub])
        editor.library.replace("srcell", LeafCell.from_sticks(edited, TECH))

    def hashes(self, editor):
        return {
            name: hash_cell(editor.library.get(name))
            for name in ("rowa", "rowb", "srcell", "fit_strap")
        }

    def test_hashes_move_only_for_dependents(self):
        stock = stock_srcell_hash()
        editor = self.build()
        before = self.hashes(editor)
        self.mutate_srcell(editor)
        after = self.hashes(editor)
        assert before["srcell"] != after["srcell"]
        assert before["rowa"] != after["rowa"]
        assert before["fit_strap"] == after["fit_strap"]
        assert before["rowb"] == after["rowb"]
        assert stock_srcell_hash() == stock

    def test_pipeline_reruns_exactly_the_dependents(self, tmp_path):
        stock = stock_srcell_hash()
        editor = self.build()
        cells = [editor.library.get("rowa"), editor.library.get("rowb")]
        run_verification(cells, TECH, cache=tmp_path)
        self.mutate_srcell(editor)
        result = run_verification(cells, TECH, cache=tmp_path)
        executed = {
            s.task_id for s in result.timing.spans if s.source != "cached"
        }
        # srcell and everything above it recomputed...
        assert "expand:srcell" in executed
        for stage in ("cif", "elaborate", "drc", "extract"):
            assert f"{stage}:rowa" in executed
        # ...while the untouched row stayed cached end to end.
        for stage in ("cif", "elaborate", "drc", "extract"):
            assert f"{stage}:rowb" not in executed
        assert "expand:fit_strap" not in executed
        assert stock_srcell_hash() == stock

    def test_mutated_cell_report_reflects_the_edit(self, tmp_path):
        stock = stock_srcell_hash()
        editor = self.build()
        cells = [editor.library.get("rowa")]
        first = run_verification(cells, TECH, cache=tmp_path).reports["rowa"]
        self.mutate_srcell(editor)
        second = run_verification(cells, TECH, cache=tmp_path).reports["rowa"]
        assert second.shape_count > first.shape_count
        assert stock_srcell_hash() == stock


def test_cache_shared_between_jobs_levels(tmp_path):
    """Artifacts stored by a parallel run are hits for a serial run."""
    editor = stock_editor()
    editor.new_cell("row")
    editor.create(at=Point(0, 0), cell_name="srcell", nx=2, name="a")
    editor.finish()
    run_verification([editor.cell], TECH, jobs=2, cache=tmp_path)
    result = run_verification([editor.cell], TECH, jobs=1, cache=tmp_path)
    assert result.timing.cache_misses == 0
