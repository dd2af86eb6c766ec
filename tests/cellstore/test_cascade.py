"""The invalidation cascade: publishing a new leaf version replays
every stored dependent composition's REPLAY journal against it and
reports, per dependent, survival or the exact command + error code
that broke.

The headline scenario pins the acceptance contract: one dependent
that survives a connector rename and one that breaks on it, the break
carrying a structured (stable) error code."""

from __future__ import annotations

import pytest

from repro.api import types as t
from repro.cellstore import (
    MissingDep,
    assess_impact,
    journal_dependencies,
)
from repro.cellstore.store import text_digest


def publish_nand(session) -> None:
    """nand@1 from the stock library, via the typed API."""
    result = session.dispatch(t.LibraryPublishRequest(name="nand"))
    assert (result.name, result.version, result.kind) == ("nand", 1, "sticks")


def publish_ok_pair(session, name: str = "ok_pair") -> None:
    """A dependent that only instantiates nand — survives any version
    that still parses."""
    session.dispatch(t.LibraryGetRequest(ref="nand@1"))
    session.dispatch(t.NewCellRequest(name=name))
    session.dispatch(t.CreateRequest(at=(0, 20000), cell_name="nand", name="n0"))
    session.dispatch(
        t.CreateRequest(at=(8000, 20000), cell_name="nand", name="n1")
    )
    result = session.dispatch(t.LibraryPublishRequest(name=name))
    assert result.deps == ("nand@1",)


def publish_breaker(session) -> None:
    """A dependent wired through nand's connector ``A`` — breaks when
    a new nand version renames it."""
    session.dispatch(t.LibraryGetRequest(ref="nand@1"))
    session.dispatch(t.NewCellRequest(name="breaker"))
    session.dispatch(t.CreateRequest(at=(0, 20000), cell_name="nand", name="n0"))
    session.dispatch(
        t.CreateRequest(at=(0, 30000), cell_name="srcell", nx=4, name="sr")
    )
    session.dispatch(
        t.ConnectRequest(
            from_instance="n0",
            from_connector="A",
            to_instance="sr",
            to_connector="TAP[0,0]",
        )
    )
    session.dispatch(t.AbutRequest())
    session.dispatch(t.LibraryPublishRequest(name="breaker"))


def renamed_pin_payload(store) -> str:
    """nand's sticks source with connector A renamed — the breaking
    candidate version."""
    v1 = store.payload(store.resolve("nand@1"))
    v2 = v1.replace("PIN A poly", "PIN Q poly")
    assert v2 != v1
    return v2


@pytest.fixture
def populated(store, session_for):
    """nand@1 plus both dependents, each published from its own
    session the way distinct users would."""
    publish_nand(session_for())
    publish_ok_pair(session_for())
    publish_breaker(session_for())
    return store


class TestJournalDependencies:
    def test_created_and_selected_cells_minus_own_definitions(self):
        from repro.core.wal import JournalEntry, journal_text

        text = journal_text(
            [
                JournalEntry("new_cell", {"name": "top"}),
                JournalEntry("select", {"cell_name": "nand"}),
                JournalEntry("create", {"cell_name": "srcell"}),
                JournalEntry("create", {"cell_name": "top"}),
            ]
        )
        assert journal_dependencies(text) == ("nand", "srcell")


class TestImpact:
    def test_survivor_and_failure_with_structured_code(self, populated):
        entries = assess_impact(
            populated, "nand", renamed_pin_payload(populated), "sticks"
        )
        by_name = {e.composition: e for e in entries}
        assert set(by_name) == {"ok_pair", "breaker"}

        survivor = by_name["ok_pair"]
        assert survivor.survived
        assert survivor.executed == survivor.total
        assert survivor.failures == ()
        assert survivor.dependency == "nand@1"

        broken = by_name["breaker"]
        assert not broken.survived
        assert broken.executed < broken.total
        failure = broken.failures[0]
        assert failure.command == "connect"
        assert failure.code == "args.key"
        assert "A" in failure.error

    def test_compatible_candidate_breaks_nothing(self, populated):
        v1 = populated.payload(populated.resolve("nand@1"))
        entries = assess_impact(populated, "nand", v1, "sticks")
        assert all(e.survived for e in entries)

    def test_leaf_with_no_dependents_has_empty_impact(self, store, session_for):
        publish_nand(session_for())
        payload = store.payload(store.resolve("nand@1"))
        assert assess_impact(store, "nand", payload, "sticks") == []

    def test_missing_journal_reports_missing_dep_code(self, populated):
        # A composition published without its REPLAY journal cannot be
        # re-validated: the cascade reports that as a structured
        # failure rather than guessing.
        comp = "a A b\n"
        populated.publish(
            "opaque",
            "composition",
            comp,
            content_hash=text_digest(comp),
            deps=("nand@1",),
        )
        entries = assess_impact(
            populated, "nand", renamed_pin_payload(populated), "sticks"
        )
        by_name = {e.composition: e for e in entries}
        opaque = by_name["opaque"]
        assert not opaque.survived
        assert opaque.failures[0].code == MissingDep("x").code


class TestUnreadableJournal:
    """A dependent whose journal cannot be read is that dependent's
    failure: the publish has already landed, so the cascade reports it
    and goes on to the other dependents."""

    def test_missing_journal_blob_breaks_only_its_dependent(
        self, store, session_for
    ):
        publish_nand(session_for())
        for name in ("dep000", "dep001", "dep002"):
            publish_ok_pair(session_for(), name)
        journal = store.resolve("dep001@1").journal
        (store.root / "blobs" / journal[:2] / journal[2:]).unlink()

        result = session_for().dispatch(
            t.LibraryPublishRequest(name="nand", expected_version=1)
        )
        assert result.version == 2
        assert store.resolve("nand").version == 2
        by_name = {e.composition: e for e in result.impact}
        assert set(by_name) == {"dep000", "dep001", "dep002"}
        broken = by_name.pop("dep001")
        assert not broken.survived
        assert [(f.command, f.code) for f in broken.failures] == [
            ("<journal>", "library.corrupt")
        ]
        assert all(e.survived for e in by_name.values())

    def test_unparseable_journal_breaks_only_its_dependent(self, populated):
        comp = "a A b\n"
        populated.publish(
            "garbled",
            "composition",
            comp,
            content_hash=text_digest(comp),
            deps=("nand@1",),
            journal_payload="not a journal line\n",
        )
        v1 = populated.payload(populated.resolve("nand@1"))
        by_name = {
            e.composition: e for e in assess_impact(populated, "nand", v1, "sticks")
        }
        garbled = by_name.pop("garbled")
        assert [(f.command, f.code) for f in garbled.failures] == [
            ("<journal>", "riot.journal")
        ]
        assert set(by_name) == {"ok_pair", "breaker"}
        assert all(e.survived for e in by_name.values())


class TestImpactOverTypedApi:
    def test_publish_cascades_and_reports(self, populated, session_for):
        session = session_for()
        # Stage the breaking nand in this session's editor library,
        # then publish it through the same command every transport
        # uses — the result carries the impact report.
        from repro.cellstore.cascade import overlay_payload

        overlay_payload(
            session.editor.library, "sticks", renamed_pin_payload(populated)
        )
        result = session.dispatch(
            t.LibraryPublishRequest(name="nand", expected_version=1)
        )
        assert result.version == 2
        by_name = {e.composition: e for e in result.impact}
        assert by_name["ok_pair"].survived
        assert not by_name["breaker"].survived
        assert by_name["breaker"].failures[0].code == "args.key"
        # The publish went through first: impact describes what the
        # now-current version breaks.
        assert populated.resolve("nand").version == 2

    def test_impact_command_replays_existing_version(self, populated, session_for):
        v2 = renamed_pin_payload(populated)
        populated.publish(
            "nand", "sticks", v2, content_hash=text_digest(v2)
        )
        result = session_for().dispatch(t.LibraryImpactRequest(ref="nand@2"))
        assert result.ref == "nand@2"
        by_name = {e.composition: e for e in result.impact}
        assert by_name["ok_pair"].survived
        assert not by_name["breaker"].survived

    def test_no_cascade_flag_skips_assessment(self, populated, session_for):
        session = session_for()
        result = session.dispatch(
            t.LibraryPublishRequest(name="nand", cascade=False)
        )
        assert result.version == 2
        assert result.impact == ()
