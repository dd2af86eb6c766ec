"""Tracing through the real editor: commands, engines, WAL, pipeline.

The acceptance path of the observability subsystem: a session built
from the stock library produces a trace in which every transactional
command is a span carrying its WAL sequence number, the ABUT / ROUTE /
STRETCH engines nest under the command that invoked them, WAL appends
nest under their command, and pipeline verify tasks nest under
``command.verify``.
"""

import pytest

from repro.core.editor import RiotEditor
from repro.core.textual import MemoryStore, TextualInterface
from repro.core.wal import JournalWriter
from repro.library.stock import filter_library
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.clock import FixedClock
from repro.obs.export import chrome_document, validate_chrome


def session_interface(tmp_path=None) -> TextualInterface:
    editor = RiotEditor()
    editor.library = filter_library(editor.technology)
    interface = TextualInterface(editor, MemoryStore())
    if tmp_path is not None:
        editor.journal.attach(JournalWriter(tmp_path / "session.rpl"))
    return interface


SESSION = [
    "new demo",
    "create srcell 0 30000 nx=4 name=sr",
    "create nand 0 20000 name=n0",
    "connect n0 A sr TAP[0,0]",
    "abut",
    "create nand 4000 20000 name=n1",
    "connect n1 A sr TAP[1,0]",
    "route",
    "create nand 0 10000 name=m0",
    "connect m0 A n0 OUT",
    "connect m0 B n1 OUT",
    "stretch overlap",
    "verify demo",
]


@pytest.fixture()
def journaled(tmp_path):
    """A session journaling to ``session.rpl``, closed after the test."""
    interface = session_interface(tmp_path)
    yield interface
    interface.editor.journal.writer.close()


@pytest.fixture()
def traced_session(journaled):
    tracer = obs_trace.enable(obs_trace.Tracer(clock=FixedClock()))
    for line in SESSION:
        response = journaled.execute(line)
        assert not response.startswith("error"), f"{line}: {response}"
    obs_trace.disable()
    return tracer


class TestSessionTrace:
    def test_all_spans_closed(self, traced_session):
        assert traced_session.open_count() == 0

    def test_command_spans_carry_wal_seq(self, traced_session):
        commands = [
            r
            for r in traced_session.finished()
            if r.category == "command" and r.name != "command.verify"
        ]
        assert commands, "no command spans traced"
        seqs = [r.attrs["wal_seq"] for r in commands]
        # One span per journaled command, in journal order: the span's
        # wal_seq is its line index in the replay file.
        assert seqs == sorted(seqs)
        assert seqs[0] == 0

    def test_engines_nest_under_their_commands(self, traced_session):
        by_id = {r.span_id: r for r in traced_session.finished()}

        def parent_name(rec):
            return by_id[rec.parent_id].name if rec.parent_id else None

        expected = {
            "abut.solve": {"command.do_abut", "command.do_stretch"},
            "river.plan": {"command.do_route"},
            "rest.solve_axis": {"command.do_stretch"},
            "pipeline.task": {"command.verify"},
        }
        seen = set()
        for rec in traced_session.finished():
            if rec.name in expected:
                assert parent_name(rec) in expected[rec.name], rec.name
                seen.add(rec.name)
        assert seen == set(expected)

    def test_wal_appends_nest_under_commands(self, traced_session):
        by_id = {r.span_id: r for r in traced_session.finished()}
        appends = [
            r for r in traced_session.finished() if r.name == "wal.append"
        ]
        assert appends
        for rec in appends:
            assert by_id[rec.parent_id].category == "command"

    def test_route_channel_nests_under_plan(self, traced_session):
        by_id = {r.span_id: r for r in traced_session.finished()}
        (channel,) = [
            r
            for r in traced_session.finished()
            if r.name == "river.route_channel"
        ]
        assert by_id[channel.parent_id].name == "river.plan"

    def test_exported_document_validates(self, traced_session):
        doc = chrome_document(
            traced_session.finished(),
            obs_metrics.registry().snapshot(),
            unclosed=traced_session.open_count(),
        )
        assert validate_chrome(doc) == []

    def test_metrics_counted_the_session(self, traced_session):
        snap = obs_metrics.registry().snapshot()
        assert snap["editor.commands"] == 12  # everything but verify
        assert snap["abut.solved"] == 2  # abut + stretch's abutment
        assert snap["river.routes"] == 1
        assert snap["rest.solves"] == 1
        assert snap["wal.appends"] == 12
        assert snap["wal.fsyncs"] >= snap["wal.appends"]
        assert snap["pipeline.runs"] == 1
        assert snap["pipeline.tasks_executed"] > 0


class TestRollback:
    def test_failed_command_rolls_back_and_marks_span(self, journaled):
        tracer = obs_trace.enable(obs_trace.Tracer(clock=FixedClock()))
        journaled.execute("new demo")
        assert journaled.execute("create nosuch 0 0").startswith("error")
        obs_trace.disable()
        snap = obs_metrics.registry().snapshot()
        assert snap["editor.rollbacks"] == 1
        failed = [
            r
            for r in tracer.finished()
            if r.name == "command.create" and "error" in r.attrs
        ]
        assert len(failed) == 1
        assert "wal_seq" not in failed[0].attrs  # nothing was journaled


class TestDisabledByDefault:
    def test_session_without_tracing_records_no_spans(self):
        interface = session_interface()
        interface.execute("new demo")
        interface.execute("create srcell 0 0 name=sr")
        assert not obs_trace.enabled()
        # Metrics still count (they are always on).
        assert obs_metrics.registry().snapshot()["editor.commands"] == 2
