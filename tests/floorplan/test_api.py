"""The floorplan command surface: typed dispatch, textual verb, wire.

One behaviour, four transports — the build is dispatched through the
same registry entry whether it comes from in-process typed requests,
the textual REPL, journal replay of its emitted commands, or the
socket service.
"""

from __future__ import annotations

import pytest

from repro.api import types as t
from repro.api.session import Session
from repro.core.editor import RiotEditor
from repro.core.textual import TextualInterface
from repro.service.client import ServiceClient
from repro.service.serve import ServiceThread


class TestTypedDispatch:
    def test_build_assembles_into_the_session(self):
        session = Session()
        result = session.dispatch(t.FloorplanBuildRequest(seed=0, tier="small"))
        assert result.top == "chip"
        assert result.instances > 0
        assert result.blocks == 2
        assert "chip" in session.editor.library
        # The build went through the journaled command surface.
        assert result.commands == len(session.editor.journal.entries)

    def test_build_rejects_unknown_tier_before_mutating(self):
        from repro.errors import ReproError

        session = Session()
        before = session.editor.library.names
        with pytest.raises((ValueError, ReproError), match="unknown floorplan tier"):
            session.dispatch(t.FloorplanBuildRequest(seed=0, tier="planet"))
        assert session.editor.library.names == before

    def test_second_build_gets_fresh_cell_names(self):
        session = Session()
        first = session.dispatch(t.FloorplanBuildRequest(seed=0, tier="small"))
        second = session.dispatch(t.FloorplanBuildRequest(seed=1, tier="small"))
        assert first.top == "chip"
        assert second.top != first.top
        assert {first.top, second.top} <= set(session.editor.library.names)

    def test_tiers_lists_every_tier(self):
        session = Session()
        result = session.dispatch(t.FloorplanTiersRequest())
        names = [tier.name for tier in result.tiers]
        assert names == ["small", "medium", "large", "xl"]
        xl = result.tiers[names.index("xl")]
        assert xl.slice_instances >= 2000


class TestTextualVerb:
    def test_build_and_tiers(self):
        ti = TextualInterface(RiotEditor())
        tiers = ti.execute("floorplan tiers")
        assert "small:" in tiers and "xl:" in tiers
        out = ti.execute("floorplan build 0 small")
        assert out.startswith("assembled chip (small, seed 0):")
        assert "abuts" in out and "routes" in out

    def test_strategy_flag(self):
        ti = TextualInterface(RiotEditor())
        out = ti.execute("floorplan build 0 small --strategy route-only")
        assert out.startswith("assembled")

    def test_usage_errors(self):
        ti = TextualInterface(RiotEditor())
        assert ti.execute("floorplan").startswith("error: usage:")
        assert ti.execute("floorplan demolish").startswith("error: usage:")
        assert "unknown floorplan tier" in ti.execute("floorplan build 0 moon")


class TestJournalReplay:
    def test_emitted_journal_replays_into_an_equivalent_session(self):
        from repro.floorplan.generator import gen_floorplan_case, install_palette
        from repro.proptest.gen import describe_editor
        from repro.proptest.prng import Rng

        session = Session()
        session.dispatch(t.FloorplanBuildRequest(seed=2, tier="small"))
        fresh = RiotEditor(
            tracks_per_channel=session.editor.tracks_per_channel
        )
        install_palette(fresh.library, gen_floorplan_case(Rng(2), "small"))
        fresh.replay_from(session.editor.journal.to_text())
        assert describe_editor(fresh) == describe_editor(session.editor)


class TestSocketTransport:
    def test_build_over_the_socket_matches_in_process(self):
        with ServiceThread(max_sessions=2) as srv:
            host, port = srv.address
            with ServiceClient(host, port, session="fp") as client:
                over_wire = client.call("floorplan.build", seed=0, tier="small")
                tiers = client.call("floorplan.tiers")
        in_process = Session().dispatch(
            t.FloorplanBuildRequest(seed=0, tier="small")
        )
        # Same typed dataclass, modulo the cell-menu size: the service
        # session starts from the stock library, the plain one empty.
        assert over_wire.top == in_process.top
        assert over_wire.instances == in_process.instances
        assert over_wire.abuts == in_process.abuts
        assert over_wire.stretches == in_process.stretches
        assert over_wire.routes == in_process.routes
        assert over_wire.area == in_process.area
        assert [tier.name for tier in tiers.tiers] == [
            "small",
            "medium",
            "large",
            "xl",
        ]


class TestCli:
    def test_cli_builds_checks_and_writes(self, tmp_path, capsys):
        from repro.floorplan.cli import main

        out = tmp_path / "chip.cif"
        report = tmp_path / "chip.json"
        code = main(
            [
                "--seed",
                "0",
                "--tier",
                "small",
                "--check",
                "--out",
                str(out),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "assembled chip (small, seed 0)" in stdout
        assert "checks ok:" in stdout
        assert out.read_text().startswith("( CIF written by repro.riot )")
        import json

        stats = json.loads(report.read_text())
        assert stats["tier"] == "small" and stats["instances"] > 0

    def test_cli_report_to_stdout(self, capsys):
        from repro.floorplan.cli import main

        assert main(["--seed", "1", "--report", "-"]) == 0
        stdout = capsys.readouterr().out
        assert '"tier": "small"' in stdout

    def test_module_subcommand_dispatch(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(["floorplan", "--seed", "0", "--tier", "small"])
        assert code == 0
        assert "assembled chip" in capsys.readouterr().out
