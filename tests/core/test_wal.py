"""The write-ahead journal and crash recovery — fault injection.

The paper: "The replay also enables users to recover an
abnormally-terminated editing session."  These tests tear the journal
apart the way real crashes do — truncated tails, flipped bytes, a
SIGKILLed session — and assert the recovery machinery salvages every
committed command.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.editor import RiotEditor
from repro.core.errors import JournalError, ReplayError, RiotError
from repro.core.replay import JOURNAL_HEADER, Journal, JournalEntry
from repro.core.textual import DiskStore, TextualInterface
from repro.core.wal import JournalWriter, load_text, recover
from repro.geometry.point import Point

from tests.core.conftest import TECH, cif_block

SRC = Path(__file__).resolve().parents[2] / "src"
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""),
}


def stocked_editor(wal=None):
    ed = RiotEditor(TECH, wal=wal)
    ed.library.add(cif_block("driver", 2000, 1000, [("A", 2000, 300), ("B", 2000, 700)]))
    ed.library.add(cif_block("receiver", 2000, 1000, [("A", 0, 300), ("B", 0, 700)]))
    return ed


def good_lines(*commands):
    """Framed v2 journal lines for simple commands."""
    return [JournalEntry(cmd, kwargs).to_line() for cmd, kwargs in commands]


class TestJournalWriter:
    def test_header_written_once(self, tmp_path):
        path = tmp_path / "s.rpl"
        with JournalWriter(path) as writer:
            writer.append(JournalEntry("new_cell", {"name": "top"}))
        lines = path.read_text().splitlines()
        assert lines[0] == JOURNAL_HEADER
        assert len(lines) == 2

    def test_append_is_immediately_durable(self, tmp_path):
        path = tmp_path / "s.rpl"
        writer = JournalWriter(path)
        writer.append(JournalEntry("new_cell", {"name": "top"}))
        # Read back through a separate handle without closing the writer:
        # the entry must already be on disk.
        journal = load_text(path.read_text())
        assert [e.command for e in journal.entries] == ["new_cell"]

    def test_truncate_to_drops_tail(self, tmp_path):
        path = tmp_path / "s.rpl"
        writer = JournalWriter(path)
        offset = writer.append(JournalEntry("new_cell", {"name": "top"}))
        writer.append(JournalEntry("finish", {}))
        writer.truncate_to(offset + len(path.read_text().splitlines()[1]) + 1)
        journal = load_text(path.read_text())
        assert [e.command for e in journal.entries] == ["new_cell"]

    def test_checkpoint_compacts_atomically(self, tmp_path):
        path = tmp_path / "s.rpl"
        writer = JournalWriter(path)
        for i in range(5):
            writer.append(JournalEntry("new_cell", {"name": f"c{i}"}))
        entries = [JournalEntry("new_cell", {"name": "kept"})]
        writer.checkpoint(entries)
        journal = load_text(path.read_text())
        assert [e.kwargs["name"] for e in journal.entries] == ["kept"]
        # No temp litter left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["s.rpl"]
        # Appends continue after the compaction.
        writer.append(JournalEntry("finish", {}))
        assert len(load_text(path.read_text()).entries) == 2

    def test_editor_tees_to_wal(self, tmp_path):
        path = tmp_path / "s.rpl"
        ed = stocked_editor(wal=str(path))
        ed.new_cell("top")
        ed.create(at=Point(0, 0), cell_name="driver", name="d")
        journal = load_text(path.read_text())
        assert [e.command for e in journal.entries] == ["new_cell", "create"]

    def test_periodic_checkpoint_at_command_boundary(self, tmp_path):
        path = tmp_path / "s.rpl"
        ed = stocked_editor(wal=JournalWriter(path, checkpoint_interval=3))
        ed.new_cell("top")
        ed.new_cell("mid")
        size_before = path.stat().st_size
        ed.new_cell("bot")  # third append triggers compaction
        assert len(load_text(path.read_text()).entries) == 3
        assert path.stat().st_size > size_before


class TestTransactionalCommands:
    def test_failed_command_rolls_back_cell(self):
        ed = stocked_editor()
        ed.new_cell("top")
        ed.create(at=Point(0, 0), cell_name="driver", name="d")
        with pytest.raises(Exception):
            # Duplicate instance name: add_instance raises after the
            # journal entry was recorded.
            ed.create(at=Point(500, 500), cell_name="receiver", name="d")
        assert len(ed.cell.instances) == 1
        assert ed.cell.instance("d").cell.name == "driver"

    def test_failed_command_leaves_no_journal_entry(self):
        ed = stocked_editor()
        ed.new_cell("top")
        with pytest.raises(Exception):
            ed.new_cell("top")  # duplicate cell name
        assert [e.command for e in ed.journal.entries] == ["new_cell"]

    def test_failed_command_truncates_wal(self, tmp_path):
        path = tmp_path / "s.rpl"
        ed = stocked_editor(wal=str(path))
        ed.new_cell("top")
        before = path.read_bytes()
        with pytest.raises(Exception):
            ed.new_cell("top")
        assert path.read_bytes() == before

    def test_failed_replicate_keeps_array_shape(self):
        ed = stocked_editor()
        ed.new_cell("top")
        inst = ed.create(at=Point(0, 0), cell_name="driver", name="d")
        with pytest.raises(RiotError):
            ed.replicate("d", nx=0)
        assert (inst.nx, inst.ny) == (1, 1)


class TestSalvage:
    def test_empty_file(self):
        journal = load_text("")
        assert journal.entries == []
        assert journal.corruption is None

    def test_truncated_last_line(self):
        lines = good_lines(("new_cell", {"name": "top"}), ("finish", {}))
        torn = lines[1][: len(lines[1]) // 2]
        text = "\n".join([JOURNAL_HEADER, lines[0], torn])
        journal = load_text(text)
        assert [e.command for e in journal.entries] == ["new_cell"]
        assert journal.corruption is not None
        assert journal.corruption.lineno == 3

    def test_bad_crc(self):
        line = JournalEntry("new_cell", {"name": "top"}).to_line()
        corrupted = line.replace('"top"', '"bop"')
        journal = load_text("\n".join([JOURNAL_HEADER, corrupted]))
        assert journal.entries == []
        assert journal.corruption.reason == "CRC mismatch"
        assert journal.corruption.lineno == 2

    def test_uncrc_v1_lines_still_load(self):
        journal = load_text('{"command": "new_cell", "name": "top"}')
        assert [e.command for e in journal.entries] == ["new_cell"]
        assert journal.corruption is None

    def test_non_allowlisted_command_rejected_not_fatal(self):
        evil = json.dumps({"command": "__init__"})
        good = JournalEntry("new_cell", {"name": "top"}).to_line()
        journal = load_text("\n".join([JOURNAL_HEADER, evil, good]))
        # Salvage continues past the rejection to the good entry.
        assert [e.command for e in journal.entries] == ["new_cell"]
        assert len(journal.rejected) == 1
        assert journal.rejected[0].command == "__init__"
        assert journal.rejected[0].lineno == 2
        assert journal.rejected[0].code == "riot.journal"

    def test_strict_parser_still_raises(self):
        line = JournalEntry("new_cell", {"name": "top"}).to_line()
        with pytest.raises(JournalError, match="CRC mismatch"):
            Journal.from_text(line.replace('"top"', '"bop"'))


class TestRecoveryReport:
    def test_skip_mode_survives_vanished_connector(self):
        original = stocked_editor()
        original.new_cell("top")
        original.create(at=Point(0, 0), cell_name="driver", name="d")
        original.create(at=Point(8000, 100), cell_name="receiver", name="r")
        original.connect("d", "A", "r", "A")
        original.connect("d", "B", "r", "B")
        original.do_abut()
        text = original.journal.to_text()

        # The paper's leaf-cell-modification scenario: B vanished.
        broken = RiotEditor(TECH)
        broken.library.add(cif_block("driver", 2000, 1000, [("A", 2000, 300)]))
        broken.library.add(
            cif_block("receiver", 2000, 1000, [("A", 0, 300), ("B", 0, 700)])
        )
        report = broken.recover_from(text)
        assert report.executed == report.total - 1
        assert len(report.skipped) == 1
        assert report.skipped[0].index == 4
        assert report.skipped[0].command == "connect"
        assert report.skipped[0].code == "args.key"
        # The session survived: d.A-r.A still connects at ABUT time.
        broken.edit("top")
        assert broken.check().made_count >= 1

    def test_strict_mode_raises_structured_error(self):
        ed = stocked_editor()
        journal = Journal.from_text('{"command": "edit", "name": "ghost"}')
        with pytest.raises(ReplayError) as info:
            journal.replay(ed, mode="strict")
        assert info.value.entry_index == 0
        assert info.value.command == "edit"
        assert isinstance(info.value.original, KeyError)

    def test_unknown_kwargs_skipped_with_report(self):
        ed = stocked_editor()
        journal = load_text('{"command": "finish", "bogus": 1}')
        report = journal.replay(ed, mode="skip")
        assert report.executed == 0
        # Strict request decoding rejects the stray field by name.
        assert report.skipped[0].error.startswith("BadRequest")
        assert "bogus" in report.skipped[0].error

    def test_corrupt_tail_reported_at_salvage_point(self):
        lines = good_lines(
            ("new_cell", {"name": "top"}),
            ("new_cell", {"name": "other"}),
        )
        torn = '{"command": "edit", "na'
        journal = load_text("\n".join([JOURNAL_HEADER, *lines, torn]))
        report = journal.replay(stocked_editor(), mode="skip")
        assert report.executed == 2
        assert report.corruption.lineno == 4
        assert "4" in report.to_text()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="strict"):
            Journal().replay(stocked_editor(), mode="yolo")

    def test_recover_adopts_committed_history(self):
        original = stocked_editor()
        original.new_cell("top")
        original.new_cell("other")
        text = original.journal.to_text()
        fresh = stocked_editor()
        recover(fresh, load_text(text))
        # The recovered session can itself be saved and replayed.
        assert len(fresh.journal) == 2
        third = stocked_editor()
        assert third.replay_from(fresh.journal.to_text()) == 2


class TestTextualCommands:
    def test_journal_and_recover_roundtrip(self, tmp_path):
        tui = TextualInterface(stocked_editor(), DiskStore(str(tmp_path)))
        assert "journaling" in tui.execute("journal s.rpl")
        tui.execute("new demo")
        tui.execute("rename demo better")

        tui2 = TextualInterface(stocked_editor(), DiskStore(str(tmp_path)))
        out = tui2.execute("recover s.rpl")
        assert "recovered 2 of 2" in out
        assert "better" in tui2.execute("cells")

    def test_journal_requires_disk_store(self):
        tui = TextualInterface(stocked_editor())
        assert tui.execute("journal s.rpl").startswith("error")


class TestCrashRecoverySubprocess:
    def test_sigkill_mid_session_then_recover(self, tmp_path):
        """The acceptance scenario: SIGKILL a recording session, then
        --recover restores every committed command."""
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "--journal", "s.rpl"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(tmp_path),
            env=SUBPROCESS_ENV,
        )
        try:
            for command in ("new demo\n", "new second\n", "rename second best\n"):
                proc.stdin.write(command)
                proc.stdin.flush()
                # Reading the echoed response proves the command (and its
                # fsynced WAL append) completed before we pull the plug.
                assert proc.stdout.readline().strip()
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.kill()
            proc.wait(timeout=60)

        result = subprocess.run(
            [sys.executable, "-m", "repro", "--recover", "s.rpl"],
            input="cells\nquit\n",
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(tmp_path),
            env=SUBPROCESS_ENV,
        )
        assert result.returncode == 0
        assert "recovered 3 of 3" in result.stdout
        assert "demo" in result.stdout
        assert "best" in result.stdout

    def test_recover_missing_file_fails_cleanly(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--recover", "ghost.rpl"],
            input="quit\n",
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(tmp_path),
            env=SUBPROCESS_ENV,
        )
        assert result.returncode == 1
        assert "error: recovery failed" in result.stdout
