"""The durable files, byte for byte, and what every journal reader
says about every framing failure.

The editor's WAL, the cell store's refs log and the refs log that
``cellstore fsck --repair`` rewrites share one framing: a dialect
header, then one CRC-framed JSON entry per line.  The goldens below
pin the exact bytes each writer leaves behind.  The failure table pins
the exact answer of each reader — the strict parser, the salvage
reader (and ``fsck``, which reports through it) and the refs-log index
— for each check a line can fail.  ``DiskStore``, the session's file
store, writes through the same atomic write and reads back what it
wrote whatever the locale.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cellstore import CellStore, Corrupt, fsck
from repro.core.editor import RiotEditor
from repro.core.errors import JournalError
from repro.core.replay import Journal, JournalEntry
from repro.core.wal import JournalWriter, load_text
from repro.geometry.point import Point

from tests.core.conftest import TECH, cif_block

SRC = Path(__file__).resolve().parents[2] / "src"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def publish(store, name, payload, **kwargs):
    return store.publish(
        name, "sticks", payload, content_hash=sha(payload), **kwargs
    )


def record_line(crc: str, name: str, version: int, payload: str) -> bytes:
    """A sticks publish record whose hash and blob are ``payload``'s."""
    key = sha(payload)
    return (
        f'{{"crc": "{crc}", "command": "publish", "name": "{name}", '
        f'"version": {version}, "hash": "{key}", "blob": "{key}", '
        f'"kind": "sticks", "deps": [], "journal": null}}\n'
    ).encode("utf-8")


REPLAY_HEADER = b"# riot replay 2\n"
STORE_HEADER = b"# riot cellstore 1\n"
NEW_CELL = b'{"crc": "491571fc", "command": "new_cell", "name": "top"}\n'
CREATE = (
    b'{"crc": "49737c34", "command": "create", "at": [0, 0], '
    b'"cell_name": "driver", "orientation": "R0", "nx": 1, "ny": 1, '
    b'"dx": null, "dy": null, "name": "d"}\n'
)
ROTATE = b'{"crc": "2ff2382a", "command": "rotate", "name": "d"}\n'
FINISH = b'{"crc": "4dcfc6a3", "command": "finish"}\n'

NAND_1 = record_line("a51d9615", "nand", 1, "v1\n")
NAND_2 = record_line("055e0fba", "nand", 2, "v2 für\n")
ROW_PAYLOAD = "COMP row\n"
ROW_JOURNAL = '{"command":"new_cell"}\n'
ROW_1 = (
    '{"crc": "165108dd", "command": "publish", "name": "row", '
    f'"version": 1, "hash": "{sha("row")}", "blob": "{sha(ROW_PAYLOAD)}", '
    '"kind": "composition", "deps": ["nand@2"], '
    f'"journal": "{sha(ROW_JOURNAL)}"}}\n'
).encode("utf-8")
DEPRECATE_NAND_1 = (
    b'{"crc": "b30c00a1", "command": "deprecate", "name": "nand", "version": 1}\n'
)
OR2_1 = record_line("46cb1217", "or2", 1, "v1\n")

TORN = b'{"crc": "0bad'


class TestWal:
    def test_appends_a_rollback_and_a_checkpoint(self, tmp_path):
        path = tmp_path / "s.rpl"
        editor = RiotEditor(TECH, wal=str(path))
        editor.library.add(
            cif_block("driver", 2000, 1000, [("A", 2000, 300), ("B", 2000, 700)])
        )
        with editor.journal.writer as writer:
            assert path.read_bytes() == REPLAY_HEADER
            editor.new_cell("top")
            editor.create(at=Point(0, 0), cell_name="driver", name="d")
            with pytest.raises(Exception, match="already has an instance"):
                editor.create(at=Point(500, 500), cell_name="driver", name="d")
            editor.rotate("d")
            appended = REPLAY_HEADER + NEW_CELL + CREATE + ROTATE
            assert path.read_bytes() == appended
            writer.checkpoint(editor.journal.entries)
            assert path.read_bytes() == appended
            editor.finish()
            assert path.read_bytes() == appended + FINISH
            writer.checkpoint(editor.journal.entries[:1])
            assert path.read_bytes() == REPLAY_HEADER + NEW_CELL
        assert [p.name for p in tmp_path.iterdir()] == ["s.rpl"]


class TestRefsLog:
    def test_publishes_a_deprecate_and_a_torn_tail(self, tmp_path):
        root = tmp_path / "lib"
        refs = root / "refs.wal"
        store = CellStore(root)
        publish(store, "nand", "v1\n")
        publish(store, "nand", "v2 für\n")
        store.publish(
            "row",
            "composition",
            ROW_PAYLOAD,
            content_hash=sha("row"),
            deps=("nand@2",),
            journal_payload=ROW_JOURNAL,
        )
        store.deprecate("nand", 1)
        published = STORE_HEADER + NAND_1 + NAND_2 + ROW_1 + DEPRECATE_NAND_1
        assert refs.read_bytes() == published
        with open(refs, "ab") as f:
            f.write(TORN)
        publish(CellStore(root), "or2", "v1\n")
        assert refs.read_bytes() == published + OR2_1

    @pytest.mark.parametrize(
        "before",
        [None, b"", TORN, STORE_HEADER[:9]],
        ids=["new", "empty", "torn", "torn-header"],
    )
    def test_a_new_or_emptied_log_starts_with_its_header(self, tmp_path, before):
        root = tmp_path / "lib"
        root.mkdir()
        if before is not None:
            (root / "refs.wal").write_bytes(before)
        publish(CellStore(root), "nand", "v1\n")
        assert (root / "refs.wal").read_bytes() == STORE_HEADER + NAND_1

    def test_fsck_repair_rewrite(self, tmp_path):
        root = tmp_path / "lib"
        refs = root / "refs.wal"
        store = CellStore(root)
        publish(store, "nand", "v1\n")
        or2 = publish(store, "or2", "or2\n")
        publish(store, "nand", "v2\n")
        store.deprecate("nand", 1)
        (root / "blobs" / or2.blob[:2] / or2.blob[2:]).write_text("tampered")
        with open(refs, "ab") as f:
            f.write(TORN)
        report = fsck(root, repair=True)
        assert report.to_text().splitlines()[1:] == [
            "  torn tail (interrupted publish) at end of refs log",
            f"  corrupt-blob: or2@1 payload blob {or2.blob[:12]}… fails its hash",
            "  repaired: refs log rewritten with valid records",
        ]
        assert refs.read_bytes() == (
            STORE_HEADER
            + NAND_1
            + record_line("6ec188b6", "nand", 2, "v2\n")
            + DEPRECATE_NAND_1
        )
        assert not list(root.glob("*.tmp"))


class TestFsyncs:
    """Each durable write makes the same fsyncs it always made: one
    per blob, per refs-log append, per truncation, and a checkpoint's
    file plus its directory."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd)))
        return calls

    def count(self, fsyncs, action) -> int:
        before = len(fsyncs)
        action()
        return len(fsyncs) - before

    def test_publishes(self, tmp_path, fsyncs):
        root = tmp_path / "lib"
        store = CellStore(root)
        assert self.count(fsyncs, lambda: publish(store, "nand", "v1\n")) == 2
        assert self.count(fsyncs, lambda: publish(store, "or2", "v1\n")) == 1

        def composition():
            store.publish(
                "row",
                "composition",
                ROW_PAYLOAD,
                content_hash=sha("row"),
                deps=("nand@1",),
                journal_payload=ROW_JOURNAL,
            )

        assert self.count(fsyncs, composition) == 3
        assert self.count(fsyncs, lambda: store.deprecate("nand", 1)) == 1
        with open(root / "refs.wal", "ab") as f:
            f.write(TORN)
        assert self.count(fsyncs, lambda: publish(store, "nand", "v2\n")) == 3

    def test_a_publish_into_a_torn_first_line(self, tmp_path, fsyncs):
        root = tmp_path / "lib"
        root.mkdir()
        (root / "refs.wal").write_bytes(TORN)
        store = CellStore(root)
        assert self.count(fsyncs, lambda: publish(store, "nand", "v1\n")) == 3

    def test_wal_appends_truncations_and_checkpoints(self, tmp_path, fsyncs):
        with JournalWriter(tmp_path / "s.rpl") as writer:
            entry = JournalEntry("new_cell", {"name": "top"})
            assert self.count(fsyncs, lambda: writer.append(entry)) == 1
            mark = writer.tell()
            writer.append(entry)
            assert self.count(fsyncs, lambda: writer.truncate_to(mark)) == 1
            assert self.count(fsyncs, lambda: writer.checkpoint([entry])) == 2


GOOD = JournalEntry("new_cell", {"name": "top"}).to_line()

#: Each framing failure: the line, then the strict parser's message,
#: the salvage reader's answer, the refs index's ``library.corrupt``
#: message and ``fsck``'s report line.
FAILURES = {
    "unparseable": (
        '{"command": "new_cell", "name"',
        "replay line 2: Expecting ':' delimiter: line 1 column 31 (char 30)",
        "corrupt tail at line 2: unparseable JSON (torn write?)",
        "refs log has an unparseable committed line; run 'cellstore fsck --repair'",
        "  torn tail (interrupted publish) at end of refs log",
    ),
    "not-an-object": (
        "[1, 2]",
        "replay line 2: missing command",
        "corrupt tail at line 2: not a journal entry",
        "refs log line is not a record; run fsck",
        "  torn tail (interrupted publish) at end of refs log",
    ),
    "no-command": (
        '{"crc": "00000000", "name": "top"}',
        "replay line 2: missing command",
        "corrupt tail at line 2: not a journal entry",
        "refs log line is not a record; run fsck",
        "  torn tail (interrupted publish) at end of refs log",
    ),
    "crc-mismatch": (
        GOOD.replace('"top"', '"bop"'),
        "replay line 2: CRC mismatch (corrupt entry)",
        "corrupt tail at line 2: CRC mismatch",
        "refs log CRC mismatch; run 'cellstore fsck --repair'",
        "  torn tail (interrupted publish) at end of refs log",
    ),
    "not-allowlisted": (
        JournalEntry("eval", {"source": "x"}).to_line(),
        "replay line 2: 'eval' is not a replayable command",
        "rejected line 2 (eval): not a replayable command",
        "refs log names unknown op 'eval'; run fsck",
        "  unknown-op: line 2 (eval): not a replayable command",
    ),
}


def salvage_answer(line: str) -> str:
    """What the salvage reader makes of ``line`` followed by a good one."""
    journal = load_text("\n".join(["# riot replay 2", line, GOOD]) + "\n")
    if journal.corruption is not None:
        assert journal.entries == []
        return f"corrupt tail at {journal.corruption}"
    assert [entry.command for entry in journal.entries] == ["new_cell"]
    (rejected,) = journal.rejected
    assert rejected.code == "riot.journal"
    return f"rejected {rejected}"


@pytest.mark.parametrize("failure", sorted(FAILURES))
class TestFramingFailures:
    def test_strict_parser(self, failure):
        line, strict, _, _, _ = FAILURES[failure]
        with pytest.raises(JournalError) as excinfo:
            Journal.from_text(f"# riot replay 2\n{line}\n{GOOD}\n")
        assert type(excinfo.value) is JournalError
        assert str(excinfo.value) == strict

    def test_salvage_reader(self, failure):
        line, _, salvage, _, _ = FAILURES[failure]
        assert salvage_answer(line) == salvage

    def test_refs_index(self, failure, tmp_path):
        line, _, _, refs, _ = FAILURES[failure]
        (tmp_path / "refs.wal").write_text(f"# riot cellstore 1\n{line}\n")
        with pytest.raises(Corrupt) as excinfo:
            CellStore(tmp_path).names()
        assert excinfo.value.code == "library.corrupt"
        assert str(excinfo.value) == refs

    def test_fsck_report(self, failure, tmp_path):
        line, _, _, _, report = FAILURES[failure]
        (tmp_path / "refs.wal").write_text(f"# riot cellstore 1\n{line}\n")
        assert fsck(tmp_path).to_text().splitlines()[1:] == [
            report,
            "  run with --repair to rewrite the refs log",
        ]


#: Writes and reads back a non-ASCII file through ``DiskStore``; the
#: source stays ASCII so the command line decodes under any locale.
DISK_ROUND_TRIP = """
import sys
from repro.api.store import DiskStore
store = DiskStore(sys.argv[1])
store.write("cell.comp", "f\\u00fcr")
print(ascii(store.read("cell.comp")))
"""


class TestDiskStore:
    def test_reads_back_utf8_under_an_ascii_locale(self, tmp_path):
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
            ),
            "PYTHONCOERCECLOCALE": "0",
            "LC_ALL": "C",
            "PYTHONUTF8": "0",
        }
        result = subprocess.run(
            [sys.executable, "-c", DISK_ROUND_TRIP, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "'f\\xfcr'\n"
        assert (tmp_path / "cell.comp").read_bytes() == "für".encode("utf-8")
