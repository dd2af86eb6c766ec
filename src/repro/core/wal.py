"""Write-ahead journaling: crash-safe persistence for the REPLAY log.

The paper's recovery claim — "the replay also enables users to recover
an abnormally-terminated editing session" — only holds if the journal
survives the abnormal termination.  :class:`JournalWriter` appends
each recorded command to disk *before* the editor mutates state
(flush + ``fsync`` per entry), so after a crash — power loss, ``kill
-9`` — the on-disk journal contains every committed command and at
most one torn line at the tail.

:func:`load_text` is the salvage-mode reader: it verifies each line's
CRC32 and stops at the first sign of a torn write, keeping the good
prefix, instead of refusing the whole file the way the strict parser
(:meth:`Journal.from_text`) does.  :func:`recover` ties it together:
replay the salvaged journal into an editor (``skip`` mode survives
entries whose connectors vanished) and adopt the committed history so
the recovered session can keep journaling.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro.core.errors import JournalError
from repro.core.replay import (
    JOURNAL_HEADER,
    REPLAYABLE,
    CorruptionPoint,
    Journal,
    JournalEntry,
    RecoveryReport,
    SkippedEntry,
    journal_text,
    line_crc,
)
from repro.obs import metrics, trace


def _fsync_dir(path: Path) -> None:
    """Best-effort durability for a rename: fsync the directory."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


class JournalWriter:
    """Append-only, fsync-per-entry on-disk journal.

    Every :meth:`append` writes one CRC-framed JSON line, flushes, and
    ``fsync``\\ s, so a committed entry survives any crash.  The editor's
    transactional wrapper uses :meth:`tell`/:meth:`truncate_to` to
    discard the WAL tail of a command that failed mid-way, keeping the
    file never more than one entry ahead of committed editor state.

    ``checkpoint_interval`` bounds unbounded growth: every N appends
    (checked at command boundaries), :meth:`checkpoint` rewrites the
    file from the journal's committed entries via a sibling temp file
    and ``os.replace`` — atomic, so a crash mid-compaction leaves the
    old journal intact.
    """

    def __init__(
        self,
        path,
        checkpoint_interval: int = 512,
        header: str = JOURNAL_HEADER,
    ) -> None:
        self.path = Path(path)
        self.checkpoint_interval = checkpoint_interval
        self.header = header
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "ab")
        self._offset = os.fstat(self._file.fileno()).st_size
        self._appends = 0
        #: Cumulative wall seconds spent inside ``fsync`` — the service
        #: reads the before/after delta around a command to attribute
        #: per-request durability cost in its stage telemetry.
        self.fsync_seconds = 0.0
        if self._offset == 0:
            self._write((self.header + "\n").encode("utf-8"))

    def _write(self, data: bytes) -> None:
        self._file.write(data)
        self._file.flush()
        t0 = time.perf_counter()
        os.fsync(self._file.fileno())
        self.fsync_seconds += time.perf_counter() - t0
        metrics.counter("wal.fsyncs").inc()
        self._offset += len(data)

    def append(self, entry: JournalEntry) -> int:
        """Durably append one entry; returns its starting byte offset."""
        before = self._offset
        with trace.span("wal.append", command=entry.command) as span:
            self._write((entry.to_line() + "\n").encode("utf-8"))
            span.set("bytes", self._offset - before)
        self._appends += 1
        metrics.counter("wal.appends").inc()
        return before

    def tell(self) -> int:
        return self._offset

    def truncate_to(self, offset: int) -> None:
        """Drop everything at and after ``offset`` (aborted-command undo)."""
        if offset >= self._offset:
            return
        self._file.flush()
        os.ftruncate(self._file.fileno(), offset)
        os.fsync(self._file.fileno())
        metrics.counter("wal.truncates").inc()
        self._offset = offset

    def should_checkpoint(self) -> bool:
        return self._appends >= self.checkpoint_interval

    def checkpoint(self, entries: list[JournalEntry]) -> None:
        """Atomically rewrite the journal as exactly ``entries``."""
        metrics.counter("wal.checkpoints").inc()
        fd, tmp = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(journal_text(entries, header=self.header).encode("utf-8"))
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _fsync_dir(self.path.parent)
        self._file.close()
        self._file = open(self.path, "ab")
        self._offset = os.fstat(self._file.fileno()).st_size
        self._appends = 0

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- salvage reading ------------------------------------------------------


def load_text(text: str, allowlist: frozenset = REPLAYABLE) -> Journal:
    """Read a journal, salvaging as much as a damaged file allows.

    Unlike the strict parser, a structurally broken line — truncated
    JSON from a torn write, a CRC mismatch, a non-entry object — ends
    the scan: everything before it is kept and the journal's
    ``corruption`` field records the salvage point.  A well-framed line
    naming a non-allowlisted command is not tearing; it is rejected
    (listed in ``rejected``) and the scan continues.

    ``allowlist`` defaults to the editor's :data:`REPLAYABLE` set; other
    journal dialects built on the same framing (the cell store's refs
    log) pass their own command set.
    """
    entries: list[JournalEntry] = []
    rejected: list[SkippedEntry] = []
    corruption: CorruptionPoint | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            corruption = CorruptionPoint(lineno, "unparseable JSON (torn write?)")
            break
        if not isinstance(data, dict) or "command" not in data:
            corruption = CorruptionPoint(lineno, "not a journal entry")
            break
        crc = data.pop("crc", None)
        if crc is not None and crc != line_crc(data):
            corruption = CorruptionPoint(lineno, "CRC mismatch")
            break
        command = data.pop("command")
        if command not in allowlist:
            rejected.append(
                SkippedEntry(
                    command=command,
                    error="not a replayable command",
                    code=JournalError.code,
                    lineno=lineno,
                )
            )
            continue
        entries.append(JournalEntry(command, data))
    journal = Journal(entries)
    journal.corruption = corruption
    journal.rejected = rejected
    return journal


def load_path(path) -> Journal:
    return load_text(Path(path).read_text(encoding="utf-8"))


# -- recovery -------------------------------------------------------------


def recover(editor, journal: Journal, mode: str = "skip") -> RecoveryReport:
    """Replay ``journal`` into ``editor`` and adopt the committed history.

    After the replay, the entries that executed become the editor's own
    journal (skipped ones are dropped — they no longer describe the
    recovered state), so ``savereplay`` and an attached WAL continue
    the session seamlessly; if a WAL is already attached it is
    checkpointed, compacting away any corrupt tail in the source file.
    """
    report = journal.replay(editor, mode=mode)
    skipped_indexes = {s.index for s in report.skipped if s.index is not None}
    committed = [
        entry
        for index, entry in enumerate(journal.entries)
        if index not in skipped_indexes
    ]
    editor.journal.entries.extend(committed)
    if editor.journal.writer is not None:
        editor.journal.writer.checkpoint(editor.journal.entries)
    return report
