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

import contextlib
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
    decode_line,
    journal_text,
)
from repro.obs import metrics, trace


def atomic_write(path: Path, data: bytes) -> None:
    """Make ``path`` hold exactly ``data``: written to a temp file
    beside it, flushed, fsynced, then moved over it by ``os.replace``,
    so a crash leaves the old file or the new one, never a torn mix.
    Every whole-file write in the program goes through here."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _fsync_dir(path: Path) -> None:
    """Best-effort durability for a rename: fsync the directory."""
    with contextlib.suppress(OSError):  # a platform without dir fds
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
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
    file from the journal's committed entries with :func:`atomic_write`,
    so a crash mid-compaction leaves the old journal intact.

    The cell store's refs log appends through a writer too, under its
    own ``header``: there :meth:`truncate_to` drops the torn tail a
    killed publisher left.
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
        self._start()

    def _start(self) -> None:
        """Begin a new or emptied file with its header, made durable by
        the fsync of the append or truncation that follows."""
        if self._offset == 0:
            data = (self.header + "\n").encode("utf-8")
            self._file.write(data)
            self._file.flush()
            self._offset = len(data)

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
        """Drop everything at and after ``offset``: an aborted command's
        entry, or the torn tail a killed writer left."""
        if offset >= self._offset:
            return
        self._file.flush()
        os.ftruncate(self._file.fileno(), offset)
        self._offset = offset
        self._start()
        os.fsync(self._file.fileno())
        metrics.counter("wal.truncates").inc()

    def should_checkpoint(self) -> bool:
        return self._appends >= self.checkpoint_interval

    def checkpoint(self, entries: list[JournalEntry]) -> None:
        """Atomically rewrite the journal as exactly ``entries``."""
        metrics.counter("wal.checkpoints").inc()
        atomic_write(
            self.path, journal_text(entries, header=self.header).encode("utf-8")
        )
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

#: Where salvage stops, in its words for each :func:`decode_line`
#: failure but the allowlist's, which rejects the line and reads on.
SALVAGE_FAULTS = {
    "json": "unparseable JSON (torn write?)",
    "command": "not a journal entry",
    "crc": "CRC mismatch",
}


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
        fault, detail = decode_line(line, allowlist)
        if fault == "allowlist":
            rejected.append(
                SkippedEntry(
                    detail, "not a replayable command", JournalError.code, lineno=lineno
                )
            )
        elif fault is not None:
            corruption = CorruptionPoint(lineno, SALVAGE_FAULTS[fault])
            break
        else:
            entries.append(detail)
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
