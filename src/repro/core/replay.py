"""The REPLAY journal.

"Riot saves the commands given by the user and can re-run an editing
session if some of the input files have changed.  The replay file uses
instance names and connector names to identify connections, and the
positions are re-calculated, thereby avoiding the problems with
differently-shaped cells.  The replay also enables users to recover an
abnormally-terminated editing session or an accidentally-deleted
file."

The journal records every editor command as a name plus JSON
arguments, one per line — which makes an entry exactly a typed-API
request body (see :mod:`repro.api.types`).  Replaying decodes each
entry strictly and dispatches it through :class:`repro.api.session.
Session` against a (possibly different) library: connection commands
re-resolve
connector positions, which is exactly why replay survives leaf-cell
edits that positional connections do not.

Format (version 2): a ``# riot replay 2`` header line, then one JSON
object per line.  Each object carries the command, its kwargs, and a
``crc`` field — the CRC32 (hex) of the canonical serialisation of the
rest of the object — so a torn write from a crashed session is
detectable and the good prefix salvageable (see :mod:`repro.core.wal`).
Version-1 lines (no ``crc`` field) still parse.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field

from repro.core.errors import JournalError, ReplayError
from repro.errors import error_code

#: Editor methods a journal line may invoke.  An allowlist, so a
#: hand-edited replay file cannot call arbitrary attributes.
REPLAYABLE = frozenset(
    {
        "new_cell",
        "edit",
        "finish",
        "select",
        "create",
        "delete_instance",
        "move",
        "move_by",
        "rotate",
        "mirror",
        "replicate",
        "connect",
        "bus",
        "unconnect",
        "clear_pending",
        "do_abut",
        "do_abut_edges",
        "do_route",
        "do_stretch",
        "bring_out",
        "delete_cell",
        "rename_cell",
    }
)

JOURNAL_HEADER = "# riot replay 2"


def canonical_payload(data: dict) -> str:
    """The serialisation the CRC is computed over: key-sorted, compact,
    so the checksum does not depend on incidental key order."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def line_crc(data: dict) -> str:
    return f"{zlib.crc32(canonical_payload(data).encode('utf-8')):08x}"


@dataclass
class JournalEntry:
    command: str
    kwargs: dict

    def to_line(self) -> str:
        """The version-2 framing: payload plus its CRC32 field."""
        data = {"command": self.command, **self.kwargs}
        return json.dumps({"crc": line_crc(data), **data})


def decode_line(line: str, allowlist: frozenset) -> tuple[str | None, object]:
    """Check one framed journal line, for every journal reader: a JSON
    object, with a ``command``, a matching CRC (version-1 lines have
    none) and a command the dialect's ``allowlist`` names.

    Returns ``(None, entry)``, or the first failed check and its detail
    for the reader to word: ``("json", the decoder's error)``,
    ``("command", None)``, ``("crc", None)`` or ``("allowlist", the
    command)``."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        return "json", exc
    if not isinstance(data, dict) or "command" not in data:
        return "command", None
    crc = data.pop("crc", None)
    if crc is not None and crc != line_crc(data):
        return "crc", None
    command = data.pop("command")
    if command not in allowlist:
        return "allowlist", command
    return None, JournalEntry(command, data)


#: The strict parser's words for each :func:`decode_line` failure.
STRICT_FAULTS = {
    "json": "{}",
    "command": "missing command",
    "crc": "CRC mismatch (corrupt entry)",
    "allowlist": "{!r} is not a replayable command",
}


@dataclass(frozen=True)
class CorruptionPoint:
    """Where salvage stopped reading a damaged journal."""

    lineno: int
    reason: str

    def __str__(self) -> str:
        return f"line {self.lineno}: {self.reason}"


@dataclass(frozen=True)
class SkippedEntry:
    """One journal entry that could not be (re-)executed.

    ``code`` is the failure's stable error code
    (:func:`repro.errors.error_code`).  ``index`` is the entry's
    position in the journal for replay-time skips; parse-time
    rejections (non-allowlisted command) carry the file ``lineno``
    instead and ``index`` is ``None``.
    """

    command: str
    error: str
    code: str
    index: int | None = None
    lineno: int | None = None

    def __str__(self) -> str:
        where = (
            f"entry {self.index}" if self.index is not None else f"line {self.lineno}"
        )
        return f"{where} ({self.command}): {self.error}"


@dataclass
class RecoveryReport:
    """What a replay did: the structured result of session recovery."""

    total: int = 0
    executed: int = 0
    skipped: list[SkippedEntry] = field(default_factory=list)
    corruption: CorruptionPoint | None = None

    @property
    def clean(self) -> bool:
        return not self.skipped and self.corruption is None

    def to_text(self) -> str:
        lines = [
            f"recovered {self.executed} of {self.total} command(s)"
            + (f", {len(self.skipped)} skipped" if self.skipped else "")
        ]
        for entry in self.skipped:
            lines.append(f"  skipped {entry}")
        if self.corruption is not None:
            lines.append(f"  journal corrupt tail at {self.corruption}")
        return "\n".join(lines)


def journal_text(entries: list[JournalEntry], header: str = JOURNAL_HEADER) -> str:
    """The full on-disk form of a journal: header plus framed lines."""
    lines = [header]
    lines.extend(entry.to_line() for entry in entries)
    return "\n".join(lines) + "\n"


@dataclass
class Journal:
    """An append-only record of editor commands.

    With a :class:`repro.core.wal.JournalWriter` attached, every
    recorded entry is appended (flushed and fsynced) to the on-disk
    write-ahead journal *before* it enters the in-memory list, so a
    crashed session loses at most the command that was executing.
    """

    entries: list[JournalEntry] = field(default_factory=list)
    recording: bool = True
    writer: object | None = None
    corruption: CorruptionPoint | None = None
    rejected: list[SkippedEntry] = field(default_factory=list)

    def record(self, command: str, **kwargs) -> None:
        if not self.recording:
            return
        entry = JournalEntry(command, kwargs)
        if self.writer is not None:
            self.writer.append(entry)  # write-ahead: disk first
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        self.entries.clear()

    # -- write-ahead log ------------------------------------------------

    def attach(self, writer) -> None:
        """Tee future records to ``writer``; if the session already has
        history, checkpoint it so the file holds the full session.  A
        writer this one replaces is closed."""
        if self.writer is not None and self.writer is not writer:
            self.writer.close()
        self.writer = writer
        if self.entries:
            writer.checkpoint(self.entries)

    def mark(self) -> tuple[int, int | None]:
        """A transaction mark: (entry count, WAL byte offset)."""
        return (
            len(self.entries),
            self.writer.tell() if self.writer is not None else None,
        )

    def rollback(self, mark: tuple[int, int | None]) -> None:
        """Discard everything recorded after ``mark`` — in memory and,
        when a writer is attached, on disk (the WAL tail is truncated
        back to the last committed entry)."""
        count, offset = mark
        del self.entries[count:]
        if self.writer is not None and offset is not None:
            self.writer.truncate_to(offset)

    def maybe_checkpoint(self) -> None:
        """Compact the WAL when the writer's interval has elapsed.
        Called at command boundaries only, so a checkpoint can never
        invalidate an open transaction's rollback offset."""
        if self.writer is not None and self.writer.should_checkpoint():
            self.writer.checkpoint(self.entries)

    # -- persistence ----------------------------------------------------

    def to_text(self) -> str:
        return journal_text(self.entries)

    @classmethod
    def from_text(cls, text: str) -> "Journal":
        """Strict parse: any malformed line raises :class:`JournalError`.
        For crash salvage (stop at the corrupt tail, keep the good
        prefix) use :func:`repro.core.wal.load_text` instead."""
        entries = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fault, detail = decode_line(line, REPLAYABLE)
            if fault is not None:
                message = STRICT_FAULTS[fault].format(detail)
                raise JournalError(f"replay line {lineno}: {message}")
            entries.append(detail)
        return cls(entries)

    # -- replay -------------------------------------------------------------

    def replay(self, editor, mode: str = "strict") -> RecoveryReport:
        """Execute every entry against ``editor``.

        The editor's own journaling is suspended during replay so the
        replayed commands are not recorded twice.  Returns a
        :class:`RecoveryReport`.

        ``mode="strict"`` raises :class:`ReplayError` naming the first
        entry that can no longer be executed (e.g. a connector that
        vanished from a re-read leaf cell).  ``mode="skip"`` — the
        recovery mode — rolls back the failed command (the editor's
        transactional wrapper guarantees no half-applied edits),
        records it in the report, and carries on with the rest of the
        session.
        """
        if mode not in ("strict", "skip"):
            raise ValueError(f"replay mode must be 'strict' or 'skip', got {mode!r}")
        # Lazy: repro.api imports the editor package, so a module-level
        # import here would cycle.
        from repro.api.codec import from_jsonable
        from repro.api.registry import spec_for
        from repro.api.session import Session

        session = Session(editor=editor)
        report = RecoveryReport(
            total=len(self.entries),
            corruption=self.corruption,
            skipped=list(self.rejected),
        )
        previous = editor.journal.recording
        editor.journal.recording = False
        try:
            for index, entry in enumerate(self.entries):
                try:
                    # A journal entry *is* a request body: decode it
                    # strictly and dispatch through the same typed
                    # surface every other transport uses.
                    spec = spec_for(entry.command)
                    request = from_jsonable(
                        spec.request, entry.kwargs, where=entry.command
                    )
                    session.dispatch(request)
                except Exception as exc:
                    if mode == "strict":
                        raise ReplayError(index, entry.command, exc) from exc
                    report.skipped.append(
                        SkippedEntry(
                            command=entry.command,
                            error=f"{type(exc).__name__}: {exc}",
                            code=error_code(exc),
                            index=index,
                        )
                    )
                    continue
                report.executed += 1
        finally:
            editor.journal.recording = previous
        return report
