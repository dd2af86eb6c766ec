"""Store integrity checking and repair.

A cell store survives ``kill -9`` the same way the editor's WAL does:
every committed record is fsynced, so the only damage a crash can
leave is a torn final line (a publish that never returned) and orphan
blobs (content written before the ref line that would have named it).
``fsck`` verifies the whole chain — framing CRCs, record shape,
version sequencing, blob existence and content hashes — reading the
log with the WAL's salvage reader, and ``--repair`` rewrites it with
the WAL's atomic write (:func:`repro.core.wal.atomic_write`, the
checkpoint's), keeping exactly the records that check out and never
touching blobs (orphans are harmless: content-addressed, reclaimed by
a future publish of the same bytes).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.cellstore.store import (
    STORE_HEADER,
    STORE_OPS,
    CellRecord,
    CellStore,
)
from repro.core.replay import JournalEntry, journal_text
from repro.core.wal import atomic_write, load_text


@dataclass(frozen=True)
class FsckIssue:
    """One problem found; ``fatal`` issues drop the record on repair."""

    kind: str
    detail: str
    fatal: bool = True

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass
class FsckReport:
    """What an fsck pass found (and, with ``repair``, did)."""

    path: str
    records: int = 0
    tombstones: int = 0
    issues: list[FsckIssue] = field(default_factory=list)
    torn_tail: bool = False
    repaired: bool = False
    #: No directory at ``path``: no store to check (nor to repair).
    missing: bool = False

    @property
    def clean(self) -> bool:
        return not self.missing and not self.issues and not self.torn_tail

    def to_text(self) -> str:
        if self.missing:
            return f"cellstore {self.path}: no cell store there"
        lines = [
            f"cellstore {self.path}: {self.records} record(s), "
            f"{self.tombstones} tombstone(s)"
        ]
        if self.torn_tail:
            lines.append("  torn tail (interrupted publish) at end of refs log")
        for issue in self.issues:
            lines.append(f"  {issue}")
        if self.repaired:
            lines.append("  repaired: refs log rewritten with valid records")
        elif not self.clean:
            lines.append("  run with --repair to rewrite the refs log")
        if self.clean:
            lines.append("  clean")
        return "\n".join(lines)


def fsck(root, repair: bool = False) -> FsckReport:
    """Check (and optionally repair) the store at ``root``.

    Always safe on a live store: the check holds the store's file lock
    only while reading the log, and repair rewrites it atomically under
    that lock.  The rewrite is a new file, so every live store, in
    this process or another, sees a new inode on its next call and
    rebuilds its index from the start.  A ``root`` that is not a
    directory is reported ``missing`` and left as it is: opening a
    store there would create one.
    """
    if not Path(root).is_dir():
        return FsckReport(path=str(root), missing=True)
    store = CellStore(root)
    report = FsckReport(path=str(store.root))
    with store._locked():
        refs_path = store.root / "refs.wal"
        try:
            text = refs_path.read_text(encoding="utf-8")
        except OSError:
            return report  # empty store: vacuously clean
        journal = load_text(text, allowlist=STORE_OPS)
        if journal.corruption is not None:
            report.torn_tail = True
        for rejected in journal.rejected:
            report.issues.append(
                FsckIssue("unknown-op", str(rejected))
            )
        valid = _validate(store, journal.entries, report)
        if repair and not report.clean:
            atomic_write(
                refs_path, journal_text(valid, header=STORE_HEADER).encode("utf-8")
            )
            report.repaired = True
    return report


def _validate(
    store: CellStore,
    entries: list[JournalEntry],
    report: FsckReport,
) -> list[JournalEntry]:
    """Semantic pass over well-framed entries; returns the keepers."""
    valid: list[JournalEntry] = []
    published: dict[str, set[int]] = {}
    heads: dict[str, int] = {}
    for entry in entries:
        if entry.command == "publish":
            try:
                record = CellRecord.from_kwargs(entry.kwargs)
            except Exception as exc:
                report.issues.append(FsckIssue("bad-record", str(exc)))
                continue
            versions = published.setdefault(record.name, set())
            if record.version in versions:
                report.issues.append(
                    FsckIssue(
                        "duplicate-version",
                        f"{record.ref} published twice",
                    )
                )
                continue
            if record.version != heads.get(record.name, 0) + 1:
                report.issues.append(
                    FsckIssue(
                        "version-gap",
                        f"{record.ref} follows head "
                        f"{heads.get(record.name, 0)}",
                        fatal=False,
                    )
                )
            issue = _check_blobs(store, record)
            if issue is not None:
                report.issues.append(issue)
                continue
            versions.add(record.version)
            heads[record.name] = max(heads.get(record.name, 0), record.version)
            report.records += 1
            valid.append(entry)
        elif entry.command == "deprecate":
            name = entry.kwargs.get("name")
            version = entry.kwargs.get("version")
            if (
                not isinstance(name, str)
                or not isinstance(version, int)
                or version not in published.get(name, set())
            ):
                report.issues.append(
                    FsckIssue(
                        "dangling-tombstone",
                        f"deprecate of unpublished {name}@{version}",
                    )
                )
                continue
            report.tombstones += 1
            valid.append(entry)
    return valid


def _check_blobs(store: CellStore, record: CellRecord) -> FsckIssue | None:
    for label, key in (("payload", record.blob), ("journal", record.journal)):
        if key is None:
            continue
        path = store._blob_path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return FsckIssue(
                "missing-blob", f"{record.ref} {label} blob {key[:12]}… missing"
            )
        if hashlib.sha256(data).hexdigest() != key:
            return FsckIssue(
                "corrupt-blob",
                f"{record.ref} {label} blob {key[:12]}… fails its hash",
            )
    return None
