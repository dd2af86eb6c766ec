"""The durable, multi-tenant, content-addressed cell store.

One directory shared by every session and shard::

    <root>/refs.wal              append-only publish/deprecate log
    <root>/blobs/<k[:2]>/<k[2:]> immutable payload texts, by SHA-256
    <root>/.lock                 flock serialization point

The refs log reuses the REPLAY journal's CRC framing
(:class:`repro.core.replay.JournalEntry` lines under a store-specific
header) and the WAL's code for it — its line check
(:func:`repro.core.replay.decode_line`) and its appender
(:class:`repro.core.wal.JournalWriter`) — so the crash-safety story
is the WAL's: every record is fsynced before :meth:`publish` returns,
a torn tail from a killed writer is detected and truncated by the
next writer, and :mod:`repro.cellstore.fsck` salvages anything worse.
Payload blobs are written with the WAL's atomic write *before* the
ref line that names them, so a committed record's content always
exists.

Concurrency is optimistic per cell name: a publish carries the
``expected_version`` its author based the edit on, the store assigns
``head + 1`` under an OS-level file lock (``flock``), and a mismatch
raises ``library.conflict`` — compare-and-swap across threads *and*
processes, which is how concurrent publishes from different service
shards serialize correctly without a coordinator.

Versions are immutable once published; ``deprecate`` appends a
tombstone instead of deleting, so pinned refs (``name@3``) held by
older compositions keep resolving while ``name@latest`` moves on.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.cellstore.errors import Conflict, Corrupt, Deprecated, NotFound
from repro.cellstore.refs import Ref, format_ref, parse_ref
from repro.core.replay import JournalEntry, decode_line
from repro.core.wal import JournalWriter, atomic_write
from repro.obs import metrics

try:  # POSIX; the store degrades to thread-level locking elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

#: The refs log's header line — same framing as ``# riot replay 2``,
#: different dialect, so neither file replays as the other.
STORE_HEADER = "# riot cellstore 1"

#: The refs log's command allowlist (its ``REPLAYABLE`` equivalent).
STORE_OPS = frozenset({"publish", "deprecate"})

#: The index's ``library.corrupt`` message for each
#: :func:`repro.core.replay.decode_line` failure of a committed line.
REFS_FAULTS = {
    "json": "refs log has an unparseable committed line; "
    "run 'cellstore fsck --repair'",
    "command": "refs log line is not a record; run fsck",
    "crc": "refs log CRC mismatch; run 'cellstore fsck --repair'",
    "allowlist": "refs log names unknown op {!r}; run fsck",
}

#: What a published cell may be.
KINDS = ("sticks", "cif", "composition")


def text_digest(text: str) -> str:
    """The blob key: SHA-256 of the payload's UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CellRecord:
    """One immutable published version of one cell."""

    name: str
    version: int
    #: The pipeline's content hash of the cell (semantic identity —
    #: what the artifact cache keys on).
    hash: str
    #: Blob key of the serialised payload text.
    blob: str
    kind: str
    #: Pinned refs (``name@N``) for store deps; bare names for cells
    #: assumed present in every session (the stock library).
    deps: tuple[str, ...] = ()
    #: Blob key of the composition's REPLAY journal, else ``None``.
    journal: str | None = None

    @property
    def ref(self) -> str:
        return format_ref(self.name, self.version)

    def to_kwargs(self) -> dict:
        return {
            "name": self.name,
            "version": self.version,
            "hash": self.hash,
            "blob": self.blob,
            "kind": self.kind,
            "deps": list(self.deps),
            "journal": self.journal,
        }

    @classmethod
    def from_kwargs(cls, kwargs: dict) -> "CellRecord":
        try:
            name = kwargs["name"]
            version = kwargs["version"]
            hash_ = kwargs["hash"]
            blob = kwargs["blob"]
            kind = kwargs["kind"]
        except KeyError as exc:
            raise Corrupt(f"publish record missing field {exc}") from None
        deps = tuple(kwargs.get("deps") or ())
        if (
            not isinstance(name, str)
            or not isinstance(version, int)
            or version < 1
            or not isinstance(hash_, str)
            or not isinstance(blob, str)
            or kind not in KINDS
            or not all(isinstance(d, str) for d in deps)
        ):
            raise Corrupt(f"malformed publish record for {name!r}")
        return cls(
            name=name,
            version=version,
            hash=hash_,
            blob=blob,
            kind=kind,
            deps=deps,
            journal=kwargs.get("journal"),
        )


@dataclass
class _Index:
    """The in-memory projection of the refs log."""

    versions: dict[str, dict[int, CellRecord]] = field(default_factory=dict)
    tombstones: set[tuple[str, int]] = field(default_factory=set)

    def apply(self, entry: JournalEntry) -> None:
        if entry.command == "publish":
            record = CellRecord.from_kwargs(entry.kwargs)
            self.versions.setdefault(record.name, {})[record.version] = record
        elif entry.command == "deprecate":
            name = entry.kwargs.get("name")
            version = entry.kwargs.get("version")
            if isinstance(name, str) and isinstance(version, int):
                self.tombstones.add((name, version))


class CellStore:
    """The shared library: every method is safe to call from any
    thread of any process pointed at the same directory."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "blobs").mkdir(exist_ok=True)
        self._refs = self.root / "refs.wal"
        self._lock_path = self.root / ".lock"
        self._lock_path.touch(exist_ok=True)
        self._mutex = threading.RLock()
        self._index = _Index()
        #: Bytes of refs.wal parsed into the index (complete lines only).
        self._offset = 0
        #: The inode those bytes were read from: fsck's repair replaces
        #: the log with a new file.
        self._inode: int | None = None
        #: A torn (newline-less) tail was seen; the next append truncates it.
        self._torn = False

    # -- locking -------------------------------------------------------------

    class _Locked:
        def __init__(self, store: "CellStore") -> None:
            self.store = store
            self._fd: int | None = None

        def __enter__(self):
            self.store._mutex.acquire()
            if fcntl is not None:
                self._fd = os.open(self.store._lock_path, os.O_RDWR)
                fcntl.flock(self._fd, fcntl.LOCK_EX)
            return self

        def __exit__(self, *exc) -> None:
            if self._fd is not None:
                try:
                    fcntl.flock(self._fd, fcntl.LOCK_UN)
                finally:
                    os.close(self._fd)
                    self._fd = None
            self.store._mutex.release()

    def _locked(self) -> "CellStore._Locked":
        return CellStore._Locked(self)

    # -- the refs log --------------------------------------------------------

    def _refresh(self) -> None:
        """Fold any lines appended by other writers into the index."""
        try:
            stat = self._refs.stat()
        except OSError:
            size, inode = 0, None
        else:
            size, inode = stat.st_size, stat.st_ino
        if self._offset and (size < self._offset or inode != self._inode):
            # The log was rewritten (an fsck repair): start over.
            self._index, self._offset = _Index(), 0
        self._inode = inode
        if size == self._offset:
            self._torn = False
            return
        with open(self._refs, "rb") as f:
            f.seek(self._offset)
            chunk = f.read()
        end = chunk.rfind(b"\n")
        if end < 0:
            self._torn = True
            return
        complete, self._torn = chunk[: end + 1], end + 1 < len(chunk)
        for raw in complete.decode("utf-8", "replace").split("\n")[:-1]:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fault, detail = decode_line(line, STORE_OPS)
            if fault is not None:
                raise Corrupt(REFS_FAULTS[fault].format(detail))
            self._index.apply(detail)
        self._offset += len(complete)

    def _append(self, entry: JournalEntry) -> None:
        """Durably append one record through the WAL's appender (caller
        holds the lock, index is fresh).  A torn tail left by a killed
        writer is truncated first — the same self-healing contract as
        the editor's WAL."""
        with JournalWriter(self._refs, header=STORE_HEADER) as writer:
            if self._torn:
                writer.truncate_to(self._offset)
            writer.append(entry)
            self._offset = writer.tell()
        self._torn = False
        if self._inode is None:  # this append created the log
            self._inode = self._refs.stat().st_ino
        metrics.counter("library.refs_appends").inc()
        self._index.apply(entry)

    # -- blobs ---------------------------------------------------------------

    def _blob_path(self, key: str) -> Path:
        return self.root / "blobs" / key[:2] / key[2:]

    def _put_blob(self, text: str) -> str:
        """Store an immutable payload; returns its key.  Atomic and
        fsynced, and performed *before* the ref line that names it."""
        key = text_digest(text)
        path = self._blob_path(key)
        if path.exists():
            return key  # content-addressed: identical bytes, one blob
        atomic_write(path, text.encode("utf-8"))
        return key

    def _read_blob(self, key: str) -> str:
        try:
            data = self._blob_path(key).read_bytes()
        except OSError:
            raise Corrupt(
                f"blob {key[:12]}… is missing; run 'cellstore fsck'"
            ) from None
        if hashlib.sha256(data).hexdigest() != key:
            raise Corrupt(
                f"blob {key[:12]}… does not re-hash to its key; run fsck"
            )
        return data.decode("utf-8")

    # -- queries -------------------------------------------------------------

    def _head_version(self, name: str) -> int:
        versions = self._index.versions.get(name)
        return max(versions) if versions else 0

    def _resolve_locked(self, ref: Ref) -> CellRecord:
        versions = self._index.versions.get(ref.name)
        if not versions:
            raise NotFound(f"no cell {ref.name!r} in the library")
        if ref.version is not None:
            record = versions.get(ref.version)
            if record is None:
                raise NotFound(
                    f"no version {ref.version} of {ref.name!r} "
                    f"(head is {max(versions)})"
                )
            if (ref.name, ref.version) in self._index.tombstones:
                raise Deprecated(
                    f"{record.ref} is deprecated"
                )
            return record
        live = [
            v
            for v in versions
            if (ref.name, v) not in self._index.tombstones
        ]
        if not live:
            raise Deprecated(
                f"every version of {ref.name!r} is deprecated"
            )
        return versions[max(live)]

    def resolve(self, ref: str | Ref) -> CellRecord:
        """``name``/``name@latest`` → newest live version; ``name@N`` →
        exactly that version (``library.deprecated`` if tombstoned)."""
        parsed = parse_ref(ref) if isinstance(ref, str) else ref
        with self._locked():
            self._refresh()
            record = self._resolve_locked(parsed)
        metrics.counter("library.resolves").inc()
        return record

    def payload(self, record: CellRecord) -> str:
        """The serialised cell text behind a record (verified)."""
        metrics.counter("library.gets").inc()
        return self._read_blob(record.blob)

    def journal_payload(self, record: CellRecord) -> str | None:
        if record.journal is None:
            return None
        return self._read_blob(record.journal)

    def is_deprecated(self, name: str, version: int) -> bool:
        with self._locked():
            self._refresh()
            return (name, version) in self._index.tombstones

    def names(self) -> list[str]:
        with self._locked():
            self._refresh()
            return sorted(self._index.versions)

    def versions(self, name: str) -> list[CellRecord]:
        """Every published version of ``name``, oldest first."""
        with self._locked():
            self._refresh()
            versions = self._index.versions.get(name)
            if not versions:
                raise NotFound(f"no cell {name!r} in the library")
            return [versions[v] for v in sorted(versions)]

    def records(self) -> list[CellRecord]:
        """Every version of every cell, (name, version)-ordered."""
        with self._locked():
            self._refresh()
            out: list[CellRecord] = []
            for name in sorted(self._index.versions):
                versions = self._index.versions[name]
                out.extend(versions[v] for v in sorted(versions))
            return out

    def compositions(self) -> list[CellRecord]:
        """The newest live version of every composition — the set the
        invalidation cascade replays."""
        with self._locked():
            self._refresh()
            out: list[CellRecord] = []
            for name in sorted(self._index.versions):
                try:
                    record = self._resolve_locked(Ref(name))
                except (NotFound, Deprecated):
                    continue
                if record.kind == "composition":
                    out.append(record)
            return out

    # -- mutations -----------------------------------------------------------

    def publish(
        self,
        name: str,
        kind: str,
        payload: str,
        *,
        content_hash: str,
        deps: tuple[str, ...] = (),
        journal_payload: str | None = None,
        expected_version: int | None = None,
    ) -> CellRecord:
        """Atomically publish the next version of ``name``.

        ``expected_version`` is the compare-and-swap guard: the head
        version this publish was based on (0 for "I am creating this
        cell").  ``None`` skips the check (last writer wins).  Raises
        :class:`Conflict` (``library.conflict``) on a mismatch — the
        caller re-reads, rebases, retries.
        """
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        parsed = parse_ref(name)
        if parsed.version is not None:
            raise ValueError(
                f"publish takes a bare cell name, not a ref ({name!r}); "
                "versions are assigned by the store"
            )
        with self._locked():
            self._refresh()
            head = self._head_version(name)
            if expected_version is not None and expected_version != head:
                metrics.counter("library.conflicts").inc()
                raise Conflict(
                    f"cell {name!r} is at version {head}, "
                    f"publish expected {expected_version}",
                    head=head,
                )
            record = CellRecord(
                name=name,
                version=head + 1,
                hash=content_hash,
                blob=self._put_blob(payload),
                kind=kind,
                deps=tuple(deps),
                journal=(
                    self._put_blob(journal_payload)
                    if journal_payload is not None
                    else None
                ),
            )
            self._append(JournalEntry("publish", record.to_kwargs()))
        metrics.counter("library.publishes").inc()
        return record

    def deprecate(self, name: str, version: int) -> CellRecord:
        """Tombstone one version (idempotent).  The version's record
        and blob remain — pinned refs keep resolving is the point of
        tombstones over deletion — but ``name@latest`` skips it."""
        with self._locked():
            self._refresh()
            versions = self._index.versions.get(name)
            if not versions or version not in versions:
                raise NotFound(f"no version {version} of {name!r} to deprecate")
            record = versions[version]
            if (name, version) not in self._index.tombstones:
                self._append(
                    JournalEntry("deprecate", {"name": name, "version": version})
                )
                metrics.counter("library.deprecations").inc()
        return record

    # -- dependency queries ---------------------------------------------------

    def dependents_of(self, name: str) -> list[CellRecord]:
        """Live composition records whose dependency list names
        ``name`` (any pinned version)."""
        out = []
        for record in self.compositions():
            for dep in record.deps:
                if parse_ref(dep).name == name:
                    out.append(record)
                    break
        return out
