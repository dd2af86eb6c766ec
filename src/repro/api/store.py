"""Pluggable file stores for session commands.

Commands that touch "files" (``read``, ``write``, ``plot``, ...) go
through a store object so sessions run hermetically under test
(:class:`MemoryStore`, the default) or against the real filesystem
(:class:`DiskStore`).  Service sessions get a private
:class:`MemoryStore` each, which is what keeps one session's files
invisible to another.
"""

from __future__ import annotations

from pathlib import Path as FsPath

from repro.core.errors import RiotError
from repro.core.wal import atomic_write


class MemoryStore(dict):
    """The default in-memory file store."""

    def read(self, name: str) -> str:
        try:
            return self[name]
        except KeyError:
            raise RiotError(f"no such file {name!r}") from None

    def write(self, name: str, content: str) -> None:
        self[name] = content


class DiskStore:
    """A file store over the real filesystem, rooted at a directory.

    Files are UTF-8 whatever the locale.  Writes go through the WAL's
    atomic write (:func:`repro.core.wal.atomic_write`): content lands
    in a sibling temp file, is fsynced, and then renamed over the
    target with ``os.replace`` — a crash mid-save can never leave a
    torn composition or CIF file, only the old version or the new one.
    """

    def __init__(self, root: str = ".") -> None:
        self.root = FsPath(root)

    def read(self, name: str) -> str:
        target = self.root / name
        if not target.exists():
            raise RiotError(f"no such file {name!r}")
        return target.read_text(encoding="utf-8")

    def write(self, name: str, content: str) -> None:
        atomic_write(self.root / name, content.encode("utf-8"))
