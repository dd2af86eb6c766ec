"""The on-disk content-addressed artifact store.

Verification artifacts (leaf expansions, CIF text, flattened
geometry, DRC reports, extracted netlists) are stored under their
content key: ``<root>/<key[:2]>/<key[2:]>.pkl``.  A second run of
``verify`` over an unchanged chip is pure reads; editing one leaf
cell orphans exactly the entries whose keys covered it.

Writes go through the WAL's atomic write
(:func:`repro.core.wal.atomic_write`: temp file, fsync,
``os.replace``): a crash mid-store can leave a stray ``.tmp`` file
but never a torn entry.  Reads treat any undecodable entry as a miss
and delete it — a cache can always be rebuilt, so corruption is never
an error.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Any

from repro.core.wal import atomic_write
from repro.obs import metrics


class ContentCache:
    """A pickle-valued store keyed by content hashes."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / (key[2:] + ".pkl")

    def get(self, key: str) -> tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss.

        The two-tuple (rather than a ``None`` sentinel) lets cached
        falsy values — empty reports — count as hits.
        """
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return False, None
        try:
            return True, pickle.loads(data)
        except Exception:
            # A torn or stale-schema entry: drop it and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            metrics.counter("pipeline.cache.evictions").inc()
            return False, None

    def put(self, key: str, value: Any) -> bool:
        """Store ``value``; returns False when it cannot be pickled
        (the pipeline then simply recomputes next run)."""
        try:
            data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        atomic_write(self._path(key), data)
        return True

    def evict(self, key: str) -> bool:
        """Drop one entry (library publishes use this to invalidate
        artifacts keyed on a superseded cell version); returns whether
        anything was there to drop."""
        try:
            self._path(key).unlink()
        except OSError:
            return False
        metrics.counter("pipeline.cache.evictions").inc()
        return True

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))
