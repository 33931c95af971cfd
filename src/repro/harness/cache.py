"""Content-addressed result cache for experiment jobs.

Completed job results are pickled under ``<root>/<key[:2]>/<key>.pkl``
where ``key`` is the job spec's canonical-JSON hash (see
:meth:`repro.harness.jobs.JobSpec.cache_key`).  Because the key covers
every calibration knob plus the seed, a cache hit is *definitionally*
the same experiment — the sim layer guarantees bit-identical results
per config (``tests/test_seed_determinism.py``), so loading the pickle
is equivalent to re-running the job.

Writes are atomic (temp file + ``os.replace``) so concurrent workers
computing the same key race benignly: last writer wins with an
identical payload.  A corrupt or truncated entry is treated as a miss
and evicted.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Tuple, Union

__all__ = ["ResultCache", "NullCache", "CacheStats", "PruneResult"]


class CacheStats:
    """Hit/miss/store counters plus byte accounting, shared by both
    cache flavours.  ``bytes_written`` totals the pickled payloads this
    instance stored; ``evictions``/``bytes_evicted`` count what
    :meth:`ResultCache.prune` removed."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.bytes_written = 0
        self.evictions = 0
        self.bytes_evicted = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "bytes_written": self.bytes_written,
            "evictions": self.evictions,
            "bytes_evicted": self.bytes_evicted,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"stores={self.stores}, bytes_written={self.bytes_written}, "
            f"evictions={self.evictions}, bytes_evicted={self.bytes_evicted})"
        )


class PruneResult(NamedTuple):
    """What one :meth:`ResultCache.prune` pass removed and kept."""

    evicted: int
    bytes_evicted: int
    remaining_bytes: int


class NullCache:
    """The ``--no-cache`` case: nothing touches disk.

    Stored values are kept in memory for this instance's lifetime, so
    composite runners sharing one instance compute each shared input
    once; a fresh instance always misses.  :class:`WorkerPool` holds one
    per pool for its serial path, so the memo never outlives the pool.
    A hit hands back the stored object itself, not a copy, so a value
    must not be mutated once stored.
    """

    root = None

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._values: Dict[str, Any] = {}

    def lookup(self, key: str) -> Tuple[bool, Any]:
        if key in self._values:
            self.stats.hits += 1
            return True, self._values[key]
        self.stats.misses += 1
        return False, None

    def store(self, key: str, value: Any) -> None:
        self._values[key] = value
        self.stats.stores += 1

    def contains(self, key: str) -> bool:
        return key in self._values


class ResultCache:
    """Pickle-backed content-addressed store on the local filesystem."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        """Two-level fan-out so one directory never holds every entry."""
        return self.root / key[:2] / f"{key}.pkl"

    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    def lookup(self, key: str) -> Tuple[bool, Any]:
        """Returns ``(hit, value)``; corrupt entries count as misses."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return False, None
        except (pickle.UnpicklingError, EOFError, OSError, AttributeError):
            # Truncated write or a pickle from an incompatible code
            # version: evict and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.misses += 1
            return False, None
        self.stats.hits += 1
        return True, value

    def store(self, key: str, value: Any) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                size = handle.tell()
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        self.stats.bytes_written += size

    # -- size accounting and eviction --------------------------------------

    def _entries(self) -> List[Tuple[float, int, Path]]:
        """Every live entry as ``(mtime, size, path)``; vanished files
        (a concurrent prune or eviction) are simply skipped."""
        entries: List[Tuple[float, int, Path]] = []
        if not self.root.exists():
            return entries
        for path in self.root.glob("*/*.pkl"):
            try:
                info = path.stat()
            except OSError:
                continue
            entries.append((info.st_mtime, info.st_size, path))
        return entries

    def total_bytes(self) -> int:
        """Bytes currently held by cache entries (excludes temp files)."""
        return sum(size for _, size, _ in self._entries())

    def prune(self, max_bytes: int) -> PruneResult:
        """Evict least-recently-modified entries until the cache fits.

        LRU-by-mtime: ``lookup`` never touches mtime, so this is
        least-recently-*stored* — good enough for a maintenance loop
        whose job is bounding disk, not perfect recency.  Races are
        benign: an entry deleted under us is counted as already gone,
        and a concurrent ``store`` of an evicted key simply recreates
        it on the next miss.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        entries = sorted(self._entries())
        total = sum(size for _, size, _ in entries)
        evicted = 0
        bytes_evicted = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                total -= size
                continue
            except OSError:
                continue
            total -= size
            evicted += 1
            bytes_evicted += size
        self.stats.evictions += evicted
        self.stats.bytes_evicted += bytes_evicted
        return PruneResult(evicted, bytes_evicted, total)
