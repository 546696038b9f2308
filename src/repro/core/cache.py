"""The two-tier result cache behind the :class:`~repro.core.engine.ScenarioEngine`.

Sweep grids hammer the cache: thousands of lookups per call, many of
them for results computed seconds earlier in the same process.  The
engine therefore layers two tiers:

* :class:`LRUResultCache` — an in-memory, entry-capped LRU.  Hits cost a
  dict lookup instead of a pickle load, and because the engine is shared
  across ``run_sweep``/``compare_schemes`` calls, warm sweeps in the
  same process never touch the disk at all.
* :class:`DiskResultCache` — the persistent tier.  Entries live in a
  sharded layout (``<root>/ab/cdef….pkl``, first two fingerprint hex
  chars as the shard directory) so a million-entry cache never puts a
  million files in one directory.  Writes are atomic
  (``mkstemp`` + ``os.replace``), reads treat *any* malformed entry —
  truncated pickle, garbage bytes, a foreign file, an entry written by
  an incompatible library version — as a miss, never an error, so two
  engines can share one cache directory without coordination.

:class:`TieredResultCache` composes the two and reports which tier
served each hit so the engine's metrics can tell them apart.

Disk entries are small pickled envelopes (``entry_version`` +
``fingerprint`` + result); the fingerprint inside the envelope is
checked against the requested one, so a file that was renamed or
hard-linked into the wrong slot can never serve a wrong result.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .results import RunResult

#: Bump when the on-disk envelope layout changes.  Entries carrying a
#: different version are skipped (a miss), never deleted and never an
#: error — an older library version may still be using them.
ENTRY_VERSION = 1

#: Length of the shard-directory prefix taken from the fingerprint.
SHARD_CHARS = 2

PathLike = Union[str, "os.PathLike[str]"]


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of one disk cache: entry count, bytes, shard spread."""

    root: str
    entries: int
    total_bytes: int
    shard_dirs: int


@dataclass
class ClientCacheStats:
    """Cache traffic attributed to one client label.

    The serve layer tags every engine call with the submitting client;
    the tiered cache accumulates one of these per label so operators can
    see who is riding the cache and who is paying for simulations.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def hits(self) -> int:
        """Hits across both tiers."""
        return self.memory_hits + self.disk_hits

    def snapshot(self) -> dict:
        """Plain JSON-able dict of the counters."""
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
        }


@dataclass(frozen=True)
class GcResult:
    """Outcome of one eviction pass."""

    evicted: int
    freed_bytes: int
    remaining_entries: int
    remaining_bytes: int


class LRUResultCache:
    """Entry-capped in-memory LRU over hub-stripped results.

    Not thread-safe; the engine owns one per instance and engines are
    not shared across threads.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError(
                f"need at least one LRU entry, got {max_entries}"
            )
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[str, RunResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str) -> Optional[RunResult]:
        """The cached result, refreshed to most-recently-used, or None."""
        result = self._entries.get(fingerprint)
        if result is not None:
            self._entries.move_to_end(fingerprint)
        return result

    def put(self, fingerprint: str, result: RunResult) -> None:
        """Insert (or refresh) an entry, evicting the least-recently used."""
        self._entries[fingerprint] = result
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()


class DiskResultCache:
    """Sharded, atomically-written, corruption-tolerant on-disk cache."""

    def __init__(
        self, root: PathLike, max_bytes: Optional[int] = None
    ) -> None:
        self.root = os.fspath(root)
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"cache_max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes

    # ------------------------------------------------------------------
    # entry I/O
    # ------------------------------------------------------------------
    def path_for(self, fingerprint: str) -> str:
        """Sharded entry path: ``<root>/<fp[:2]>/<fp[2:]>.pkl``."""
        return os.path.join(
            self.root,
            fingerprint[:SHARD_CHARS],
            f"{fingerprint[SHARD_CHARS:]}.pkl",
        )

    def load(self, fingerprint: str) -> Optional[RunResult]:
        """The cached result, or None for missing/corrupt/foreign entries.

        Truncated or garbage files are unlinked best-effort (they are
        useless to every reader); entries with a different
        ``entry_version`` are left alone — another process running a
        different library version may still want them.
        """
        path = self.path_for(fingerprint)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, MemoryError):
            # Truncated mid-write crash, garbage bytes, an unimportable
            # class: recompute instead of raising, and drop the file.
            self._discard(path)
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("entry_version") != ENTRY_VERSION
            or envelope.get("fingerprint") != fingerprint
        ):
            return None
        result = envelope.get("result")
        return result if isinstance(result, RunResult) else None

    def store(self, fingerprint: str, result: RunResult) -> None:
        """Atomically publish one entry (tmp file + ``os.replace``).

        Concurrent writers racing on the same fingerprint are safe: each
        writes its own tmp file and the rename is atomic, so readers see
        either nothing or one complete entry, never a torn one.
        """
        path = self.path_for(fingerprint)
        shard = os.path.dirname(path)
        os.makedirs(shard, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=shard, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(
                    {
                        "entry_version": ENTRY_VERSION,
                        "fingerprint": fingerprint,
                        # Duplicated from the result so stats passes can
                        # tally tiers without unpickling full results.
                        "fidelity": result.fidelity,
                        "result": result,
                    },
                    handle,
                    pickle.HIGHEST_PROTOCOL,
                )
            os.replace(tmp_path, path)
        except BaseException:
            self._discard(tmp_path)
            raise

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # maintenance: stats / gc / clear
    # ------------------------------------------------------------------
    def entries(self) -> List[Tuple[str, int, float]]:
        """Every entry as ``(path, size_bytes, mtime)``, sorted by path.

        Entries that vanish mid-scan (a concurrent ``clear``) are
        skipped.
        """
        found: List[Tuple[str, int, float]] = []
        for path in sorted(self._iter_entry_paths()):
            try:
                stat = os.stat(path)
            except OSError:
                continue
            found.append((path, stat.st_size, stat.st_mtime))
        return found

    def _iter_entry_paths(self) -> Iterator[str]:
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return
        for name in names:
            shard = os.path.join(self.root, name)
            try:
                inner_names = sorted(os.listdir(shard))
            except OSError:
                continue  # not a shard directory
            for inner in inner_names:
                if inner.endswith(".pkl"):
                    yield os.path.join(shard, inner)

    def stats(self) -> CacheStats:
        """Entry count, total bytes and shard-directory count."""
        entries = self.entries()
        shard_dirs = len({os.path.dirname(path) for path, _, _ in entries})
        return CacheStats(
            root=self.root,
            entries=len(entries),
            total_bytes=sum(size for _, size, _ in entries),
            shard_dirs=shard_dirs,
        )

    def fidelity_counts(self) -> Dict[str, int]:
        """Entry count per fidelity tier (``{"des": …, "analytic": …}``).

        Reads each entry's envelope; entries written before the envelope
        carried a ``fidelity`` key predate the analytic tier and count
        as ``"des"``.  Corrupt or foreign files are skipped, mirroring
        :meth:`load`'s tolerance.
        """
        counts: Dict[str, int] = {}
        for path, _size, _mtime in self.entries():
            try:
                with open(path, "rb") as handle:
                    envelope = pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError, IndexError, MemoryError):
                continue
            if (
                not isinstance(envelope, dict)
                or envelope.get("entry_version") != ENTRY_VERSION
            ):
                continue
            fidelity = envelope.get("fidelity", "des")
            if not isinstance(fidelity, str):
                fidelity = "des"
            counts[fidelity] = counts.get(fidelity, 0) + 1
        return dict(sorted(counts.items()))

    def gc(self, max_bytes: Optional[int] = None) -> GcResult:
        """Evict oldest-mtime-first until the cache fits ``max_bytes``.

        Uses the explicit argument, falling back to the instance's
        ``max_bytes``; with neither set this raises ``ValueError``
        (an unbounded GC pass would silently delete nothing).
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None:
            raise ValueError("gc needs a byte cap (max_bytes)")
        entries = self.entries()
        total = sum(size for _, size, _ in entries)
        evicted = freed = 0
        # Oldest first; path tie-break keeps the pass deterministic even
        # when a burst of stores lands inside one mtime granule.
        for path, size, _mtime in sorted(
            entries, key=lambda entry: (entry[2], entry[0])
        ):
            if total <= cap:
                break
            self._discard(path)
            total -= size
            freed += size
            evicted += 1
        return GcResult(
            evicted=evicted,
            freed_bytes=freed,
            remaining_entries=len(entries) - evicted,
            remaining_bytes=total,
        )

    def maybe_gc(self) -> Optional[GcResult]:
        """Run :meth:`gc` only when a byte cap was configured."""
        if self.max_bytes is None:
            return None
        return self.gc()

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path, _size, _mtime in self.entries():
            self._discard(path)
            removed += 1
        return removed


class TieredResultCache:
    """Memory-over-disk composition with per-tier hit attribution."""

    def __init__(
        self,
        memory: Optional[LRUResultCache] = None,
        disk: Optional[DiskResultCache] = None,
    ) -> None:
        self.memory = memory
        self.disk = disk
        #: Per-client traffic, keyed by the caller-supplied label; calls
        #: without a label are not accounted (library-internal traffic).
        self.client_stats: Dict[str, ClientCacheStats] = {}

    @property
    def enabled(self) -> bool:
        """Whether any tier is configured."""
        return self.memory is not None or self.disk is not None

    def _client(self, client: Optional[str]) -> Optional[ClientCacheStats]:
        if client is None:
            return None
        stats = self.client_stats.get(client)
        if stats is None:
            stats = self.client_stats[client] = ClientCacheStats()
        return stats

    def accounting(self) -> Dict[str, dict]:
        """Per-client traffic snapshot, sorted by client label."""
        return {
            client: stats.snapshot()
            for client, stats in sorted(self.client_stats.items())
        }

    def get(
        self, fingerprint: str, client: Optional[str] = None
    ) -> Optional[Tuple[str, RunResult]]:
        """``("memory"|"disk", result)`` on a hit, None on a miss.

        Disk hits are promoted into the memory tier so repeated lookups
        in one process pay the pickle load once.  ``client`` attributes
        the lookup to a per-client accounting bucket (see
        :class:`ClientCacheStats`).
        """
        stats = self._client(client)
        if self.memory is not None:
            result = self.memory.get(fingerprint)
            if result is not None:
                if stats is not None:
                    stats.memory_hits += 1
                return "memory", result
        if self.disk is not None:
            result = self.disk.load(fingerprint)
            if result is not None:
                if self.memory is not None:
                    self.memory.put(fingerprint, result)
                if stats is not None:
                    stats.disk_hits += 1
                return "disk", result
        if stats is not None:
            stats.misses += 1
        return None

    def put(
        self,
        fingerprint: str,
        result: RunResult,
        client: Optional[str] = None,
    ) -> None:
        """Publish one (hub-stripped) result into every configured tier."""
        stats = self._client(client)
        if stats is not None:
            stats.stores += 1
        if self.memory is not None:
            self.memory.put(fingerprint, result)
        if self.disk is not None:
            self.disk.store(fingerprint, result)

    def maybe_gc(self) -> None:
        """Forward a size-cap eviction pass to the disk tier, if any."""
        if self.disk is not None:
            self.disk.maybe_gc()
