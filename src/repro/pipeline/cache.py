"""The phase cache: in-process artifact memo + optional persistent layer.

:class:`PhaseCache` maps ``(phase, key)`` to a pipeline artifact.  The
hot layer is a per-phase LRU of canonical objects handed out *without
copying* -- copying a large unrolled C-IR function costs more than the
lowering it saves.  That makes immutability a hard contract: artifacts
(and the functions/programs inside results derived from them) are
read-only everywhere downstream, exactly like results shared out of the
``MemoryKernelStore``; the only two in-place stages in the pipeline
(``apply_rewrite_rules``, ``run_pipeline``) merely rebind containers,
and run inside phase drivers that give them a fresh program/function
shell around the shared, never-mutated statements.  All map access is
serialized by one
lock -- the cache is shared across the threaded service's
coalesced-miss path, the tuner, the fuzz oracle, and the CEGIS verifier.

The persistent layer (:class:`PersistentPhaseStore`) follows the
TuningDB idiom: one pickle per artifact under
``<root>/<phase>/<key[:2]>/<key>.pkl``, atomic writes, and corruption
tolerance (an unreadable entry is quarantined -- unlinked and counted --
and treated as a miss, never raised through).  It is opt-in: the shared
process-wide cache only persists when ``$REPRO_PHASE_CACHE`` names a
directory.  The layer is size-bounded: when the tree exceeds
``max_bytes`` (default :data:`DEFAULT_MAX_BYTES`;
``$REPRO_PHASE_CACHE_LIMIT`` overrides for the shared cache, ``0`` =
unbounded) a put triggers :meth:`~PersistentPhaseStore.gc`, evicting
oldest-modified entries first; :meth:`~PersistentPhaseStore.purge`
(also ``python -m repro.pipeline purge``) empties it outright.

Per-phase wall-clock accounting lives in :class:`PhaseTimings`; one
instance accumulates over a generation run and surfaces through
``GenerationResult.summary()`` and ``python -m repro.pipeline profile``.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import Dict, Optional

from ..ioutil import LruMap, atomic_write_bytes
from .keys import PHASES

#: Hot-layer capacity per phase (artifacts, not bytes).  Generous enough
#: for a full tuning sweep over every registry workload; bounded so a
#: long-lived service process cannot grow without limit.
DEFAULT_HOT_CAPACITY = 256

#: Environment variable enabling the persistent layer of the shared cache.
ENV_PHASE_CACHE = "REPRO_PHASE_CACHE"

#: Environment variable bounding the persistent layer's on-disk size for
#: the shared cache (bytes; ``K``/``M``/``G`` suffixes; ``0`` = unbounded).
ENV_PHASE_CACHE_LIMIT = "REPRO_PHASE_CACHE_LIMIT"

#: Default on-disk bound of the persistent layer (1 GiB -- two orders of
#: magnitude above a full registry sweep, small enough never to fill a
#: developer disk).
DEFAULT_MAX_BYTES = 1 << 30

#: GC evicts below this fraction of the bound so back-to-back puts near
#: the limit do not each pay a collection.
GC_LOW_WATER = 0.9


def parse_size(text: str) -> Optional[int]:
    """``"512M"`` -> bytes; ``"0"``/empty -> ``None`` (unbounded)."""
    text = text.strip()
    if not text:
        return None
    scale = 1
    suffixes = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text[-1].upper() in suffixes:
        scale = suffixes[text[-1].upper()]
        text = text[:-1]
    try:
        value = int(text) * scale
    except ValueError:
        from ..errors import ConfigurationError
        raise ConfigurationError(f"invalid size {text!r} (use e.g. 512M)")
    return value if value > 0 else None


class PhaseTimings:
    """Per-phase call counts, cache hits, and wall-clock seconds."""

    def __init__(self) -> None:
        self.phases: Dict[str, Dict[str, float]] = {
            phase: {"calls": 0, "hits": 0, "seconds": 0.0}
            for phase in PHASES}

    def record(self, phase: str, seconds: float, hit: bool) -> None:
        entry = self.phases[phase]
        entry["calls"] += 1
        entry["hits"] += 1 if hit else 0
        entry["seconds"] += seconds

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """A plain JSON-able copy (what ``GenerationResult`` carries)."""
        return {phase: dict(entry) for phase, entry in self.phases.items()}

    @property
    def total_seconds(self) -> float:
        return sum(entry["seconds"] for entry in self.phases.values())


class PersistentPhaseStore:
    """Pickled artifacts on disk, sharded TuningDB-style, size-bounded.

    Thread-safe: one internal lock guards the counters and the size
    accounting (``PhaseCache.put`` deliberately calls :meth:`put`
    outside its own lock so disk writes do not serialize the hot layer).
    """

    def __init__(self, root: str, max_bytes: Optional[int] = DEFAULT_MAX_BYTES):
        self.root = os.path.expanduser(root)
        self.max_bytes = max_bytes
        self.reads = 0
        self.writes = 0
        self.disk_hits = 0
        self.corrupt_dropped = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._total_bytes: Optional[int] = None  # scanned lazily

    def _path(self, phase: str, key: str) -> str:
        return os.path.join(self.root, phase, key[:2], f"{key}.pkl")

    def _entries(self) -> "list[tuple[float, int, str]]":
        """Every entry as ``(mtime, size, path)`` (unsorted)."""
        found = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.endswith(".pkl"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                found.append((info.st_mtime, info.st_size, path))
        return found

    def _scan_locked(self) -> int:
        if self._total_bytes is None:
            self._total_bytes = sum(size for _, size, _ in self._entries())
        return self._total_bytes

    def get(self, phase: str, key: str) -> Optional[object]:
        path = self._path(phase, key)
        with self._lock:
            self.reads += 1
        try:
            with open(path, "rb") as handle:
                artifact = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # Torn write, foreign pickle, schema drift: quarantine the
            # entry and miss -- the cache must never take generation down.
            try:
                size = os.path.getsize(path)
                os.unlink(path)
            except OSError:
                size = 0
            with self._lock:
                self.corrupt_dropped += 1
                if self._total_bytes is not None:
                    self._total_bytes = max(0, self._total_bytes - size)
            return None
        with self._lock:
            self.disk_hits += 1
        return artifact

    def put(self, phase: str, key: str, artifact: object) -> None:
        path = self._path(phase, key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        blob = pickle.dumps(artifact)
        try:
            replaced = os.path.getsize(path)
        except OSError:
            replaced = 0
        atomic_write_bytes(path, blob)
        with self._lock:
            self.writes += 1
            total = self._scan_locked() + len(blob) - replaced
            self._total_bytes = max(0, total)
            over = (self.max_bytes is not None
                    and self._total_bytes > self.max_bytes)
        if over:
            self.gc()

    def gc(self, target_bytes: Optional[int] = None) -> int:
        """Evict oldest-modified entries until the tree fits.

        ``target_bytes`` defaults to :data:`GC_LOW_WATER` of
        ``max_bytes`` (or no-op when unbounded).  Returns the number of
        entries removed.  Safe against concurrent writers: a file that
        disappears mid-collection is simply skipped.
        """
        if target_bytes is None:
            if self.max_bytes is None:
                return 0
            target_bytes = int(self.max_bytes * GC_LOW_WATER)
        with self._lock:
            entries = sorted(self._entries())
            total = sum(size for _, size, _ in entries)
            removed = 0
            while entries and total > target_bytes:
                _mtime, size, path = entries.pop(0)
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                removed += 1
            self._total_bytes = total
            self.evictions += removed
        return removed

    def purge(self) -> int:
        """Remove every entry; returns how many were removed."""
        with self._lock:
            removed = 0
            for _mtime, _size, path in self._entries():
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
            self._total_bytes = 0
            self.evictions += removed
        return removed

    def total_bytes(self) -> int:
        """Current on-disk size of the layer (scans once, then tracks)."""
        with self._lock:
            return self._scan_locked()

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {"root": self.root, "reads": self.reads,
                    "writes": self.writes, "disk_hits": self.disk_hits,
                    "corrupt_dropped": self.corrupt_dropped,
                    "evictions": self.evictions,
                    "max_bytes": self.max_bytes,
                    "total_bytes": self._scan_locked()}


class PhaseCache:
    """Thread-safe content-addressed store of pipeline artifacts."""

    def __init__(self, persistent: Optional[PersistentPhaseStore] = None,
                 hot_capacity: int = DEFAULT_HOT_CAPACITY):
        self.persistent = persistent
        self._lock = threading.Lock()
        self._maps: Dict[str, LruMap] = {
            phase: LruMap(hot_capacity) for phase in PHASES}
        self._counters: Dict[str, Dict[str, int]] = {}
        self.reset_stats()

    # -- access --------------------------------------------------------------

    def get(self, phase: str, key: str) -> Optional[object]:
        """The canonical artifact at ``(phase, key)``, or ``None``.

        The returned object is shared: treat it (and everything
        reachable from it) as immutable.  Phase drivers share its IR
        and give in-place stages a fresh shell to rebind.
        """
        with self._lock:
            artifact = self._maps[phase].get(key)
            if artifact is None and self.persistent is not None:
                artifact = self.persistent.get(phase, key)
                if artifact is not None:
                    self._maps[phase].insert(key, artifact)
            counter = self._counters[phase]
            counter["hits" if artifact is not None else "misses"] += 1
        return artifact

    def put(self, phase: str, key: str, artifact: object) -> None:
        """Adopt ``artifact`` as the canonical entry for ``(phase, key)``.

        The cache takes shared ownership: the caller may keep using the
        object but must never mutate it afterwards.
        """
        with self._lock:
            self._maps[phase].insert(key, artifact)
            self._counters[phase]["puts"] += 1
        if self.persistent is not None:
            self.persistent.put(phase, key, artifact)

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            phases = {phase: dict(counter)
                      for phase, counter in self._counters.items()}
            sizes = {phase: len(self._maps[phase]) for phase in PHASES}
        doc: Dict[str, object] = {
            "phases": phases,
            "entries": sizes,
            "hits": sum(c["hits"] for c in phases.values()),
            "misses": sum(c["misses"] for c in phases.values()),
            "persistent": (self.persistent.stats()
                           if self.persistent is not None else None),
        }
        return doc

    def reset_stats(self) -> None:
        with self._lock:
            self._counters = {
                phase: {"hits": 0, "misses": 0, "puts": 0}
                for phase in PHASES}

    def clear(self) -> None:
        """Drop every hot entry (the persistent layer is untouched)."""
        with self._lock:
            for lru in self._maps.values():
                lru.clear()


# ---------------------------------------------------------------------------
# The shared process-wide cache
# ---------------------------------------------------------------------------

_shared_lock = threading.Lock()
_shared: Optional[PhaseCache] = None


def shared_phase_cache() -> PhaseCache:
    """The process-wide cache every generator uses by default.

    Sharing one cache is what makes repeated fuzz/CEGIS verifications of
    the same program reuse lowering, and the tuner's codegen sweeps hit
    the Stage-1 memo, with no plumbing at the call sites.  Artifacts are
    pure functions of their keys, so sharing cannot change any result --
    only how fast it is produced.  Persistence is enabled exactly when
    ``$REPRO_PHASE_CACHE`` names a directory.
    """
    global _shared
    with _shared_lock:
        if _shared is None:
            root = os.environ.get(ENV_PHASE_CACHE, "").strip()
            persistent = None
            if root:
                limit = os.environ.get(ENV_PHASE_CACHE_LIMIT)
                max_bytes = (parse_size(limit) if limit is not None
                             else DEFAULT_MAX_BYTES)
                persistent = PersistentPhaseStore(root, max_bytes=max_bytes)
            _shared = PhaseCache(persistent=persistent)
        return _shared


def reset_shared_phase_cache() -> None:
    """Drop the shared cache (tests; also re-reads the environment)."""
    global _shared
    with _shared_lock:
        _shared = None
