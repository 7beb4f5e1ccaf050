"""The phase cache: in-process artifact memo + optional persistent layer.

:class:`PhaseCache` maps ``(phase, key)`` to a pipeline artifact.  The
hot layer is a per-phase LRU of canonical objects handed out *without
copying* -- copying a large unrolled C-IR function costs more than the
lowering it saves.  That makes immutability a hard contract: artifacts
(and the functions/programs inside results derived from them) are
read-only everywhere downstream, exactly like results shared out of the
``MemoryKernelStore``; the only two in-place stages in the pipeline
(``apply_rule_r1``, ``run_pipeline``) merely rebind containers,
and run inside phase drivers that give them a fresh program/function
shell around the shared, never-mutated statements.  All map access is
serialized by one lock, never held across disk I/O -- the cache is
shared across the threaded service's coalesced-miss path, the tuner,
the fuzz oracle, and the CEGIS verifier.

The persistent layer (:class:`PersistentPhaseStore`) is a pickle codec
over :class:`repro.ioutil.ShardedStore`, with one namespace per phase:
one pickle per artifact under ``<root>/<phase>/<key[:2]>/<key>.pkl``,
atomic writes, and corruption tolerance (an unreadable entry is
quarantined -- unlinked and counted -- and treated as a miss, never
raised through).  It is opt-in: the shared
process-wide cache only persists when ``$REPRO_PHASE_CACHE`` names a
directory.  The layer is size-bounded: when the tree exceeds
``max_bytes`` (default :data:`DEFAULT_MAX_BYTES`;
``$REPRO_PHASE_CACHE_LIMIT`` overrides for the shared cache, ``0`` =
unbounded) a put triggers :meth:`~PersistentPhaseStore.gc`, evicting
least-recently-used entries first; :meth:`~PersistentPhaseStore.purge`
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

from ..ioutil import LruMap, ShardedStore
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


class PersistentPhaseStore:
    """Pickled artifacts in one :class:`ShardedStore` namespace per phase,
    with one byte bound over the whole tree.  The store's own hot layer is
    off: :class:`PhaseCache` is that layer (and calls :meth:`put` outside
    its lock, so disk writes do not serialize it)."""

    def __init__(self, root: str, max_bytes: Optional[int] = DEFAULT_MAX_BYTES):
        self._store: ShardedStore[object] = ShardedStore(
            os.path.expanduser(root), ".pkl", encode=pickle.dumps,
            decode=pickle.loads, hot_capacity=0, max_bytes=max_bytes,
            namespaces=PHASES)
        self.root = self._store.root
        self.gc = self._store.gc
        self.purge = self._store.purge
        self.total_bytes = self._store.total_bytes

    max_bytes = property(lambda self: self._store.max_bytes)
    disk_hits = property(lambda self: self._store.hits)
    reads = property(lambda self: self._store.hits + self._store.misses)
    corrupt_dropped = property(lambda self: self._store.corrupt_dropped)

    def _path(self, phase: str, key: str) -> str:
        return self._store.path(key, phase)

    def get(self, phase: str, key: str) -> Optional[object]:
        return self._store.get(key, phase)

    def put(self, phase: str, key: str, artifact: object) -> None:
        self._store.put(key, artifact, phase)

    def stats(self) -> Dict[str, object]:
        counts = self._store.counters("hits", "misses", "writes",
                                      "corrupt_dropped", "evictions")
        return {"root": self.root,
                "reads": counts["hits"] + counts["misses"],
                "writes": counts["writes"], "disk_hits": counts["hits"],
                "corrupt_dropped": counts["corrupt_dropped"],
                "evictions": counts["evictions"],
                "max_bytes": self.max_bytes,
                "total_bytes": self.total_bytes()}


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
        and give in-place stages a fresh shell to rebind.  A hot miss
        reads the persistent layer outside the lock, so one slow disk
        read never stalls another thread's lookups.
        """
        with self._lock:
            artifact = self._maps[phase].get(key)
            if artifact is not None or self.persistent is None:
                self._count(phase, artifact)
                return artifact
        artifact = self.persistent.get(phase, key)
        with self._lock:
            if artifact is not None:
                # Another thread may have adopted an entry meanwhile:
                # keep that one canonical.
                adopted = self._maps[phase].get(key)
                if adopted is not None:
                    artifact = adopted
                else:
                    self._maps[phase].insert(key, artifact)
            self._count(phase, artifact)
        return artifact

    def _count(self, phase: str, artifact: Optional[object]) -> None:
        self._counters[phase]["hits" if artifact is not None
                              else "misses"] += 1

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
