"""Persistent, content-addressed storage for generated kernels.

The store maps a :func:`~repro.service.keys.cache_key` to a
:class:`~repro.slingen.generator.GenerationResult`.  Two backends ship:

* :class:`MemoryKernelStore` -- a bounded in-process LRU dict, useful for
  tests and for serving from a warm process without touching disk.
* :class:`DiskKernelStore` -- the persistent backend.

**Sharded on-disk layout.**  Entries fan out over a two-level directory
tree keyed by hash prefix: the entry for key ``abcdef...`` lives at
``<root>/ab/abcdef.../``.  Keys are SHA-256 hex, so the first two
characters spread entries uniformly over at most 256 shard directories
and no single directory ever holds more than ~1/256th of the store --
``os.listdir`` on a shard stays cheap no matter how many kernels
accumulate.  The invariants of the layout:

- a directory directly under ``<root>`` whose name is exactly two hex
  characters is a shard; a committed entry found directly under the root
  instead (``<root>/<key>/`` -- a flat layout, e.g. a backup restored by
  hand or a root written by an external tool) is transparently migrated
  into its shard on store construction (see ``migrated`` in
  :meth:`DiskKernelStore.stats`), so flat roots keep working without
  regeneration;
- an entry directory holds three files --

  - ``meta.json``   -- human-readable metadata (program, variant, cycles,
    flops/cycle, sizes, creation time).  Written *last*, so it doubles as
    the commit marker: an entry without valid metadata never existed.
    Its mtime is refreshed on every hit and is the LRU clock.
  - ``kernel.c``    -- the emitted single-source C, greppable on disk.
  - ``payload.pkl`` -- the pickled :class:`GenerationResult`.

- all writes go through a temp-file + ``os.replace`` dance so concurrent
  readers never observe a torn file, and reads are corruption-tolerant:
  any undecodable entry is quarantined (deleted) and reported as a miss,
  so a crashed writer or a bit-flipped cache degrades to regeneration,
  never to an exception.

The store is size-bounded (entries and/or bytes) with least-recently-used
eviction; evictions are accounted per shard
(:meth:`DiskKernelStore.shard_stats` reports entries, bytes, eviction
counts, and LRU age shard by shard).  A small in-memory hot layer lets
repeated hits in one process skip deserialization entirely.  All public
methods are thread-safe (one lock per store instance), so a single store
can back the concurrent :class:`~repro.service.service.KernelService` and
the HTTP daemon directly.

Subclass :class:`KernelStore` to add further backends (an object store, a
memcached tier, ...) without touching the service.
"""

from __future__ import annotations

import abc
import json
import os
import pickle
import shutil
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..errors import StoreError
from ..ioutil import (_HEX_CHARS, LruMap, _is_shard_name, atomic_write_bytes,
                      cache_root)
from ..slingen.generator import GenerationResult


def default_cache_dir() -> str:
    """Root of the persistent kernel cache.

    Overridable via ``REPRO_KERNEL_CACHE``; defaults to
    ``~/.cache/repro-slingen/kernels``.
    """
    return cache_root("REPRO_KERNEL_CACHE", "kernels")


#: When set, every committed DiskKernelStore entry appends one JSON line
#: here (see :meth:`DiskKernelStore.put`).
ENV_STORE_JOURNAL = "REPRO_STORE_JOURNAL"


class KernelStore(abc.ABC):
    """Abstract mapping from content keys to generation results."""

    @abc.abstractmethod
    def get(self, key: str) -> Optional[GenerationResult]:
        """Return the stored result, or None on a miss."""

    @abc.abstractmethod
    def put(self, key: str, result: GenerationResult,
            meta: Optional[Dict[str, object]] = None) -> None:
        """Store a result under ``key`` (overwriting any previous entry)."""

    @abc.abstractmethod
    def delete(self, key: str) -> bool:
        """Drop one entry; returns True when it existed."""

    @abc.abstractmethod
    def keys(self) -> List[str]:
        """All keys currently stored."""

    @abc.abstractmethod
    def metadata(self, key: str) -> Optional[Dict[str, object]]:
        """Cheap (no-deserialization) metadata for one entry, or None."""

    def contains(self, key: str) -> bool:
        return key in self.keys()

    def purge(self) -> int:
        """Drop every entry; returns the number removed."""
        removed = 0
        for key in self.keys():
            if self.delete(key):
                removed += 1
        return removed

    def stats(self) -> Dict[str, object]:
        return {"entries": len(self.keys())}

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return len(self.keys())


def _describe(key: str, result: GenerationResult,
              meta: Optional[Dict[str, object]]) -> Dict[str, object]:
    doc: Dict[str, object] = {
        "key": key,
        "program": result.program_name,
        "variant": result.variant_label,
        "cycles": result.performance.cycles,
        "flops_per_cycle": result.performance.flops_per_cycle,
        "bottleneck": result.performance.bottleneck,
        "candidates_evaluated": len(result.candidates),
        "created_at": time.time(),
    }
    if meta:
        doc.update(meta)
    return doc


class MemoryKernelStore(KernelStore):
    """A bounded, in-process LRU store (no persistence).  Thread-safe."""

    def __init__(self, max_entries: Optional[int] = None):
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, GenerationResult]" = OrderedDict()
        self._meta: Dict[str, Dict[str, object]] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[GenerationResult]:
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result

    def put(self, key: str, result: GenerationResult,
            meta: Optional[Dict[str, object]] = None) -> None:
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            self._meta[key] = _describe(key, result, meta)
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    evicted, _ = self._entries.popitem(last=False)
                    self._meta.pop(evicted, None)
                    self.evictions += 1

    def delete(self, key: str) -> bool:
        with self._lock:
            self._meta.pop(key, None)
            return self._entries.pop(key, None) is not None

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def metadata(self, key: str) -> Optional[Dict[str, object]]:
        with self._lock:
            return self._meta.get(key)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {"backend": "memory", "entries": len(self._entries),
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}


def _is_key_name(name: str) -> bool:
    """Cache keys are SHA-256 hex digests (see :mod:`repro.service.keys`);
    flat-store migration must only touch directories named exactly that --
    anything else at the root (a user's backup dir, notes, ...) is left
    alone where it is visible."""
    return len(name) == 64 and set(name) <= _HEX_CHARS


class DiskKernelStore(KernelStore):
    """The persistent disk backend (see module docstring for the layout).

    Thread-safe, without serializing disk traffic: a short-held lock
    guards only the in-memory hot layer and the counters, per-entry file
    I/O relies on the temp-file + ``os.replace`` protocol (concurrent
    readers and writers of one entry never observe torn state, and a
    loser's overwrite is bit-identical anyway since results are a pure
    function of the key), and the LRU eviction scan is serialized by its
    own lock.  Distinct-key requests from the HTTP daemon's handler
    threads therefore proceed in parallel.
    """

    META_NAME = "meta.json"
    CODE_NAME = "kernel.c"
    PAYLOAD_NAME = "payload.pkl"

    def __init__(self, root: Optional[str] = None,
                 max_entries: Optional[int] = None,
                 max_bytes: Optional[int] = None,
                 hot_capacity: int = 32,
                 journal: Optional[str] = None):
        """``journal`` (default: ``$REPRO_STORE_JOURNAL``) names an
        append-only file that receives one JSON line per *committed*
        entry.  Unlike the entries themselves -- which overwrite, so a
        re-generation of one key leaves no trace -- the journal is a
        cross-process record of how many generations actually committed,
        which is exactly what the multi-worker single-flight invariant
        ("N processes, one cold key, one generation") is asserted
        against in the benchmarks and the chaos tests."""
        self.root = os.path.abspath(root or default_cache_dir())
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        env_journal = os.environ.get(ENV_STORE_JOURNAL, "").strip()
        self.journal = journal if journal is not None \
            else (env_journal or None)
        self.journal_writes = 0
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError as exc:
            raise StoreError(
                f"cannot create kernel cache root {self.root!r}: {exc}")
        self._lock = threading.Lock()        # hot layer + counters only
        self._evict_lock = threading.Lock()  # one eviction scan at a time
        self._hot: LruMap[GenerationResult] = LruMap(hot_capacity)
        self.hot_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.evictions = 0
        self.evictions_by_shard: Dict[str, int] = {}
        self.corrupt_dropped = 0
        self.migrated = self._migrate_flat_entries()

    # -- paths ---------------------------------------------------------------

    def _shard_of(self, key: str) -> str:
        return key[:2]

    def _entry_dir(self, key: str) -> str:
        return os.path.join(self.root, self._shard_of(key), key)

    def _migrate_flat_entries(self) -> int:
        """Move flat entries (``<root>/<key>/``) into their shards.

        The sharded lookups never see an entry sitting directly under the
        root -- which is where a hand-restored backup, an rsync of
        individual entries, or an external writer unaware of the fanout
        puts them.  Any committed entry found there (a directory named by
        a full 64-hex key and containing ``meta.json``) is renamed into
        ``<root>/<key[:2]>/``;
        when the sharded copy already exists, the flat duplicate is simply
        dropped.  Runs once per store construction; an already-sharded or
        empty root is a cheap no-op scan.
        """
        moved = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        for name in names:
            flat = os.path.join(self.root, name)
            if not _is_key_name(name) or not os.path.isdir(flat):
                continue        # shard dirs, user files: not flat entries
            if not os.path.exists(os.path.join(flat, self.META_NAME)):
                continue        # uncommitted debris, not an entry
            target = os.path.join(self.root, self._shard_of(name), name)
            if os.path.exists(target):
                shutil.rmtree(flat, ignore_errors=True)
                continue
            os.makedirs(os.path.dirname(target), exist_ok=True)
            try:
                os.replace(flat, target)
                moved += 1
            except OSError:
                # Cross-device or concurrent rename: leave the flat entry
                # in place (it is ignored by the sharded lookups).
                continue
        return moved

    # -- KernelStore API -----------------------------------------------------

    def get(self, key: str) -> Optional[GenerationResult]:
        with self._lock:
            hot = self._hot.get(key)
            if hot is not None:
                self.hot_hits += 1
        if hot is not None:
            # Keep the on-disk LRU clock honest: without this, an entry
            # served only from the hot layer looks idle to _evict() and
            # the most-used kernels would be evicted first on bounded
            # stores.
            try:
                os.utime(os.path.join(self._entry_dir(key),
                                      self.META_NAME))
            except OSError:
                pass
            return hot

        entry = self._entry_dir(key)
        meta_path = os.path.join(entry, self.META_NAME)
        payload_path = os.path.join(entry, self.PAYLOAD_NAME)
        if not os.path.exists(meta_path):
            with self._lock:
                self.misses += 1
            return None
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                json.load(handle)
            with open(payload_path, "rb") as handle:
                result = pickle.load(handle)
            if not isinstance(result, GenerationResult):
                raise TypeError(
                    f"payload is {type(result).__name__}, "
                    f"expected GenerationResult")
        except Exception:
            # Torn write, truncated pickle, schema drift: quarantine the
            # entry and treat it as a miss so the caller regenerates.
            self._drop_entry(key)
            with self._lock:
                self.corrupt_dropped += 1
                self.misses += 1
            return None
        # Touch the metadata so LRU eviction sees the access.
        try:
            os.utime(meta_path)
        except OSError:
            pass
        with self._lock:
            self._hot.insert(key, result)
            self.disk_hits += 1
        return result

    def put(self, key: str, result: GenerationResult,
            meta: Optional[Dict[str, object]] = None) -> None:
        entry = self._entry_dir(key)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        doc = _describe(key, result, meta)
        doc["payload_bytes"] = len(payload)
        doc["schema"] = _schema_version()
        # With many writer *processes* sharing the store, a concurrent
        # LRU eviction (or purge) in another process can rmtree this
        # entry directory between our makedirs and a staged write,
        # surfacing as FileNotFoundError mid-commit (or as FileExistsError
        # from makedirs, when the rmtree lands between its mkdir and its
        # isdir check).  Re-create and retry: the commit protocol itself
        # (meta.json last, every file atomically replaced) keeps readers
        # safe throughout.
        for attempt in range(3):
            try:
                os.makedirs(entry, exist_ok=True)
                atomic_write_bytes(os.path.join(entry, self.CODE_NAME),
                                   result.c_code.encode("utf-8"))
                atomic_write_bytes(os.path.join(entry, self.PAYLOAD_NAME),
                                   payload)
                # meta.json last: it is the commit marker.
                atomic_write_bytes(
                    os.path.join(entry, self.META_NAME),
                    json.dumps(doc, indent=2,
                               sort_keys=True).encode("utf-8"))
                break
            except (FileNotFoundError, FileExistsError):
                if attempt == 2:
                    raise
        self._journal_append(key, doc)
        with self._lock:
            self._hot.insert(key, result)
        self._evict()

    def _journal_append(self, key: str, doc: Dict[str, object]) -> None:
        """One line per commit, append-only, cross-process (O_APPEND: a
        single small write never interleaves on a local filesystem)."""
        if not self.journal:
            return
        line = json.dumps({
            "key": key, "pid": os.getpid(),
            "program": doc.get("program"),
            "created_at": doc.get("created_at"),
        }, sort_keys=True) + "\n"
        fd = os.open(self.journal,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        with self._lock:
            self.journal_writes += 1

    def delete(self, key: str) -> bool:
        existed = os.path.exists(
            os.path.join(self._entry_dir(key), self.META_NAME))
        self._drop_entry(key)
        return existed

    def _drop_entry(self, key: str) -> None:
        with self._lock:
            self._hot.pop(key)
        shutil.rmtree(self._entry_dir(key), ignore_errors=True)

    def _shard_names(self) -> List[str]:
        try:
            return sorted(name for name in os.listdir(self.root)
                          if _is_shard_name(name)
                          and os.path.isdir(os.path.join(self.root, name)))
        except OSError:
            return []

    def _shard_keys(self, shard: str) -> List[str]:
        shard_dir = os.path.join(self.root, shard)
        try:
            names = sorted(os.listdir(shard_dir))
        except OSError:
            return []
        return [key for key in names
                if os.path.exists(os.path.join(shard_dir, key,
                                               self.META_NAME))]

    def keys(self) -> List[str]:
        found: List[str] = []
        for shard in self._shard_names():
            found.extend(self._shard_keys(shard))
        return found

    def metadata(self, key: str) -> Optional[Dict[str, object]]:
        meta_path = os.path.join(self._entry_dir(key), self.META_NAME)
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def purge(self) -> int:
        count = len(self.keys())
        with self._lock:
            self._hot.clear()
            self.evictions_by_shard.clear()
        # Only the store's own directories: shards and any flat key-named
        # leftovers.  Foreign directories at the root (the same ones
        # migration refuses to move) survive a purge too.
        for name in os.listdir(self.root):
            if _is_shard_name(name) or _is_key_name(name):
                shutil.rmtree(os.path.join(self.root, name),
                              ignore_errors=True)
        return count

    # -- eviction ------------------------------------------------------------

    def _entry_bytes(self, key: str) -> int:
        entry = self._entry_dir(key)
        total = 0
        try:
            for name in os.listdir(entry):
                total += os.path.getsize(os.path.join(entry, name))
        except OSError:
            pass
        return total

    def _evict(self) -> None:
        if self.max_entries is None and self.max_bytes is None:
            return
        with self._evict_lock:
            keys = self.keys()
            # Oldest access first (meta.json mtime is refreshed on every
            # hit).  Ties are broken by key: on filesystems with coarse
            # (1 s) mtime resolution, entries touched in the same second
            # would otherwise evict in directory-listing order, which is
            # not stable across filesystems or runs.
            def lru_rank(key: str) -> "tuple":
                try:
                    stamp = os.path.getmtime(
                        os.path.join(self._entry_dir(key), self.META_NAME))
                except OSError:
                    stamp = 0.0
                return (stamp, key)
            keys.sort(key=lru_rank)
            total_bytes = sum(self._entry_bytes(k) for k in keys) \
                if self.max_bytes is not None else 0
            while keys:
                over_entries = (self.max_entries is not None
                                and len(keys) > self.max_entries)
                over_bytes = (self.max_bytes is not None
                              and total_bytes > self.max_bytes)
                if not over_entries and not over_bytes:
                    break
                victim = keys.pop(0)
                if self.max_bytes is not None:
                    total_bytes -= self._entry_bytes(victim)
                self._drop_entry(victim)
                shard = self._shard_of(victim)
                with self._lock:
                    self.evictions += 1
                    self.evictions_by_shard[shard] = \
                        self.evictions_by_shard.get(shard, 0) + 1

    def shard_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-shard accounting: entry/byte counts, LRU age, evictions.

        One dict per populated shard (plus any shard that has seen an
        eviction), keyed by the two-hex-character shard name:
        ``entries`` and ``bytes`` size the shard, ``evictions`` counts
        LRU victims taken from it over this instance's lifetime,
        ``lru_age_s`` is the age of its least-recently-used entry (how
        close the shard's coldest kernel is to eviction on a bounded
        store), and ``lru_key`` names that entry.  LRU order matches
        :meth:`_evict`: oldest mtime first, same-second ties broken by
        key, so the reported victim candidate is deterministic even on
        filesystems with 1 s mtime resolution.
        """
        now = time.time()
        with self._lock:
            evictions_by_shard = dict(self.evictions_by_shard)
        shards: Dict[str, Dict[str, object]] = {}
        for shard in self._shard_names():
            keys = self._shard_keys(shard)
            if not keys:
                continue
            oldest: Optional[Tuple[float, str]] = None
            for key in sorted(keys):
                try:
                    mtime = os.path.getmtime(os.path.join(
                        self._entry_dir(key), self.META_NAME))
                except OSError:
                    continue
                if oldest is None or (mtime, key) < oldest:
                    oldest = (mtime, key)
            shards[shard] = {
                "entries": len(keys),
                "bytes": sum(self._entry_bytes(k) for k in keys),
                "evictions": evictions_by_shard.get(shard, 0),
                "lru_age_s": (max(0.0, now - oldest[0])
                              if oldest is not None else 0.0),
                "lru_key": oldest[1] if oldest is not None else "",
            }
        for shard, count in evictions_by_shard.items():
            shards.setdefault(shard, {"entries": 0, "bytes": 0,
                                      "evictions": count,
                                      "lru_age_s": 0.0,
                                      "lru_key": ""})
        return shards

    def stats(self, shard_stats: Optional[Dict[str, Dict[str, object]]]
              = None) -> Dict[str, object]:
        """Store-wide statistics.  ``shard_stats`` (a
        :meth:`shard_stats` result) lets a caller that already paid the
        disk scan (e.g. ``GET /stats``) reuse it instead of walking the
        store a second time; entries/bytes/shard counts are derived from
        it either way, so one scan serves both views.  No disk I/O
        happens while the hot-layer lock is held."""
        shards = shard_stats if shard_stats is not None \
            else self.shard_stats()
        entries = sum(int(doc["entries"]) for doc in shards.values())
        total = sum(int(doc["bytes"]) for doc in shards.values())
        populated = sum(1 for doc in shards.values() if doc["entries"])
        with self._lock:
            return {
                "backend": "disk",
                "root": self.root,
                "entries": entries,
                "bytes": total,
                "shards": populated,
                "hot_entries": len(self._hot),
                "hot_hits": self.hot_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "migrated": self.migrated,
                "corrupt_dropped": self.corrupt_dropped,
                "journal_writes": self.journal_writes,
            }


def _schema_version() -> int:
    from .keys import KEY_SCHEMA_VERSION
    return KEY_SCHEMA_VERSION
