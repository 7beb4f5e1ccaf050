"""Persistent, content-addressed storage for generated kernels.

The store maps a :func:`~repro.service.keys.cache_key` to a
:class:`~repro.slingen.generator.GenerationResult`.  Two backends ship:

* :class:`MemoryKernelStore` -- a bounded in-process LRU dict, useful for
  tests and for serving from a warm process without touching disk.
* :class:`DiskKernelStore` -- the persistent backend, a codec over the
  shared record store :class:`repro.ioutil.ShardedStore`.

**On-disk layout.**  Each kernel is one file,
``<root>/<key[:2]>/<key>.kernel``: one line of compact sorted-key JSON
metadata (program, variant, cycles, flops/cycle, sizes, creation time),
a newline, then the pickled :class:`GenerationResult`.  Keys are SHA-256
hex, so the two-character shard directories spread entries uniformly
and ``os.listdir`` on a shard stays cheap however many kernels
accumulate.  A file is committed by one atomic write (temp file +
``os.replace``), so readers never see a torn entry; reading
:meth:`DiskKernelStore.metadata` parses the first line only and
unpickles nothing.  Any undecodable entry (torn by a crash, bit-flipped,
not a ``GenerationResult``) is quarantined and reported as a miss, so a
damaged cache degrades to regeneration, never to an exception.

Bounds (``max_entries`` and/or ``max_bytes``) are enforced by the record
store's least-recently-used eviction: every hit refreshes the entry's
mtime.  A small in-memory hot layer lets repeated hits in one process
skip deserialization.  All public methods are thread-safe, so a single
store can back the concurrent :class:`~repro.service.service.KernelService`
and the HTTP daemon directly.

Entry directories of the earlier directory-per-entry layout
(``<root>/<key[:2]>/<key>/``) are not read: the scans skip them, so they
read as misses and regenerate (a result is a pure function of its key),
and ``purge`` leaves them for the operator to delete.

Subclass :class:`KernelStore` to add further backends (an object store, a
memcached tier, ...) without touching the service.
"""

from __future__ import annotations

import abc
import json
import os
import pickle
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..errors import StoreError
from ..ioutil import ShardedStore, cache_root
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


#: A kernel-store record: the metadata line and the result it describes.
_Entry = Tuple[Dict[str, object], GenerationResult]


def _encode(entry: _Entry) -> bytes:
    meta, result = entry
    payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    head = json.dumps({**meta, "payload_bytes": len(payload)},
                      sort_keys=True, separators=(",", ":"))
    return head.encode("utf-8") + b"\n" + payload


def _decode(data: bytes) -> _Entry:
    head, _, payload = data.partition(b"\n")
    meta = json.loads(head)
    result = pickle.loads(payload)
    if not isinstance(result, GenerationResult):
        raise TypeError(f"payload is {type(result).__name__}, "
                        f"expected GenerationResult")
    return meta, result


class DiskKernelStore(KernelStore):
    """The persistent disk backend (see module docstring for the layout).

    Thread-safe without serializing disk traffic: the record store's
    short-held lock guards only its hot layer and counters, and a
    concurrent overwrite of one entry is harmless since results are a
    pure function of the key.  Distinct-key requests from the HTTP
    daemon's handler threads therefore proceed in parallel.
    """

    SUFFIX = ".kernel"

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
        env_journal = os.environ.get(ENV_STORE_JOURNAL, "").strip()
        self.journal = journal if journal is not None \
            else (env_journal or None)
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError as exc:
            raise StoreError(
                f"cannot create kernel cache root {self.root!r}: {exc}")
        self._store: ShardedStore[_Entry] = ShardedStore(
            self.root, self.SUFFIX, encode=_encode, decode=_decode,
            hot_capacity=hot_capacity, max_bytes=max_bytes,
            max_entries=max_entries)
        self._lock = threading.Lock()        # journal_writes only
        self.journal_writes = 0

    # -- KernelStore API -----------------------------------------------------

    def get(self, key: str) -> Optional[GenerationResult]:
        entry = self._store.get(key)
        return None if entry is None else entry[1]

    def put(self, key: str, result: GenerationResult,
            meta: Optional[Dict[str, object]] = None) -> None:
        doc = _describe(key, result, meta)
        doc["schema"] = _schema_version()
        self._store.put(key, (doc, result))
        self._journal_append(key, doc)

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
        return self._store.delete(key)

    def keys(self) -> List[str]:
        return self._store.keys()

    def metadata(self, key: str) -> Optional[Dict[str, object]]:
        try:
            with open(self._store.path(key), "rb") as handle:
                return json.loads(handle.readline())
        except (OSError, ValueError):
            return None

    def purge(self) -> int:
        return self._store.purge()

    def stats(self) -> Dict[str, object]:
        """Store-wide statistics; entries and bytes come from a fresh
        scan, so they include other processes' writes."""
        found = self._store.scan()
        counts = self._store.counters("hits", "hot_hits", "misses",
                                      "evictions", "corrupt_dropped")
        with self._lock:
            journal_writes = self.journal_writes
        return {
            "backend": "disk",
            "root": self.root,
            "entries": len(found),
            "bytes": sum(size for _, _, size in found),
            "hot_hits": counts["hot_hits"],
            "disk_hits": counts["hits"] - counts["hot_hits"],
            "misses": counts["misses"],
            "evictions": counts["evictions"],
            "corrupt_dropped": counts["corrupt_dropped"],
            "journal_writes": journal_writes,
        }


def _schema_version() -> int:
    from .keys import KEY_SCHEMA_VERSION
    return KEY_SCHEMA_VERSION
