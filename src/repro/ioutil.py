"""Small filesystem helpers shared by the caches.

Kept in a leaf module so every persistent layer -- the object and
NumPy-source caches, and the :class:`ShardedStore` record stores behind
the kernel store, the tuning database, the fix bank and the persistent
phase cache -- uses one implementation of the atomic-write protocol, the
shard layout, the eviction policy and the cache-directory convention
without layering inversions.
"""

from __future__ import annotations

import os
import shutil
import string
import threading
from collections import OrderedDict
from typing import (Callable, Dict, Generic, Iterator, List, Optional,
                    Sequence, Tuple, TypeVar)

_V = TypeVar("_V")

#: Shard directories are exactly two lowercase-hex characters; anything
#: else under a store root is someone else's file.
_HEX_CHARS = frozenset(string.hexdigits.lower())

#: :meth:`ShardedStore.gc` evicts below this fraction of the bound so
#: back-to-back puts near the limit do not each pay a collection.
GC_LOW_WATER = 0.9


def _is_shard_name(name: str) -> bool:
    return len(name) == 2 and set(name) <= _HEX_CHARS


class LruMap(Generic[_V]):
    """A small bounded mapping with least-recently-used eviction.

    The in-memory hot layer of :class:`ShardedStore` and of
    :class:`repro.pipeline.cache.PhaseCache`: capacity 0 disables it
    entirely.  Not thread-safe on its own -- its owners guard it with
    their lock.
    """

    def __init__(self, capacity: int):
        self.capacity = max(0, capacity)
        self._entries: "OrderedDict[str, _V]" = OrderedDict()

    def get(self, key: str) -> Optional[_V]:
        """The cached value (refreshing its recency), or None."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def insert(self, key: str, value: _V) -> None:
        if self.capacity == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def pop(self, key: str) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def _commit(path: str, stage: Callable[[str], object]) -> None:
    """Let ``stage`` write a private temp file, then ``os.replace`` it to
    ``path``.  A failed write or replace (ENOSPC, a vanished directory)
    unlinks the temp file before re-raising: scans and purges never see
    staging files, so nothing else would ever remove it."""
    staged = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
    try:
        stage(staged)
        os.replace(staged, path)
    except BaseException:
        try:
            os.unlink(staged)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so readers never observe a torn file.

    Stages to a private temp file (unique per process *and* thread, so
    concurrent writers of the same path each stage separately) and commits
    with ``os.replace``, which is atomic on POSIX within one filesystem.
    """
    def stage(staged: str) -> None:
        with open(staged, "wb") as handle:
            handle.write(data)
    _commit(path, stage)


def atomic_publish(source_path: str, path: str) -> None:
    """Atomically publish an existing file (e.g. a compiled ``.so``) at
    ``path`` by staging a copy next to it and ``os.replace``-ing."""
    _commit(path, lambda staged: shutil.copyfile(source_path, staged))


def cache_root(env_var: str, subdir: str) -> str:
    """Resolve a cache directory: ``$<env_var>`` when set, otherwise
    ``~/.cache/repro-slingen/<subdir>`` (all repro caches share a parent)."""
    env = os.environ.get(env_var, "").strip()
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-slingen",
                        subdir)


def _listdir(path: str) -> List[str]:
    try:
        return sorted(os.listdir(path))
    except OSError:
        return []


class ShardedStore(Generic[_V]):
    """A persistent content-addressed store, one file per key at
    ``<root>/<ns>/<key[:2]>/<key><suffix>`` (``ns`` in ``namespaces``;
    ``""`` puts the shards directly under the root), written atomically
    and read through the ``encode``/``decode`` codec.  An entry that fails
    to read or decode is quarantined: unlinked, counted in
    ``corrupt_dropped`` and returned as a miss.  The hot :class:`LruMap`
    keeps positive lookups only, so a miss sees other processes' writes.
    Every hit, hot or disk, refreshes the entry's mtime, which is the
    clock of the one eviction policy, least-recently-used :meth:`gc`; a
    put past ``max_bytes`` or ``max_entries`` runs it.  Scans see only
    two-hex shard directories and files with the suffix, so foreign files
    under a shared root survive.  One lock guards the hot layer, the
    counters and the byte total."""

    def __init__(self, root: str, suffix: str,
                 encode: Callable[[_V], bytes],
                 decode: Callable[[bytes], _V],
                 hot_capacity: int = 128,
                 max_bytes: Optional[int] = None,
                 namespaces: Sequence[str] = ("",),
                 max_entries: Optional[int] = None):
        self.root = root
        self.suffix = suffix
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.namespaces = tuple(namespaces)
        self._encode = encode
        self._decode = decode
        self._lock = threading.Lock()
        self._hot: LruMap[_V] = LruMap(hot_capacity)
        self._total_bytes: Optional[int] = None  # scanned lazily
        self.hits = self.misses = self.hot_hits = self.writes = 0
        self.corrupt_dropped = self.evictions = 0

    def path(self, key: str, ns: str = "") -> str:
        return os.path.join(self.root, ns, key[:2], key + self.suffix)

    def get(self, key: str, ns: str = "") -> Optional[_V]:
        """The stored value, or None (missing or quarantined-corrupt)."""
        path = self.path(key, ns)
        with self._lock:
            value = self._hot.get(path)
            if value is not None:
                self.hits += 1
                self.hot_hits += 1
        if value is None:
            try:
                with open(path, "rb") as handle:
                    value = self._decode(handle.read())
            except FileNotFoundError:
                with self._lock:
                    self.misses += 1
                return None
            except Exception:
                self._unlink(path, corrupt=True)
                return None
            with self._lock:
                self._hot.insert(path, value)
                self.hits += 1
        try:
            os.utime(path)      # the LRU clock of gc()
        except OSError:
            pass                # deleted meanwhile: the hit still stands
        return value

    def put(self, key: str, value: _V, ns: str = "") -> None:
        path = self.path(key, ns)
        blob = self._encode(value)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        try:
            replaced = os.path.getsize(path)
        except OSError:
            replaced = 0
        atomic_write_bytes(path, blob)
        with self._lock:
            self._hot.insert(path, value)
            self.writes += 1
            if self._total_bytes is not None:
                self._total_bytes = max(
                    0, self._total_bytes + len(blob) - replaced)
            collect = (self.max_entries is not None
                       or (self.max_bytes is not None
                           and self._scan_locked() > self.max_bytes))
        if collect:
            self.gc()

    def delete(self, key: str) -> bool:
        return self._unlink(self.path(key))

    def _unlink(self, path: str, corrupt: bool = False) -> bool:
        """Remove one entry, keeping the hot layer and byte total in step;
        a ``corrupt`` entry also counts as quarantined and missed."""
        try:
            size = os.path.getsize(path)
            os.unlink(path)
        except OSError:
            size = -1
        with self._lock:
            self._hot.pop(path)
            if self._total_bytes is not None and size > 0:
                self._total_bytes = max(0, self._total_bytes - size)
            if corrupt:
                self.corrupt_dropped += 1
                self.misses += 1
        return size >= 0

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path(key))

    def __len__(self) -> int:
        return len(self.keys())

    def _paths(self, namespaces: Sequence[str]) -> Iterator[str]:
        for ns in namespaces:
            base = os.path.join(self.root, ns)
            for shard in filter(_is_shard_name, _listdir(base)):
                for name in _listdir(os.path.join(base, shard)):
                    if name.startswith(shard) and name.endswith(self.suffix):
                        yield os.path.join(base, shard, name)

    def keys(self) -> List[str]:
        """The sorted keys of the default (``""``) namespace."""
        return [os.path.basename(path)[:-len(self.suffix)]
                for path in self._paths(("",))]

    def records(self) -> Iterator[_V]:
        """Every decodable value (corrupt ones are quarantined as usual)."""
        return (value for value in map(self.get, self.keys())
                if value is not None)

    def scan(self) -> List[Tuple[float, str, int]]:
        """Every entry of every namespace as ``(mtime, path, size)``,
        listed afresh (so other processes' writes count)."""
        found: List[Tuple[float, str, int]] = []
        for path in self._paths(self.namespaces):
            try:
                info = os.stat(path)
            except OSError:
                continue
            found.append((info.st_mtime, path, info.st_size))
        return found

    def _scan_locked(self) -> int:
        if self._total_bytes is None:
            self._total_bytes = sum(size for _, _, size in self.scan())
        return self._total_bytes

    def total_bytes(self) -> int:
        """Current on-disk size of the store (scans once, then tracks)."""
        with self._lock:
            return self._scan_locked()

    def gc(self, target_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries (oldest mtime first, ties
        broken by path) until at most ``max_entries`` remain and the tree
        fits ``target_bytes`` (default: :data:`GC_LOW_WATER` of
        ``max_bytes``); a no-op when unbounded.  Returns how many were
        removed."""
        if target_bytes is None and self.max_bytes is not None:
            target_bytes = int(self.max_bytes * GC_LOW_WATER)
        if target_bytes is None and self.max_entries is None:
            return 0
        with self._lock:
            entries = sorted(self.scan())
            total = sum(size for _, _, size in entries)
            removed = 0
            while entries and (
                    (target_bytes is not None and total > target_bytes)
                    or (self.max_entries is not None
                        and len(entries) > self.max_entries)):
                _mtime, path, size = entries.pop(0)
                try:
                    os.unlink(path)
                except OSError:
                    continue   # a concurrent writer or purge got there
                self._hot.pop(path)
                total -= size
                removed += 1
            self._total_bytes = total
            self.evictions += removed
        return removed

    def purge(self) -> int:
        """Remove every entry; returns how many were removed."""
        with self._lock:
            self._hot.clear()
        return self.gc(target_bytes=-1)

    def counters(self, *names: str) -> Dict[str, int]:
        """A consistent snapshot of the named counters."""
        with self._lock:
            return {name: getattr(self, name) for name in names}
