"""Contract tests for :class:`repro.ioutil.ShardedStore` and its four
adapters: the kernel store, the tuning database, the fix bank and the
persistent phase cache.

Each adapter is driven through the same cases -- round trip, on-disk
layout and encoding, quarantine of a corrupt entry, hot hits that skip
the disk, scans that leave foreign files alone, least-recently-used
eviction -- so the shared primitive's contract is pinned once for every
store built on it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import pickle
import sys
import threading
import time

import pytest

from repro.cegis.fixbank import FixBank, FixRecord
from repro.ioutil import LruMap, atomic_publish, atomic_write_bytes
from repro.pipeline.cache import PersistentPhaseStore, PhaseCache
from repro.service import DiskKernelStore, KEY_SCHEMA_VERSION, make_request
from repro.slingen import Options, SLinGen
from repro.tuning.db import TuningDB, TuningRecord

KEY = "ab" * 32


class _RecordAdapter:
    """A JSON record store (tuning DB, fix bank) in the contract's terms."""

    suffix = ".json"
    ns = ""

    def __init__(self, store_cls, make_value):
        self.store_cls = store_cls
        self.make_value = make_value

    def make(self, root):
        return self.store_cls(root=str(root))

    def put(self, store, key, value):
        store.put(key, value)

    def get(self, store, key):
        return store.get(key)

    def path(self, store, key):
        return store._record_path(key)

    def encoded(self, key, value):
        return json.dumps(value.to_json(), indent=2,
                          sort_keys=True).encode("utf-8")

    def misses(self, store):
        return store.stats()["misses"]

    def corrupt_dropped(self, store):
        return store.stats()["corrupt_dropped"]

    def hot_view(self, store):
        """The store's hot layer and a probe for disk reads it made."""
        return store.get, lambda: store.stats()["hits"] - store.hot_hits

    def backing(self, store):
        """The :class:`ShardedStore` that evicts the adapter's entries."""
        return store


class _PhaseAdapter:
    """The persistent phase cache; its hot layer is :class:`PhaseCache`."""

    suffix = ".pkl"
    ns = "optimize"

    def make(self, root):
        return PersistentPhaseStore(str(root), max_bytes=None)

    def make_value(self, key):
        return {"key": key, "body": list(range(16))}

    def put(self, store, key, value):
        store.put(self.ns, key, value)

    def get(self, store, key):
        return store.get(self.ns, key)

    def path(self, store, key):
        return store._path(self.ns, key)

    def encoded(self, key, value):
        return pickle.dumps(value)

    def misses(self, store):
        stats = store.stats()
        return stats["reads"] - stats["disk_hits"]

    def corrupt_dropped(self, store):
        return store.stats()["corrupt_dropped"]

    def hot_view(self, store):
        cache = PhaseCache(persistent=store)
        return (lambda key: cache.get(self.ns, key),
                lambda: store.stats()["reads"])

    def backing(self, store):
        return store


@functools.lru_cache(maxsize=None)
def _generated_kernel():
    request = make_request("potrf:4", options=Options(max_variants=4))
    return SLinGen(request.options).generate_result(
        request.program, nominal_flops=request.nominal_flops)


class _KernelAdapter:
    """The kernel store: JSON metadata line + pickled GenerationResult."""

    suffix = ".kernel"
    ns = ""

    def make(self, root):
        return DiskKernelStore(root=str(root))

    def make_value(self, key):
        # The C-IR Function and the LA Program compare by identity, so
        # they are dropped to let a round trip compare equal.
        return dataclasses.replace(_generated_kernel(), program_name=key,
                                   function=None, basic_program=None)

    def put(self, store, key, value):
        store.put(key, value, meta={"created_at": 1.0})

    def get(self, store, key):
        return store.get(key)

    def path(self, store, key):
        return store._store.path(key)

    def encoded(self, key, value):
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        meta = {"key": key, "program": value.program_name,
                "variant": value.variant_label,
                "cycles": value.performance.cycles,
                "flops_per_cycle": value.performance.flops_per_cycle,
                "bottleneck": value.performance.bottleneck,
                "candidates_evaluated": len(value.candidates),
                "created_at": 1.0, "payload_bytes": len(payload),
                "schema": KEY_SCHEMA_VERSION}
        return (json.dumps(meta, sort_keys=True, separators=(",", ":"))
                .encode("utf-8") + b"\n" + payload)

    def misses(self, store):
        return store.stats()["misses"]

    def corrupt_dropped(self, store):
        return store.stats()["corrupt_dropped"]

    def hot_view(self, store):
        return store.get, lambda: store.stats()["disk_hits"]

    def backing(self, store):
        return store._store


def _tuning_record(key):
    return TuningRecord(
        key=key, program_name="potrf", label="potrf:4", strategy="grid",
        backend="model", unit="cycles", budget=4, seed=0, evaluations=4,
        best_label="v0", best_score=100.0, baseline_score=120.0,
        options={"vectorize": True}, stage1_variants={0: "blocked"},
        created_at=1.0)


def _fix_record(key):
    return FixRecord(key=key, program_name="potrf", label="potrf:4",
                     seed=0, budget=2, backends=["interpreter"], tol=1e-9,
                     ref_tol=1e-6, accepted=["fuse-scalar"], created_at=1.0)


TUNING = _RecordAdapter(TuningDB, _tuning_record)
FIXBANK = _RecordAdapter(FixBank, _fix_record)
PHASE = _PhaseAdapter()
KERNEL = _KernelAdapter()
ADAPTERS = pytest.mark.parametrize(
    "adapter", [TUNING, FIXBANK, PHASE, KERNEL],
    ids=["tuning", "fixbank", "phase", "kernel"])


@ADAPTERS
def test_round_trip_across_instances(adapter, tmp_path):
    value = adapter.make_value(KEY)
    adapter.put(adapter.make(tmp_path), KEY, value)
    assert adapter.get(adapter.make(tmp_path), KEY) == value


@ADAPTERS
def test_on_disk_path_and_encoding_unchanged(adapter, tmp_path):
    store = adapter.make(tmp_path)
    value = adapter.make_value(KEY)
    adapter.put(store, KEY, value)
    expected = os.path.join(str(tmp_path), adapter.ns, KEY[:2],
                            KEY + adapter.suffix)
    assert adapter.path(store, KEY) == expected
    with open(expected, "rb") as handle:
        assert handle.read() == adapter.encoded(KEY, value)


@ADAPTERS
def test_corrupt_entry_is_quarantined_as_miss(adapter, tmp_path):
    adapter.put(adapter.make(tmp_path), KEY, adapter.make_value(KEY))
    store = adapter.make(tmp_path)                  # cold hot layer
    path = adapter.path(store, KEY)
    with open(path, "wb") as handle:
        handle.write(b"{ neither json nor a pickle")
    assert adapter.get(store, KEY) is None
    assert not os.path.exists(path)
    assert adapter.corrupt_dropped(store) == 1
    assert adapter.misses(store) == 1


@ADAPTERS
def test_hot_hit_skips_the_disk(adapter, tmp_path):
    value = adapter.make_value(KEY)
    adapter.put(adapter.make(tmp_path), KEY, value)
    store = adapter.make(tmp_path)
    get, disk_reads = adapter.hot_view(store)
    assert get(KEY) == value                        # read from disk ...
    assert disk_reads() == 1
    os.unlink(adapter.path(store, KEY))             # ... and promoted
    assert get(KEY) == value
    assert disk_reads() == 1


@ADAPTERS
def test_scans_leave_foreign_files_alone(adapter, tmp_path):
    root = str(tmp_path)
    foreign = [
        os.path.join(root, "notes" + adapter.suffix),
        os.path.join(root, "mine", KEY + adapter.suffix),
        os.path.join(root, "other", KEY[:2], KEY + adapter.suffix),
        os.path.join(root, adapter.ns, KEY[:2], "readme.txt"),
        os.path.join(root, adapter.ns, "zz", "zz" + adapter.suffix),
    ]
    for path in foreign:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"not the store's")
    store = adapter.make(tmp_path)
    keys = [KEY, "cd" * 32]
    for key in keys:
        adapter.put(store, key, adapter.make_value(key))
    if adapter is not PHASE:
        assert store.keys() == keys
    assert store.purge() == 2
    for key in keys:
        adapter.put(store, key, adapter.make_value(key))
    backing = adapter.backing(store)
    assert backing.gc(0) == 2
    assert backing.total_bytes() == 0
    assert all(os.path.exists(path) for path in foreign)


@pytest.mark.parametrize("adapter, hot", [
    (TUNING, False), (FIXBANK, False), (PHASE, False), (KERNEL, False),
    (TUNING, True), (FIXBANK, True), (KERNEL, True),
], ids=["tuning", "fixbank", "phase", "kernel",
        "tuning-hot", "fixbank-hot", "kernel-hot"])
def test_a_hit_protects_an_entry_from_gc(adapter, hot, tmp_path):
    """gc evicts by last access, not by last write: a hit -- served from
    the disk or from the store's hot layer -- refreshes the entry's LRU
    clock.  (The phase store's hot layer is :class:`PhaseCache`, whose
    hits never reach the store.)"""
    store = adapter.make(tmp_path)
    read, written = KEY, "cd" * 32
    for key in (read, written):
        adapter.put(store, key, adapter.make_value(key))
    past = time.time() - 1000
    os.utime(adapter.path(store, read), (past, past))
    os.utime(adapter.path(store, written), (past + 1, past + 1))
    reader = store if hot else adapter.make(tmp_path)
    assert adapter.get(reader, read) == adapter.make_value(read)
    size = os.path.getsize(adapter.path(store, read))
    assert adapter.backing(store).gc(size) == 1
    assert os.path.exists(adapter.path(store, read))
    assert not os.path.exists(adapter.path(store, written))


@pytest.mark.parametrize("commit", ["write", "publish"])
def test_failed_commit_leaves_no_staging_file(commit, tmp_path,
                                              monkeypatch):
    source = tmp_path / "source.so"
    source.write_bytes(b"\x7fELF")
    target = str(tmp_path / "ab" / "entry.bin")
    os.makedirs(os.path.dirname(target))

    def no_space(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", no_space)
    with pytest.raises(OSError):
        if commit == "write":
            atomic_write_bytes(target, b"payload")
        else:
            atomic_publish(str(source), target)
    assert os.listdir(os.path.dirname(target)) == []


@pytest.mark.parametrize("adapter", [TUNING, FIXBANK],
                         ids=["tuning", "fixbank"])
def test_concurrent_gets_under_hot_eviction(adapter, tmp_path):
    """The threaded daemon shares one store across handler threads: a
    hot layer that evicts on every disk read must neither raise nor drop
    counts when lookups race."""
    store = adapter.make(tmp_path)
    keys = [f"{index:02x}" * 32 for index in range(3)]
    for key in keys:
        adapter.put(store, key, adapter.make_value(key))
    store._hot = LruMap(2)      # three keys, two slots: every miss evicts
    errors = []
    rounds = 5000

    def lookups(offset):
        try:
            for index in range(rounds):
                assert store.get(keys[(index + offset) % 3]) is not None
        except Exception as exc:     # reported by the assertion below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lookups, args=(offset,))
                   for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    stats = store.stats()
    assert stats["misses"] == 0
    assert stats["hits"] == 4 * rounds
