"""Multi-process serving tests: cross-process single-flight leases, the
pre-forked worker pool, and the disk store under multi-writer load.

Everything here runs real processes (``multiprocessing`` ``"fork"``
context) against one shared :class:`DiskKernelStore` root -- the same
shape as ``python -m repro.service serve --workers N``:

* **stress**  -- 4 processes x 8 threads hammer one cold key; exactly one
  generation happens anywhere (the store journal is the witness) and all
  32 callers get byte-identical kernels.
* **chaos**   -- the lease holder is SIGKILLed mid-generation; a second
  process reaps the dead holder's lease (same-host pid liveness, no ttl
  wait) and completes; a partially committed artifact is never served.
* **torture** -- concurrent processes put/get/delete the same shards of a
  bounded store; no torn record, every surviving entry loads, and the
  entry bound still holds afterwards.
* **pool**    -- a SIGKILLed worker is replaced automatically; the CLI
  ``serve --workers 2`` drains cleanly on SIGTERM.
"""

import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import StoreError
from repro.service import (DiskKernelStore, KernelService, LeaseManager,
                           MemoryKernelStore, ServiceClient, WorkerPool,
                           make_request)
from repro.slingen import Options

try:
    _MP = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - non-POSIX
    _MP = None

pytestmark = pytest.mark.skipif(
    _MP is None, reason="needs the 'fork' multiprocessing start method")

SPEC = "potrf:4"
JOIN_TIMEOUT_S = 120.0


def _options():
    return Options(max_variants=4, annotate_code=False)


def _make_service(root, journal=None, **lease_kwargs):
    store = DiskKernelStore(root=root, journal=journal)
    return KernelService(store=store, options=_options(),
                         leases=LeaseManager.for_store(store,
                                                       **lease_kwargs))


def _journal_lines(path):
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _join_all(procs):
    for proc in procs:
        proc.join(timeout=JOIN_TIMEOUT_S)
    alive = [proc.pid for proc in procs if proc.is_alive()]
    if alive:
        for proc in procs:
            if proc.is_alive():
                proc.kill()
        pytest.fail(f"worker processes wedged: {alive}")


# -- stress: N processes x M threads, one cold key, one generation -----------


def _stress_child(root, journal, spec, threads, start, queue):
    service = _make_service(root, journal=journal)
    barrier = threading.Barrier(threads)
    hashes = [None] * threads
    errors = []

    def caller(idx):
        try:
            barrier.wait()
            response = service.generate(make_request(spec))
            hashes[idx] = hashlib.sha256(
                response.result.c_code.encode("utf-8")).hexdigest()
        except Exception as exc:  # pragma: no cover - surfaced in parent
            errors.append(repr(exc))

    start.wait()
    workers = [threading.Thread(target=caller, args=(idx,))
               for idx in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    queue.put({
        "pid": os.getpid(),
        "hashes": hashes,
        "errors": errors,
        "generations": service.stats.generations,
        "lease_stats": service.leases.stats(),
    })


class TestCrossProcessStampede:
    def test_one_generation_for_32_concurrent_callers(self, tmp_path):
        """4 processes x 8 threads on one cold key: the journal must show
        exactly one Stage 1-3 commit, and every caller the same bytes."""
        procs, threads = 4, 8
        root = str(tmp_path / "cache")
        journal = str(tmp_path / "journal.jsonl")
        start = _MP.Barrier(procs)
        queue = _MP.Queue()
        children = [
            _MP.Process(target=_stress_child,
                        args=(root, journal, SPEC, threads, start, queue))
            for _ in range(procs)]
        for child in children:
            child.start()
        _join_all(children)

        reports = [queue.get(timeout=10) for _ in range(procs)]
        for report in reports:
            assert report["errors"] == []

        lines = _journal_lines(journal)
        assert len(lines) == 1, \
            f"expected exactly 1 generation, journal shows {len(lines)}"

        hashes = [h for report in reports for h in report["hashes"]]
        assert len(hashes) == procs * threads
        assert None not in hashes
        assert len(set(hashes)) == 1, \
            "callers observed different kernel bytes"

        # The stats add up: exactly one process ran the pipeline.  Each
        # other process's flight leader either adopted through the lease
        # layer or hit the store on its pre-lease re-probe (a race both
        # of whose arms share the winner's artifact), so adoptions are
        # bounded by the losing leaders -- and nothing crashed, so
        # nothing was reaped and no follower timed out.
        assert sum(r["generations"] for r in reports) == 1
        acquired = sum(r["lease_stats"]["acquired"] for r in reports)
        adopted = sum(r["lease_stats"]["adopted"] for r in reports)
        assert acquired >= 1
        assert adopted <= procs - 1
        for report in reports:
            stats = report["lease_stats"]
            assert stats["released"] <= stats["acquired"]
            assert stats["reaped"] == 0
            assert stats["wait_timeouts"] == 0


# -- chaos: SIGKILL the lease holder mid-generation --------------------------


def _holder_child(lease_root, key, holding):
    leases = LeaseManager(lease_root)
    lease = leases.try_acquire(key)
    assert lease is not None
    holding.set()
    # "Mid-generation": hold the lease forever; the parent SIGKILLs us.
    time.sleep(600)


class TestChaos:
    def test_sigkilled_holder_is_reaped_and_key_completes(self, tmp_path):
        """A crashed holder must not wedge the key: the survivor detects
        the dead pid (no ttl wait), reaps, generates, and commits."""
        root = str(tmp_path / "cache")
        journal = str(tmp_path / "journal.jsonl")
        service = _make_service(root, journal=journal)
        request = make_request(SPEC)
        key = service.request_key(request)

        holding = _MP.Event()
        child = _MP.Process(target=_holder_child,
                            args=(service.leases.root, key, holding))
        child.start()
        assert holding.wait(timeout=30), "holder never acquired the lease"
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=30)
        assert child.exitcode == -signal.SIGKILL

        stamp = service.leases.holder(key)
        assert stamp is not None and stamp["pid"] == child.pid

        started = time.monotonic()
        response = service.generate(request)
        elapsed = time.monotonic() - started
        assert not response.cache_hit and not response.coalesced
        assert response.result.c_code
        # Dead-pid reaping is immediate -- far inside the 30 s ttl (the
        # expiry budget) and nowhere near the 120 s follower wait.
        assert elapsed < service.leases.ttl_s
        assert service.leases.stats()["reaped"] == 1
        assert len(_journal_lines(journal)) == 1
        assert service.leases.holder(key) is None

    def test_expired_lease_of_live_holder_is_reaped(self, tmp_path):
        """A live process that overstays its ttl loses the key: expiry
        alone makes the lease reapable within the ttl budget."""
        root = str(tmp_path / "cache")
        store = DiskKernelStore(root=root)
        overstayer = LeaseManager.for_store(store, ttl_s=0.2)
        lease = overstayer.try_acquire("ab" * 32)
        assert lease is not None
        time.sleep(0.3)

        service = KernelService(store=store, options=_options(),
                                leases=LeaseManager.for_store(store))
        # Same lease root, fresh manager: it must see the expired stamp.
        stamp = service.leases.holder("ab" * 32)
        assert stamp is not None
        assert service.leases._is_stale(stamp)
        assert service.leases.try_acquire("ab" * 32) is not None
        assert service.leases.stats()["reaped"] == 1
        # The displaced holder's release must not remove the new lease.
        overstayer.release(lease)
        assert service.leases.holder("ab" * 32) is not None

    def test_partial_artifact_is_never_served(self, tmp_path):
        """A staged record a writer crashed before committing is a miss,
        and the next generation commits a complete entry."""
        root = str(tmp_path / "cache")
        service = _make_service(root)
        request = make_request(SPEC)
        key = service.request_key(request)
        record = service.store._store.path(key)
        os.makedirs(os.path.dirname(record))
        with open(f"{record}.tmp-1-1", "w") as handle:
            handle.write('{"key": "torn"}\n/* torn: never committed */')

        assert service.store.get(key) is None
        response = service.generate(request)
        assert not response.cache_hit
        meta = service.store.metadata(key)
        assert meta is not None and meta["key"] == key
        assert "torn" not in response.result.c_code

    def test_corrupt_lease_stamp_does_not_wedge(self, tmp_path):
        """A torn/foreign lease file is treated as expired and reaped."""
        leases = LeaseManager(str(tmp_path / "leases"))
        key = "cd" * 32
        path = leases._lease_path(key)
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as handle:
            handle.write("{not json")
        assert leases.try_acquire(key) is not None
        assert leases.stats()["reaped"] == 1


# -- torture: concurrent writers on a bounded store --------------------------


def _torture_child(root, keys, payload, seed, queue):
    import random
    rng = random.Random(seed)
    store = DiskKernelStore(root=root, max_entries=8)
    errors = []
    for _ in range(60):
        key = rng.choice(keys)
        op = rng.random()
        try:
            if op < 0.5:
                store.put(key, payload)
            elif op < 0.9:
                result = store.get(key)
                if result is not None and result.c_code != payload.c_code:
                    errors.append(f"torn read on {key[:8]}")
            else:
                store.delete(key)
        except StoreError as exc:  # pragma: no cover - surfaced in parent
            errors.append(repr(exc))
    queue.put({"pid": os.getpid(), "errors": errors})


@pytest.fixture(scope="module")
def one_result():
    """One real GenerationResult, generated once and inherited via fork."""
    service = KernelService(store=MemoryKernelStore(), options=_options())
    return service.generate(make_request(SPEC)).result


class TestMultiWriterTorture:
    def test_concurrent_writers_keep_the_store_consistent(
            self, tmp_path, one_result):
        """4 processes put/get/delete/evict the same two shards; the
        store must come out scan-clean: every record's metadata parses,
        every entry loads, and the entry bound still holds."""
        root = str(tmp_path / "cache")
        # 12 keys packed into two shards, so eviction and commit traffic
        # collide on the same directories constantly.
        keys = [f"aa{i:062x}" for i in range(6)] + \
               [f"bb{i:062x}" for i in range(6)]
        queue = _MP.Queue()
        children = [
            _MP.Process(target=_torture_child,
                        args=(root, keys, one_result, seed, queue))
            for seed in range(4)]
        for child in children:
            child.start()
        _join_all(children)
        reports = [queue.get(timeout=10) for _ in range(4)]
        for report in reports:
            assert report["errors"] == []

        # Fresh scan of the surviving tree: nothing torn, nothing stuck.
        store = DiskKernelStore(root=root)
        survivors = store.keys()
        assert set(survivors) <= set(keys)
        for key in survivors:
            with open(store._store.path(key), "rb") as handle:
                meta = json.loads(handle.readline())   # no torn JSON
            assert meta["key"] == key
            assert store.metadata(key)["key"] == key
            loaded = store.get(key)
            assert loaded is not None
            assert loaded.c_code == one_result.c_code
        assert store.stats()["corrupt_dropped"] == 0

        # LRU accounting still enforces the bound going forward.
        bounded = DiskKernelStore(root=root, max_entries=4)
        bounded.put(f"cc{0:062x}", one_result)
        assert len(bounded.keys()) <= 4


# -- the worker pool itself --------------------------------------------------


def _pool_factory(root):
    def factory():
        return _make_service(root)
    return factory


class TestWorkerPool:
    def test_dead_worker_is_replaced(self, tmp_path):
        """SIGKILL one worker: the monitor forks a replacement and the
        pool keeps answering; shutdown still drains cleanly."""
        pool = WorkerPool(_pool_factory(str(tmp_path / "cache")),
                          workers=2, port=0, quiet=True)
        with pool:
            client = ServiceClient(pool.url)
            client.wait_healthy(timeout=30)
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                pids = pool.worker_pids()
                if pool.restarts >= 1 and len(pids) == 2 \
                        and victim not in pids:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("dead worker was never replaced")
            assert client.healthz()["status"] == "ok"
        summary = pool.shutdown()
        assert summary["restarts"] >= 1
        assert summary["killed"] == 0

    def test_worker_info_and_lease_stats_reach_stats(self, tmp_path):
        """/stats from a pool worker names the worker and its lease
        counters (each worker samples its own process)."""
        pool = WorkerPool(_pool_factory(str(tmp_path / "cache")),
                          workers=2, port=0, quiet=True)
        with pool:
            client = ServiceClient(pool.url)
            client.wait_healthy(timeout=30)
            client.generate(spec=SPEC, include_code=False)
            doc = client.stats()
            assert doc["worker"]["pid"] in pool.worker_pids()
            assert 0 <= doc["worker"]["index"] < 2
            leases = doc["leases"]
            for counter in ("acquired", "adopted", "reaped",
                            "wait_timeouts", "released"):
                assert isinstance(leases[counter], int)
                assert leases[counter] >= 0

    def test_rejects_zero_workers(self, tmp_path):
        from repro.errors import ServiceError
        with pytest.raises(ServiceError, match="workers must be"):
            WorkerPool(_pool_factory(str(tmp_path / "c")), workers=0,
                       port=0)

    def test_cli_serve_workers_drains_cleanly_on_sigterm(self, tmp_path):
        """The CLI pool path end to end: boot ``serve --workers 2``,
        check health over HTTP, SIGTERM, and require exit code 0 (every
        worker drained within the grace budget)."""
        repo_root = os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src") + os.pathsep \
            + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service",
             "--store", str(tmp_path / "cache"),
             "serve", "--workers", "2", "--port", "0", "--quiet"],
            cwd=repo_root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        try:
            url = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if "listening on" in line:
                    url = line.split("listening on ")[1].split()[0]
                    break
                if proc.poll() is not None:
                    pytest.fail(f"serve exited early: {proc.returncode}")
            assert url, "never saw the listening banner"
            assert "workers=2" in line
            ServiceClient(url).wait_healthy(timeout=30)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            tail = proc.stdout.read()
            assert "exit codes [0, 0]" in tail
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
