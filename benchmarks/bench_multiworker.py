"""Multi-process worker pool benchmark: throughput scaling + exactly-once.

Boots a real :class:`~repro.service.pool.WorkerPool` (pre-forked workers
sharing one listening socket, one disk store, and the cross-process lease
layer) and drives it over HTTP with ``ServiceClient`` threads.  Three
phases, each against a cold store:

* ``distinct``  -- every request is a different workload (no cache help):
  measures raw generation throughput and p50/p99 latency with 1 worker
  vs ``--workers`` workers.  On multi-core hosts asserts the pool is at
  least 2x faster; on a single-CPU host parallel speedup is physically
  impossible, so the ratio is reported but the gate is skipped (and says
  so in the output).
* ``duplicate`` -- ``--duplicate-clients`` threads stampede a handful of
  cold hot keys through the pool.  The append-only store journal
  (``REPRO_STORE_JOURNAL``) records one line per actual Stage 1-3
  generation commit, across *all* processes -- asserts exactly one
  generation per unique key (the cross-process single-flight guarantee).
* ``mixed``     -- a shuffled blend of duplicate and distinct requests:
  the realistic load; reports throughput, p50/p99, and generations.

Run with::

    python benchmarks/bench_multiworker.py
    python benchmarks/bench_multiworker.py \
        --output results/service_multiworker.txt

CI runs the reduced duplicate phase against an externally booted
``python -m repro.service serve --workers 2`` daemon::

    python benchmarks/bench_multiworker.py --phases duplicate \
        --url http://127.0.0.1:PORT --journal /tmp/journal.jsonl \
        --duplicate-clients 8
"""

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import threading
import time

from _bootstrap import ensure_repro_importable

ensure_repro_importable()

WORKERS = 4
CLIENTS = 8
DUPLICATE_CLIENTS = 32
DISTINCT_WORKLOADS = [f"{name}:{size}"
                      for name in ("potrf", "trtri", "gemm", "trsm")
                      for size in (4, 5, 6, 7, 8, 9)]
HOT_WORKLOADS = ["potrf:6", "trtri:6", "gemm:6", "trsm:6"]


def effective_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def percentile(samples, pct: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1))))
    return ordered[index]


def journal_counts(path):
    """Generations per key recorded by the cross-process store journal."""
    counts = {}
    if not os.path.exists(path):
        return counts
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                key = json.loads(line)["key"]
                counts[key] = counts.get(key, 0) + 1
    return counts


class PoolHarness:
    """One cold store + journal + worker pool, torn down after a phase."""

    def __init__(self, workers: int, max_inflight: int = 8):
        from repro.service import (DiskKernelStore, KernelService,
                                   LeaseManager, WorkerPool)

        self.root = tempfile.mkdtemp(prefix="repro_multiworker_bench_")
        self.journal = os.path.join(self.root, "journal.jsonl")
        store_root = os.path.join(self.root, "cache")
        journal = self.journal

        def factory():
            store = DiskKernelStore(root=store_root, journal=journal)
            return KernelService(
                store=store, leases=LeaseManager.for_store(store))

        self.pool = WorkerPool(factory, workers=workers, port=0,
                               max_inflight=max_inflight, quiet=True)

    def __enter__(self):
        from repro.service import ServiceClient
        self.pool.start()
        ServiceClient(self.pool.url).wait_healthy(timeout=30.0)
        return self

    def __exit__(self, *exc_info):
        try:
            self.pool.shutdown()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


def drive(url: str, specs, clients: int):
    """``clients`` threads drain ``specs`` (pre-assigned round-robin)
    against ``url``; returns ``(wall_s, latencies_s)``."""
    from repro.service import ServiceClient

    barrier = threading.Barrier(clients)
    latencies = []
    lock = threading.Lock()
    failures = []

    def worker(idx: int) -> None:
        client = ServiceClient(url, timeout=600.0, busy_retries=40,
                               jitter_seed=idx)
        mine = specs[idx::clients]
        barrier.wait()
        for spec in mine:
            t0 = time.perf_counter()
            try:
                client.generate(spec=spec, include_code=False)
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)
                return
            elapsed = time.perf_counter() - t0
            with lock:
                latencies.append(elapsed)

    threads = [threading.Thread(target=worker, args=(idx,))
               for idx in range(clients)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - t0
    if failures:
        raise failures[0]
    return wall_s, latencies


def emit_load_row(emit, label: str, requests: int, wall_s: float,
                  latencies) -> float:
    throughput = requests / wall_s
    emit(f"{label:14s} {requests:>4d} {wall_s:>8.2f} {throughput:>9.2f} "
         f"{percentile(latencies, 50) * 1e3:>9.1f} "
         f"{percentile(latencies, 99) * 1e3:>9.1f}")
    return throughput


def phase_distinct(emit, workers: int, clients: int, workloads) -> bool:
    emit(f"## distinct-key load ({len(workloads)} unique workloads, "
         f"{clients} client threads)")
    emit(f"{'config':14s} {'reqs':>4s} {'wall(s)':>8s} {'req/s':>9s} "
         f"{'p50(ms)':>9s} {'p99(ms)':>9s}")
    throughputs = {}
    for nworkers in (1, workers):
        with PoolHarness(nworkers) as harness:
            wall_s, lat = drive(harness.pool.url, list(workloads), clients)
            gens = sum(journal_counts(harness.journal).values())
        label = f"workers={nworkers}"
        throughputs[nworkers] = emit_load_row(
            emit, label, len(workloads), wall_s, lat)
        if gens != len(workloads):
            emit(f"FAIL: workers={nworkers} distinct load ran {gens} "
                 f"generations (expected {len(workloads)})")
            return False
    ratio = throughputs[workers] / throughputs[1]
    cpus = effective_cpus()
    emit(f"speedup: {ratio:.2f}x with {workers} workers vs 1 "
         f"(host has {cpus} usable CPU{'s' if cpus != 1 else ''})")
    if cpus >= 2:
        if ratio < 2.0:
            emit(f"FAIL: expected >= 2x throughput with {workers} workers "
                 f"on a {cpus}-CPU host, measured {ratio:.2f}x")
            return False
    else:
        emit("SKIP: single-CPU host -- parallel speedup is physically "
             "impossible; scaling gate not applied (ratio above is "
             "informational)")
    return True


def phase_duplicate(emit, url, journal, workers: int, clients: int,
                    hot) -> bool:
    per_key = clients // len(hot)
    emit(f"## duplicate-key load ({clients} clients stampede "
         f"{len(hot)} cold keys, {per_key} callers each)")
    before = journal_counts(journal)
    specs = [spec for spec in hot for _ in range(per_key)]
    specs += hot[:clients - len(specs)]
    random.Random(0).shuffle(specs)
    wall_s, lat = drive(url, specs, clients)
    after = journal_counts(journal)
    emit(f"{'config':14s} {'reqs':>4s} {'wall(s)':>8s} {'req/s':>9s} "
         f"{'p50(ms)':>9s} {'p99(ms)':>9s}")
    emit_load_row(emit, f"workers={workers}", len(specs), wall_s, lat)
    ok = True
    new_counts = {key: after.get(key, 0) - before.get(key, 0)
                  for key in after}
    fresh = {key: count for key, count in new_counts.items() if count}
    emit(f"generations: {sum(fresh.values())} across "
         f"{len(fresh)} unique keys (journal: every store commit, "
         f"all processes)")
    if len(fresh) != len(hot):
        emit(f"FAIL: expected {len(hot)} unique keys generated, "
             f"saw {len(fresh)}")
        ok = False
    for key, count in sorted(fresh.items()):
        if count != 1:
            emit(f"FAIL: key {key[:12]}... generated {count}x "
                 f"(cross-process single-flight should make it exactly 1)")
            ok = False
    if ok:
        emit(f"OK: exactly one generation per unique key under "
             f"{clients}-way cross-process duplicate load")
    return ok


def phase_mixed(emit, workers: int, clients: int, distinct, hot) -> bool:
    dup_requests = [spec for spec in hot for _ in range(5)]
    specs = list(distinct[:len(dup_requests)]) + dup_requests
    random.Random(1).shuffle(specs)
    unique = len(set(specs))
    emit(f"## mixed load ({len(specs)} requests, {unique} unique keys, "
         f"{clients} client threads)")
    with PoolHarness(workers) as harness:
        wall_s, lat = drive(harness.pool.url, specs, clients)
        counts = journal_counts(harness.journal)
    emit(f"{'config':14s} {'reqs':>4s} {'wall(s)':>8s} {'req/s':>9s} "
         f"{'p50(ms)':>9s} {'p99(ms)':>9s}")
    emit_load_row(emit, f"workers={workers}", len(specs), wall_s, lat)
    gens = sum(counts.values())
    emit(f"generations: {gens} for {unique} unique keys")
    if gens != unique:
        emit(f"FAIL: mixed load ran {gens} generations for {unique} "
             f"unique keys (duplicates must coalesce)")
        return False
    return True


def run(output=None, workers: int = WORKERS, clients: int = CLIENTS,
        duplicate_clients: int = DUPLICATE_CLIENTS, phases=None,
        url=None, journal=None, distinct=None, hot=None) -> int:
    phases = phases or ["distinct", "duplicate", "mixed"]
    distinct = distinct if distinct is not None else DISTINCT_WORKLOADS
    hot = hot if hot is not None else HOT_WORKLOADS
    lines = []

    def emit(text: str = "") -> None:
        lines.append(text)
        print(text, flush=True)

    emit(f"# Multi-process worker pool: {workers} pre-forked workers, "
         f"one socket, one store")
    emit(f"# Cross-process single-flight via lockfile leases; "
         f"'generations' counted by the")
    emit(f"# append-only store journal (one line per Stage 1-3 commit, "
         f"any process).")
    emit()

    ok = True
    if "distinct" in phases:
        if url is not None:
            emit("FAIL: the distinct phase boots its own pools and cannot "
                 "run against --url")
            ok = False
        else:
            ok = phase_distinct(emit, workers, clients, distinct) and ok
        emit()
    if "duplicate" in phases:
        if url is not None:
            if not journal:
                emit("FAIL: --url mode needs --journal to count "
                     "generations")
                ok = False
            else:
                ok = phase_duplicate(emit, url, journal, workers,
                                     duplicate_clients, hot) and ok
        else:
            with PoolHarness(workers) as harness:
                ok = phase_duplicate(emit, harness.pool.url,
                                     harness.journal, workers,
                                     duplicate_clients, hot) and ok
        emit()
    if "mixed" in phases:
        if url is not None:
            emit("FAIL: the mixed phase boots its own pool and cannot "
                 "run against --url")
            ok = False
        else:
            ok = phase_mixed(emit, workers, clients, distinct, hot) and ok
        emit()

    emit("OK" if ok else "FAILED")
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {output}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the pre-forked worker pool: distinct-key "
                    "throughput scaling, cross-process duplicate "
                    "coalescing, and mixed load.")
    parser.add_argument("--workers", type=int, default=WORKERS,
                        help=f"pool size for the scaled configs "
                             f"(default {WORKERS})")
    parser.add_argument("--clients", type=int, default=CLIENTS,
                        help=f"client threads for distinct/mixed phases "
                             f"(default {CLIENTS})")
    parser.add_argument("--duplicate-clients", type=int,
                        default=DUPLICATE_CLIENTS,
                        help=f"client threads for the duplicate stampede "
                             f"(default {DUPLICATE_CLIENTS})")
    parser.add_argument("--phases", nargs="*", default=None,
                        choices=["distinct", "duplicate", "mixed"],
                        help="subset of phases to run (default: all)")
    parser.add_argument("--url", default=None, metavar="URL",
                        help="drive an externally booted daemon instead of "
                             "an in-process pool (duplicate phase only)")
    parser.add_argument("--journal", default=None, metavar="FILE",
                        help="store journal of the external daemon "
                             "(required with --url)")
    parser.add_argument("--hot", nargs="*", default=None, metavar="SPEC",
                        help="hot workloads for the duplicate stampede")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="also write the report to FILE")
    args = parser.parse_args(argv)
    return run(output=args.output, workers=args.workers,
               clients=args.clients,
               duplicate_clients=args.duplicate_clients,
               phases=args.phases, url=args.url, journal=args.journal,
               hot=args.hot)


if __name__ == "__main__":
    sys.exit(main())
