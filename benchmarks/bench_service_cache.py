"""Cold-vs-warm kernel-cache smoke benchmark (CI-friendly, plain script).

Generates a small workload set twice through one :class:`KernelService`:
the first pass pays full Stage 1-3 generation for every request, the second
is served entirely from the content-addressed store.  Prints per-workload
latencies and asserts the warm pass is at least 10x faster in aggregate, so
a regression that silently disables the cache fails loudly.

Run with::

    python benchmarks/bench_service_cache.py
"""

import sys
import tempfile
import time

from _bootstrap import ensure_repro_importable

ensure_repro_importable()

WORKLOADS = ["potrf:4", "potrf:12", "trtri:8", "trsyl:4", "gpr:8"]


def run(workloads=WORKLOADS) -> int:
    from repro.service import DiskKernelStore, KernelService, make_request

    requests = [make_request(spec) for spec in workloads]
    with tempfile.TemporaryDirectory(prefix="repro_cache_bench_") as root:
        service = KernelService(store=DiskKernelStore(root=root))
        t0 = time.perf_counter()
        cold = service.generate_many(requests)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = service.generate_many(requests)
        warm_s = time.perf_counter() - t0

    print(f"{'workload':10s} {'cold (ms)':>10s} {'warm (ms)':>10s} "
          f"{'hit':>4s}")
    for c, w in zip(cold, warm):
        print(f"{c.label:10s} {c.latency_s * 1e3:10.1f} "
              f"{w.latency_s * 1e3:10.1f} {str(w.cache_hit):>4s}")
    speedup = cold_s / max(warm_s, 1e-9)
    print(f"{'total':10s} {cold_s * 1e3:10.1f} {warm_s * 1e3:10.1f}   "
          f"-> {speedup:.0f}x warm speedup")

    if any(c.cache_hit for c in cold):
        print("FAIL: cold pass should be all misses")
        return 1
    if not all(w.cache_hit for w in warm):
        print("FAIL: warm pass should be all hits")
        return 1
    if speedup < 10:
        print(f"FAIL: warm pass only {speedup:.1f}x faster (expected >= 10x)")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(run())
