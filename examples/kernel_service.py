"""Kernel service walkthrough: generate once, serve from the cache forever.

Demonstrates the generation-as-a-service layer on top of SLinGen:

1. a persistent, content-addressed kernel store,
2. cache-first single requests (second call is a hit, no Stage 1-3),
3. parallel batch generation of a whole size sweep,
4. the named-workload registry ("potrf:12", "kf:8x4").

Run with::

    PYTHONPATH=src python examples/kernel_service.py
"""

import tempfile
import time

from repro.api import (DiskKernelStore, GenerationRequest,
                       KernelService, make_request)
from repro.service import sweep_requests


def main() -> None:
    # A throwaway cache root for the demo, removed on exit; by default the
    # service persists under ~/.cache/repro-slingen/kernels (or
    # $REPRO_KERNEL_CACHE).
    with tempfile.TemporaryDirectory(prefix="repro_kernels_") as root:
        walkthrough(KernelService(store=DiskKernelStore(root=root)))


def walkthrough(service: KernelService) -> None:
    # -- single request: miss, then hit -----------------------------------
    request = make_request("potrf:12")
    t0 = time.perf_counter()
    cold = service.generate(request)
    t_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = service.generate(request)
    t_warm = time.perf_counter() - t0
    print(f"potrf:12 cold: {t_cold * 1e3:7.1f} ms (hit={cold.cache_hit})  "
          f"variant={cold.result.variant_label}")
    print(f"potrf:12 warm: {t_warm * 1e3:7.1f} ms (hit={warm.cache_hit})  "
          f"speedup={t_cold / max(t_warm, 1e-9):.0f}x")

    # -- batch: a figure's size sweep, misses generated in parallel --------
    requests = sweep_requests(["trtri:4", "trtri:8", "trtri:12", "gpr:8"])
    responses = service.generate_many(requests)
    for response in responses:
        perf = response.result.performance
        print(f"{response.label:10s} hit={str(response.cache_hit):5s} "
              f"{perf.flops_per_cycle:6.3f} f/c  key={response.key[:12]}")

    # -- raw LA source works too ------------------------------------------
    source = """
    Mat A(n, n) <In>;
    Vec x(n) <In>;
    Vec y(n) <Out>;
    y = A * x;
    """
    response = service.generate(GenerationRequest.from_source(
        source, {"n": 8}, name="gemv_8"))
    print(f"gemv_8     hit={str(response.cache_hit):5s} "
          f"{response.result.performance.flops_per_cycle:6.3f} f/c")

    print("\nservice stats:", service.stats.snapshot())
    print("store stats:  ", service.store.stats())


if __name__ == "__main__":
    main()
