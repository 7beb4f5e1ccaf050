"""Kernel serving over HTTP: daemon, client, and coalesced load.

Spins up the stdlib HTTP daemon in-process on an ephemeral port, then
exercises the JSON API exactly as a remote client would:

1. health check and cold/warm ``POST /generate``,
2. ``POST /run`` -- real execution on the NumPy backend, no compiler,
3. a 12-client duplicate-request stampede showing single-flight
   coalescing (one generation, eleven coalesced followers),
4. ``GET /stats`` -- service and store counters.

Run with::

    PYTHONPATH=src python examples/http_service.py

The same daemon runs standalone via ``python -m repro.service serve``;
see docs/serving.md for the full API and curl examples.
"""

import tempfile
from concurrent import futures

from repro.api import DiskKernelStore, KernelService
from repro.service import KernelServer, ServiceClient


def main() -> None:
    # A throwaway cache root for the demo, removed on exit; a real daemon
    # persists under ~/.cache/repro-slingen/kernels (or $REPRO_KERNEL_CACHE).
    with tempfile.TemporaryDirectory(prefix="repro_http_") as root:
        serve_demo(DiskKernelStore(root=root))


def serve_demo(store: DiskKernelStore) -> None:
    service = KernelService(store=store)

    # max_inflight must cover the 12-client stampede below: coalesced
    # followers are cheap (they just wait on the leader's future) but
    # still occupy admission slots while they do.
    with KernelServer(service, port=0, max_inflight=16,
                      quiet=True) as server:
        client = ServiceClient(server.url)
        print(f"daemon listening on {server.url}")
        client.wait_healthy()

        # -- generate: miss, then hit ---------------------------------
        cold = client.generate(spec="potrf:8")
        warm = client.generate(spec="potrf:8")
        print(f"potrf:8 cold hit={cold['cache_hit']} "
              f"{cold['latency_s'] * 1e3:6.1f} ms  "
              f"variant={cold['variant']}")
        print(f"potrf:8 warm hit={warm['cache_hit']} "
              f"{warm['latency_s'] * 1e3:6.1f} ms  "
              f"key={warm['key'][:12]}")

        # -- run: execute on the NumPy backend over HTTP --------------
        out = client.run(spec="potrf:4", backend="numpy")
        row = out["outputs"]["U"][0]
        print(f"potrf:4 run on {out['backend']}: U[0] = "
              f"{[round(v, 4) for v in row]}")

        # -- stampede: 12 concurrent identical misses, 1 generation ---
        with futures.ThreadPoolExecutor(max_workers=12) as pool:
            answers = list(pool.map(
                lambda _: client.generate(spec="trtri:8",
                                          include_code=False),
                range(12)))
        coalesced = sum(1 for doc in answers if doc["coalesced"])
        print(f"stampede: 12 clients, "
              f"{sum(1 for d in answers if not d['cache_hit'])} misses, "
              f"{coalesced} coalesced")

        stats = client.stats()
        svc = stats["service"]
        print(f"stats: {svc['requests']} requests, {svc['hits']} hits, "
              f"{svc['generations']} generations, "
              f"{svc['coalesced']} coalesced, "
              f"{stats['store']['entries']} entries, "
              f"{stats['store']['bytes']} bytes")
    print("daemon shut down")


if __name__ == "__main__":
    main()
