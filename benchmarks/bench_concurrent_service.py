"""Single-flight coalescing benchmark: duplicate load, one generation.

Simulates the serving hot spot: N clients ask for the *same* kernel at the
same instant (a popular workload going viral).  Without coalescing every
client that misses runs the full Stage 1-3 pipeline itself; with the
service's single-flight layer the first request becomes the leader and the
other N-1 block on its in-flight future, so the whole stampede costs one
generation.

Two phases per workload, each against a cold store:

* ``uncoalesced`` -- ``KernelService(single_flight=False)``: every thread
  generates independently (the pre-PR-4 behavior).
* ``coalesced``   -- the default service: the stampede is collapsed.

The store each phase uses holds back every ``put`` until every client
thread has finished its first lookup, so all N clients miss even when a
warm phase cache makes one generation faster than the threads start:
every follower then either joins the leader's flight or hits on the
leader's re-probe, and both count as coalesced.  A put that waits longer
than :data:`GATE_TIMEOUT_S` goes ahead and the run reports FAIL.

Asserts the coalesced run performs **exactly one** generation per workload
under 16-way duplicate load, that the other N-1 responses are coalesced,
and at least 5x fewer generations than the uncoalesced run in aggregate.
Run with::

    python benchmarks/bench_concurrent_service.py
    python benchmarks/bench_concurrent_service.py \
        --output results/service_concurrency.txt
"""

import argparse
import sys
import tempfile
import threading
import time

from _bootstrap import ensure_repro_importable

ensure_repro_importable()

CLIENTS = 16
WORKLOADS = ["potrf:4", "potrf:8", "trtri:8", "gemm:4"]
#: longest a put waits for the clients' first lookups
GATE_TIMEOUT_S = 60.0


class FirstLookupGate:
    """A kernel store whose ``put`` waits until ``clients`` threads have
    each finished a lookup, so no client can hit on a committed result
    before it has missed once."""

    def __init__(self, store, clients: int) -> None:
        self._store = store
        self._clients = clients
        self._looked_up = set()
        self._lock = threading.Lock()
        self._all_looked_up = threading.Event()
        self.timed_out = False

    def get(self, key):
        result = self._store.get(key)
        with self._lock:
            self._looked_up.add(threading.get_ident())
            if len(self._looked_up) >= self._clients:
                self._all_looked_up.set()
        return result

    def put(self, key, result, **kwargs):
        if not self._all_looked_up.wait(GATE_TIMEOUT_S):
            self.timed_out = True
        return self._store.put(key, result, **kwargs)

    def __getattr__(self, name):
        return getattr(self._store, name)


def stampede(workload: str, single_flight: bool, clients: int):
    """``clients`` threads request one workload against a cold store;
    returns ``(generations, wall_s, responses, gate_timed_out)``."""
    from repro.service import DiskKernelStore, KernelService

    with tempfile.TemporaryDirectory(
            prefix="repro_concurrency_bench_") as root:
        store = FirstLookupGate(DiskKernelStore(root=root), clients)
        service = KernelService(store=store, single_flight=single_flight)
        return _stampede(service, workload, clients) + (store.timed_out,)


def _stampede(service, workload: str, clients: int):
    from repro.service import make_request

    barrier = threading.Barrier(clients)
    responses = [None] * clients
    failures = []

    def client(idx: int) -> None:
        request = make_request(workload)
        barrier.wait()
        try:
            responses[idx] = service.generate(request)
        except Exception as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    threads = [threading.Thread(target=client, args=(idx,))
               for idx in range(clients)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - t0
    if failures:
        raise failures[0]
    return service.stats.generations, wall_s, responses


def run(output=None, clients: int = CLIENTS, workloads=WORKLOADS) -> int:
    lines = []

    def emit(text: str = "") -> None:
        lines.append(text)
        print(text)

    emit(f"# Single-flight coalescing under {clients}-way duplicate load")
    emit(f"# {clients} threads request the same workload against a cold "
         f"store; 'gens' counts")
    emit("# actual Stage 1-3 pipeline runs (KernelService stats).")
    emit()
    emit(f"{'workload':10s} {'mode':12s} {'gens':>5s} {'coalesced':>9s} "
         f"{'wall (ms)':>10s}")

    total_un, total_co = 0, 0
    ok = True
    for workload in workloads:
        gens_un, wall_un, _, late_un = stampede(
            workload, single_flight=False, clients=clients)
        gens_co, wall_co, responses, late_co = stampede(
            workload, single_flight=True, clients=clients)
        coalesced = sum(1 for r in responses if r.coalesced)
        total_un += gens_un
        total_co += gens_co
        emit(f"{workload:10s} {'uncoalesced':12s} {gens_un:>5d} "
             f"{'-':>9s} {wall_un * 1e3:>10.1f}")
        emit(f"{workload:10s} {'coalesced':12s} {gens_co:>5d} "
             f"{coalesced:>9d} {wall_co * 1e3:>10.1f}")
        if late_un or late_co:
            emit(f"FAIL: {workload} a put waited over {GATE_TIMEOUT_S:.0f} s "
                 f"for the {clients} clients' first lookups")
            ok = False
        if gens_co != 1:
            emit(f"FAIL: {workload} coalesced run generated {gens_co}x "
                 f"(expected exactly 1)")
            ok = False
        if coalesced != clients - 1:
            emit(f"FAIL: {workload} expected {clients - 1} coalesced "
                 f"responses, saw {coalesced}")
            ok = False

    reduction = total_un / max(total_co, 1)
    emit()
    emit(f"total generations: {total_un} uncoalesced -> {total_co} "
         f"coalesced ({reduction:.1f}x fewer)")
    if reduction < 5:
        emit(f"FAIL: only {reduction:.1f}x fewer generations "
             f"(expected >= 5x)")
        ok = False
    emit("OK" if ok else "FAILED")

    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {output}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure single-flight coalescing under duplicate "
                    "concurrent load.")
    parser.add_argument("--clients", type=int, default=CLIENTS,
                        help=f"concurrent identical requests per workload "
                             f"(default {CLIENTS})")
    parser.add_argument("--workloads", nargs="*", default=WORKLOADS,
                        metavar="SPEC")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="also write the report to FILE")
    args = parser.parse_args(argv)
    return run(output=args.output, clients=args.clients,
               workloads=args.workloads)


if __name__ == "__main__":
    sys.exit(main())
