"""serve-mix: a closed-loop HTTP mix against the kernel-service daemon.

Set-up starts ``python -m repro.service serve --workers 2 --warm ...`` on a
fresh store and warms every route it will take.  One client thread with its
own ``ServiceClient`` then sends requests back to back with no think time.
Most requests are hits, an equal share each on ``/generate``, ``/run`` on
the NumPy backend and ``/run`` compiled, with explicit inputs whose outputs
are checked against the case reference.  One request in every
``MISS_EVERY`` is a miss: a program absent from the store, run compiled, so
writes, leases and ``$CC`` sit beside the reads.  Misses take about a third
of the client's time, so a slower miss path lowers ``ops_per_s`` as a
slower hit path does.  In pauses of the load spread over the run, the
native driver times the kernels the daemon compiled.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Dict, List, Tuple

import numpy as np

import common
import native

#: Kernels the daemon serves as hits (fast to generate, so set-up stays
#: short).  Each takes 20-140 ns natively, well above the driver's floor:
#: the kernels of a few ns that paper-suite also times left the geomean of
#: six kernels moving with the floor.
SERVE_SET = ("potrf:4", "potrf:8", "gemm:8", "trsm:8", "trtri:8", "trsyl:4")

#: One request in this many is a miss.  A hit takes ~2.5 ms and a miss
#: ~0.5 s, so misses take about a third of the client's time.
MISS_EVERY = 400

#: The hit routes, drawn with equal shares: no measured traffic says
#: which routes users call more.
ROUTES = ("generate", "numpy", "compiled")

#: Closed-loop client threads.  One: with two, the two clients and the
#: daemon's two workers shared the host's two CPUs, the latencies measured
#: the scheduler, and ``op_ms`` spread by 20% over five seeds (12% with
#: one).  Two workers stay, so the pool still hands requests to either.
CLIENTS = 1

#: Input sets per kernel (each checked against its own reference).
INPUT_SETS = 4

#: The tail percentile of the load rows: ~12000 requests per run leave
#: >= 10 beyond it.
TAIL = 99.0

#: The run alternates the closed loop with a reading of the HTTP gauge and
#: native timing of the kernels the daemon compiled, in this many slices,
#: so all three spread over the whole run (see ``native.KernelTimer``).
#: The client idles while the gauge is read and the kernels are timed, for
#: ``NATIVE_SHARE`` of each slice.
SLICES = 15
NATIVE_SHARE = 0.25

#: Round trips per reading of the HTTP gauge (~0.1 s).
GAUGE_REQUESTS = 100

#: LA programs the misses instantiate, in shapes no registry kernel has:
#: (m, k, n) for gemm, (n, m) for trsm, sides 4..7 so misses cost about the
#: same.  Store and phase keys cover the program's name, so every miss
#: names its program afresh and misses even where its shape came before.
MISS_PROGRAMS = {
    "gemm": ("Mat A(m, k) <In>;\nMat B(k, n) <In>;\nMat C(m, n) <InOut>;\n"
             "C = A * B + C;\n"),
    "trsm": ("Mat L(n, n) <In, LoTri, NS>;\nMat B(n, m) <In>;\n"
             "Mat X(n, m) <Out>;\nL * X = B;\n"),
}


def _miss_shapes(rng: random.Random) -> List[Tuple[str, Dict[str, int]]]:
    sides = (5, 6, 7)
    shapes = [("gemm", {"m": m, "k": k, "n": n})
              for m in sides for k in (4, 5, 6) for n in sides
              if not m == k == n]
    shapes += [("trsm", {"n": n, "m": m}) for n in sides for m in sides
               if n != m]
    rng.shuffle(shapes)
    return shapes


def _miss_inputs(kind: str, sizes: Dict[str, int],
                 rng: np.random.Generator
                 ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    if kind == "gemm":
        m, k, n = sizes["m"], sizes["k"], sizes["n"]
        a, b, c = (rng.standard_normal(shape)
                   for shape in ((m, k), (k, n), (m, n)))
        return {"A": a, "B": b, "C": c}, {"C": a @ b + c}
    n, m = sizes["n"], sizes["m"]
    lower = np.tril(rng.uniform(-1.0, 1.0, (n, n))) + n * np.eye(n)
    rhs = rng.standard_normal((n, m))
    return {"L": lower, "B": rhs}, {"X": np.linalg.solve(lower, rhs)}


class _Daemon:
    """One ``serve --workers 2`` process group on its own store."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.store = os.path.join(root, "store")
        self.objects = os.path.join(root, "objects")
        env = dict(os.environ,
                   REPRO_OBJECT_CACHE=self.objects,
                   REPRO_NUMPY_CACHE=os.path.join(root, "numpy"),
                   REPRO_STORE_JOURNAL=os.path.join(root, "journal.jsonl"))
        os.makedirs(root)
        self.log = open(os.path.join(root, "daemon.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--store", self.store,
             "serve", "--host", "127.0.0.1", "--port", "0", "--workers", "2",
             "--grace", "2", "--quiet", "--warm", *SERVE_SET],
            stdout=subprocess.PIPE, stderr=self.log, text=True, env=env,
            start_new_session=True)
        self.url = self._await_url(timeout=120.0)
        # Keep draining stdout so the daemon can never block on a full pipe.
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()

    def _await_url(self, timeout: float) -> str:
        found: List[str] = []

        def scan() -> None:
            for line in self.proc.stdout:
                match = re.search(r"listening on (http://\S+)", line)
                if match:
                    found.append(match.group(1))
                    return

        reader = threading.Thread(target=scan, daemon=True)
        reader.start()
        reader.join(timeout)
        if not found:
            raise RuntimeError(f"daemon did not start; see {self.log.name}")
        return found[0]

    def stop(self) -> None:
        """SIGTERM (the daemon drains its workers), then kill the group.
        Idempotent."""
        if self.log.closed:
            return
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(signal.SIGTERM)
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self.log.close()


class _Mix:
    """Seeded request schedule, inputs and references for the mix."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.miss_shapes = _miss_shapes(random.Random(seed))
        self.kernels = common.KernelSet(SERVE_SET, seed)
        self.inputs: Dict[str, List[Dict[str, object]]] = {}
        self.expected: Dict[str, List[Dict[str, np.ndarray]]] = {}
        for spec, case in self.kernels.cases.items():
            sets = [case.make_inputs(seed * INPUT_SETS + k)
                    for k in range(INPUT_SETS)]
            self.inputs[spec] = [{name: np.asarray(v).tolist()
                                  for name, v in s.items()} for s in sets]
            self.expected[spec] = [case.reference_outputs(s) for s in sets]

    def stream(self, thread: int):
        """Endless (route, payload) stream for one client thread."""
        rng = random.Random(self.seed * 1000 + thread)
        arrays = np.random.default_rng(self.seed * 1000 + thread)
        # Each thread cycles through its own share of the shapes.
        shapes = self.miss_shapes[thread::CLIENTS]
        misses = 0
        while True:
            miss_at = rng.randrange(MISS_EVERY)
            for position in range(MISS_EVERY):
                if position == miss_at:
                    kind, sizes = shapes[misses % len(shapes)]
                    name = f"{kind}_{thread}_{misses}"
                    misses += 1
                    inputs, expected = _miss_inputs(kind, sizes, arrays)
                    yield "miss", (kind, name, sizes, inputs, expected)
                    continue
                yield rng.choice(ROUTES), (rng.choice(SERVE_SET),
                                           rng.randrange(INPUT_SETS))

    def send(self, client, route: str, payload) -> bool:
        """One request; True when it succeeded with correct outputs."""
        if route == "miss":
            kind, name, sizes, inputs, expected = payload
            doc = client.run(source=MISS_PROGRAMS[kind], constants=sizes,
                             name=name, backend="compiled",
                             inputs={k: v.tolist() for k, v in inputs.items()})
            return (not doc["cache_hit"]) and common.outputs_match(
                doc["outputs"], expected, {k: "full" for k in expected})
        spec, index = payload
        if route == "generate":
            doc = client.generate(spec=spec, include_code=False)
            return bool(doc["cache_hit"])
        doc = client.run(spec=spec, backend=route,
                         inputs=self.inputs[spec][index])
        return bool(doc["cache_hit"]) and common.outputs_match(
            doc["outputs"], self.expected[spec][index],
            self.kernels.cases[spec].checked_outputs)


class _Load:
    """``CLIENTS`` closed-loop client threads, each with its own
    ``ServiceClient`` and request stream, kept from one slice of the run to
    the next.
    ``records`` holds (offset s, kind, latency s, ok), the kind being
    ``route/kernel`` or ``miss``."""

    def __init__(self, url: str, mix: _Mix, outcome: common.Outcome) -> None:
        from repro.service.client import ServiceClient
        self.mix = mix
        self.outcome = outcome
        self.clients = [ServiceClient(url, timeout=60.0,
                                      jitter_seed=mix.seed * 10 + thread)
                        for thread in range(CLIENTS)]
        self.streams = [mix.stream(thread) for thread in range(CLIENTS)]
        self.records: List[Tuple[float, str, float, bool]] = []
        self._lock = threading.Lock()
        self._begin = time.perf_counter()

    def run(self, seconds: float) -> None:
        """The client threads until ``seconds`` are up."""
        deadline = time.perf_counter() + seconds
        threads = [threading.Thread(target=self._client, args=(i, deadline))
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _client(self, thread: int, deadline: float) -> None:
        from repro.errors import ServiceError
        client, stream = self.clients[thread], self.streams[thread]
        while time.perf_counter() < deadline:
            route, payload = next(stream)
            started = time.perf_counter()
            try:
                ok = self.mix.send(client, route, payload)
                problem = f"{route}: wrong or missing output"
            except (ServiceError, KeyError, ValueError) as exc:
                ok, problem = False, f"{route}: {exc}"
            elapsed = time.perf_counter() - started
            kind = route if route == "miss" else f"{route}/{payload[0]}"
            with self._lock:
                self.records.append(
                    (started - self._begin, kind, elapsed, ok))
                self.outcome.attempt(ok, problem)


class _HttpGauge:
    """The host's pace for HTTP round trips: the median latency of
    ``GAUGE_REQUESTS`` POSTs of a ``/run`` body, sent with urllib as
    ``ServiceClient`` sends them, to ``echo_server.py`` in its own process.
    It is a fixed task that no change to the system touches, and the same
    kind of work as a hit.

    The host's slow stretches slow HTTP round trips too, and ``$CC`` (the
    ``native.Gauge`` task) by a different share from one stretch to the
    next.  So the hits of each slice of the load are paced by this gauge's
    reading after it, and the misses, which are mostly generation and
    ``$CC``, by ``native.Gauge``'s: a latency ``t`` is reported as
    ``t * NOMINAL_S / reading``.  Over six minutes of 2-s slices the
    per-kind median latency of 40-s windows, paced so, moved by 2%
    (coefficient of variation) where as measured it moved by 4%; over five
    seeds ``op_ms`` spread by 6% (quartile distance over median) where the
    per-kind medians as measured spread by 36%."""

    #: About the gauge's reading on a calm reference host (2-vCPU Xeon).
    NOMINAL_S = 0.0007

    def __init__(self, body: Dict[str, object]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(native.HERE, "echo_server.py")],
            stdout=subprocess.PIPE, text=True)
        self.readings: List[float] = []
        try:
            port = int(self.proc.stdout.readline())
        except ValueError:
            self.close()
            raise RuntimeError("the HTTP gauge's echo server did not start")
        self.url = f"http://127.0.0.1:{port}/run"
        self.data = json.dumps(body).encode("utf-8")

    def scale(self) -> float:
        """Reads the gauge once; latencies measured just before it,
        multiplied by the result, are at the nominal pace."""
        latencies = []
        for _ in range(GAUGE_REQUESTS):
            request = urllib.request.Request(
                self.url, data=self.data,
                headers={"Content-Type": "application/json"})
            started = time.perf_counter()
            with urllib.request.urlopen(request, timeout=10.0) as reply:
                json.loads(reply.read().decode("utf-8"))
            latencies.append(time.perf_counter() - started)
        reading = statistics.median(latencies)
        self.readings.append(reading)
        return self.NOMINAL_S / reading

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _pool_stats(client) -> Dict[int, Dict[str, object]]:
    """``/stats`` of every worker: the kernel hands each connection to one
    worker, so sample until both pids have answered."""
    seen: Dict[int, Dict[str, object]] = {}
    for _ in range(100):
        doc = client.stats()
        seen[int(doc["worker"]["pid"])] = doc
        if len(seen) == 2:
            break
    return seen


def _delta(before, after, *path) -> float:
    """Pool-wide change of one counter between two ``_pool_stats``."""
    total = 0.0
    for pid, doc in after.items():
        old = before.get(pid)
        for key in path:
            doc = doc[key]
            old = old[key] if old is not None else None
        total += float(doc) - float(old or 0.0)
    return total


def _peak_rss_mb(pids: List[int]) -> float:
    peak = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024.0


def _warm(daemon: _Daemon, mix: _Mix) -> None:
    """Send every hit route for every kernel until both workers served it."""
    from repro.service.client import ServiceClient
    client = ServiceClient(daemon.url)
    client.wait_healthy(timeout=60.0)
    for _ in range(3):
        for spec in SERVE_SET:
            client.generate(spec=spec, include_code=False)
            for backend in ("numpy", "compiled"):
                client.run(spec=spec, backend=backend,
                           inputs=mix.inputs[spec][0])


def run(seed: int, seconds: float, trace: bool, root: str,
        outcome: common.Outcome) -> None:
    from repro.service.client import ServiceClient
    mix = _Mix(seed)
    daemons: List[_Daemon] = []

    def setup(index: int) -> Tuple[_Daemon, str]:
        daemon = _Daemon(os.path.join(root, f"daemon{index}"))
        daemons.append(daemon)
        _warm(daemon, mix)
        exe = native.build_driver(os.path.join(root, f"driver{index}"))
        return daemon, exe

    http_gauge = None
    try:
        gauge = native.Gauge(os.path.join(root, "gauge"))
        setup_s, (daemon, exe) = common.paced_setup(
            setup, gauge, teardown=lambda state: state[0].stop(), times=4)
        outcome.put("setup_s", setup_s, "s")
        client = ServiceClient(daemon.url)
        _probe(daemon, mix.kernels, outcome)
        timer = native.KernelTimer(exe, mix.kernels, root)
        http_gauge = _HttpGauge({"spec": "potrf:8", "backend": "numpy",
                                 "inputs": mix.inputs["potrf:8"][0]})
        load = _Load(daemon.url, mix, outcome)

        before = _pool_stats(client) if trace else None
        paced: Dict[str, List[float]] = {}
        slice_s = seconds / SLICES
        for _ in range(SLICES):
            first = len(load.records)
            load.run(slice_s * (1.0 - NATIVE_SHARE))
            paused = time.perf_counter()
            hit_scale = http_gauge.scale()
            miss_scale = gauge.scale()
            for _, kind, latency, _ in load.records[first:]:
                scale = miss_scale if kind == "miss" else hit_scale
                paced.setdefault(kind, []).append(latency * scale)
            timer.spread(slice_s * NATIVE_SHARE
                         - (time.perf_counter() - paused))
        serve_s = seconds * (1.0 - NATIVE_SHARE)
        _put_speed(paced, load.records, serve_s, outcome)
        if trace:
            _put_layers(load.records, before, _pool_stats(client), outcome)
            outcome.put("host.gauge_s", statistics.median(gauge.readings),
                        "s")
            outcome.put("host.http_gauge_ms",
                        1e3 * statistics.median(http_gauge.readings), "ms")
        # The daemon process and its workers; the largest peak counts.
        outcome.put("peak_rss_mb", _peak_rss_mb(
            [daemon.proc.pid] + list(_pool_stats(client))), "MB")
        timer.put(trace, outcome)
    finally:
        for daemon in daemons:
            daemon.stop()
        if http_gauge is not None:
            http_gauge.close()


def _put_speed(paced: Dict[str, List[float]], records, seconds: float,
               outcome: common.Outcome) -> None:
    """Kinds are (route, kernel) for hits, and one for all misses; a kind's
    figure is the median of its paced latencies (``_HttpGauge``), so
    ``op_ms`` is a hit kind's.  ``ops_per_s`` is the rate at which one
    client runs the schedule back to back at those figures, each kind
    weighted by its share of the schedule, so a slower miss path lowers it
    as a slower hit path does.  The ``load.*`` rows are as measured."""
    hit_share = (1.0 - 1.0 / MISS_EVERY) / (len(ROUTES) * len(SERVE_SET))
    figures = {kind: statistics.median(values)
               for kind, values in paced.items()}
    per_request = sum((1.0 / MISS_EVERY if kind == "miss" else hit_share)
                      * figure for kind, figure in figures.items())
    common.put_speed(outcome, list(figures.values()),
                     throughput=1.0 / per_request)
    common.put_load(outcome, [latency for _, _, latency, _ in records],
                    seconds, TAIL)


def _put_layers(records, before, after, outcome: common.Outcome) -> None:
    """Client-side spans per route plus pool-wide ``/stats`` deltas."""
    by_route: Dict[str, List[float]] = {}
    for _, kind, elapsed, _ in records:
        by_route.setdefault(kind.split("/")[0], []).append(elapsed)
    for route, metric in (("generate", "http.generate_hit_ms"),
                          ("numpy", "http.run_numpy_ms"),
                          ("compiled", "http.run_compiled_ms"),
                          ("miss", "http.miss_ms")):
        if by_route.get(route):
            outcome.put(metric, 1e3 * statistics.median(by_route[route]),
                        "ms")

    def delta(*path: str) -> float:
        return _delta(before, after, *path)

    hits, misses = delta("service", "hits"), delta("service", "misses")
    if hits:
        hit_ms = 1e3 * delta("service", "hit_latency_s") / hits
        outcome.put("service.hit_ms", hit_ms, "ms")
        if by_route.get("generate"):
            outcome.put("http.transport_ms", 1e3 * statistics.median(
                by_route["generate"]) - hit_ms, "ms")
    if misses:
        outcome.put("service.miss_ms",
                    1e3 * delta("service", "miss_latency_s") / misses, "ms")
    outcome.put("service.hit_ratio", hits / max(1.0, hits + misses), "ratio")
    phase_hits = delta("service", "phase_cache", "hits")
    phase_misses = delta("service", "phase_cache", "misses")
    outcome.put("pipeline.hit_ratio",
                phase_hits / max(1.0, phase_hits + phase_misses), "ratio")
    for metric, path in (("service.generations", ("service", "generations")),
                         ("service.coalesced", ("service", "coalesced")),
                         ("leases.acquired", ("leases", "acquired")),
                         ("leases.adopted", ("leases", "adopted")),
                         ("leases.wait_timeouts", ("leases", "wait_timeouts")),
                         ("server.rejected", ("server", "rejected"))):
        outcome.put(metric, delta(*path), "count")


def _probe(daemon: _Daemon, kernels: common.KernelSet,
           outcome: common.Outcome) -> None:
    """Load the kernels the daemon compiled for ``/run`` (a store hit and
    an object-cache hit: no generation, no ``$CC``) for native timing."""
    from repro.api import DiskKernelStore, KernelService, make_request
    os.environ["REPRO_OBJECT_CACHE"] = daemon.objects
    service = KernelService(store=DiskKernelStore(root=daemon.store))
    for spec in SERVE_SET:
        try:
            response = service.generate(make_request(spec))
            kernel = response.kernel("compiled")
        except Exception as exc:  # counted, and the run goes on
            outcome.attempt(False, f"probe {spec}: {exc!r}")
            continue
        if outcome.attempt(response.cache_hit, f"probe {spec}: store miss"):
            kernels.latest[spec] = (
                kernel, response.result.performance.flops_per_cycle)
