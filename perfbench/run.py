"""The repository benchmark: cold paper-suite builds with native kernel
timing, and a closed-loop HTTP serve mix.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seconds 36   # every workload, both modes

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``paper-suite`` -- every suite kernel from LA source to a checked native
  kernel with empty caches, the compiled kernels timed natively between
  builds (``paper_suite.py``);
* ``serve-mix`` -- ``python -m repro.service serve --workers 2`` driven by
  one closed-loop client thread, the kernels it compiled timed natively in
  pauses of the load (``serve_mix.py``).

Both measure over tens of seconds: the host's other tenants slow it by
30-55% for stretches of seconds to minutes, and a figure taken over a
shorter window moves with them.  A run can fall wholly into such a
stretch, so fixed tasks that no change to the system touches, read
between operations, pace the times: a ``$CC`` compile for builds, set-ups
and serve-mix misses (``native.Gauge``), and HTTP round trips to a stdlib
echo server for serve-mix hits (``serve_mix._HttpGauge``).

End-to-end metrics (``--trace 0``), the same names on every workload:

* ``setup_s`` -- the median of several set-ups, each paced by
  ``native.Gauge`` (paper-suite: suite cases and driver build; serve-mix: daemon start,
  warm-up and driver build);
* ``op_ms`` -- median over the workload's operation kinds (paper-suite:
  kernels; serve-mix: route x kernel, and misses) of each kind's median
  paced latency;
* ``ops_per_s`` -- the kinds run back to back at those figures; on
  serve-mix each kind, misses too, weighs as its share of the request
  schedule;
* ``peak_rss_mb`` -- peak RSS of the generating process (the daemon's
  largest process on serve-mix);
* ``kernel_fpc_geomean`` / ``kernel_text_kb`` -- measured flops per core
  cycle (geometric mean) and summed ``.text`` of the compiled kernels the
  workload delivered, timed by the native driver ``kbench.c``, which
  converts TSC cycles to core cycles with a latency chain.

Failed operations and wrong outputs are counted in ``failed`` (and in the
per-layer ``fail_frac``).  With ``--trace 1`` the last line carries the
per-layer metrics instead, measured by wrapping the system's public
functions from this directory (serve-mix reads the daemon's ``/stats`` and
times each route client-side instead).  On paper-suite the first half of a
traced run is measured untraced, so ``trace.overhead_ms`` reports what
tracing costs.  The ``load.*`` rows give the median, tail and
rate as measured and the slowest kind's latency.  Layers a workload does
not cross read 0.  Every run keeps its caches, stores and
temporary files under ``.perfbench_tmp/`` in the checkout and removes them
when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORKLOADS = ("paper-suite", "serve-mix")

#: Cache locations the system reads from the environment; each run points
#: every one of them into its own temporary root.
CACHE_ENV = {
    "REPRO_KERNEL_CACHE": "kernels",
    "REPRO_OBJECT_CACHE": "objects",
    "REPRO_NUMPY_CACHE": "numpy",
    "REPRO_TUNING_DB": "tuning",
    "REPRO_FIXBANK": "fixbank",
    "REPRO_STORE_JOURNAL": "journal.jsonl",
    "REPRO_TRAJECTORY": "trajectory.jsonl",
}

#: Settings that would change what the system does; a run never inherits
#: them (an unset REPRO_PHASE_CACHE keeps the phase cache in memory).
CLEARED_ENV = ("REPRO_PHASE_CACHE", "REPRO_PHASE_CACHE_LIMIT",
               "REPRO_FULL_SIZES", "REPRO_TUNE_BACKEND", "REPRO_LEASE_TTL",
               "REPRO_LEASE_WAIT")


def _isolate(root: str) -> None:
    """Point HOME, TMPDIR and every system cache into ``root``."""
    for name in ("home", "tmp"):
        os.makedirs(os.path.join(root, name))
    os.environ["HOME"] = os.path.join(root, "home")
    os.environ["XDG_CACHE_HOME"] = os.path.join(root, "home", ".cache")
    os.environ["TMPDIR"] = os.path.join(root, "tmp")
    tempfile.tempdir = os.environ["TMPDIR"]
    for name, leaf in CACHE_ENV.items():
        os.environ[name] = os.path.join(root, leaf)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    src = os.path.join(CHECKOUT, "src")
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)


def _declared(trace: bool):
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def _run_workload(args: argparse.Namespace) -> int:
    import common
    outcome = common.Outcome()
    base = os.path.join(CHECKOUT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        _isolate(root)
        module = __import__(args.workload.replace("-", "_"))
        module.run(args.seed, args.seconds, bool(args.trace), root, outcome)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it

    metrics = {}
    for entry in _declared(bool(args.trace)):
        name, unit = entry["name"], entry["unit"]
        if name == "fail_frac":
            value = outcome.failed / max(1, outcome.attempted)
        elif name in outcome.metrics:
            value = outcome.metrics[name][0]
        elif args.trace:
            value = 0.0  # a layer this workload does not cross
        else:
            outcome.attempt(False, f"metric {name} was not measured")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}

    stamp = common.environment_stamp(outcome.tsc_ghz)
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# environment " + json.dumps(stamp, sort_keys=True))
    for note in outcome.notes:
        print(f"# note: {note}")
    for name, doc in metrics.items():
        if not args.trace or doc["value"]:
            print(f"{name:40s} {doc['value']:14.6g} {doc['unit']}")
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": max(1, outcome.attempted),
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)], cwd=CHECKOUT)
            status = status or done.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(CHECKOUT, "src", "repro")):
        print(f"perfbench: no src/repro under {CHECKOUT}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    started = time.perf_counter()
    try:
        return _run_workload(args)
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {args.workload} aborted after "
              f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
