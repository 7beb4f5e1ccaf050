"""Command-line front-end of the kernel service.

Usage (``PYTHONPATH=src python -m repro.service <command>``)::

    warm  [SPEC ...] [--scalar] [--no-autotune] [--workers N] [--serial]
    run   SPEC ... [--backend auto|compiled|numpy|interpreter]
                                    # generate (or hit) and actually execute
    serve [--host H] [--port P] [--workers N] [--max-inflight N]
          [--warm [SPEC ...]]       # long-running HTTP daemon (JSON API);
                                    # --workers > 1 pre-forks a process pool
                                    # with cross-process single-flight
    query SPEC ...                  # key + hit/miss, no generation
    ls                              # list cached entries
    stats                           # store statistics
    purge [--yes]                   # drop every cached kernel

A SPEC is ``name:size`` (``potrf:12``), ``name:sizexk`` (``kf:8x4``), or a
bare case name, which expands to the default size sweep.  The cache root
defaults to ``~/.cache/repro-slingen/kernels`` and can be moved with
``--store`` (historical alias ``--cache-dir``) or the
``REPRO_KERNEL_CACHE`` environment variable.  Every subcommand accepts
``--json`` for a machine-readable document; exit-code semantics are the
shared contract of :mod:`repro.cli`.

The global flags ``--tuned`` / ``--tuning-db DIR`` (before the command:
``python -m repro.service --tuned warm potrf:4``) make the service consult
the persistent tuning database and generate with tuned-best options.
Likewise ``--verified`` / ``--fixbank DIR`` make it consult the CEGIS fix
bank and apply the banked verified rewrites before codegen; the two
compose (tuned knobs + verified rewrite set).  ``--analysis warn|strict``
forces the static-verification gate for every request: each pipeline
phase checks its freshly built artifact, and in strict mode an error
aborts generation before anything reaches the kernel store (counters
surface under ``"analysis"`` in ``/stats``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from ..cli import (EXIT_FAILURE, EXIT_OK, add_json_flag, confirm, fail,
                   print_json)
from ..errors import ReproError
from ..slingen.options import Options
from .registry import sweep_requests, workload_names
from .service import KernelService
from .store import DiskKernelStore, default_cache_dir


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Warm, query, and purge the persistent kernel cache.")
    parser.add_argument("--store", "--cache-dir", dest="cache_dir",
                        default=None, metavar="DIR",
                        help=f"kernel store root (default: "
                             f"{default_cache_dir()})")
    parser.add_argument("--tuned", action="store_true",
                        help="consult the persistent tuning database: "
                             "workloads with a tuned-best record generate "
                             "with the tuned options")
    parser.add_argument("--tuning-db", default=None, metavar="DIR",
                        help="tuning database root (implies --tuned)")
    parser.add_argument("--verified", action="store_true",
                        help="consult the persistent CEGIS fix bank: "
                             "workloads with accepted rewrites generate "
                             "with them applied")
    parser.add_argument("--fixbank", default=None, metavar="DIR",
                        help="fix-bank root (implies --verified)")
    parser.add_argument("--analysis", default=None,
                        choices=("off", "warn", "strict"),
                        help="static-verifier gate mode for every request "
                             "(strict: ill-formed artifacts are refused "
                             "before they can be cached or served; "
                             "counters on /stats)")
    sub = parser.add_subparsers(dest="command", required=True)

    warm = sub.add_parser("warm", help="generate-and-cache workloads")
    warm.add_argument("specs", nargs="*", metavar="SPEC",
                      help="workloads to warm (default: all, default sizes)")
    warm.add_argument("--scalar", action="store_true",
                      help="generate scalar (non-vectorized) kernels")
    warm.add_argument("--no-autotune", action="store_true",
                      help="skip the autotuning search")
    warm.add_argument("--max-variants", type=int, default=6)
    warm.add_argument("--workers", type=int, default=None,
                      help="worker pool size for misses")
    warm.add_argument("--serial", action="store_true",
                      help="generate misses one at a time")
    add_json_flag(warm)

    run = sub.add_parser("run", help="generate (or hit) workloads and "
                                     "execute them on synthesized inputs")
    run.add_argument("specs", nargs="+", metavar="SPEC")
    run.add_argument("--scalar", action="store_true")
    run.add_argument("--no-autotune", action="store_true")
    run.add_argument("--max-variants", type=int, default=6)
    run.add_argument("--backend", default="auto",
                     choices=("auto", "compiled", "numpy", "interpreter"),
                     help="execution backend (default: auto -- compiled "
                          "when $CC resolves, numpy otherwise)")
    run.add_argument("--repeats", type=int, default=5,
                     help="timing samples per workload")
    add_json_flag(run)

    serve = sub.add_parser(
        "serve", help="run the HTTP kernel-serving daemon")
    serve.add_argument("--host", default=None,
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (default: 8177; 0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes; > 1 pre-forks a pool "
                            "sharing one listening socket (default: 1)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="concurrent generate/run requests admitted "
                            "per worker before answering 503 (default: 8)")
    serve.add_argument("--warm", nargs="*", default=None, metavar="SPEC",
                       help="pre-generate workloads from the registry "
                            "before accepting traffic (bare --warm warms "
                            "every registered workload)")
    serve.add_argument("--lease-ttl", type=float, default=None,
                       metavar="S",
                       help="cross-process lease expiry in seconds "
                            "(default: $REPRO_LEASE_TTL or 30)")
    serve.add_argument("--lease-wait", type=float, default=None,
                       metavar="S",
                       help="seconds a follower waits to adopt another "
                            "process's generation before generating "
                            "itself (default: $REPRO_LEASE_WAIT or 120)")
    serve.add_argument("--grace", type=float, default=10.0, metavar="S",
                       help="seconds to let workers drain on shutdown "
                            "before SIGKILL (default: 10)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logging")
    add_json_flag(serve, help="print the shutdown summary as JSON")

    query = sub.add_parser("query", help="look up workloads without "
                                         "generating")
    query.add_argument("specs", nargs="+", metavar="SPEC")
    query.add_argument("--scalar", action="store_true")
    query.add_argument("--no-autotune", action="store_true")
    query.add_argument("--max-variants", type=int, default=6)
    add_json_flag(query)

    ls = sub.add_parser("ls", help="list cached kernels")
    add_json_flag(ls)
    stats = sub.add_parser("stats", help="print store statistics")
    add_json_flag(stats, help="accepted for consistency (stats is "
                              "always JSON)")

    purge = sub.add_parser("purge", help="drop every cached kernel")
    purge.add_argument("--yes", action="store_true",
                       help="do not ask for confirmation")
    add_json_flag(purge)

    workloads = sub.add_parser("workloads",
                               help="list registered workload names")
    add_json_flag(workloads)
    return parser


def _options_from(args: argparse.Namespace) -> Options:
    return Options(vectorize=not args.scalar,
                   autotune=not args.no_autotune,
                   max_variants=args.max_variants,
                   annotate_code=False)


def _cmd_warm(service: KernelService, args: argparse.Namespace) -> int:
    options = _options_from(args)
    requests = sweep_requests(args.specs or None, options=options)
    responses = service.generate_many(requests, parallel=not args.serial)
    summary = service.stats.snapshot()
    if args.as_json:
        print_json({
            "workloads": [{
                "label": r.label,
                "hit": r.cache_hit,
                "tuned": r.tuned,
                "verified": r.verified,
                "latency_s": r.latency_s,
                "flops_per_cycle": r.result.performance.flops_per_cycle,
                "key": r.key,
            } for r in responses],
            "stats": summary,
        })
        return EXIT_OK
    width = max(len(r.label or "") for r in responses)
    for response in responses:
        state = "hit " if response.cache_hit else "MISS"
        if response.tuned:
            state += " tuned"
        if response.verified:
            state += " verified"
        perf = response.result.performance
        print(f"{(response.label or ''):{width}s}  {state}  "
              f"{response.latency_s * 1e3:8.1f} ms  "
              f"{perf.flops_per_cycle:6.3f} f/c  {response.key[:12]}")
    print(f"warmed {summary['requests']} workloads: "
          f"{summary['hits']} hits, {summary['misses']} generated "
          f"({summary['coalesced']} coalesced)")
    return EXIT_OK


def _cmd_run(service: KernelService, args: argparse.Namespace) -> int:
    """Generate (cache-first) and *execute* workloads: the zero-compiler
    proof that a served kernel actually runs, with wall-clock timing."""
    import statistics

    from ..tuning.measure import synthesize_inputs

    options = _options_from(args)
    failures = 0
    docs = []
    for text in args.specs:
        for request in sweep_requests([text], options=options):
            response = service.generate(request)
            kernel = response.kernel(args.backend)
            inputs = synthesize_inputs(response.result.function)
            outputs = kernel.run(inputs)
            finite = all(bool(np.all(np.isfinite(v)))
                         for v in outputs.values())
            if not finite:
                failures += 1
            seconds = statistics.median(
                kernel.time(inputs, repeats=args.repeats))
            if args.as_json:
                docs.append({"label": request.label,
                             "hit": response.cache_hit,
                             "executor": type(kernel).__name__,
                             "seconds": seconds,
                             "outputs": sorted(outputs),
                             "finite": finite})
                continue
            state = "hit " if response.cache_hit else "MISS"
            print(f"{request.label:14s} {state}  "
                  f"{type(kernel).__name__:17s} "
                  f"{seconds * 1e6:10.1f} us/call  "
                  f"outputs={','.join(sorted(outputs))} "
                  f"{'ok' if finite else 'NON-FINITE'}")
    if args.as_json:
        print_json({"workloads": docs, "failures": failures})
    return EXIT_FAILURE if failures else EXIT_OK


def _cmd_query(service: KernelService, args: argparse.Namespace) -> int:
    options = _options_from(args)
    missing = 0
    docs = []
    for text in args.specs:
        # Like warm: a bare case name expands to its default size sweep.
        for request in sweep_requests([text], options=options):
            key = service.request_key(request)
            meta = service.store.metadata(key)
            if args.as_json:
                docs.append({"label": request.label, "key": key,
                             "hit": meta is not None,
                             "metadata": meta})
            if meta is None:
                missing += 1
                if not args.as_json:
                    print(f"{request.label}: MISS  {key}")
            elif not args.as_json:
                print(f"{request.label}: hit   {key}  "
                      f"variant={meta.get('variant')} "
                      f"f/c={meta.get('flops_per_cycle'):.3f}")
    if args.as_json:
        print_json({"entries": docs, "missing": missing})
    return EXIT_FAILURE if missing else EXIT_OK


def _cmd_serve(service: KernelService, args: argparse.Namespace,
               make_service) -> int:
    """Run the HTTP daemon until SIGINT/SIGTERM, then shut down cleanly.

    ``--workers 1`` (the default) serves in-process; ``--workers N``
    pre-forks a pool of N worker processes sharing one listening socket
    (each built fresh by ``make_service``, so they share only the
    on-disk store and its cross-process lease layer).
    """
    import signal
    import threading

    from .server import DEFAULT_HOST, DEFAULT_PORT, KernelServer

    if args.workers < 1:
        return fail(ReproError(f"--workers must be >= 1, "
                               f"got {args.workers}"))
    host = args.host if args.host is not None else DEFAULT_HOST
    port = args.port if args.port is not None else DEFAULT_PORT

    if args.warm is not None:
        # Warm before accepting traffic: workers then serve the warmed
        # entries as disk hits from request one.
        warmed = service.warm(args.warm or None)
        print(f"warmed {warmed['warmed']} workloads "
              f"({warmed['hits']} already cached)", flush=True)

    if args.workers == 1:
        server = KernelServer(service, host=host, port=port,
                              max_inflight=args.max_inflight,
                              quiet=args.quiet)

        def _stop(signum, frame):
            # shutdown() must not run on the serve_forever thread.
            threading.Thread(target=server.shutdown, daemon=True).start()

        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, _stop)
        print(f"kernel service listening on {server.url} "
              f"(workers=1, max-inflight={server.max_inflight}, "
              f"cache={getattr(service.store, 'root', '<memory>')})",
              flush=True)
        server.serve_forever()
        summary = service.stats.snapshot()
        if args.as_json:
            print_json({"stats": summary, "rejected": server.rejected})
        else:
            print(f"shut down after {summary['requests']} requests: "
                  f"{summary['hits']} hits, "
                  f"{summary['generations']} generated, "
                  f"{summary['coalesced']} coalesced, "
                  f"{server.rejected} rejected", flush=True)
        return EXIT_OK

    from .pool import WorkerPool

    pool = WorkerPool(make_service, workers=args.workers, host=host,
                      port=port, max_inflight=args.max_inflight,
                      quiet=args.quiet, grace_s=args.grace)
    pool.start()

    def _stop_pool(signum, frame):
        threading.Thread(target=pool.shutdown, daemon=True).start()

    # Handlers go in *after* start(): the forked workers install their
    # own SIGTERM drain handler first thing, and must never inherit one
    # that tears down the whole pool from inside a child.
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _stop_pool)
    print(f"kernel service listening on {pool.url} "
          f"(workers={args.workers}, "
          f"max-inflight={args.max_inflight} per worker, "
          f"cache={getattr(service.store, 'root', '<memory>')})",
          flush=True)
    pool.wait()
    summary = pool.shutdown()  # idempotent; returns the drain summary
    if args.as_json:
        print_json({"pool": summary})
    else:
        print(f"shut down pool of {summary['workers']} workers: "
              f"{summary['restarts']} restarts, "
              f"{summary['killed']} killed after grace, "
              f"exit codes {summary['exit_codes']}", flush=True)
    clean = all(code == 0 for code in summary["exit_codes"])
    return EXIT_OK if clean and not summary["killed"] else EXIT_FAILURE


def _cmd_ls(service: KernelService, args: argparse.Namespace) -> int:
    keys = service.store.keys()
    if args.as_json:
        print_json({"entries": [
            {"key": key, "metadata": service.store.metadata(key) or {}}
            for key in keys]})
        return EXIT_OK
    if not keys:
        print("cache is empty")
        return EXIT_OK
    for key in keys:
        meta = service.store.metadata(key) or {}
        print(f"{key[:16]}  {meta.get('label') or meta.get('program', '?'):20s}"
              f"  {meta.get('variant', '?'):16s}"
              f"  {meta.get('payload_bytes', 0):>8} B")
    print(f"{len(keys)} entries")
    return EXIT_OK


def _cmd_stats(service: KernelService) -> int:
    print_json(service.store.stats())
    return EXIT_OK


def _cmd_purge(service: KernelService, args: argparse.Namespace) -> int:
    root = getattr(service.store, "root", "<store>")
    if not confirm(f"purge every cached kernel under {root}?",
                   assume_yes=args.yes):
        print("aborted")
        return EXIT_FAILURE
    removed = service.store.purge()
    if args.as_json:
        print_json({"purged": removed})
    else:
        print(f"purged {removed} entries")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    def make_service() -> KernelService:
        """One fresh service over the shared persistent stores.  The
        worker pool calls this *inside each forked worker*, so locks,
        stats, and hot layers are always per-process."""
        store = DiskKernelStore(root=args.cache_dir)
        tuning_db = None
        if args.tuned or args.tuning_db:
            from ..tuning.db import TuningDB
            tuning_db = TuningDB(root=args.tuning_db)
        fix_bank = None
        if args.verified or args.fixbank:
            from ..cegis.fixbank import FixBank
            fix_bank = FixBank(root=args.fixbank)
        leases = None
        if args.command == "serve":
            from .leases import LeaseManager
            leases = LeaseManager.for_store(
                store, ttl_s=args.lease_ttl, wait_s=args.lease_wait)
        return KernelService(
            store=store,
            max_workers=getattr(args, "workers", None)
            if args.command != "serve" else None,
            tuning_db=tuning_db, fix_bank=fix_bank, leases=leases,
            analysis=args.analysis)

    try:
        service = make_service()
        if args.command == "warm":
            return _cmd_warm(service, args)
        if args.command == "run":
            return _cmd_run(service, args)
        if args.command == "serve":
            return _cmd_serve(service, args, make_service)
        if args.command == "query":
            return _cmd_query(service, args)
        if args.command == "ls":
            return _cmd_ls(service, args)
        if args.command == "stats":
            return _cmd_stats(service)
        if args.command == "purge":
            return _cmd_purge(service, args)
        if args.command == "workloads":
            if args.as_json:
                print_json({"workloads": workload_names()})
            else:
                print("\n".join(workload_names()))
            return EXIT_OK
    except ReproError as exc:
        return fail(exc)
    return EXIT_OK  # pragma: no cover - argparse enforces a command


if __name__ == "__main__":
    sys.exit(main())
