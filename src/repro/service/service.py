"""Generation-as-a-service: cache-first kernel generation with batch fan-out.

:class:`KernelService` is the front door for everything that wants generated
kernels -- the benchmark harness, the CLI, the HTTP daemon
(:mod:`repro.service.server`), applications.  It answers each request from
the content-addressed store when possible and otherwise runs the full
SLinGen pipeline, records per-request hit/miss/latency statistics, and fans
batches of misses out over a ``concurrent.futures`` worker pool so a
figure's whole size sweep generates in parallel.

The service is safe to share between threads.  Concurrent *identical*
misses are **single-flighted**: the first caller for a content key becomes
the leader and runs the pipeline; every other caller for the same key
blocks on the leader's in-flight future and receives the very same
:class:`GenerationResult` (marked ``coalesced`` in its response and in the
stats), so N simultaneous requests for one kernel cost exactly one
generation.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent import futures
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ServiceError
from ..ir.program import Program
from ..machine.microarch import MicroArchitecture, default_machine
from ..slingen.generator import GenerationResult, SLinGen
from ..slingen.options import Options
from .keys import RequestKeys
from .store import DiskKernelStore, KernelStore


@dataclass
class GenerationRequest:
    """One unit of work for the service.

    ``options`` falls back to the service's defaults; ``nominal_flops`` is
    the mathematical operation count used for flops/cycle reporting (part of
    the cache key, since it changes the reported performance).
    """

    program: Program
    options: Optional[Options] = None
    nominal_flops: Optional[float] = None
    label: Optional[str] = None

    @classmethod
    def from_case(cls, case: object,
                  options: Optional[Options] = None) -> "GenerationRequest":
        """Build a request from an
        :class:`~repro.applications.cases.BenchmarkCase`."""
        return cls(program=case.program, options=options,
                   nominal_flops=case.nominal_flops,
                   label=f"{case.name}:{case.size}")

    @classmethod
    def from_source(cls, source: str, constants: Dict[str, int],
                    name: str = "la_program",
                    options: Optional[Options] = None,
                    nominal_flops: Optional[float] = None
                    ) -> "GenerationRequest":
        """Build a request from raw LA source text.

        The default ``name`` matches :func:`repro.la.parse_program`'s, so a
        request built here and a key computed from the raw text via
        :func:`repro.service.keys.cache_key` resolve to the same entry.
        """
        from ..la import parse_program
        program = parse_program(source, constants, name=name)
        return cls(program=program, options=options,
                   nominal_flops=nominal_flops, label=name)


@dataclass
class ServiceResponse:
    """The service's answer to one request."""

    key: str
    result: GenerationResult
    cache_hit: bool
    latency_s: float
    label: Optional[str] = None
    tuned: bool = False             # generated with TuningDB-best options
    verified: bool = False          # generated with FixBank rewrites applied
    coalesced: bool = False         # shared another request's generation

    def kernel(self, backend: str = "auto"):
        """A runnable kernel for this response's generated code.

        ``backend`` is ``"compiled"``, ``"numpy"``, ``"interpreter"``, or
        ``"auto"`` (compiled when ``$CC`` resolves, the portable NumPy
        translation otherwise -- so a service client always gets a real,
        fast executable even on machines with no C compiler).  Compiled
        artifacts are content-addressed by this response's cache key, so
        repeated calls reuse the shared object / generated source.
        """
        return self.result.kernel(backend, cache_key=self.key)


@dataclass
class ServiceStats:
    """Aggregate counters over the lifetime of one service instance.

    All mutation goes through the ``note_*``/:meth:`record` methods, which
    hold an internal lock -- the service is hammered from many threads at
    once (batch pools, the HTTP daemon) and the counters must stay exact.
    Reading individual attributes without the lock is fine for display;
    :meth:`snapshot` takes the lock and returns a consistent view.

    The four core counters obey two invariants:
    ``requests == hits + misses`` (every recorded response is one or the
    other) and ``misses == generations + coalesced`` (a store miss either
    ran the pipeline itself or shared a generation that did -- in a batch
    or via single-flight).
    """

    requests: int = 0
    hits: int = 0                   # served from the store
    misses: int = 0                 # not in the store when requested
    errors: int = 0                 # requests that raised
    generations: int = 0            # actual SLinGen pipeline executions
    coalesced: int = 0              # misses that shared another's generation
    tuned: int = 0                  # requests answered with tuned options
    verified: int = 0               # requests answered with banked rewrites
    hit_latency_s: float = 0.0
    miss_latency_s: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def note_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record(self, response: ServiceResponse) -> None:
        # generations/coalesced are derived here, in the same critical
        # section as misses, so a concurrent snapshot() can never observe
        # the documented invariants mid-update: a miss either ran the
        # pipeline itself (a generation) or shared one (coalesced).
        with self._lock:
            self.requests += 1
            if response.cache_hit:
                self.hits += 1
                self.hit_latency_s += response.latency_s
            else:
                self.misses += 1
                self.miss_latency_s += response.latency_s
                if response.coalesced:
                    self.coalesced += 1
                else:
                    self.generations += 1
            if response.tuned:
                self.tuned += 1
            if response.verified:
                self.verified += 1

    def snapshot(self) -> Dict[str, object]:
        """A consistent, JSON-able view of the counters.

        Schema (all keys always present): ``requests``, ``hits``,
        ``misses``, ``errors``, ``generations``, ``coalesced``, ``tuned``,
        ``verified`` -- monotone integer counters as documented on the
        class;
        ``hit_rate`` -- ``hits / requests`` (0.0 before any request);
        ``hit_latency_s`` / ``miss_latency_s`` -- summed wall-clock
        latency per outcome; ``mean_hit_latency_s`` /
        ``mean_miss_latency_s`` -- the per-request means (0.0 when the
        denominator is zero); ``phase_cache`` -- hit/miss/put counters of
        this process's shared :class:`~repro.pipeline.cache.PhaseCache`
        (what generation work the staged pipeline memoized away), with a
        ``per_phase`` breakdown; ``analysis`` -- this process's static
        verifier counters (:func:`repro.analysis.stats_snapshot`:
        artifacts checked, diagnostics found, strict-gate rejections).
        The schema only grows; existing keys
        keep their meaning (``GET /stats`` of the HTTP daemon exposes
        this dict verbatim under ``"service"``).
        """
        from ..analysis import stats_snapshot as analysis_snapshot
        phase_cache = self._phase_cache_snapshot()
        analysis = analysis_snapshot()
        with self._lock:
            return {
                "analysis": analysis,
                "phase_cache": phase_cache,
                "requests": self.requests,
                "hits": self.hits,
                "misses": self.misses,
                "errors": self.errors,
                "generations": self.generations,
                "coalesced": self.coalesced,
                "tuned": self.tuned,
                "verified": self.verified,
                "hit_rate": self.hit_rate,
                "hit_latency_s": self.hit_latency_s,
                "miss_latency_s": self.miss_latency_s,
                "mean_hit_latency_s": (self.hit_latency_s / self.hits
                                       if self.hits else 0.0),
                "mean_miss_latency_s": (self.miss_latency_s / self.misses
                                        if self.misses else 0.0),
            }

    @staticmethod
    def _phase_cache_snapshot() -> Dict[str, object]:
        """The shared phase cache's counters (this process only: a batch
        miss generated in a ``generate_many`` subprocess hits that
        worker's own cache, not this one)."""
        from ..pipeline.cache import shared_phase_cache
        stats = shared_phase_cache().stats()
        return {
            "hits": int(stats["hits"]),
            "misses": int(stats["misses"]),
            "puts": sum(int(counter["puts"])
                        for counter in stats["phases"].values()),
            "per_phase": stats["phases"],
        }


def _generate_payload(program: Program, options: Options,
                      machine: MicroArchitecture,
                      nominal_flops: Optional[float]) -> GenerationResult:
    """Pure generation, no store access.

    Module-level so it pickles, making it usable as a
    ``ProcessPoolExecutor`` work item as well as a thread-pool one.
    """
    return SLinGen(options, machine=machine).generate_result(
        program, nominal_flops=nominal_flops)


class _SingleFlight:
    """Per-key in-flight registry: one generation per key at a time.

    :meth:`begin` hands the first caller for a key a fresh future and
    leadership; every later caller for the same key gets the *same* future
    and ``leader=False`` -- it waits on ``future.result()`` instead of
    duplicating the work.  The leader must complete the future (result or
    exception) and then :meth:`finish` the key so later requests start a
    new flight (by then the result is in the store, so they hit).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[str, "futures.Future[GenerationResult]"] = {}

    def begin(self, key: str
              ) -> "Tuple[futures.Future[GenerationResult], bool]":
        with self._lock:
            future = self._inflight.get(key)
            if future is not None:
                return future, False
            future = futures.Future()
            self._inflight[key] = future
            return future, True

    def finish(self, key: str) -> None:
        with self._lock:
            self._inflight.pop(key, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._inflight)


class KernelService:
    """Cache-first kernel generation with parallel batch misses."""

    def __init__(self, store: Optional[KernelStore] = None,
                 options: Optional[Options] = None,
                 machine: Optional[MicroArchitecture] = None,
                 max_workers: Optional[int] = None,
                 executor: str = "process",
                 tuning_db: Optional[object] = None,
                 fix_bank: Optional[object] = None,
                 single_flight: bool = True,
                 leases: Optional[object] = None,
                 analysis: Optional[str] = None):
        """``executor`` selects the miss pool for :meth:`generate_many`:
        ``"process"`` (default) gives true CPU parallelism for the
        pure-Python generation pipeline; ``"thread"`` avoids process spawn
        on platforms where that is expensive or unavailable (the GIL then
        serializes the actual generation work).  If the process pool cannot
        be created or dies, the batch falls back to in-process serial
        generation rather than failing.

        ``tuning_db`` (a :class:`~repro.tuning.db.TuningDB`) makes the
        service consult the persistent tuning records: when the requested
        *(program, machine)* has a tuned-best entry, the request's options
        are replaced by the tuned ones before keying and generation, so a
        cache miss generates the empirically best known kernel instead of
        re-running the model-driven search.

        ``fix_bank`` (a :class:`~repro.cegis.fixbank.FixBank`) makes the
        service additionally apply CEGIS-verified rewrites: when the
        requested *(program, machine)* has a fix record with accepted
        rewrite ids, ``Options.verified_rewrites`` is set from it before
        keying and generation.  Composes with ``tuning_db`` -- the tuned
        record decides the searched knobs, the fix record decides the
        rewrite set.

        ``single_flight=False`` disables the concurrent-miss coalescing of
        :meth:`generate` (every caller generates independently); it exists
        for tests and for measuring what coalescing buys
        (``benchmarks/bench_concurrent_service.py``).

        ``analysis`` overrides ``Options.analysis`` on *every* request
        this service answers (requests keep their other options): the
        static-verifier gate mode, ``"off"``/``"warn"``/``"strict"``.
        A gate axis never feeds the cache key, so flipping it does not
        invalidate the store -- but under ``"strict"`` an ill-formed
        artifact raises :class:`~repro.errors.AnalysisError` before it
        can be stored or served.

        ``leases`` (a :class:`~repro.service.leases.LeaseManager`,
        conventionally ``LeaseManager.for_store(store)``) extends
        single-flight *across processes*: the in-process flight leader
        additionally takes a per-key filesystem lease before generating,
        so N worker processes of a pool (:mod:`repro.service.pool`)
        hammering one cold key still cost exactly one generation --
        followers adopt the winner's committed artifact (reported
        ``coalesced``), and leases left by crashed processes are reaped.
        Requires ``single_flight`` (the default)."""
        if executor not in ("thread", "process"):
            raise ServiceError(
                f"executor must be 'thread' or 'process', got {executor!r}")
        self.store = store if store is not None else DiskKernelStore()
        self.options = (options or Options()).validate()
        self.machine = machine or default_machine()
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self.executor_kind = executor
        self.tuning_db = tuning_db
        self.fix_bank = fix_bank
        self.single_flight = single_flight
        if leases is not None and not single_flight:
            raise ServiceError(
                "cross-process leases require single_flight=True "
                "(the lease is taken by the in-process flight leader)")
        self.leases = leases
        if analysis is not None:
            from ..analysis import validate_mode
            validate_mode(analysis)
        self.analysis = analysis
        self.stats = ServiceStats()
        self._flight = _SingleFlight()

    # -- keys ----------------------------------------------------------------

    def _coerce(self, request: Union[GenerationRequest, Program]
                ) -> GenerationRequest:
        if isinstance(request, Program):
            request = GenerationRequest(program=request, label=request.name)
        return request

    def request_keys(self, request: Union[GenerationRequest, Program]
                     ) -> RequestKeys:
        """A :class:`~repro.service.keys.RequestKeys` for ``request`` on
        this service's machine, to pass back with the same request to
        :meth:`generate` or :meth:`request_key`.  It reuses the request's
        keys across calls, so keep it only while nothing mutates the
        request's program or ``nominal_flops``."""
        request = self._coerce(request)
        return RequestKeys(request.program, self.machine,
                           request.nominal_flops)

    def _resolve(self, request: GenerationRequest,
                 keys: Optional[RequestKeys]
                 ) -> "tuple[Options, bool, bool, str]":
        """The options this request generates with, whether they came from
        the tuning database, whether banked verified rewrites were
        applied, and the content key.  The tuning DB and the fix bank are
        asked on every call; ``keys`` (fresh ones when None) supplies
        their lookup key and the content key.

        Tuned options and banked rewrites participate in content
        addressing exactly like user-supplied ones (the key is computed
        from the *effective* options), so tuned, verified and plain
        requests for the same program are distinct cache entries and
        results stay a pure function of the key.
        """
        if keys is None:
            keys = self.request_keys(request)
        options = (request.options or self.options).validate()
        tuned = False
        if self.tuning_db is not None:
            best = self.tuning_db.best_options(
                keys.lookup_key(options.vectorize), base=options)
            if best is not None:
                options = best.validate()
                tuned = True
        verified = False
        if self.fix_bank is not None:
            banked = self.fix_bank.verified_options(
                keys.lookup_key(options.vectorize), base=options)
            if banked is not None and banked.verified_rewrites:
                options = banked.validate()
                verified = True
        if self.analysis is not None and options.analysis != self.analysis:
            options = replace(options, analysis=self.analysis)
        return options, tuned, verified, keys.cache_key(options)

    def request_key(self, request: Union[GenerationRequest, Program],
                    keys: Optional[RequestKeys] = None) -> str:
        """The content key this request resolves to (no generation);
        ``keys`` as for :meth:`generate`."""
        return self._resolve(self._coerce(request), keys)[3]

    # -- single requests -----------------------------------------------------

    def generate(self, request: Union[GenerationRequest, Program],
                 keys: Optional[RequestKeys] = None) -> ServiceResponse:
        """Answer one request, from the store when possible.

        Thread-safe.  Concurrent misses for the same content key coalesce
        into a single pipeline run (see the module docstring); the
        followers' responses carry ``coalesced=True``.  ``keys``, from
        :meth:`request_keys` for this same request, reuses its content
        key while its effective options stay equal; without it the keys
        are computed afresh.
        """
        request = self._coerce(request)
        started = time.perf_counter()
        options, tuned, verified, key = self._resolve(request, keys)
        result = self.store.get(key)
        hit = result is not None
        coalesced = False
        if result is None:
            if self.single_flight:
                result, coalesced = self._miss_single_flight(
                    key, request, options, tuned)
            else:
                result = self._generate_and_store(key, request, options,
                                                  tuned)
        response = ServiceResponse(
            key=key, result=result, cache_hit=hit,
            latency_s=time.perf_counter() - started,
            label=request.label or request.program.name,
            tuned=tuned, verified=verified, coalesced=coalesced)
        self.stats.record(response)
        return response

    def _generate_and_store(self, key: str, request: GenerationRequest,
                            options: Options, tuned: bool
                            ) -> GenerationResult:
        """Run the pipeline for one miss and commit the result."""
        try:
            result = _generate_payload(request.program, options,
                                       self.machine, request.nominal_flops)
        except Exception:
            self.stats.note_error()
            raise
        self.store.put(key, result,
                       meta={"label": request.label, "tuned": tuned})
        return result

    def _miss_single_flight(self, key: str, request: GenerationRequest,
                            options: Options, tuned: bool
                            ) -> "Tuple[GenerationResult, bool]":
        """Resolve one miss, coalescing with any in-flight generation.

        Returns ``(result, coalesced)``.  The leader re-probes the store
        after winning the flight (another thread may have committed between
        our miss and leadership), generates-and-stores if still absent, and
        publishes the outcome -- success or exception -- to every waiter
        before retiring the key.
        """
        future, leader = self._flight.begin(key)
        if not leader:
            try:
                return future.result(), True
            except Exception:
                self.stats.note_error()
                raise
        try:
            result = self.store.get(key)
            # A hit here means another thread committed between our outer
            # miss and winning the flight: we shared its generation.
            coalesced = result is not None
            if result is None:
                if self.leases is not None:
                    # Cross-process single flight: take the per-key
                    # filesystem lease (or adopt the holder's artifact).
                    result, adopted = self.leases.coalesce(
                        key,
                        probe=lambda: self.store.get(key),
                        generate=lambda: self._generate_and_store(
                            key, request, options, tuned))
                    coalesced = adopted
                else:
                    result = self._generate_and_store(key, request,
                                                      options, tuned)
        except BaseException as exc:
            future.set_exception(exc)
            # The waiters hold the only other references; break the cycle
            # between this frame's exception and the future.
            future = None
            raise
        else:
            future.set_result(result)
            return result, coalesced
        finally:
            self._flight.finish(key)

    # -- batches -------------------------------------------------------------

    def generate_many(self,
                      requests: Sequence[Union[GenerationRequest, Program]],
                      parallel: bool = True) -> List[ServiceResponse]:
        """Answer a batch: hits served immediately, misses generated on the
        worker pool, duplicates coalesced to one generation.

        Responses come back in request order and are bitwise identical to
        what serial :meth:`generate` calls would produce (the workers run
        the same pure generation path).
        """
        coerced = [self._coerce(r) for r in requests]
        started = [0.0] * len(coerced)
        keys: List[str] = []
        effective: List[Options] = []
        tuned_flags: List[bool] = []
        verified_flags: List[bool] = []
        resolved: List[Optional[GenerationResult]] = []
        hit_flags: List[bool] = []
        # Hits complete during this first pass; their latency must be
        # captured here, not when the batch's misses finish generating.
        finished: List[Optional[float]] = []

        pending: Dict[str, List[int]] = {}
        for idx, request in enumerate(coerced):
            started[idx] = time.perf_counter()
            options, tuned, verified, key = self._resolve(request, None)
            effective.append(options)
            tuned_flags.append(tuned)
            verified_flags.append(verified)
            keys.append(key)
            result = self.store.get(key)
            resolved.append(result)
            hit_flags.append(result is not None)
            finished.append(time.perf_counter() if result is not None
                            else None)
            if result is None:
                pending.setdefault(key, []).append(idx)

        # One generation per unique missing key; the other indices of each
        # key share it and are reported (and counted) as coalesced.
        work: List[int] = []
        coalesced_flags = [False] * len(coerced)
        for key, indices in pending.items():
            work.append(indices[0])
            for dup_idx in indices[1:]:
                coalesced_flags[dup_idx] = True

        def run_one(idx: int) -> GenerationResult:
            request = coerced[idx]
            return _generate_payload(request.program, effective[idx],
                                     self.machine, request.nominal_flops)

        if work:
            produced: Optional[List[GenerationResult]] = None
            try:
                if parallel and len(work) > 1:
                    workers = min(self.max_workers, len(work))
                    if self.executor_kind == "process":
                        try:
                            with futures.ProcessPoolExecutor(
                                    max_workers=workers) as pool:
                                produced = list(pool.map(
                                    _generate_payload,
                                    [coerced[i].program for i in work],
                                    [effective[i] for i in work],
                                    [self.machine] * len(work),
                                    [coerced[i].nominal_flops for i in work]))
                        except (futures.process.BrokenProcessPool, OSError,
                                PermissionError):
                            # Sandboxes without fork/semaphores: degrade to
                            # serial generation instead of failing the batch.
                            produced = None
                    else:
                        with futures.ThreadPoolExecutor(
                                max_workers=workers) as pool:
                            produced = list(pool.map(run_one, work))
                if produced is None:
                    produced = [run_one(idx) for idx in work]
            except Exception:
                self.stats.note_error()
                raise
            for idx, result in zip(work, produced):
                key = keys[idx]
                self.store.put(key, result,
                               meta={"label": coerced[idx].label,
                                     "tuned": tuned_flags[idx]})
                now = time.perf_counter()
                for dup_idx in pending[key]:
                    resolved[dup_idx] = result
                    finished[dup_idx] = now

        responses: List[ServiceResponse] = []
        for idx, request in enumerate(coerced):
            result = resolved[idx]
            if result is None:  # pragma: no cover - defensive
                raise ServiceError(
                    f"request {request.label or request.program.name!r} "
                    f"was not resolved")
            end = finished[idx] if finished[idx] is not None \
                else time.perf_counter()
            response = ServiceResponse(
                key=keys[idx], result=result, cache_hit=hit_flags[idx],
                latency_s=end - started[idx],
                label=request.label or request.program.name,
                tuned=tuned_flags[idx], verified=verified_flags[idx],
                coalesced=coalesced_flags[idx])
            self.stats.record(response)
            responses.append(response)
        return responses

    # -- registry convenience ------------------------------------------------

    def warm(self, specs: Optional[Sequence[str]] = None,
             options: Optional[Options] = None,
             parallel: bool = True) -> Dict[str, object]:
        """Pre-generate the named workloads (default: every registered
        workload at its default size sweep); returns a summary dict."""
        from .registry import sweep_requests
        requests = sweep_requests(specs, options=options)
        responses = self.generate_many(requests, parallel=parallel)
        return {
            "warmed": len(responses),
            "hits": sum(1 for r in responses if r.cache_hit),
            "misses": sum(1 for r in responses if not r.cache_hit),
            "labels": [r.label for r in responses],
        }

    def reset_stats(self) -> None:
        self.stats = ServiceStats()
