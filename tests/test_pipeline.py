"""Tests of the staged generation pipeline: phase keys, the artifact
cache, cross-variant reuse, and the public API facade.

The load-bearing properties:

* the phase/option-axis partition covers every ``Options`` field exactly
  once (a new field fails here until it is deliberately placed),
* a codegen sweep whose variants share a blocking factor builds Stage 1
  exactly once,
* lower, optimize and score are keyed by what they consume, so they
  build once per distinct input and never change a candidate,
* cached generation is byte-identical to cold generation,
* the persistent layer quarantines corruption instead of raising, and
* the builder's memo survives concurrent access.
"""

import json
import os
import pickle
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.machine.microarch import default_machine
from repro.pipeline import keys
from repro.pipeline.cache import (PersistentPhaseStore, PhaseCache,
                                  PhaseTimings, reset_shared_phase_cache,
                                  shared_phase_cache)
from repro.pipeline.keys import (PHASE_AXES, PHASES, SEARCH_AXES,
                                 assert_partition_complete)
from repro.service.registry import build_case, parse_spec
from repro.slingen.generator import (CandidateBuilder, SLinGen,
                                     build_candidate)
from repro.slingen.options import Options


def make_case(spec="potrf:4"):
    return build_case(parse_spec(spec))


def sweep_variants(count=8):
    """``count`` codegen variants differing only in codegen axes (none
    overrides the blocking factor, so all share one Stage-1 artifact)."""
    from dataclasses import replace

    from repro.lgen.tiling import CodegenVariant

    base = CodegenVariant(vector_width=4)
    pool = [
        base,
        replace(base, unroll_trip_count=4, unroll_body_limit=32),
        replace(base, unroll_trip_count=16, unroll_body_limit=128),
        replace(base, use_shuffle_transpose=False),
        replace(base, scalar_replacement=False),
        replace(base, load_store_analysis=False),
        replace(base, unroll_trip_count=4, unroll_body_limit=32,
                scalar_replacement=False),
        replace(base, use_shuffle_transpose=False,
                load_store_analysis=False),
    ]
    assert len(pool) >= count and \
        all(v.block_size is None for v in pool)
    return pool[:count]


class TestKeyPartition:
    def test_partition_is_complete(self):
        # The real contract: every live Options field is assigned to
        # exactly one phase (or is search-control).
        assert_partition_complete()

    def test_missing_axis_is_detected(self, monkeypatch):
        trimmed = dict(PHASE_AXES)
        trimmed["lower"] = tuple(a for a in trimmed["lower"]
                                 if a != "vector_width")
        monkeypatch.setattr(keys, "PHASE_AXES", trimmed)
        with pytest.raises(ConfigurationError, match="unassigned"):
            assert_partition_complete()

    def test_duplicated_axis_is_detected(self, monkeypatch):
        doubled = dict(PHASE_AXES)
        doubled["optimize"] = doubled["optimize"] + ("vectorize",)
        monkeypatch.setattr(keys, "PHASE_AXES", doubled)
        with pytest.raises(ConfigurationError, match="more than one"):
            assert_partition_complete()

    def test_unknown_axis_is_detected(self, monkeypatch):
        monkeypatch.setattr(keys, "SEARCH_AXES",
                            SEARCH_AXES + ("no_such_option",))
        with pytest.raises(ConfigurationError, match="naming no"):
            assert_partition_complete()

    def test_keys_chain_and_separate(self):
        case = make_case()
        a = keys.stage1_key(case.program, 4, {})
        b = keys.stage1_key(case.program, 8, {})
        assert a != b                       # block size keys Stage 1
        ra = keys.rewrite_key(a, True, ())
        rb = keys.rewrite_key(b, True, ())
        assert ra != rb                     # parent key chains through
        assert keys.rewrite_key(a, False, ()) != ra
        # Lower takes a digest of the program it consumes, optimize the
        # key of the lowering it consumes.
        pa = keys.program_digest(case.program)
        pb = keys.program_digest(make_case("potrf:8").program)
        la = keys.lower_key(pa, 4, True, "kernel", False)
        lb = keys.lower_key(pb, 4, True, "kernel", False)
        assert lb != la
        assert keys.lower_key(pa, 8, True, "kernel", False) != la
        oa = keys.optimize_key(la, (True,), True, True)
        assert keys.optimize_key(lb, (True,), True, True) != oa
        assert keys.optimize_key(la, None, True, True) != oa
        assert keys.optimize_key(la, (), True, True) != \
            keys.optimize_key(la, None, True, True)
        assert keys.optimize_key(la, (False,), True, True) != oa
        assert keys.optimize_key(la, (True,), False, True) != oa
        assert keys.optimize_key(la, (True,), True, False) != oa
        machine = keys.machine_digest(default_machine())
        sa = keys.score_key(oa, machine, 10.0)
        assert keys.score_key(oa, machine, 20.0) != sa
        assert keys.score_key(oa, "0" * 64, 10.0) != sa

    def test_function_digest_covers_shapes_and_kinds(self):
        # The C text names a buffer but not its rows or whether it is
        # out or inout; the passes read both, so the digest must too.
        base = keys.function_digest(_function("kernel"))
        assert keys.function_digest(_function("kernel")) == base
        assert keys.function_digest(_function("kernel", rows=4)) != base
        assert keys.function_digest(_function("kernel", kind="inout")) \
            != base
        assert keys.function_digest(_function("kernel", width=2)) != base
        assert keys.function_digest(_function("kernel", value=2.5)) != base
        assert keys.function_digest(_function("kernel", index=3)) != base


def _function(name, rows=2, kind="out", width=4, value=1.5, index=1):
    """A two-statement C-IR function whose every input can be varied."""
    from repro.cir.nodes import (Affine, Buffer, FloatConst, Function,
                                 Load, Store)
    x = Buffer("x", 2, 2, "in")
    y = Buffer("y", rows, 8 // rows, kind)
    body = [Store(y, Affine.constant(0),
                  Load(x, Affine.constant(index))),
            Store(y, Affine.var("i", 2), FloatConst(value))]
    return Function(name, [x, y], [], body, width)


class TestPhaseCache:
    def test_hit_miss_and_stats(self):
        cache = PhaseCache()
        assert cache.get("stage1", "k") is None
        cache.put("stage1", "k", {"x": 1})
        assert cache.get("stage1", "k") == {"x": 1}
        stats = cache.stats()
        assert stats["phases"]["stage1"] == \
            {"hits": 1, "misses": 1, "puts": 1}
        assert stats["hits"] == 1 and stats["misses"] == 1
        cache.reset_stats()
        assert cache.stats()["misses"] == 0
        cache.clear()
        assert cache.get("stage1", "k") is None

    def test_artifacts_are_shared_not_copied(self):
        cache = PhaseCache()
        artifact = {"big": list(range(8))}
        cache.put("lower", "k", artifact)
        assert cache.get("lower", "k") is artifact

    def test_persistent_roundtrip_and_promotion(self, tmp_path):
        store = PersistentPhaseStore(str(tmp_path))
        warm = PhaseCache(persistent=store)
        warm.put("optimize", "a" * 64, {"payload": 7})
        # A fresh process (new hot layer, same directory) hits on disk.
        cold = PhaseCache(persistent=PersistentPhaseStore(str(tmp_path)))
        assert cold.get("optimize", "a" * 64) == {"payload": 7}
        assert cold.persistent.disk_hits == 1
        # Promoted to the hot layer: the second get never touches disk.
        assert cold.get("optimize", "a" * 64) == {"payload": 7}
        assert cold.persistent.reads == 1

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        store = PersistentPhaseStore(str(tmp_path))
        key = "b" * 64
        store.put("stage1", key, {"ok": True})
        path = store._path("stage1", key)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert store.get("stage1", key) is None
        assert store.corrupt_dropped == 1
        assert not os.path.exists(path)     # quarantined, not left to rot
        # A non-pickle that *loads* but was torn mid-write also drops.
        with open(path, "wb") as handle:
            handle.write(pickle.dumps({"ok": True})[:-4])
        assert store.get("stage1", key) is None
        assert store.corrupt_dropped == 2

    def test_slow_disk_read_does_not_block_hot_lookups(self):
        class SlowDisk:
            """A persistent layer whose reads wait for ``release``."""

            def __init__(self):
                self.entered = threading.Event()
                self.release = threading.Event()

            def get(self, phase, key):
                self.entered.set()
                self.release.wait(10)
                return {"from": "disk"}

            def put(self, phase, key, artifact):
                pass

            def stats(self):
                return {}

        disk = SlowDisk()
        cache = PhaseCache(persistent=disk)
        cache.put("lower", "hot", {"from": "memory"})
        cold = []
        reader = threading.Thread(
            target=lambda: cold.append(cache.get("lower", "cold")))
        reader.start()
        try:
            assert disk.entered.wait(10)
            hot = []
            lookup = threading.Thread(
                target=lambda: hot.append(cache.get("lower", "hot")))
            lookup.start()
            lookup.join(5)
            assert hot == [{"from": "memory"}], \
                "a hot get waited for another thread's disk read"
        finally:
            disk.release.set()
            reader.join(10)
        assert cold == [{"from": "disk"}]
        # The disk hit is promoted, and every get counted exactly once.
        assert cache.get("lower", "cold") is cold[0]
        assert cache.stats()["phases"]["lower"] == \
            {"hits": 3, "misses": 0, "puts": 1}

    def test_shared_cache_reads_environment(self, tmp_path, monkeypatch):
        reset_shared_phase_cache()
        monkeypatch.setenv("REPRO_PHASE_CACHE", str(tmp_path))
        try:
            cache = shared_phase_cache()
            assert cache is shared_phase_cache()    # one per process
            assert cache.persistent is not None
            assert cache.persistent.root == str(tmp_path)
        finally:
            reset_shared_phase_cache()

    def test_timings_accumulate(self):
        timings = PhaseTimings()
        timings.record("stage1", 0.25, hit=False)
        timings.record("stage1", 0.05, hit=True)
        doc = timings.as_dict()
        assert doc["stage1"]["calls"] == 2
        assert doc["stage1"]["hits"] == 1
        assert doc["stage1"]["seconds"] == pytest.approx(0.3)
        assert timings.total_seconds == pytest.approx(0.3)


class TestCrossVariantReuse:
    def test_sweep_builds_stage1_exactly_once(self):
        case = make_case()
        cache = PhaseCache()
        variants = sweep_variants(8)
        builder = CandidateBuilder(case.program,
                                   Options(vectorize=True,
                                           annotate_code=False),
                                   default_machine(), [{}], variants,
                                   nominal_flops=case.nominal_flops,
                                   phase_cache=cache)
        for point in builder.space().points():
            builder.candidate(point)
        phases = cache.stats()["phases"]
        assert phases["stage1"]["misses"] == 1
        assert phases["stage1"]["hits"] == len(variants) - 1
        # One rewrite too (same axes).  Optimize runs once per distinct
        # (lowered function, unroll plan, sr, lsa): both shuffle settings
        # lower potrf:4 to one function, and the default, u4 and u16
        # thresholds all unroll its every loop, so only the three
        # (sr, lsa) settings remain -- 3 of 8.
        assert phases["rewrite"]["misses"] == 1
        assert phases["optimize"]["misses"] == 3

    def test_a_cold_build_renders_its_program_once(self, monkeypatch):
        from repro.pipeline import phases
        from repro.service import keys as service_keys
        case = make_case("potrf:8")
        rendered, stage1_keys = [], []
        canonical, stage1 = service_keys.canonical_program, phases.stage1

        def counting_canonical(program):
            rendered.append(program.name)
            return canonical(program)

        def recording_stage1(program, block_size, variant_choices, **kw):
            artifact = stage1(program, block_size, variant_choices, **kw)
            stage1_keys.append((artifact.key, block_size,
                                dict(variant_choices)))
            return artifact

        monkeypatch.setattr(service_keys, "canonical_program",
                            counting_canonical)
        monkeypatch.setattr(phases, "stage1", recording_stage1)
        SLinGen(Options(), phase_cache=PhaseCache()).generate_result(
            case.program, nominal_flops=case.nominal_flops)
        monkeypatch.undo()
        assert rendered == [case.program.name]
        assert len(stage1_keys) > 1
        for key, block_size, choices in stage1_keys:
            assert key == keys.stage1_key(case.program, block_size, choices)

    def test_builder_memo_is_thread_safe(self):
        case = make_case()
        builder = CandidateBuilder(case.program,
                                   Options(vectorize=True,
                                           annotate_code=False),
                                   default_machine(), [{}],
                                   sweep_variants(4),
                                   nominal_flops=case.nominal_flops,
                                   phase_cache=PhaseCache())
        points = list(builder.space().points())
        results = [[] for _ in range(4)]

        def sweep(bucket):
            for point in points:
                bucket.append(builder.candidate(point))

        threads = [threading.Thread(target=sweep, args=(bucket,))
                   for bucket in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every thread saw the same memoized candidate per point, and
        # each point was built exactly once.
        for bucket in results[1:]:
            for first, mine in zip(results[0], bucket):
                assert mine is first
        assert len(builder.built) == len(points)


#: Three registry workloads of different shapes (factorization, product,
#: triangular solve) -- cold and cached generation must agree on bytes.
CACHED_SPECS = ("potrf:4", "gemm:4", "trsm:4")


class TestCachedGenerationIsIdentical:
    @pytest.mark.parametrize("spec", CACHED_SPECS)
    def test_warm_c_is_byte_identical(self, spec):
        case = make_case(spec)
        cache = PhaseCache()
        generator = SLinGen(Options(vectorize=True, annotate_code=False),
                            phase_cache=cache)
        cold = generator.generate_result(case.program,
                                         nominal_flops=case.nominal_flops)
        warm = generator.generate_result(case.program,
                                         nominal_flops=case.nominal_flops)
        assert warm.c_code == cold.c_code
        assert warm.function.statement_count() == \
            cold.function.statement_count()
        # The warm pass was served entirely from the cache.
        stats = warm.phase_stats
        assert stats is not None
        for phase in PHASES:
            assert stats[phase]["hits"] == stats[phase]["calls"]

    def test_phase_timings_surface_in_summary(self):
        case = make_case()
        result = SLinGen(Options(vectorize=True, annotate_code=False),
                         phase_cache=PhaseCache()).generate_result(
            case.program, nominal_flops=case.nominal_flops)
        phases = result.summary()["phases"]
        for phase in PHASES:
            assert set(phases[phase]) == {"calls", "hits", "seconds"}
            assert phases[phase]["calls"] >= 1

    def test_persistent_layer_survives_process_restart(self, tmp_path):
        case = make_case()
        options = Options(vectorize=True, annotate_code=False)
        first = SLinGen(options, phase_cache=PhaseCache(
            persistent=PersistentPhaseStore(str(tmp_path))))
        cold = first.generate_result(case.program,
                                     nominal_flops=case.nominal_flops)
        # "Restart": a fresh hot layer over the same directory.
        store = PersistentPhaseStore(str(tmp_path))
        second = SLinGen(options, phase_cache=PhaseCache(persistent=store))
        warm = second.generate_result(case.program,
                                      nominal_flops=case.nominal_flops)
        assert warm.c_code == cold.c_code
        assert store.disk_hits > 0


class _SnapshotCache(PhaseCache):
    """A phase cache that renders each artifact's IR as it is adopted."""

    def __init__(self):
        super().__init__()
        self.snapshots = []

    def put(self, phase, key, artifact):
        self.snapshots.append((phase, artifact, _render(phase, artifact)))
        super().put(phase, key, artifact)


def _render(phase, artifact):
    from repro.backend.c_unparser import CUnparser
    from repro.service.keys import canonical_program
    if phase == "stage1":
        return canonical_program(artifact.result.program)
    if phase == "rewrite":
        return canonical_program(artifact.program)
    if phase == "score":
        return repr(artifact)
    return CUnparser(artifact.function).unparse()


class TestSharedArtifactsStayUnchanged:
    """Later phases share cached IR instead of copying it: building every
    candidate through one cache must leave each cached program and
    function reading exactly as it did when it was cached."""

    @pytest.mark.parametrize("spec", ("potrf:8", "kf:4"))
    def test_every_candidate_leaves_cached_ir_intact(self, spec):
        case = make_case(spec)
        cache = _SnapshotCache()
        options = Options(vectorize=True, max_variants=32)
        result = SLinGen(options, strategy="exhaustive", phase_cache=cache
                         ).generate_result(case.program,
                                           nominal_flops=case.nominal_flops)
        assert len(result.candidates) > 8
        phases = {phase for phase, _, _ in cache.snapshots}
        assert phases == set(PHASES)
        for phase, artifact, before in cache.snapshots:
            assert _render(phase, artifact) == before, phase


    def test_rewrite_rules_leave_the_stage1_program_intact(self):
        from repro.la import parse_program
        from repro.pipeline import phases
        from repro.service.keys import canonical_program
        program = parse_program("""
        Vec b(6) <In>;
        Sca lam <In>;
        Vec x(6) <Out>;
        x = b / lam;
        """, {})
        stage1 = phases.stage1(program, 4, {})
        basic = stage1.result.program
        before = canonical_program(basic)
        rewritten = phases.rewrite(stage1, True, ())
        assert rewritten.report.r1_applications == 1
        assert len(rewritten.program.statements) == 2
        assert canonical_program(basic) == before


def full_space(case, options, cache):
    """The generator's whole autotuning space for ``case``: every
    Stage-1 choice times every resolved codegen variant."""
    from repro.lgen.tiling import candidate_variants, dedupe_resolved
    from repro.slingen.stage1 import (enumerate_variant_choices,
                                      find_hlac_sites)
    block_size = options.effective_block_size
    choices = enumerate_variant_choices(
        find_hlac_sites(case.program, block_size),
        max_candidates=options.max_variants)
    variants = dedupe_resolved(
        candidate_variants(vectorize=options.vectorize), block_size)
    return CandidateBuilder(case.program, options, default_machine(),
                            choices, variants,
                            nominal_flops=case.nominal_flops,
                            phase_cache=cache)


def build_uncached(builder, point):
    return build_candidate(
        builder.program, builder.options, builder.machine,
        builder.stage1_choices[point.stage1],
        builder.codegen_variants[point.codegen], builder.block_size,
        builder.nominal_flops, builder.machine_key, cache=None)


class TestContentKeys:
    """Lower, optimize and score are keyed by digests of what they
    consume, so one artifact serves every variant that reaches the same
    input.  A digest that left out an input would hand a variant some
    other variant's code, pass report or score."""

    @pytest.mark.parametrize("spec", ("potrf:8", "trsyl:4", "kf:4",
                                      "gpr:4", "l1a:4"))
    def test_shared_cache_never_changes_a_candidate(self, spec):
        from repro.backend.c_unparser import CUnparser
        case, cache = make_case(spec), PhaseCache()
        # The vector and scalar spaces share the cache, so the vector
        # width varies across the candidates too.
        for options in (Options(), Options(vectorize=False)):
            builder = full_space(case, options, cache)
            for point in builder.space().points():
                cached = builder.candidate(point)
                fresh = build_uncached(builder, point)
                assert CUnparser(cached.function).unparse() == \
                    CUnparser(fresh.function).unparse(), cached.label
                assert cached.pass_report == fresh.pass_report, \
                    cached.label
                assert cached.estimate == fresh.estimate, cached.label

    def test_each_distinct_input_builds_once(self, monkeypatch):
        from repro.backend.c_unparser import CUnparser
        from repro.cir.nodes import Function
        from repro.cir.passes import simplify, unroll_loops
        from repro.pipeline import phases
        builder = full_space(make_case("gemm:4"), Options(), PhaseCache())
        points = list(builder.space().points())

        # What an uncached run builds: the distinct lowered functions,
        # and the distinct pass-pipeline inputs told apart by their full
        # text rather than by the digests under test.  Lowering must run
        # once per distinct function it yields, so its inputs may differ
        # in whatever it does not read (the program's name, an unread
        # shuffle flag).
        lowering, optimizing = set(), set()
        lower, optimize = phases.lower, phases.optimize

        def record_lower(rewritten, *args, **kwargs):
            lowered = lower(rewritten, *args, **kwargs)
            lowering.add(keys.function_digest(lowered.function))
            return lowered

        def record_optimize(lowered, pass_options, **kwargs):
            # The pass pipeline reads the lowered function, the body the
            # unroll pass hands on, and the sr/lsa toggles (the other two
            # toggles are always on).
            function = lowered.function
            buffers = tuple((b.name, b.rows, b.cols, b.kind)
                            for b in function.buffers())
            body = simplify(function.body)
            if pass_options.unroll:
                body = unroll_loops(body, pass_options.max_unroll_trip_count,
                                    pass_options.max_unroll_body)
            unrolled = Function(function.name, function.params,
                                function.temps, body, function.vector_width)
            assert pass_options.algebraic_simplification
            assert pass_options.dead_code_elimination
            optimizing.add((CUnparser(function).unparse(), buffers,
                            function.vector_width,
                            CUnparser(unrolled).unparse(),
                            pass_options.scalar_replacement,
                            pass_options.load_store_analysis))
            return optimize(lowered, pass_options, **kwargs)

        monkeypatch.setattr(phases, "lower", record_lower)
        monkeypatch.setattr(phases, "optimize", record_optimize)
        for point in points:
            build_uncached(builder, point)
        monkeypatch.undo()

        for point in points:
            builder.candidate(point)
        stats = builder.phase_cache.stats()["phases"]
        assert len(optimizing) < len(points)        # sharing happened
        assert stats["lower"]["misses"] == len(lowering)
        assert stats["optimize"]["misses"] == len(optimizing)
        assert stats["score"]["misses"] == len(optimizing)


@pytest.fixture(scope="module")
def registry_lowered():
    """The lowered function of every registry spec at n=4 and n=8, in
    vector and scalar form."""
    from repro.pipeline import phases
    from repro.service.registry import workload_names
    lowered = {}
    for name in workload_names():
        for size in (4, 8):
            program = make_case(f"{name}:{size}").program
            rewritten = phases.rewrite(
                phases.stage1(program, Options().effective_block_size, {}),
                True, ())
            for width in (4, 1):
                lowered[f"{name}:{size}/w{width}"] = phases.lower(
                    rewritten, width, True, "kernel", False)
    return lowered


class TestUnrollPlanKey:
    """The optimize key holds the unroll plan made from the *lowered*
    body, while the pass pipeline unrolls the *simplified* body; a plan
    that missed one of simplify's drops would let two threshold pairs
    share a key yet optimize differently -- a wrong-code cache hit."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equal_plans_optimize_to_one_function(self, registry_lowered,
                                                  data):
        from repro.cir.nodes import Function
        from repro.cir.passes import (PassOptions, run_pipeline, simplify,
                                      unroll_plan)
        spec = data.draw(st.sampled_from(sorted(registry_lowered)),
                         label="spec")
        source = registry_lowered[spec].function
        thresholds = data.draw(st.lists(
            st.tuples(st.integers(0, 17), st.integers(0, 260)),
            min_size=2, max_size=4), label="thresholds")
        digests = {}
        simplified = simplify(source.body)
        for trip, limit in thresholds:
            plan = unroll_plan(source.body, trip, limit)
            assert plan == unroll_plan(simplified, trip, limit)
            function = Function(source.name, list(source.params),
                                list(source.temps), source.body,
                                source.vector_width)
            run_pipeline(function, PassOptions(
                max_unroll_trip_count=trip, max_unroll_body=limit))
            digest = keys.function_digest(function)
            assert digests.setdefault(plan, digest) == digest, \
                (spec, trip, limit)

    def test_unroll_variants_share_one_optimize_and_one_score(self):
        # The default, -u4 and -u16 variants unroll every loop of
        # potrf:4 alike: one pass pipeline and one score between them.
        case, cache = make_case("potrf:4"), PhaseCache()
        builder = CandidateBuilder(case.program,
                                   Options(vectorize=True,
                                           annotate_code=False),
                                   default_machine(), [{}],
                                   sweep_variants(3),
                                   nominal_flops=case.nominal_flops,
                                   phase_cache=cache)
        assert [(v.unroll_trip_count, v.unroll_body_limit)
                for v in builder.codegen_variants] == \
            [(8, 64), (4, 32), (16, 128)]
        candidates = [builder.candidate(point)
                      for point in builder.space().points()]
        phases = cache.stats()["phases"]
        assert phases["optimize"]["misses"] == 1
        assert phases["score"]["misses"] == 1
        assert len({c.label for c in candidates}) == 3


def _copy_program(name, transposed):
    """A rewritten basic program that copies 4x4 ``A`` (or ``A^T``)
    into ``B``."""
    from repro.ir import Assign, IOType, Matrix, Program, Transpose, ref
    from repro.pipeline.artifacts import RewrittenProgram
    program = Program(name)
    a = program.declare(Matrix("A", 4, 4, IOType.IN))
    b = program.declare(Matrix("B", 4, 4, IOType.OUT))
    program.add(Assign(b.full_view(),
                       Transpose(ref(a)) if transposed else ref(a)))
    program.validate()
    return RewrittenProgram(key=name, digest=keys.program_digest(program),
                            program=program)


class TestLowerKey:
    """Lowering is keyed by what it reads: not the program's name, and
    the shuffle flag only when an op reached the decision it steers."""

    def test_programs_differing_in_name_share_one_lowering(self):
        from repro.pipeline import phases
        cache = PhaseCache()
        first = phases.lower(_copy_program("p_v0", False), 4, True,
                             "kernel", False, cache=cache)
        second = phases.lower(_copy_program("p_v1", False), 4, True,
                              "kernel", False, cache=cache)
        assert second is first
        assert cache.stats()["phases"]["lower"]["misses"] == 1

    def test_lowering_needs_a_function_name(self):
        from repro.pipeline import phases
        with pytest.raises(ConfigurationError):
            phases.lower(_copy_program("p", False), 4, True, "", False)

    @pytest.mark.parametrize("transposed", (True, False))
    def test_shuffle_flag_keys_only_the_lowerings_that_read_it(
            self, transposed):
        from repro.lgen.compiler import lower_program
        from repro.lgen.lowering import LoweringOptions
        from repro.pipeline import phases
        rewritten, cache = _copy_program("p", transposed), PhaseCache()
        lowered = {flag: phases.lower(rewritten, 4, flag, "kernel", False,
                                      cache=cache)
                   for flag in (True, False)}
        fresh = {flag: keys.function_digest(lower_program(
                     rewritten.program, LoweringOptions(4, flag),
                     "kernel", False))
                 for flag in (True, False)}
        assert {flag: keys.function_digest(a.function)
                for flag, a in lowered.items()} == fresh
        misses = cache.stats()["phases"]["lower"]["misses"]
        if transposed:
            # The 4x4 shuffle codelet against the scalar copy.
            assert fresh[True] != fresh[False]
            assert misses == 2 and lowered[True] is not lowered[False]
        else:
            assert misses == 1 and lowered[True] is lowered[False]


class TestPassWalks:
    def test_simplify_is_idempotent(self, registry_lowered):
        from repro.cir.passes import simplify
        for spec, lowered in registry_lowered.items():
            once = simplify(lowered.function.body)
            assert simplify(once) == once, spec

    def test_a_second_pipeline_run_computes_the_same_function(
            self, registry_lowered):
        # Scalar replacement numbers its registers after those already
        # present, so a second run cannot reuse a name the first left live.
        from repro.cir.interpreter import Interpreter
        from repro.cir.nodes import Function
        from repro.cir.passes import run_pipeline
        from repro.tuning.measure import synthesize_inputs
        for spec, lowered in registry_lowered.items():
            source = lowered.function
            function = Function(source.name, list(source.params),
                                list(source.temps), source.body,
                                source.vector_width)
            run_pipeline(function)
            inputs = synthesize_inputs(function)
            once = Interpreter(function).run(inputs)
            run_pipeline(function)
            twice = Interpreter(function).run(inputs)
            for name, value in once.items():
                assert (twice[name] == value).all(), (spec, name)


class TestApiFacade:
    def test_every_public_name_resolves(self):
        import repro.api as api
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_facade_generates(self):
        from repro.api import Options as ApiOptions
        from repro.api import SLinGen as ApiSLinGen
        case = make_case()
        result = ApiSLinGen(ApiOptions(vectorize=False)).generate_result(
            case.program)
        assert "void" in result.c_code


class TestPersistentStoreBound:
    """The persistent layer's size bound, GC, and purge path."""

    def _fill(self, store, count=10, size=800):
        for index in range(count):
            key = f"{index:02d}" * 20
            store.put("stage1", key, b"x" * size)
            # distinct mtimes so eviction order is deterministic
            path = store._path("stage1", key)
            os.utime(path, (index, index))
        return [f"{index:02d}" * 20 for index in range(count)]

    def test_parse_size(self):
        from repro.pipeline.cache import parse_size
        assert parse_size("512M") == 512 << 20
        assert parse_size("2g") == 2 << 30
        assert parse_size("1024") == 1024
        assert parse_size("0") is None and parse_size("") is None
        with pytest.raises(ConfigurationError):
            parse_size("lots")

    def test_overflowing_put_evicts_oldest_first(self, tmp_path):
        store = PersistentPhaseStore(str(tmp_path), max_bytes=5000)
        keys_in_order = self._fill(store)
        stats = store.stats()
        assert stats["total_bytes"] <= 5000
        assert stats["evictions"] > 0
        assert store.get("stage1", keys_in_order[0]) is None   # oldest
        assert store.get("stage1", keys_in_order[-1]) is not None

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = PersistentPhaseStore(str(tmp_path), max_bytes=None)
        self._fill(store)
        assert store.stats()["evictions"] == 0
        assert store.gc() == 0                      # no bound: no-op

    def test_purge_empties_and_counts(self, tmp_path):
        store = PersistentPhaseStore(str(tmp_path), max_bytes=None)
        keys_in_order = self._fill(store, count=4)
        assert store.purge() == 4
        assert store.total_bytes() == 0
        assert all(store.get("stage1", key) is None
                   for key in keys_in_order)

    def test_corrupt_drop_updates_size_accounting(self, tmp_path):
        store = PersistentPhaseStore(str(tmp_path), max_bytes=None)
        store.put("stage1", "ab" * 20, b"payload")
        total = store.total_bytes()
        path = store._path("stage1", "ab" * 20)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert store.get("stage1", "ab" * 20) is None
        assert store.stats()["corrupt_dropped"] == 1
        assert store.total_bytes() < total

    def test_purge_cli(self, tmp_path, capsys):
        from repro.pipeline.__main__ import main as pipeline_main
        store = PersistentPhaseStore(str(tmp_path), max_bytes=None)
        self._fill(store, count=3)
        code = pipeline_main(["purge", "--phase-cache", str(tmp_path),
                              "--yes", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["removed"] == 3 and doc["bytes_after"] == 0
        assert pipeline_main(["purge"]) == 2        # no root configured
        capsys.readouterr()

    def test_gc_cli_requires_bound(self, tmp_path, monkeypatch, capsys):
        from repro.pipeline.__main__ import main as pipeline_main
        monkeypatch.delenv("REPRO_PHASE_CACHE_LIMIT", raising=False)
        assert pipeline_main(["purge", "--phase-cache", str(tmp_path),
                              "--gc"]) == 2
        capsys.readouterr()
        store = PersistentPhaseStore(str(tmp_path), max_bytes=None)
        self._fill(store)
        monkeypatch.setenv("REPRO_PHASE_CACHE_LIMIT", "5000")
        assert pipeline_main(["purge", "--phase-cache", str(tmp_path),
                              "--gc", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gc"] and doc["removed"] > 0
        assert doc["bytes_after"] <= 5000
