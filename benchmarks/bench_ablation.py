"""Ablation benches for the design choices docs/pipeline.md walks through.

Not part of the paper's tables, but they quantify the individual
contributions of the optimizations the paper describes: vectorization,
the load/store analysis (Fig. 12), the R0/R1 rewrite rules (Table 2), and
the algorithmic autotuning over Cl1ck variants.
"""

import pytest

from conftest import write_series
from repro.applications import make_case
from repro.bench import measure_slingen
from repro.slingen import Options
from repro.tuning import Autotuner, TuningDB, tuning_key


def _cycles(case, service=None, **kwargs):
    options = Options(annotate_code=False, **kwargs)
    generated, _, _ = measure_slingen(case, options, service=service)
    return generated.performance.cycles


@pytest.mark.benchmark(group="ablation")
def test_ablation_vectorization(benchmark, results_dir, kernel_service):
    case = make_case("potrf", 24)

    def build():
        return (_cycles(case, kernel_service, vectorize=True, autotune=False),
                _cycles(case, kernel_service, vectorize=False,
                        autotune=False))

    vectorized, scalar = benchmark.pedantic(build, rounds=1, iterations=1)
    table = (f"[ablation-vectorization] potrf n=24: "
             f"vectorized={vectorized:.0f} cycles, scalar={scalar:.0f} cycles")
    write_series(results_dir, "ablation_vectorization", table)
    print("\n" + table)
    assert vectorized < scalar


@pytest.mark.benchmark(group="ablation")
def test_ablation_loadstore(benchmark, results_dir, kernel_service):
    case = make_case("potrf", 16)

    def build():
        with_lsa, _, _ = measure_slingen(case, Options(
            autotune=False, load_store_analysis=True, annotate_code=False),
            service=kernel_service)
        without_lsa, _, _ = measure_slingen(case, Options(
            autotune=False, load_store_analysis=False, annotate_code=False),
            service=kernel_service)
        return with_lsa, without_lsa

    with_lsa, without_lsa = benchmark.pedantic(build, rounds=1, iterations=1)
    mix_with = with_lsa.performance.mix
    mix_without = without_lsa.performance.mix
    table = ("[ablation-loadstore] potrf n=16: loads "
             f"{mix_with.load_issues:.0f} (with analysis) vs "
             f"{mix_without.load_issues:.0f} (without); forwarded "
             f"{with_lsa.pass_report.load_store.total} accesses")
    write_series(results_dir, "ablation_loadstore", table)
    print("\n" + table)
    assert with_lsa.pass_report.load_store.total > 0
    assert mix_with.load_issues <= mix_without.load_issues


@pytest.mark.benchmark(group="ablation")
def test_ablation_autotune(benchmark, results_dir, kernel_service):
    case = make_case("trtri", 24)

    def build():
        return (_cycles(case, kernel_service, autotune=True, max_variants=8),
                _cycles(case, kernel_service, autotune=False))

    tuned, untuned = benchmark.pedantic(build, rounds=1, iterations=1)
    table = (f"[ablation-autotune] trtri n=24: autotuned={tuned:.0f} cycles, "
             f"default-variant={untuned:.0f} cycles")
    write_series(results_dir, "ablation_autotune", table)
    print("\n" + table)
    assert tuned <= untuned


@pytest.mark.benchmark(group="ablation")
def test_ablation_model_vs_tuned(benchmark, results_dir, kernel_service,
                                 tmp_path):
    """Model-picked vs. empirically tuned variant selection.

    The interpreter measurement backend keeps this deterministic and
    compiler-free; the tuned column can only improve on the default
    configuration because every strategy scores the default point first.
    """
    case = make_case("potrf", 12)
    tuner = Autotuner(db=TuningDB(root=str(tmp_path / "tuning")),
                      machine=kernel_service.machine,
                      measurer="interpreter", strategy="hill-climb",
                      budget=8, seed=0)

    def build():
        model_picked, _, _ = measure_slingen(
            case, Options(autotune=True, max_variants=8,
                          annotate_code=False),
            service=kernel_service)
        tuned, _, _ = measure_slingen(
            case, Options(autotune=True, max_variants=8,
                          annotate_code=False),
            service=kernel_service, tuner=tuner)
        return model_picked, tuned

    model_picked, tuned = benchmark.pedantic(build, rounds=1, iterations=1)
    record = tuner.db.get(tuning_key(case.program, tuner.machine))
    assert record is not None
    assert record.best_score <= record.baseline_score
    table = (f"[ablation-tuning] potrf n=12 ({record.backend} backend, "
             f"{record.strategy}, budget {record.budget}):\n"
             f"  model-picked : {model_picked.variant_label:28s} "
             f"{model_picked.performance.cycles:8.0f} model-cycles\n"
             f"  empirical    : {tuned.variant_label:28s} "
             f"{tuned.performance.cycles:8.0f} model-cycles, "
             f"measured {record.best_score:.6g} {record.unit} "
             f"(baseline {record.baseline_score:.6g}, "
             f"x{record.improvement:.3f})")
    write_series(results_dir, "ablation_tuning", table)
    print("\n" + table)


@pytest.mark.benchmark(group="ablation")
def test_ablation_rewrite_rules(benchmark, results_dir, kernel_service):
    case = make_case("gpr", 16)

    def build():
        with_rules, _, _ = measure_slingen(case, Options(
            autotune=False, rewrite_rules=True, annotate_code=False),
            service=kernel_service)
        without_rules, _, _ = measure_slingen(case, Options(
            autotune=False, rewrite_rules=False, annotate_code=False),
            service=kernel_service)
        return with_rules, without_rules

    with_rules, without_rules = benchmark.pedantic(build, rounds=1,
                                                   iterations=1)
    table = (f"[ablation-rewrite] gpr n=16: "
             f"{with_rules.performance.cycles:.0f} cycles (with R0/R1) vs "
             f"{without_rules.performance.cycles:.0f} cycles (without)")
    write_series(results_dir, "ablation_rewrite", table)
    print("\n" + table)
    assert with_rules.performance.cycles <= without_rules.performance.cycles * 1.05
