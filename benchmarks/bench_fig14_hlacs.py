"""Figure 14: HLAC benchmarks (potrf, trsyl, trlya, trtri).

Each test regenerates one subplot's SLinGen series over a size sweep, in
flops/cycle.  The values are the machine model's roofline estimate of the
generated code, and the table's one column is labelled ``slingen (model)``.
The paper's measured library columns (MKL, ReLAPACK, RECSY, Eigen, icc,
clang+Polly, Cl1ck+MKL) have no counterpart here: none of those libraries
is on the host.
"""

import pytest

from conftest import check_modeled_series, write_series
from repro.bench import generator_options, hlac_sizes, run_series


def _run(case_name, benchmark, results_dir, service):
    sizes = hlac_sizes()

    def build():
        return run_series(case_name, sizes, options=generator_options(),
                          service=service)

    series = benchmark.pedantic(build, rounds=1, iterations=1)
    table = series.format_table()
    write_series(results_dir, f"fig14_{case_name}", table)
    print("\n" + table)
    check_modeled_series(series, sizes)


@pytest.mark.benchmark(group="fig14")
def test_fig14a_potrf(benchmark, results_dir, kernel_service):
    _run("potrf", benchmark, results_dir, kernel_service)


@pytest.mark.benchmark(group="fig14")
def test_fig14b_trsyl(benchmark, results_dir, kernel_service):
    _run("trsyl", benchmark, results_dir, kernel_service)


@pytest.mark.benchmark(group="fig14")
def test_fig14c_trlya(benchmark, results_dir, kernel_service):
    _run("trlya", benchmark, results_dir, kernel_service)


@pytest.mark.benchmark(group="fig14")
def test_fig14d_trtri(benchmark, results_dir, kernel_service):
    _run("trtri", benchmark, results_dir, kernel_service)
