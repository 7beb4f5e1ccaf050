"""Figure 15: application benchmarks (Kalman filter, kf-28, GPR, L1-analysis).

Each test regenerates one subplot's SLinGen series over a size sweep, in
flops/cycle.  The values are the machine model's roofline estimate of the
generated code, and the table's one column is labelled ``slingen (model)``.
The paper's measured MKL, Eigen and icc columns have no counterpart here:
none of those is on the host.
"""

import pytest

from conftest import check_modeled_series, write_series
from repro.applications import kf_case
from repro.bench import (application_sizes, generator_options,
                         kf28_observation_sizes, run_series)


def _run(case_name, benchmark, results_dir, service, sizes,
         case_factory=None):
    def build():
        return run_series(case_name, sizes, case_factory=case_factory,
                          options=generator_options(), service=service)

    series = benchmark.pedantic(build, rounds=1, iterations=1)
    table = series.format_table()
    write_series(results_dir, f"fig15_{case_name.replace('-', '_')}", table)
    print("\n" + table)
    check_modeled_series(series, sizes)


@pytest.mark.benchmark(group="fig15")
def test_fig15a_kf(benchmark, results_dir, kernel_service):
    _run("kf", benchmark, results_dir, kernel_service, application_sizes())


@pytest.mark.benchmark(group="fig15")
def test_fig15b_kf28(benchmark, results_dir, kernel_service):
    _run("kf-28", benchmark, results_dir, kernel_service,
         kf28_observation_sizes(), case_factory=lambda k: kf_case(28, k))


@pytest.mark.benchmark(group="fig15")
def test_fig15c_gpr(benchmark, results_dir, kernel_service):
    _run("gpr", benchmark, results_dir, kernel_service, application_sizes())


@pytest.mark.benchmark(group="fig15")
def test_fig15d_l1a(benchmark, results_dir, kernel_service):
    _run("l1a", benchmark, results_dir, kernel_service, application_sizes())
