"""Benchmark harness: regenerates the series of the Fig. 14-15 tables.

Each figure of the paper is a performance-vs-size plot (flops/cycle on the
y-axis).  :func:`run_series` produces one series of it: for one benchmark
case family and a list of sizes, it generates SLinGen code and reports the
machine model's roofline estimate, in a table labelled as the model.  The
paper's library columns (MKL, Eigen, icc, ...) were measured on its
platform; none of those libraries is modeled here.

The size grids live in :mod:`repro.service.registry`, which also expands
bare workload names with them.  They default to a reduced grid so the full
suite runs in minutes; set the environment variable ``REPRO_FULL_SIZES=1``
to use the paper's grid (4..124 for HLACs, 4..52 for applications).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..applications.cases import BenchmarkCase, make_case
from ..machine.microarch import MicroArchitecture, default_machine
from ..service.registry import full_sizes_requested
from ..slingen.generator import SLinGen
from ..slingen.options import Options


def kf28_observation_sizes() -> List[int]:
    if full_sizes_requested():
        return [4, 8, 12, 16, 20, 24, 28]
    return [4, 12, 20, 28]


#: The one column of every figure table: the roofline estimate of the
#: generated code, not a measurement.
MODEL_COLUMN = "slingen (model)"


@dataclass
class SeriesPoint:
    """Modeled performance of the generated code at one problem size."""

    size: int
    flops_per_cycle: float
    correct: Optional[bool] = None


@dataclass
class Series:
    """A full figure: one benchmark family swept over sizes."""

    name: str
    points: List[SeriesPoint] = field(default_factory=list)

    def format_table(self) -> str:
        """Render the series as an aligned text table (paper-plot layout)."""
        rows = [["n", MODEL_COLUMN]]
        rows += [[str(point.size), f"{point.flops_per_cycle:.3f}"]
                 for point in self.points]
        widths = [max(len(row[i]) for row in rows) for i in range(2)]
        lines = [f"[{self.name}]  performance in flops/cycle vs. size"]
        for row in rows:
            lines.append("  ".join(cell.rjust(width)
                                   for cell, width in zip(row, widths)))
        return "\n".join(lines)


def generator_options(vectorize: bool = True, autotune: bool = True,
                      max_variants: int = 6) -> Options:
    return Options(vectorize=vectorize, autotune=autotune,
                   max_variants=max_variants, annotate_code=False)


def measure_slingen(case: BenchmarkCase, options: Optional[Options] = None,
                    machine: Optional[MicroArchitecture] = None,
                    validate: bool = False, service=None, tuner=None):
    """Generate code for one case and return (result, modeled f/c, correct?).

    With a :class:`~repro.service.service.KernelService` as ``service``,
    generation goes through the persistent kernel cache (the service's
    machine model wins over ``machine``), so repeated sizes across figures
    and re-runs of a suite are cache hits instead of full pipeline runs.

    With an :class:`~repro.tuning.tuner.Autotuner` as ``tuner``, the case
    is empirically tuned first (idempotent when the tuner has a database)
    and generation uses the tuned-best options, so a figure can report the
    model-picked and the measurement-picked kernel side by side.

    The reported f/c is the roofline estimate of the generated code.
    """
    if tuner is not None:
        _check_tuner_machine(tuner, service, machine)
        options = tuner.tuned_options_for_case(
            case, options or generator_options())
    if service is not None:
        from ..service.service import GenerationRequest
        generated = service.generate(GenerationRequest.from_case(
            case, options=options or generator_options())).result
    else:
        generator = SLinGen(options or generator_options(),
                            machine=machine or default_machine())
        generated = generator.generate_result(
            case.program, nominal_flops=case.nominal_flops)
    correct = check_case(case, generated) if validate else None
    return generated, generated.performance.flops_per_cycle, correct


def _check_tuner_machine(tuner, service, machine) -> None:
    """Tuning records are keyed by the tuner's machine model; measuring
    against one machine and generating for another silently produces
    never-found (and wrongly tuned) records, so mismatches are an error."""
    target = service.machine if service is not None \
        else (machine or default_machine())
    if tuner.machine != target:
        from ..errors import AutotuningError
        raise AutotuningError(
            "tuner and service/benchmark use different machine models; "
            "construct the Autotuner with machine=service.machine")


def check_case(case: BenchmarkCase, generated, kernel=None) -> bool:
    """Run the generated kernel against the case's oracle.

    The kernel runs on the C-IR interpreter, the reference semantics,
    unless ``kernel`` (an already-built executor kernel) is given, so a
    timing pass and a validation pass can share one build.
    """
    inputs = case.make_inputs(seed=17)
    outputs = kernel.run(inputs) if kernel is not None \
        else generated.run(inputs)
    expected = case.reference_outputs(inputs)
    correct = True
    for key, mode in case.checked_outputs.items():
        got, want = outputs[key], expected[key]
        if mode == "lower":
            got, want = np.tril(got), np.tril(want)
        elif mode == "upper":
            got, want = np.triu(got), np.triu(want)
        correct = correct and bool(np.allclose(got, want, atol=1e-7))
    return correct


def run_series(case_name: str, sizes: Sequence[int],
               case_factory: Optional[Callable[[int], BenchmarkCase]] = None,
               options: Optional[Options] = None,
               machine: Optional[MicroArchitecture] = None,
               validate: bool = False, service=None) -> Series:
    """Run one figure: the modeled SLinGen series over a size sweep.

    ``service`` (a :class:`~repro.service.service.KernelService`) routes
    all generation through the kernel cache; misses for the whole sweep are
    generated in parallel up front via :meth:`generate_many`.
    """
    cases = [case_factory(size) if case_factory else make_case(case_name,
                                                               size)
             for size in sizes]
    if service is not None:
        # One batch request for the sweep: hits come from the store, every
        # miss generates on the service's worker pool.
        from ..service.service import GenerationRequest
        options = options or generator_options()
        results = [response.result for response in service.generate_many([
            GenerationRequest.from_case(case, options=options)
            for case in cases])]
    else:
        results = [measure_slingen(case, options, machine)[0]
                   for case in cases]
    series = Series(name=case_name)
    for case, generated in zip(cases, results):
        series.points.append(SeriesPoint(
            size=case.size,
            flops_per_cycle=generated.performance.flops_per_cycle,
            correct=check_case(case, generated) if validate else None))
    return series
