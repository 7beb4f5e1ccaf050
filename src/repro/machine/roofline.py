"""ERM-style generalized roofline analysis (paper Sec. 4, Table 4).

Given an instruction mix and a microarchitecture description, the analysis
computes, per hardware resource, how many cycles that resource alone would
need to retire the instruction stream; the largest of those is the
bottleneck and determines the modeled execution time.  This mirrors what
the paper does with ERM on its generated code, and it is also the
"performance measurement" used by the autotuner and the benchmark harness
(see docs/architecture.md, "The model proposes, measurement disposes").

On top of the pure throughput bounds, one latency effect that dominates
small sizes is modeled: divisions/square roots are unpipelined and
essentially sequential in the triangular algorithms, so they contribute
``div_issue_cycles`` each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .microarch import MicroArchitecture, default_machine
from .mix import InstructionMix


@dataclass
class PerformanceEstimate:
    """Result of the roofline analysis of one kernel."""

    cycles: float
    bottleneck: str
    resource_cycles: Dict[str, float]
    mix: InstructionMix
    machine: MicroArchitecture
    nominal_flops: Optional[float] = None

    @property
    def flops_per_cycle(self) -> float:
        """Performance in flops/cycle using the *nominal* operation count.

        The paper's plots divide the mathematical cost of the computation
        (e.g. n^3/3 for potrf) by the measured time; executed flops can be
        higher (full-storage symmetric updates, masked lanes, ...).
        """
        flops = self.nominal_flops if self.nominal_flops is not None \
            else self.mix.flops
        if self.cycles <= 0:
            return 0.0
        return flops / self.cycles

    @property
    def shuffle_blend_issue_rate(self) -> float:
        """Share of shuffle+blend issues among non-memory issues (Table 4)."""
        denominator = self.mix.issues_excluding_memory
        if denominator <= 0:
            return 0.0
        return (self.mix.shuffle_issues + self.mix.blend_issues) / denominator

    def perf_limit_from(self, issue_count: float,
                        throughput: float) -> float:
        """Achievable peak (f/c) if ``issue_count`` ops share one port."""
        flops = self.nominal_flops if self.nominal_flops is not None \
            else self.mix.flops
        if issue_count <= 0:
            return self.machine.peak_flops_per_cycle
        limit = flops / (issue_count / throughput)
        return min(self.machine.peak_flops_per_cycle, limit)

    @property
    def perf_limit_shuffles(self) -> float:
        return self.perf_limit_from(self.mix.shuffle_issues,
                                    self.machine.shuffle_per_cycle)

    @property
    def perf_limit_blends(self) -> float:
        return self.perf_limit_from(self.mix.blend_issues,
                                    self.machine.shuffle_per_cycle)

    def summary(self) -> Dict[str, float]:
        return {
            "cycles": self.cycles,
            "flops_per_cycle": self.flops_per_cycle,
            "bottleneck": self.bottleneck,
            "shuffle_blend_issue_rate": self.shuffle_blend_issue_rate,
            "perf_limit_shuffles": self.perf_limit_shuffles,
            "perf_limit_blends": self.perf_limit_blends,
        }


def analyze_mix(mix: InstructionMix,
                machine: Optional[MicroArchitecture] = None,
                nominal_flops: Optional[float] = None) -> PerformanceEstimate:
    """Run the generalized roofline analysis on an instruction mix.

    Parameters
    ----------
    mix:
        The instruction mix (from :func:`repro.machine.mix.instruction_mix`).
    nominal_flops:
        The mathematical operation count used for f/c reporting.

    Every division/square root contributes its full issue latency, matching
    the dependence structure of factorizations and substitutions.
    """
    machine = machine or default_machine()

    resource_cycles: Dict[str, float] = {
        "fp multiply port": mix.mul_issues / machine.mul_per_cycle,
        "fp add port": mix.add_issues / machine.add_per_cycle,
        "shuffle port": (mix.shuffle_issues + mix.blend_issues)
        / machine.shuffle_per_cycle,
        "L1 loads": mix.load_issues / machine.loads_per_cycle,
        "L1 stores": mix.store_issues / machine.stores_per_cycle,
        "divs/sqrt": mix.div_sqrt_issues * machine.div_issue_cycles,
    }

    bottleneck = max(resource_cycles, key=lambda name: resource_cycles[name])
    cycles = resource_cycles[bottleneck]
    # A kernel can never be faster than issuing one instruction.
    cycles = max(cycles, 1.0)

    # Report the Table-4 style bottleneck names.
    pretty = {
        "fp multiply port": "fp mul",
        "fp add port": "fp add",
        "shuffle port": "shuffles",
        "L1 loads": "L1 loads",
        "L1 stores": "L1 stores",
        "divs/sqrt": "divs/sqrt",
    }

    return PerformanceEstimate(
        cycles=cycles,
        bottleneck=pretty[bottleneck],
        resource_cycles=resource_cycles,
        mix=mix,
        machine=machine,
        nominal_flops=nominal_flops,
    )


def analyze_function(function, machine: Optional[MicroArchitecture] = None,
                     nominal_flops: Optional[float] = None
                     ) -> PerformanceEstimate:
    """Convenience wrapper: instruction mix + roofline for a C-IR function."""
    from .mix import instruction_mix
    return analyze_mix(instruction_mix(function), machine=machine,
                       nominal_flops=nominal_flops)
