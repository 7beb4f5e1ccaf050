"""Microarchitecture descriptions for the performance model.

The paper analyzes its generated code with ERM, a generalized-roofline tool
parameterized by microarchitectural throughput/latency numbers (Sec. 4,
"Bottleneck analysis").  This module provides the same kind of description
for the evaluation platform of the paper, an Intel Sandy Bridge core
(i7-2600):

* one 256-bit floating-point multiply and one 256-bit add issue per cycle
  (peak 8 double-precision flops/cycle),
* one shuffle/blend per cycle (port 5),
* two 128-bit-equivalent loads and one store per cycle to L1,
* divisions and square roots are unpipelined and can be issued roughly
  every 44 cycles (the number quoted in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MicroArchitecture:
    """Throughput parameters of one core (all per cycle unless noted)."""

    name: str
    vector_width: int               # doubles per SIMD register
    mul_per_cycle: float            # vector multiplies issued per cycle
    add_per_cycle: float            # vector adds issued per cycle
    fma: bool                       # fused multiply-add available
    shuffle_per_cycle: float        # shuffles/blends/permutes per cycle
    loads_per_cycle: float          # L1 loads per cycle
    stores_per_cycle: float         # L1 stores per cycle
    div_issue_cycles: float         # cycles between dependent div/sqrt issues

    @property
    def peak_flops_per_cycle(self) -> float:
        """Peak double-precision flops per cycle."""
        units = self.mul_per_cycle + self.add_per_cycle
        if self.fma:
            units = 2 * max(self.mul_per_cycle, self.add_per_cycle)
        return units * self.vector_width


#: The paper's evaluation platform: Intel Core i7-2600 (Sandy Bridge), AVX.
SANDY_BRIDGE = MicroArchitecture(
    name="Intel Sandy Bridge (i7-2600)",
    vector_width=4,
    mul_per_cycle=1.0,
    add_per_cycle=1.0,
    fma=False,
    shuffle_per_cycle=1.0,
    loads_per_cycle=2.0,
    stores_per_cycle=1.0,
    div_issue_cycles=44.0,
)

#: A Haswell-like core with FMA, used to check that the model's conclusions
#: are not an artifact of one parameter set.
HASWELL = MicroArchitecture(
    name="Intel Haswell (FMA)",
    vector_width=4,
    mul_per_cycle=2.0,
    add_per_cycle=1.0,
    fma=True,
    shuffle_per_cycle=1.0,
    loads_per_cycle=2.0,
    stores_per_cycle=1.0,
    div_issue_cycles=28.0,
)

#: A narrow embedded-style core (SSE2-like, 2-wide) for the scalar/embedded
#: scenario discussed in the LGen line of work.
EMBEDDED_SSE = MicroArchitecture(
    name="Embedded SSE2-class core",
    vector_width=2,
    mul_per_cycle=1.0,
    add_per_cycle=1.0,
    fma=False,
    shuffle_per_cycle=1.0,
    loads_per_cycle=1.0,
    stores_per_cycle=1.0,
    div_issue_cycles=30.0,
)


def default_machine() -> MicroArchitecture:
    """The machine used throughout the reproduction (paper's platform)."""
    return SANDY_BRIDGE
