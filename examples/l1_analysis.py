#!/usr/bin/env python3
"""L1-analysis convex solver example (paper Fig. 13c).

The l1a program is one iteration of a first-order solver used e.g. for image
denoising.  This example generates the kernel once and applies it
repeatedly, monitoring the iterates, and prints the machine model's
roofline estimate of the kernel (the ``slingen (model)`` column of
Fig. 15d's table).
"""

import numpy as np

from repro.api import Options, SLinGen
from repro.applications import l1a_case
from repro.kernels import l1_analysis_step


def main() -> None:
    n = 24
    case = l1a_case(n)
    generated = SLinGen(Options(vectorize=True, autotune=False)) \
        .generate(case.program, nominal_flops=case.nominal_flops)

    print(f"l1a kernel, n = {n}: {generated.flops_per_cycle:.2f} f/c (model)")

    inputs = case.make_inputs(seed=1)
    state = {key: inputs[key] for key in ("v1", "z1", "v2", "z2")}
    for iteration in range(4):
        step_inputs = dict(inputs)
        step_inputs.update(state)
        outputs = generated.run(step_inputs)
        expected = l1_analysis_step(step_inputs)
        for key in state:
            assert np.allclose(outputs[key], expected[key], atol=1e-9)
        state = {key: outputs[key] for key in state}
        print(f"  iteration {iteration}: |z1| = "
              f"{np.linalg.norm(state['z1']):.4f}, |z2| = "
              f"{np.linalg.norm(state['z2']):.4f}   (matches numpy)")

    print("Four solver iterations with the generated kernel match numpy.")


if __name__ == "__main__":
    main()
