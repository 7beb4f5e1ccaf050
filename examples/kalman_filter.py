#!/usr/bin/env python3
"""Kalman filter example (paper Table 1 / Fig. 13a).

Generates a fixed-size Kalman-filter update kernel, runs several filter
iterations by feeding the generated kernel its own outputs, and compares the
trajectory against a straightforward numpy implementation.  It also prints
the machine model's roofline estimate of the kernel, the quantity of the
``slingen (model)`` column of Fig. 15a's table.
"""

import numpy as np

from repro.api import Options, SLinGen
from repro.applications import kf_case
from repro.kernels import kalman_filter_step


def main() -> None:
    n = 12                      # number of states = number of observations
    case = kf_case(n)
    generator = SLinGen(Options(vectorize=True, autotune=True,
                                max_variants=6))
    generated = generator.generate(case.program,
                                   nominal_flops=case.nominal_flops)

    print(f"Kalman filter, n = k = {n}")
    print(f"  modeled performance : {generated.flops_per_cycle:.2f} f/c "
          f"({generated.performance.cycles:.0f} cycles, "
          f"bottleneck: {generated.performance.bottleneck})")

    # Run 5 filter steps with the generated kernel, tracking a noisy constant
    # velocity target, and compare against the numpy reference at every step.
    inputs = case.make_inputs(seed=42)
    state = {"x": inputs["x"], "P": inputs["P"]}
    for step in range(5):
        step_inputs = dict(inputs)
        step_inputs.update(state)
        outputs = generated.run(step_inputs)
        expected = kalman_filter_step(step_inputs)
        assert np.allclose(outputs["x"], expected["x"], atol=1e-8)
        assert np.allclose(outputs["P"], expected["P"], atol=1e-8)
        state = {"x": outputs["x"], "P": outputs["P"]}
        print(f"  step {step}: |x| = {np.linalg.norm(state['x']):.4f}  "
              f"trace(P) = {np.trace(state['P']):.4f}   (matches numpy)")

    print("\nFive filter iterations with the generated kernel match numpy.")


if __name__ == "__main__":
    main()
