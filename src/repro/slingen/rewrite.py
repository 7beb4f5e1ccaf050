"""Stage-2 rewriting rule R1 of paper Table 2.

R1 turns an element-wise division of a vector by a scalar into a scalar
reciprocal followed by a scaling:
``x = b / lambda  ->  tau = 1/lambda; x = tau * b``.

The Stage-1 synthesizer already emits its codelets in R1 form; the rule
still runs over the basic program so that user-written LA statements get
the same treatment.  The paper's R0, which packs neighbouring scalar
divisions by a common divisor into one vector division, is not
implemented: Stage 1 never emits such neighbours, so it never fired on a
registry, fuzz or benchmark program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List

from ..ir.expr import Const, Div, Mul, Ref
from ..ir.operands import Scratch, View
from ..ir.program import Assign, Program, Statement


@dataclass
class RewriteReport:
    """How many times R1 fired (used by tests and the ablation bench)."""

    r1_applications: int = 0


class _TempFactory:
    def __init__(self, program: Program, prefix: str = "rw"):
        self.program = program
        self.prefix = prefix
        self.counter = itertools.count()

    def scalar(self) -> View:
        operand = Scratch(f"{self.prefix}_t{next(self.counter)}", 1, 1)
        self.program.declare(operand)
        return operand.full_view()


def apply_rule_r1(program: Program) -> RewriteReport:
    """Turn vector/scalar divisions into reciprocal + scaling (rule R1)."""
    report = RewriteReport()
    temps = _TempFactory(program)
    result: List[Statement] = []
    for statement in program.statements:
        if isinstance(statement, Assign) and isinstance(statement.rhs, Div) \
                and not statement.lhs.is_scalar \
                and statement.rhs.right.is_scalar:
            tau = temps.scalar()
            result.append(Assign(tau, Div(Const(1.0), statement.rhs.right)))
            result.append(Assign(statement.lhs,
                                 Mul(Ref(tau), statement.rhs.left)))
            report.r1_applications += 1
        else:
            result.append(statement)
    program.statements = result
    return report
