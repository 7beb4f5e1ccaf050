"""Stage-2 rewriting rules that expose more nu-BLACs (paper Table 2).

Two rules are implemented:

* **R0** packs neighboring scalar divisions by a common divisor into a
  single element-wise division of a short row vector by that scalar
  (superword-level-parallelism style packing).
* **R1** turns an element-wise division of a vector by a scalar into a
  scalar reciprocal followed by a scaling:
  ``x = b / lambda  ->  tau = 1/lambda; x = tau * b``.

The Stage-1 synthesizer already emits most codelets directly in R1 form; the
rules still run over the basic program so that user-written LA statements
(and the unit tests mirroring Table 2) benefit from the same treatment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..ir.expr import Const, Div, Expr, Mul, Ref
from ..ir.operands import Scratch, View
from ..ir.program import Assign, Program, Statement


@dataclass
class RewriteReport:
    """How many times each rule fired (used by tests and the ablation bench)."""

    r0_applications: int = 0
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


def _match_scalar_division(statement: Statement) -> Optional[Tuple[View, Expr, Expr]]:
    """Match ``chi = beta / lambda`` with everything scalar."""
    if not isinstance(statement, Assign) or not statement.lhs.is_scalar:
        return None
    if not isinstance(statement.rhs, Div):
        return None
    numerator, divisor = statement.rhs.left, statement.rhs.right
    if not numerator.is_scalar or not divisor.is_scalar:
        return None
    return statement.lhs, numerator, divisor


def _adjacent_in_row(first: View, second: View) -> bool:
    """True when ``second`` is the element immediately right of ``first``."""
    return (first.operand is second.operand
            and first.row_off == second.row_off
            and second.col_off == first.col_off + 1)


def apply_rule_r0(program: Program) -> RewriteReport:
    """Pack neighboring scalar divisions into vector divisions (rule R0).

    Two consecutive statements ``chi0 = beta0/lambda`` and
    ``chi1 = beta1/lambda`` whose destinations (and numerators) are adjacent
    elements of the same matrix row, with the same divisor, are merged into
    one statement ``x = b / lambda`` on 1x2 row views (and the merge cascades
    for longer runs).
    """
    report = RewriteReport()
    statements = program.statements
    result: List[Statement] = []
    index = 0
    while index < len(statements):
        match = _match_scalar_division(statements[index])
        if match is None:
            result.append(statements[index])
            index += 1
            continue
        dest, numerator, divisor = match
        run_dests = [dest]
        run_numerators = [numerator]
        cursor = index + 1
        while cursor < len(statements):
            nxt = _match_scalar_division(statements[cursor])
            if nxt is None:
                break
            nxt_dest, nxt_num, nxt_div = nxt
            if not (nxt_div == divisor
                    and isinstance(nxt_num, Ref)
                    and isinstance(run_numerators[-1], Ref)
                    and _adjacent_in_row(run_dests[-1], nxt_dest)
                    and _adjacent_in_row(run_numerators[-1].view,
                                         nxt_num.view)):
                break
            run_dests.append(nxt_dest)
            run_numerators.append(nxt_num)
            cursor += 1
        if len(run_dests) >= 2:
            width = len(run_dests)
            packed_dest = run_dests[0].operand.view(
                run_dests[0].row_off, run_dests[0].col_off, 1, width)
            first_num = run_numerators[0]
            assert isinstance(first_num, Ref)
            packed_num = first_num.view.operand.view(
                first_num.view.row_off, first_num.view.col_off, 1, width)
            result.append(Assign(packed_dest, Div(Ref(packed_num), divisor)))
            report.r0_applications += 1
            index = cursor
        else:
            result.append(statements[index])
            index += 1
    program.statements = result
    return report


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


def apply_rewrite_rules(program: Program) -> RewriteReport:
    """Run R0 followed by R1 on a basic program (in place)."""
    report_r0 = apply_rule_r0(program)
    report_r1 = apply_rule_r1(program)
    return RewriteReport(r0_applications=report_r0.r0_applications,
                         r1_applications=report_r1.r1_applications)
