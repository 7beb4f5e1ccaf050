"""Deliberately broken artifacts the static verifier must flag.

Two historical bug shapes, re-introduced deliberately so the verifier's
regression surface is executable:

* :func:`wrong_coefficient_program` -- the ``inv(T')`` miscompile (PR 5
  found it dynamically; all four backends agreed on the wrong value).
  The transposed-triangular-inverse expansion read its coefficient
  blocks at the *untransposed* offsets: for an upper-triangular input
  ``T``, forward substitution on ``T^T`` must read ``T[i, j]`` above
  the diagonal, but the buggy code read below it -- views whose
  :attr:`~repro.ir.operands.View.structure` is ``Structure.ZERO``,
  collapsing each off-diagonal product to zero.  The structure pass
  reports every such statement as a degenerate assignment (error) and
  every zero-half read as a warning.

* :func:`out_of_bounds_function` -- a lowering off-by-one: a loop body
  reading one element past its input and a store at the extent of its
  output.  The bounds pass proves both and names witness bindings.

:data:`WITNESSES` maps each witness name to its builder; ``python -m
repro.analysis check witness:NAME`` verifies the built artifact
directly, without generation.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

from ..cir.nodes import Affine, Buffer, For, Function, Load, Store
from ..ir.expr import Const, Div, Mul, Neg, Ref
from ..ir.operands import IOType, Operand
from ..ir.program import Assign, Program
from ..ir.properties import Properties


def wrong_coefficient_program() -> Program:
    """The ``inv(T')`` wrong-coefficient miscompile as a Stage-1 program.

    ``X = inv(T^T)`` for upper-triangular non-singular ``T``: ``T^T`` is
    lower triangular, so ``X`` is lower triangular and forward
    substitution computes ``X[i][j] = -X[i][i] * T'[i][j] * X[j][j]``
    with the coefficient ``T'[i][j] = T[j][i]`` read from T's stored
    (upper) half.  The buggy expansion ignored the transposition and
    read ``T[i][j]`` -- below the diagonal, where an upper-triangular
    matrix is structurally zero.
    """
    program = Program(name="trtri_transposed_wrong_coeff")
    t = program.declare(Operand(
        "T", 3, 3, IOType.IN,
        Properties.upper_triangular(non_singular=True)))
    x = program.declare(Operand(
        "X", 3, 3, IOType.OUT,
        Properties.lower_triangular(non_singular=True)))
    for i in range(3):
        program.add(Assign(x.element(i, i),
                           Div(Const(1.0), Ref(t.element(i, i)))))
    for i in range(1, 3):
        for j in range(i):
            # BUG (deliberate): the coefficient of the transposed input
            # lives at T[j][i]; reading T[i][j] lands in the zero half.
            program.add(Assign(
                x.element(i, j),
                Neg(Mul(Mul(Ref(x.element(i, i)), Ref(t.element(i, j))),
                        Ref(x.element(j, j))))))
    return program


def out_of_bounds_function() -> Function:
    """A C-IR function with two seeded out-of-bounds accesses.

    ``for (i = 0; i < 4; i += 1) y[i] = x[i + 1]`` reads ``x[4]`` of a
    4-element input on the last iteration, and the trailing
    ``y[4] = x[0]`` stores one past the output extent.
    """
    x = Buffer("x", 4, 1, "in")
    y = Buffer("y", 4, 1, "out")
    body = [
        For("i", 0, 4, 1, [
            Store(y, Affine.var("i"), Load(x, Affine.var("i") + 1)),
        ]),
        Store(y, Affine.constant(4), Load(x, Affine.constant(0))),
    ]
    return Function(name="oob_witness", params=[x, y], temps=[],
                    body=body, vector_width=1)


#: Witness name -> builder; the ``witness:NAME`` targets of ``check``
#: and ``lint``.
WITNESSES: Dict[str, Callable[[], Union[Program, Function]]] = {
    "trtri_transposed_wrong_coeff": wrong_coefficient_program,
    "oob_function": out_of_bounds_function,
}
