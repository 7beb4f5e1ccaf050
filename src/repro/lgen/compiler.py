"""The LGen-style compiler: basic LA programs -> C-IR functions.

This is the Stage-2 driver: it takes a *basic* linear algebra program (only
sBLACs and scalar auxiliary computations -- Stage 1 must already have
expanded every HLAC), normalizes each statement into canonical operations
and lowers them to C-IR.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..cir.builder import CIRBuilder
from ..cir.nodes import Comment, CStmt, Function
from ..errors import LoweringError
from ..ir.program import Assign, Program
from .lowering import Lowerer, LoweringOptions
from .normalize import Normalizer, TempAllocator


def lower_program(program: Program,
                  options: Optional[LoweringOptions] = None,
                  function_name: Optional[str] = None,
                  annotate: bool = True) -> Function:
    """Lower a basic LA program to a C-IR function.

    Raises :class:`~repro.errors.LoweringError` if the program still
    contains HLAC statements.
    """
    return lower_program_with_shuffle_use(program, options, function_name,
                                          annotate)[0]


def lower_program_with_shuffle_use(
        program: Program, options: Optional[LoweringOptions] = None,
        function_name: Optional[str] = None,
        annotate: bool = True) -> Tuple[Function, bool]:
    """:func:`lower_program`, and whether any operation reached the
    decision ``options.use_shuffle_transpose`` steers.  When none did,
    the function is the same under either value of the flag."""
    options = options or LoweringOptions()
    if not program.is_basic():
        raise LoweringError(
            f"program {program.name!r} still contains HLAC statements; "
            f"run Stage 1 first")

    builder = CIRBuilder(program, function_name,
                         vector_width=options.vector_width)
    normalizer = Normalizer(TempAllocator())
    lowerer = Lowerer(builder, options)

    body: List[CStmt] = []
    for statement in program.unrolled_statements():
        if not isinstance(statement, Assign):
            raise LoweringError(
                f"unsupported statement kind {type(statement).__name__} in "
                f"basic program")
        if annotate:
            body.append(Comment(repr(statement)))
        for op in normalizer.normalize(statement):
            lowerer.lower(op, body)
    return builder.finish(body), lowerer.read_shuffle_transpose
