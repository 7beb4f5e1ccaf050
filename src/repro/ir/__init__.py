"""Mathematical intermediate representation (operands, expressions, programs).

This package is the common currency between the LA frontend, the Cl1ck-style
algorithm synthesis (Stage 1), and the LGen-style sBLAC lowering (Stage 2).
"""

from .expr import (Add, Const, Div, Expr, Inverse, Mul, Neg, Ref, Sqrt, Sub,
                   Transpose, flatten_add, ref)
from .operands import IOType, Matrix, Operand, Scalar, Vector, View
from .program import Assign, Equation, ForLoop, Program, Statement
from .properties import Properties, StorageHalf, Structure

__all__ = [
    "Add", "Const", "Div", "Expr", "Inverse", "Mul", "Neg", "Ref", "Sqrt",
    "Sub", "Transpose", "flatten_add", "ref",
    "IOType", "Matrix", "Operand", "Scalar", "Vector", "View",
    "Assign", "Equation", "ForLoop", "Program", "Statement",
    "Properties", "StorageHalf", "Structure",
]
