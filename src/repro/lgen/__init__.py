"""LGen-style sBLAC compiler: normalization, nu-BLACs, tiling, lowering."""

from .compiler import lower_program
from .lowering import Lowerer, LoweringOptions
from .normalize import (CanonicalOp, MatMulOp, Normalizer, ScalarAssignOp,
                        ScalarCoeff, ScaleCopyOp, TempAllocator,
                        push_down_transposes)
from .nu_blacs import NU_BLACS, NuBlac
from .tiling import CodegenVariant, candidate_variants, dedupe_resolved

__all__ = [
    "lower_program", "Lowerer", "LoweringOptions",
    "CanonicalOp", "MatMulOp", "Normalizer", "ScalarAssignOp", "ScalarCoeff",
    "ScaleCopyOp", "TempAllocator", "push_down_transposes",
    "NU_BLACS", "NuBlac",
    "CodegenVariant", "candidate_variants", "dedupe_resolved",
]
