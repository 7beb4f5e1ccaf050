"""C-IR: C-like intermediate representation, passes and interpreter."""

from .builder import CIRBuilder, NameAllocator
from .interpreter import Interpreter, InterpreterKernel, run_function
from .nodes import (Affine, Assign, BinOp, Buffer, CExpr, Comment, CStmt,
                    FloatConst, For, Function, Load, ScalarVar, Store, UnOp,
                    VBinOp, VBlend, VBroadcast, VecVar, VExtract, VLoad,
                    VPermute2f128, VReduceAdd, VSet, VStore, VUnpack, VZero,
                    walk_expressions)
from .passes import PassOptions, PassReport, run_pipeline

__all__ = [
    "CIRBuilder", "NameAllocator", "Interpreter", "InterpreterKernel",
    "run_function",
    "Affine", "Assign", "BinOp", "Buffer", "CExpr", "Comment", "CStmt",
    "FloatConst", "For", "Function", "Load", "ScalarVar", "Store",
    "UnOp", "VBinOp", "VBlend", "VBroadcast", "VecVar", "VExtract", "VLoad",
    "VPermute2f128", "VReduceAdd", "VSet", "VStore", "VUnpack", "VZero",
    "walk_expressions",
    "PassOptions", "PassReport", "run_pipeline",
]
