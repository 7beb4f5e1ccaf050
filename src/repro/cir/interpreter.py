"""A numpy-backed interpreter for C-IR functions.

The interpreter gives C-IR an executable semantics independent of a C
compiler: every generated kernel can be run on numpy inputs and compared
against a reference implementation.  The vector operations implement the
exact semantics of the AVX instructions they are unparsed to
(``blend_pd``, ``permute2f128_pd``, ``unpacklo/hi_pd``, masked
loads/stores), so that the load/store analysis of Stage 3 can be
validated end to end.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Union

import numpy as np

from ..errors import InterpreterError
from .nodes import (Assign, BinOp, Buffer, CExpr, Comment, CStmt,
                    FloatConst, For, Function, Load, ScalarVar, Store,
                    UnOp, VBinOp, VBlend, VBroadcast, VecVar, VExtract, VLoad,
                    VPermute2f128, VReduceAdd, VSet, VStore, VUnpack, VZero)

Value = Union[float, np.ndarray]


def coerce_input(buffer: Buffer, value: np.ndarray,
                 error: type = InterpreterError) -> np.ndarray:
    """Coerce one caller-supplied input to the buffer's flat float64 form.

    The single definition of the input-shape rules every execution
    backend accepts (scalars for 1x1 buffers, 1-D vectors promoted to the
    buffer's row/column orientation, exact 2-D shapes otherwise): the
    interpreter and :class:`~repro.backend.numpy_backend.NumPyKernel`
    must agree on what inputs mean, or differential runs would compare
    kernels fed different data.  ``error`` selects the exception type the
    calling backend reports.
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim == 1:
        if buffer.cols == 1:
            arr = arr.reshape(-1, 1)
        else:
            arr = arr.reshape(1, -1)
    if arr.shape != (buffer.rows, buffer.cols):
        raise error(
            f"input {buffer.name!r} has shape {arr.shape}, expected "
            f"{(buffer.rows, buffer.cols)}")
    return arr.flatten().astype(np.float64)


class Interpreter:
    """Executes a :class:`~repro.cir.nodes.Function` on numpy buffers."""

    def __init__(self, function: Function):
        self.function = function
        #: Dynamic operation count of the last :meth:`run`: one unit per
        #: expression node evaluated plus one per store executed.  The
        #: autotuner's interpreter backend uses it as a deterministic,
        #: compiler-free cost measurement.
        self.executed_ops = 0

    # -- public API ----------------------------------------------------------

    def run(self, inputs: Dict[str, np.ndarray],
            check_finite: bool = False) -> Dict[str, np.ndarray]:
        """Execute the function.

        Parameters
        ----------
        inputs:
            Maps parameter names to 2-D numpy arrays (or scalars for 1x1
            buffers).  Input buffers are copied, so callers' arrays are never
            modified.  Output-only parameters may be omitted.
        check_finite:
            When true, raise if any output contains NaN/Inf.

        Returns
        -------
        dict
            Maps every writable parameter name to its final 2-D value.
        """
        storage: Dict[str, np.ndarray] = {}
        for buf in self.function.params:
            if buf.name in inputs:
                storage[buf.name] = coerce_input(buf, inputs[buf.name])
            elif buf.kind == "in" or buf.kind == "inout":
                raise InterpreterError(f"missing input buffer {buf.name!r}")
            else:
                storage[buf.name] = np.zeros(buf.size, dtype=np.float64)
        for buf in self.function.temps:
            storage[buf.name] = np.zeros(buf.size, dtype=np.float64)

        env: Dict[str, Value] = {}
        self._storage = storage
        self.executed_ops = 0
        # C arithmetic never warns: non-finite values propagate
        # IEEE-style through the vector ops without numpy chatter.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self._exec_block(self.function.body, env, {})

        outputs: Dict[str, np.ndarray] = {}
        for buf in self.function.params:
            if buf.writable:
                out = storage[buf.name].reshape(buf.rows, buf.cols).copy()
                if check_finite and not np.all(np.isfinite(out)):
                    raise InterpreterError(
                        f"output {buf.name!r} contains non-finite values")
                outputs[buf.name] = out
        return outputs

    # -- statement execution --------------------------------------------------

    def _exec_block(self, stmts, env: Dict[str, Value],
                    indices: Dict[str, int]) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env, indices)

    def _exec_stmt(self, stmt: CStmt, env: Dict[str, Value],
                   indices: Dict[str, int]) -> None:
        if isinstance(stmt, Comment):
            return
        if isinstance(stmt, Assign):
            env[stmt.dest.name] = self._eval(stmt.value, env, indices)
            return
        if isinstance(stmt, Store):
            self.executed_ops += 1
            buf = self._buffer_array(stmt.buffer)
            idx = stmt.index.evaluate(indices)
            self._check_index(stmt.buffer, idx, 1)
            buf[idx] = float(self._as_scalar(self._eval(stmt.value, env,
                                                        indices)))
            return
        if isinstance(stmt, VStore):
            self.executed_ops += 1
            buf = self._buffer_array(stmt.buffer)
            idx = stmt.index.evaluate(indices)
            value = self._as_vector(self._eval(stmt.value, env, indices),
                                    stmt.width)
            mask = stmt.mask if stmt.mask is not None else (True,) * stmt.width
            for lane, keep in enumerate(mask):
                if keep:
                    self._check_index(stmt.buffer, idx + lane, 1)
                    buf[idx + lane] = value[lane]
            return
        if isinstance(stmt, For):
            for value in stmt.iterations():
                inner = dict(indices)
                inner[stmt.var] = value
                self._exec_block(stmt.body, env, inner)
            return
        raise InterpreterError(f"unknown statement {stmt!r}")

    # -- expression evaluation -------------------------------------------------

    def _eval(self, expr: CExpr, env: Dict[str, Value],
              indices: Dict[str, int]) -> Value:
        self.executed_ops += 1
        if isinstance(expr, FloatConst):
            return float(expr.value)
        if isinstance(expr, (ScalarVar, VecVar)):
            try:
                return env[expr.name]
            except KeyError:
                raise InterpreterError(f"use of undefined register "
                                       f"{expr.name!r}")
        if isinstance(expr, Load):
            buf = self._buffer_array(expr.buffer)
            idx = expr.index.evaluate(indices)
            self._check_index(expr.buffer, idx, 1)
            return float(buf[idx])
        if isinstance(expr, VLoad):
            buf = self._buffer_array(expr.buffer)
            idx = expr.index.evaluate(indices)
            out = np.zeros(expr.width, dtype=np.float64)
            mask = expr.mask if expr.mask is not None else (True,) * expr.width
            for lane, keep in enumerate(mask):
                if keep:
                    self._check_index(expr.buffer, idx + lane, 1)
                    out[lane] = buf[idx + lane]
            return out
        if isinstance(expr, VBroadcast):
            value = self._as_scalar(self._eval(expr.value, env, indices))
            return np.full(expr.width, value, dtype=np.float64)
        if isinstance(expr, VSet):
            return np.array([self._as_scalar(self._eval(e, env, indices))
                             for e in expr.elements], dtype=np.float64)
        if isinstance(expr, VZero):
            return np.zeros(expr.width, dtype=np.float64)
        if isinstance(expr, BinOp):
            left = self._as_scalar(self._eval(expr.left, env, indices))
            right = self._as_scalar(self._eval(expr.right, env, indices))
            return self._scalar_op(expr.op, left, right)
        if isinstance(expr, UnOp):
            value = self._as_scalar(self._eval(expr.operand, env, indices))
            if expr.op == "neg":
                return -value
            if expr.op == "sqrt":
                # C's sqrt() returns NaN for negative arguments; the
                # interpreter is the reference semantics for the compiled
                # backend, so it must not be stricter (a fuzzer-found
                # divergence: interpreter raised while compiled C and the
                # NumPy backend kept running with NaN).
                if value < 0:
                    return math.nan
                return math.sqrt(value)
            raise InterpreterError(f"unknown unary op {expr.op!r}")
        if isinstance(expr, VBinOp):
            left = self._as_vector(self._eval(expr.left, env, indices),
                                   expr.width)
            right = self._as_vector(self._eval(expr.right, env, indices),
                                    expr.width)
            return self._vector_op(expr.op, left, right)
        if isinstance(expr, VReduceAdd):
            vec = self._eval(expr.vec, env, indices)
            return float(np.sum(self._as_vector(vec, len(np.atleast_1d(vec)))))
        if isinstance(expr, VExtract):
            vec = self._as_vector(self._eval(expr.vec, env, indices), None)
            return float(vec[expr.lane])
        if isinstance(expr, VBlend):
            a = self._as_vector(self._eval(expr.a, env, indices), expr.width)
            b = self._as_vector(self._eval(expr.b, env, indices), expr.width)
            out = a.copy()
            for lane in range(expr.width):
                if expr.imm >> lane & 1:
                    out[lane] = b[lane]
            return out
        if isinstance(expr, VPermute2f128):
            a = self._as_vector(self._eval(expr.a, env, indices), 4)
            b = self._as_vector(self._eval(expr.b, env, indices), 4)
            out = np.zeros(4, dtype=np.float64)
            for half in range(2):
                control = (expr.imm >> (4 * half)) & 0xF
                if control & 0x8:
                    out[2 * half:2 * half + 2] = 0.0
                else:
                    source = (a, a, b, b)[control & 3]
                    offset = 0 if (control & 1) == 0 else 2
                    out[2 * half:2 * half + 2] = source[offset:offset + 2]
            return out
        if isinstance(expr, VUnpack):
            a = self._as_vector(self._eval(expr.a, env, indices), 4)
            b = self._as_vector(self._eval(expr.b, env, indices), 4)
            if expr.high:
                return np.array([a[1], b[1], a[3], b[3]], dtype=np.float64)
            return np.array([a[0], b[0], a[2], b[2]], dtype=np.float64)
        raise InterpreterError(f"unknown expression {expr!r}")

    # -- helpers ---------------------------------------------------------------

    def _buffer_array(self, buffer: Buffer) -> np.ndarray:
        try:
            return self._storage[buffer.name]
        except KeyError:
            raise InterpreterError(f"unknown buffer {buffer.name!r}")

    def _check_index(self, buffer: Buffer, index: int, count: int) -> None:
        if index < 0 or index + count > buffer.size:
            raise InterpreterError(
                f"out-of-bounds access to {buffer.name!r}: index {index} "
                f"(+{count}) of {buffer.size}")

    @staticmethod
    def _scalar_op(op: str, left: float, right: float) -> float:
        if op == "add":
            return left + right
        if op == "sub":
            return left - right
        if op == "mul":
            return left * right
        if op == "div":
            # IEEE-754 semantics, like the compiled C: x/0 is +-inf and
            # 0/0 is NaN.  Raising here made the interpreter diverge
            # from every other backend (a fuzzer-found crash).
            if right == 0.0:
                if left == 0.0 or math.isnan(left):
                    return math.nan
                return math.copysign(math.inf, left) * math.copysign(
                    1.0, right)
            return left / right
        if op == "max":
            return max(left, right)
        if op == "min":
            return min(left, right)
        raise InterpreterError(f"unknown scalar op {op!r}")

    @staticmethod
    def _vector_op(op: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        if op == "add":
            return left + right
        if op == "sub":
            return left - right
        if op == "mul":
            return left * right
        if op == "div":
            # IEEE-754, like the compiled C: lanes dividing by zero give
            # +-inf / NaN instead of aborting the whole kernel.
            return left / right
        if op == "max":
            return np.maximum(left, right)
        if op == "min":
            return np.minimum(left, right)
        raise InterpreterError(f"unknown vector op {op!r}")

    @staticmethod
    def _as_scalar(value: Value) -> float:
        if isinstance(value, np.ndarray):
            if value.size != 1:
                raise InterpreterError(
                    f"expected a scalar value, got a vector of {value.size}")
            return float(value[0])
        return float(value)

    @staticmethod
    def _as_vector(value: Value, width: Optional[int]) -> np.ndarray:
        if isinstance(value, np.ndarray):
            if width is not None and value.size != width:
                raise InterpreterError(
                    f"expected a vector of width {width}, got {value.size}")
            return value
        if width is None:
            width = 1
        return np.full(width, float(value), dtype=np.float64)


class InterpreterKernel:
    """The interpreter behind the executable-kernel contract.

    Adapter giving C-IR interpretation the same ``run``/``time`` surface
    as :class:`~repro.backend.compile.CompiledKernel` and
    :class:`~repro.backend.numpy_backend.NumPyKernel`, so callers (the
    bench harness, the cross-backend differential checker) can treat
    "interpreter" as just another execution backend.
    """

    def __init__(self, function: Function):
        self.function = function
        self._interpreter = Interpreter(function)

    def run(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return self._interpreter.run(inputs)

    __call__ = run

    def time(self, inputs: Dict[str, np.ndarray], repeats: int = 5,
             warmup: int = 1, inner: int = 1) -> list:
        """Wall-clock seconds per interpreted call (``repeats`` samples),
        via the shared protocol of :func:`repro.timing.batched_time`.

        The interpreter copies its input buffers on every :meth:`run`, so
        the restore step is a no-op; ``inner`` defaults to 1 because
        interpreted calls are slow enough to time individually.
        """
        from ..timing import batched_time

        return batched_time(lambda: self._interpreter.run(inputs),
                            lambda: None, repeats, warmup, inner)


def run_function(function: Function,
                 inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Convenience wrapper: interpret ``function`` on ``inputs``."""
    return Interpreter(function).run(inputs)
