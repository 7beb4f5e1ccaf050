"""Execution backend that compiles C-IR to portable Python/NumPy kernels.

The repository has two ways to *run* a generated kernel: compile the
emitted C with a host compiler (:mod:`repro.backend.compile`, the
strongest check, but needs ``$CC`` and AVX) or walk the C-IR tree one
statement at a time (:mod:`repro.cir.interpreter`, always available, but
orders of magnitude too slow to benchmark with).  This module adds the
third tier: a translator that walks a C-IR :class:`~repro.cir.nodes.Function`
once and emits a self-contained Python source module whose single function
executes the kernel on flat ``float64`` arrays, compiled once with
:func:`compile`/``exec`` and wrapped in :class:`NumPyKernel` -- a drop-in
sibling of :class:`~repro.backend.compile.CompiledKernel` (same
``run``/``time`` contract), no C compiler required.

The translation is *unrolled*: every width-``nu`` vector value is
lane-decomposed into ``nu`` scalar expressions at translation time --
loads become per-lane indexing, lane-wise arithmetic becomes scalar
arithmetic, and the data-reorganization ops (blend/permute/unpack) and
mask constants resolve into pure lane selection, i.e. they cost nothing
at run time.  Buffers live as Python lists inside the kernel (converted
from/to the caller's ndarrays at entry/exit).  For the paper's kernel
sizes (nu = 4) this is the fastest portable execution: one NumPy
micro-op costs ~0.5-1 us of dispatch overhead, more than the *whole*
4-lane computation it performs.

The emitted code implements the exact semantics of the AVX instructions
the C unparser emits, so interpreter, NumPy, and compiled-C runs of the
same kernel agree to rounding error (the cross-backend differential CI
job asserts 1e-12).  Like the compiled ``.so`` cache, generated sources
are cached content-addressed on disk (``REPRO_NUMPY_CACHE``, next to the
object cache) and compiled code objects are memoized in-process.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..cir.nodes import (Affine, Assign, BinOp, CExpr, Comment, CStmt,
                         FloatConst, For, Function, Load, ScalarVar,
                         Store, UnOp, VBinOp, VBlend, VBroadcast, VecVar,
                         VExtract, VLoad, VPermute2f128, VReduceAdd, VSet,
                         VStore, VUnpack, VZero)
from ..errors import BackendError

#: Bump whenever the emitted Python changes incompatibly; stale cached
#: sources are then simply regenerated (the digest covers this value).
#: v2: C semantics for sqrt(negative) -> NaN and division by zero ->
#: inf/NaN (fuzzer-found divergences from the compiled backend).
NUMPY_BACKEND_VERSION = 2

_PRELUDE = """\
from math import copysign as _copysign, isnan as _isnan
from math import sqrt as _math_sqrt


def sqrt(x):
    # C sqrt() semantics: negative arguments give NaN, not an exception.
    x = float(x)
    return _math_sqrt(x) if x >= 0.0 else float("nan")


def _div(a, b):
    # C division semantics: x/0 is a signed infinity, 0/0 is NaN
    # (buffers are Python floats here, whose / would raise instead).
    if b == 0.0:
        if a == 0.0 or _isnan(a):
            return float("nan")
        return _copysign(float("inf"), a) * _copysign(1.0, b)
    return a / b
"""

def _mangle(name: str) -> str:
    """A collision-free Python identifier for a C-IR name.

    Buffer/register/index names come from the LA frontend and the
    lowering; they may shadow the prelude helpers, numpy, or be Python
    keywords outright (the GPR application declares ``Sca lambda``), so
    every C-IR identifier gets a reserved prefix (injective: distinct
    C-IR names never collide after mangling).
    """
    if not name.isidentifier():
        raise BackendError(f"cannot translate C-IR identifier {name!r}")
    return f"v_{name}"


#: Scalar-valued expression nodes cheap and pure enough to duplicate
#: per lane instead of binding to a temporary first.
_ATOMIC_SCALARS = (FloatConst, ScalarVar, Load)


class NumPyTranslator:
    """Emits the Python source module for one C-IR function."""

    def __init__(self, function: Function, indent: str = "    "):
        self.function = function
        self.indent = indent
        #: auxiliary assignments to flush before the current statement
        #: (temporaries for the broadcast of a compound scalar).
        self._pending: List[str] = []
        self._temp_count = 0

    # -- public API ----------------------------------------------------------

    def translate(self) -> str:
        """Return the complete, self-contained Python translation unit."""
        body = self._stmts(self.function.body, 1)
        pad = self.indent
        lines: List[str] = []
        lines.append(f'"""Unrolled NumPy-backend execution of C-IR kernel '
                     f'{self.function.name!r} (generated; do not edit)."""')
        lines.append(_PRELUDE)
        lines.append("")
        params = ", ".join(f"_p_{buf.name}" for buf in self.function.params)
        lines.append(f"def {self.function.name}({params}):")
        for buf in self.function.params:
            lines.append(f"{pad}{_mangle(buf.name)} = _p_{buf.name}.tolist()")
        for buf in self.function.temps:
            lines.append(f"{pad}{_mangle(buf.name)} = [0.0] * {buf.size}")
        lines.extend(body)
        # Publish list contents back into the caller's flat arrays.
        for buf in self.function.params:
            if buf.writable:
                lines.append(f"{pad}_p_{buf.name}[:] = {_mangle(buf.name)}")
        if len(lines) == lines.index(f"def {self.function.name}({params}):") \
                + 1:  # pragma: no cover - a Function always has params/body
            lines.append(f"{pad}pass")
        return "\n".join(lines) + "\n"

    # -- affine index expressions --------------------------------------------

    def _affine(self, affine: Affine) -> str:
        parts: List[str] = []
        for name, coef in affine.terms:
            if coef == 1:
                parts.append(_mangle(name))
            else:
                parts.append(f"{coef} * {_mangle(name)}")
        if affine.const or not parts:
            parts.append(str(affine.const))
        return " + ".join(parts).replace("+ -", "- ")

    # -- statements ----------------------------------------------------------

    def _stmts(self, stmts: List[CStmt], depth: int) -> List[str]:
        pad = self.indent * depth
        lines: List[str] = []
        for stmt in stmts:
            lines.extend(self._stmt(stmt, pad))
        return lines

    def _flush(self, pad: str, lines: List[str]) -> None:
        lines.extend(pad + pending for pending in self._pending)
        self._pending.clear()

    def _stmt(self, stmt: CStmt, pad: str) -> List[str]:
        lines: List[str] = []
        if isinstance(stmt, Comment):
            lines.append(f"{pad}# {stmt.text}")
        elif isinstance(stmt, Assign):
            if isinstance(stmt.dest, VecVar):
                width = stmt.dest.width
                dests = ", ".join(f"{_mangle(stmt.dest.name)}_{lane}"
                                  for lane in range(width))
                values = ", ".join(self._lanes(stmt.value, width))
                self._flush(pad, lines)
                lines.append(f"{pad}{dests} = {values}")
            else:
                value = self._scalar(stmt.value)
                self._flush(pad, lines)
                lines.append(f"{pad}{_mangle(stmt.dest.name)} = {value}")
        elif isinstance(stmt, Store):
            value = self._scalar(stmt.value)
            self._flush(pad, lines)
            lines.append(f"{pad}{_mangle(stmt.buffer.name)}"
                         f"[{self._affine(stmt.index)}] = {value}")
        elif isinstance(stmt, VStore):
            lines.extend(self._vstore(stmt, pad))
        elif isinstance(stmt, For):
            lines.append(f"{pad}for {_mangle(stmt.var)} in "
                         f"range({stmt.start}, {stmt.stop}, {stmt.step}):")
            lines.extend(self._block(stmt.body, pad + self.indent))
        else:
            raise BackendError(f"cannot translate statement {stmt!r}")
        return lines

    def _block(self, stmts: List[CStmt], pad: str) -> List[str]:
        lines: List[str] = []
        for stmt in stmts:
            lines.extend(self._stmt(stmt, pad))
        # Comment-only (or empty) bodies still need a statement.
        if not any(not line.lstrip().startswith("#") for line in lines):
            lines.append(f"{pad}pass")
        return lines

    def _vstore(self, stmt: VStore, pad: str) -> List[str]:
        buffer = _mangle(stmt.buffer.name)
        base = self._affine(stmt.index)
        lines: List[str] = []
        lanes = self._lanes(stmt.value, stmt.width)
        if stmt.mask is None:
            self._flush(pad, lines)
            values = ", ".join(lanes)
            lines.append(f"{pad}{buffer}[({base}):({base}) + "
                         f"{stmt.width}] = ({values})")
            return lines
        active = [lane for lane, keep in enumerate(stmt.mask) if keep]
        if len(active) > 1:
            # AVX maskstore evaluates the whole source vector before
            # writing any lane; bind the active lanes first so an
            # aliasing value expression (a masked load from the same
            # buffer) cannot observe this store's earlier lanes.
            names = [self._fresh_temp() for _ in active]
            self._pending.append(
                ", ".join(names) + " = "
                + ", ".join(lanes[lane] for lane in active))
            stores = dict(zip(active, names))
        else:
            stores = {lane: lanes[lane] for lane in active}
        self._flush(pad, lines)
        for lane in active:
            index = self._affine(stmt.index + lane)
            lines.append(f"{pad}{buffer}[{index}] = {stores[lane]}")
        return lines

    # -- lane decomposition --------------------------------------------------

    def _fresh_temp(self) -> str:
        self._temp_count += 1
        return f"_t{self._temp_count}"

    def _temp(self, value: str) -> str:
        """Bind a compound scalar expression to a pre-statement temporary
        so lane decomposition never duplicates its evaluation."""
        name = self._fresh_temp()
        self._pending.append(f"{name} = {value}")
        return name

    def _scalar(self, expr: CExpr) -> str:
        """Emit a scalar-valued expression."""
        if isinstance(expr, FloatConst):
            return repr(float(expr.value))
        if isinstance(expr, (ScalarVar, VecVar)):
            if isinstance(expr, VecVar):
                raise BackendError(
                    f"vector register {expr.name!r} used as a scalar")
            return _mangle(expr.name)
        if isinstance(expr, Load):
            return (f"{_mangle(expr.buffer.name)}"
                    f"[{self._affine(expr.index)}]")
        if isinstance(expr, BinOp):
            left, right = self._scalar(expr.left), self._scalar(expr.right)
            if expr.op == "div":
                return f"_div({left}, {right})"
            symbol = {"add": "+", "sub": "-", "mul": "*"}
            if expr.op in symbol:
                return f"({left} {symbol[expr.op]} {right})"
            return f"{expr.op}({left}, {right})"
        if isinstance(expr, UnOp):
            if expr.op == "neg":
                return f"(-{self._scalar(expr.operand)})"
            return f"sqrt({self._scalar(expr.operand)})"
        if isinstance(expr, VReduceAdd):
            lanes = self._lanes(expr.vec, getattr(expr.vec, "width", 4))
            if len(lanes) == 4:
                # Pairwise, matching the C helper repro_reduce_add_pd.
                return (f"(({lanes[0]} + {lanes[2]}) + "
                        f"({lanes[1]} + {lanes[3]}))")
            return "(" + " + ".join(lanes) + ")"
        if isinstance(expr, VExtract):
            return self._lanes(expr.vec, None)[expr.lane]
        raise BackendError(f"cannot translate scalar expression {expr!r}")

    def _lanes(self, expr: CExpr, width: Optional[int]) -> Tuple[str, ...]:
        """Emit a vector-valued expression as one string per lane.
        Scalar-valued expressions broadcast, matching the interpreter's
        promotion rules."""
        if isinstance(expr, VecVar):
            name = _mangle(expr.name)
            return tuple(f"{name}_{lane}" for lane in range(expr.width))
        if isinstance(expr, VLoad):
            buffer = _mangle(expr.buffer.name)
            mask = expr.mask if expr.mask is not None \
                else (True,) * expr.width
            return tuple(
                f"{buffer}[{self._affine(expr.index + lane)}]"
                if keep else "0.0"
                for lane, keep in enumerate(mask))
        if isinstance(expr, VBroadcast):
            value = self._scalar(expr.value)
            if not isinstance(expr.value, _ATOMIC_SCALARS):
                value = self._temp(value)
            return (value,) * expr.width
        if isinstance(expr, VSet):
            return tuple(self._scalar(e) for e in expr.elements)
        if isinstance(expr, VZero):
            return ("0.0",) * expr.width
        if isinstance(expr, VBinOp):
            left = self._lanes(expr.left, expr.width)
            right = self._lanes(expr.right, expr.width)
            symbol = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
            if expr.op in symbol:
                return tuple(f"({l} {symbol[expr.op]} {r})"
                             for l, r in zip(left, right))
            return tuple(f"{expr.op}({l}, {r})"
                         for l, r in zip(left, right))
        if isinstance(expr, VBlend):
            a = self._lanes(expr.a, expr.width)
            b = self._lanes(expr.b, expr.width)
            return tuple(b[lane] if expr.imm >> lane & 1 else a[lane]
                         for lane in range(expr.width))
        if isinstance(expr, VPermute2f128):
            a = self._lanes(expr.a, 4)
            b = self._lanes(expr.b, 4)
            out: List[str] = []
            for half in range(2):
                control = (expr.imm >> (4 * half)) & 0xF
                if control & 0x8:
                    out.extend(("0.0", "0.0"))
                else:
                    source = a if (control & 2) == 0 else b
                    offset = 2 if (control & 1) else 0
                    out.extend(source[offset:offset + 2])
            return tuple(out)
        if isinstance(expr, VUnpack):
            a = self._lanes(expr.a, 4)
            b = self._lanes(expr.b, 4)
            off = 1 if expr.high else 0
            return (a[off], b[off], a[2 + off], b[2 + off])
        # Scalar-valued expression in a vector position: broadcast.
        value = self._scalar(expr)
        if not isinstance(expr, _ATOMIC_SCALARS):
            value = self._temp(value)
        return (value,) * (width if width is not None else 1)

def translate_function(function: Function) -> str:
    """Translate a C-IR function to a self-contained Python/NumPy module."""
    return NumPyTranslator(function).translate()


# ---------------------------------------------------------------------------
# The runnable kernel
# ---------------------------------------------------------------------------


@dataclass
class NumPyKernel:
    """A compiled NumPy translation of one generated kernel.

    Drop-in sibling of :class:`~repro.backend.compile.CompiledKernel`:
    same ``run(inputs) -> outputs`` and ``time(inputs, ...)`` contract, no
    C compiler required.  Instances are also callable (``kernel(inputs)``).
    """

    function: Function
    source: str
    source_path: Optional[str] = None
    _callable: Callable[..., None] = field(default=None, repr=False)

    def _prepare_buffers(self, inputs: Dict[str, np.ndarray]
                         ) -> List[np.ndarray]:
        """Flat float64 working arrays, one per parameter, in order
        (input values copied in, outputs zero-initialized); the shape
        coercion rules are the C-IR interpreter's, shared via
        :func:`repro.cir.interpreter.coerce_input`."""
        from ..cir.interpreter import coerce_input

        arrays: List[np.ndarray] = []
        for buf in self.function.params:
            if buf.name in inputs:
                arrays.append(coerce_input(buf, inputs[buf.name],
                                           error=BackendError))
            elif buf.kind in ("in", "inout"):
                raise BackendError(f"missing input buffer {buf.name!r}")
            else:
                arrays.append(np.zeros(buf.size, dtype=np.float64))
        return arrays

    def run(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Execute the kernel on numpy inputs (copies, like the
        interpreter and the compiled backend)."""
        arrays = self._prepare_buffers(inputs)
        # C arithmetic never warns: suppress numpy's divide/overflow
        # chatter so non-finite values just propagate IEEE-style.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self._callable(*arrays)
        return {buf.name: array.reshape(buf.rows, buf.cols)
                for buf, array in zip(self.function.params, arrays)
                if buf.writable}

    __call__ = run

    def time(self, inputs: Dict[str, np.ndarray], repeats: int = 9,
             warmup: int = 2, inner: int = 8) -> List[float]:
        """Time the kernel: ``repeats`` samples of seconds-per-call.

        Same contract as :meth:`CompiledKernel.time`: buffers are prepared
        once, then the shared batched protocol of
        :func:`repro.timing.batched_time` runs -- in-out buffers
        restored from pristine copies before every call.
        """
        from ..timing import batched_time, pristine_restore

        run = self._callable
        work = self._prepare_buffers(inputs)
        return batched_time(lambda: run(*work),
                            pristine_restore(self.function.params, work),
                            repeats, warmup, inner)


# ---------------------------------------------------------------------------
# Compilation + content-addressed caching
# ---------------------------------------------------------------------------


def default_numpy_cache_dir() -> str:
    """Directory holding cached generated Python sources.

    Overridable via ``REPRO_NUMPY_CACHE``; shares a parent with the
    object cache of :mod:`repro.backend.compile`.
    """
    from ..ioutil import cache_root
    return cache_root("REPRO_NUMPY_CACHE", "numpy")


#: source-digest -> compiled namespace; one exec per distinct source per
#: process, however many NumPyKernel instances are built from it.
_COMPILED_MEMO: Dict[str, Dict[str, object]] = {}
_MEMO_LOCK = threading.Lock()


def _instantiate(source: str, function_name: str,
                 origin: str) -> Callable[..., None]:
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    with _MEMO_LOCK:
        namespace = _COMPILED_MEMO.get(digest)
    if namespace is None:
        namespace = {}
        try:
            exec(compile(source, origin, "exec"), namespace)
        except Exception as exc:
            raise BackendError(
                f"generated NumPy source for {function_name!r} does not "
                f"compile: {exc}")
        with _MEMO_LOCK:
            _COMPILED_MEMO[digest] = namespace
    fn = namespace.get(function_name)
    if not callable(fn):
        raise BackendError(
            f"generated NumPy source defines no function "
            f"{function_name!r}")
    return fn


def compile_numpy_kernel(function: Function,
                         cache_key: Optional[str] = None,
                         cache_dir: Optional[str] = None) -> NumPyKernel:
    """Translate a C-IR function and compile it to a :class:`NumPyKernel`.

    When ``cache_key`` is given (the kernel service's content hash), the
    generated source is kept under ``cache_dir`` as a readable ``.py``
    file and reused by later calls with the same key -- the exact protocol
    of :func:`repro.backend.compile.compile_kernel` for shared objects.
    Unlike the ``.so`` path there is no compiler to skip, so the cache's
    value is debuggability (the source a kernel ran with is on disk) and
    cross-process reuse of the translation.  Like the ``.so`` cache, a
    corrupt cached artifact (torn write, hand-edited garbage) is dropped
    and regenerated rather than raised.
    """
    source: Optional[str] = None
    source_path: Optional[str] = None
    if cache_key is not None:
        # "unrolled" stays in the digest so that sources cached by
        # earlier versions keep their names.
        digest = hashlib.sha256(
            "\x00".join([cache_key, function.name, "unrolled",
                         str(NUMPY_BACKEND_VERSION)]).encode()
        ).hexdigest()[:32]
        root = cache_dir or default_numpy_cache_dir()
        source_path = os.path.join(root, f"{digest}.py")
        if os.path.exists(source_path):
            try:
                with open(source_path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError:
                source = None
        if source is None:
            source = translate_function(function)
            try:
                from ..ioutil import atomic_write_bytes
                os.makedirs(root, exist_ok=True)
                atomic_write_bytes(source_path, source.encode("utf-8"))
            except OSError:
                source_path = None  # cache dir unwritable: run uncached
    else:
        source = translate_function(function)

    origin = source_path or f"<numpy-kernel {function.name}>"
    try:
        fn = _instantiate(source, function.name, origin)
    except BackendError:
        fresh = translate_function(function)
        if source_path is None or fresh == source:
            raise              # the translator itself produced bad source
        # Corrupt cached source: drop it, regenerate, re-publish.
        try:
            os.unlink(source_path)
        except OSError:
            pass
        source = fresh
        fn = _instantiate(source, function.name, origin)
        try:
            from ..ioutil import atomic_write_bytes
            atomic_write_bytes(source_path, source.encode("utf-8"))
        except OSError:
            source_path = None
    return NumPyKernel(function=function, source=source,
                       source_path=source_path, _callable=fn)
