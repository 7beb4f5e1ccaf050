"""Helpers for constructing C-IR functions.

The builder owns fresh-name generation for register variables, index
variables and temporary buffers, plus the mapping from LA operands to C-IR
buffers (including the ``ow(...)`` storage aliasing of the LA language:
operands that overwrite each other share one buffer).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..errors import CIRError
from ..ir.operands import Operand, View
from ..ir.program import Program
from .nodes import (Affine, Buffer, CExpr, Function, ScalarVar, VecVar)


class NameAllocator:
    """Generates unique names with a per-prefix counter."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def fresh(self, prefix: str) -> str:
        count = self._counters.get(prefix, 0)
        self._counters[prefix] = count + 1
        return f"{prefix}{count}"


#: C reserved words a generated function must not be named after (the
#: Python side is covered by :func:`keyword.iskeyword`).
_C_KEYWORDS = frozenset("""
auto break case char const continue default do double else enum extern
float for goto if inline int long register restrict return short signed
sizeof static struct switch typedef union unsigned void volatile while
""".split())


def sanitize_identifier(name: str) -> str:
    """Coerce an arbitrary program name into a valid C/Python identifier.

    LA program names are free-form text (they come from the CLI, the HTTP
    service, and file names), but they end up as the generated kernel's
    function name in both the emitted C and the NumPy translation --
    ``potrf-4``, ``2stage`` or ``for`` would produce artifacts that do
    not compile (a fuzzer-found crash).  Invalid characters become
    ``_``, and a leading digit or a C/Python keyword is prefixed, so
    every name yields a compilable identifier while safe names pass
    through unchanged (keeping existing cache keys and artifacts
    stable).
    """
    import keyword

    cleaned = name
    if not cleaned.isidentifier():
        cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_"
                          for ch in cleaned)
    if not cleaned or cleaned[0].isdigit() \
            or keyword.iskeyword(cleaned) or cleaned in _C_KEYWORDS:
        cleaned = f"k_{cleaned}"
    return cleaned


class CIRBuilder:
    """Builds a :class:`~repro.cir.nodes.Function` for an LA program.

    The builder creates one parameter buffer per *storage group* of the
    program (operands related by ``ow(...)`` share storage, exactly like the
    generated C code shares one pointer for them) and provides fresh
    register/temporary names to the lowering code.  Scratch operands
    (:func:`~repro.ir.operands.Scratch`) get local temp buffers instead, so
    the parameters are exactly the LA program's interface.
    """

    def __init__(self, program: Program, name: Optional[str] = None,
                 vector_width: int = 1):
        self.program = program
        self.names = NameAllocator()
        self.function = Function(
            name=sanitize_identifier(name or f"{program.name}_kernel"),
            vector_width=vector_width)
        self._operand_buffers: Dict[str, Buffer] = {}
        self._build_parameter_buffers()

    # -- buffers -------------------------------------------------------------

    def _build_parameter_buffers(self) -> None:
        groups = self.program.storage_groups()
        # Decide the kind of each storage group: if any member is an output,
        # the buffer is writable; if any member is a pure input (or an output
        # that overwrites an input), the buffer must also be readable.
        group_members: Dict[str, List[Operand]] = {}
        for name, leader in groups.items():
            group_members.setdefault(leader, []).append(
                self.program.operands[name])
        for leader, members in group_members.items():
            leader_op = self.program.operands[leader]
            if leader_op.scratch:
                self.register_temp_operand(leader_op)
                continue
            has_input = any(m.is_input for m in members)
            has_output = any(m.is_output for m in members)
            if has_input and has_output:
                kind = "inout"
            elif has_output:
                kind = "out"
            else:
                kind = "in"
            buffer = Buffer(name=leader, rows=leader_op.rows,
                            cols=leader_op.cols, kind=kind)
            self.function.params.append(buffer)
            for member in members:
                self._operand_buffers[member.name] = buffer

    def buffer_for(self, operand: Operand) -> Buffer:
        """Return the buffer backing an operand (resolving ``ow`` aliasing)."""
        try:
            return self._operand_buffers[operand.name]
        except KeyError:
            raise CIRError(
                f"operand {operand.name!r} is not part of program "
                f"{self.program.name!r}")

    def register_temp_operand(self, operand: Operand) -> Buffer:
        """Create (or reuse) a temp buffer backing a scratch operand.

        Stage 1 and the rewrite tiers declare their temporaries in the
        program; Stage 2 introduces more when it binarizes long expressions
        (e.g. ``Y = F*P*F^T + Q``).  All of them are backed by local arrays
        in the generated function.
        """
        if operand.name in self._operand_buffers:
            return self._operand_buffers[operand.name]
        buffer = Buffer(name=operand.name, rows=operand.rows,
                        cols=operand.cols, kind="temp")
        self.function.temps.append(buffer)
        self._operand_buffers[operand.name] = buffer
        return buffer

    # -- addressing -----------------------------------------------------------

    def address(self, view: View, row: Union[Affine, int, str] = 0,
                col: Union[Affine, int, str] = 0) -> Tuple[Buffer, Affine]:
        """Linear address of element (row, col) *within* a view.

        Returns the backing buffer and the affine linear index, taking the
        view offsets and the buffer's row-major leading dimension into
        account.
        """
        buffer = self.buffer_for(view.operand)
        if type(row) is int and type(col) is int:
            # most addresses are constant: skip the affine algebra
            return buffer, Affine.constant(
                (row + view.row_off) * buffer.cols + col + view.col_off)
        index = buffer.index(Affine.of(row) + view.row_off,
                             Affine.of(col) + view.col_off)
        return buffer, index

    # -- fresh names ------------------------------------------------------------

    def scalar(self, prefix: str = "t") -> ScalarVar:
        return ScalarVar(self.names.fresh(prefix))

    def vector(self, width: int, prefix: str = "v") -> VecVar:
        return VecVar(self.names.fresh(prefix), width)

    def index_var(self, prefix: str = "i") -> str:
        return self.names.fresh(prefix)

    # -- finalization -------------------------------------------------------------

    def finish(self, body: List) -> Function:
        """Attach the body and return the completed function."""
        self.function.body = body
        return self.function
