"""Canonical, version-stamped cache keys for generated kernels.

A kernel is fully determined by three things:

1. the LA program (operand declarations + statements, including all fixed
   sizes),
2. the generator configuration (:class:`~repro.slingen.options.Options`),
3. the machine model (:class:`~repro.machine.microarch.MicroArchitecture`)
   that drives vectorization decisions and the autotuner's timing oracle.

This module serializes each of the three into a canonical form that is
stable across processes and Python versions (no ``repr`` of floats relying
on dict ordering, no ``id``-based content), combines them with a schema
version stamp, and hashes the result with SHA-256.  Two requests produce
the same key **iff** they would produce the same generated kernel; bumping
:data:`KEY_SCHEMA_VERSION` invalidates every existing cache entry, which is
the escape hatch whenever the generator's semantics change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Optional, Union

from ..ir.expr import Const, Expr, Ref, _Binary, _Unary
from ..ir.operands import Operand, View
from ..ir.program import Assign, Equation, ForLoop, Program, Statement
from ..machine.microarch import MicroArchitecture
from ..slingen.options import Options

#: Bump whenever generated code may change for an unchanged request
#: (generator semantics, pass pipeline, C unparser, ...).
#: v2: widened default codegen search space (block_size and
#: scalar-replacement axes) and the ``stage1_variants`` option.
#: v3: the ``verified_rewrites`` option (CEGIS tier) -- kernels generated
#: with a banked rewrite set must never collide with unverified ones.
#: v4: the staged pipeline -- every Stage-1 synthesis now uses a fresh
#: algorithm database (purity of cached phase artifacts), which renumbers
#: temporaries in non-default variants, and ``GenerationResult`` grew the
#: ``phase_stats`` field; old pickled store entries must not be recalled.
#: Not bumped for the header-free C prelude under GCC: C stored before it
#: still compiles to the same machine code, and compiled objects are keyed
#: by the C source as well.
#: v5: the instruction mix charges each distinct division/square root once
#: per straight-line block, which changes scores and the trtri:4/trtri:8
#: (and kf:8) selections; stored kernels chosen by the old count must not
#: be recalled.
#: v6: Stage-1, rewrite and CEGIS temporaries are local arrays, not
#: parameters: stored kernels with the old signature must not be recalled.
KEY_SCHEMA_VERSION = 6


# ---------------------------------------------------------------------------
# Canonical program serialization
# ---------------------------------------------------------------------------


def _canonical_view(view: View) -> str:
    return (f"{view.operand.name}"
            f"[{view.row_off},{view.col_off},{view.rows},{view.cols}]")


def _canonical_expr(expr: Expr) -> str:
    if isinstance(expr, Ref):
        return _canonical_view(expr.view)
    if isinstance(expr, Const):
        return f"const({expr.value!r},{expr.rows},{expr.cols})"
    name = type(expr).__name__.lower()
    if isinstance(expr, _Unary):
        return f"{name}({_canonical_expr(expr.child)})"
    if isinstance(expr, _Binary):
        return (f"{name}({_canonical_expr(expr.left)},"
                f"{_canonical_expr(expr.right)})")
    # Future node kinds: fall back to repr (deterministic for all IR nodes).
    return repr(expr)


def _canonical_statement(stmt: Statement) -> str:
    if isinstance(stmt, Assign):
        return (f"assign({_canonical_view(stmt.lhs)},"
                f"{_canonical_expr(stmt.rhs)})")
    if isinstance(stmt, Equation):
        return (f"equation({_canonical_expr(stmt.lhs)},"
                f"{_canonical_expr(stmt.rhs)})")
    if isinstance(stmt, ForLoop):
        body = ";".join(_canonical_statement(s) for s in stmt.body)
        return (f"for({stmt.var},{stmt.start},{stmt.stop},{stmt.step},"
                f"[{body}])")
    return repr(stmt)


def _canonical_operand(op: Operand) -> str:
    props = op.properties
    return (f"{op.name}:{op.rows}x{op.cols}:{op.io.name}"
            f":{props.structure.name}/{props.storage.name}"
            f":pd={int(props.positive_definite)}"
            f":ns={int(props.non_singular)}"
            f":ud={int(props.unit_diagonal)}"
            f":ow={op.overwrites or ''}:{op.datatype}"
            + (":scratch" if op.scratch else ""))


def canonical_program(program: Program) -> str:
    """A deterministic, whitespace-free text form of an LA program.

    Declaration and statement order are preserved (they are part of the
    program's identity); constants are emitted sorted by name.
    """
    parts = [f"program({program.name})"]
    for name in sorted(program.constants):
        parts.append(f"const {name}={program.constants[name]}")
    for op in program.operands.values():
        parts.append(f"decl {_canonical_operand(op)}")
    for stmt in program.statements:
        parts.append(_canonical_statement(stmt))
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Options / machine canonicalization
# ---------------------------------------------------------------------------


def canonical_options(options: Options) -> Dict[str, object]:
    """All *artifact-determining* option fields as a plain JSON-able dict.

    Gate axes (:data:`repro.pipeline.keys.GATE_AXES` -- currently
    ``analysis``) are dropped: they decide whether an artifact is
    *admitted*, never what is generated, so requests differing only in
    gate mode must share one kernel-store entry (and keys minted before
    the axes existed stay valid).
    """
    from ..pipeline.keys import GATE_AXES
    doc = dataclasses.asdict(options)
    for axis in GATE_AXES:
        doc.pop(axis, None)
    return doc


def machine_fingerprint(machine: MicroArchitecture) -> Dict[str, object]:
    """All machine-model parameters as a plain JSON-able dict."""
    return dataclasses.asdict(machine)


# ---------------------------------------------------------------------------
# Request fingerprint and key
# ---------------------------------------------------------------------------


def request_fingerprint(program: Union[Program, str],
                        options: Optional[Options] = None,
                        machine: Optional[MicroArchitecture] = None,
                        nominal_flops: Optional[float] = None,
                        constants: Optional[Dict[str, int]] = None,
                        ) -> Dict[str, object]:
    """The full, JSON-able identity of one generation request.

    ``program`` may be a parsed :class:`Program` or raw LA source text (in
    which case ``constants`` supplies the size bindings and the text is
    parsed so that textual and IR requests for the same program coincide --
    note the program *name* is part of the identity, since it names the
    emitted C function; text requests get ``parse_program``'s default name,
    which :meth:`GenerationRequest.from_source` also uses).
    """
    if isinstance(program, str):
        from ..la import parse_program
        program = parse_program(program, constants or {})
    options = options or Options()
    if machine is None:
        from ..machine.microarch import default_machine
        machine = default_machine()
    return {
        "schema": KEY_SCHEMA_VERSION,
        "program": canonical_program(program),
        "options": canonical_options(options),
        "machine": machine_fingerprint(machine),
        "nominal_flops": nominal_flops,
    }


def cache_key(program: Union[Program, str],
              options: Optional[Options] = None,
              machine: Optional[MicroArchitecture] = None,
              nominal_flops: Optional[float] = None,
              constants: Optional[Dict[str, int]] = None) -> str:
    """SHA-256 content key for one (program, options, machine) request."""
    doc = request_fingerprint(program, options, machine,
                              nominal_flops=nominal_flops,
                              constants=constants)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
