"""Phase keys: which input feeds which generation phase.

The staged pipeline memoizes one artifact per phase -- Stage-1 synthesis,
LA-level rewriting, lowering to C-IR, the Stage-3 pass pipeline, and the
roofline score -- each under a content hash of the *resolved inputs that
phase actually consumes*: a digest of the artifact it reads plus the
option axes assigned to it.  Keys do not chain through the option
history: lowering is keyed by a digest of the rewritten program it
lowers and optimization by the key of the lowering it optimizes (a
lowering is a pure function of its key), so two algorithmic variants
that synthesize the same basic program share one lowering, one pass
pipeline and one score.  The partition below is the correctness
contract of the whole cache: an option axis leaking *out* of its phase
key would let two requests that generate different code collide on one
cached artifact -- a wrong-code bug.  ``tests/test_pipeline.py`` asserts the partition covers every
:class:`~repro.slingen.options.Options` field exactly once.

Resolution notes (why the raw field lives where it does):

* ``block_size`` keys Stage 1 as the *resolved* integer
  (``codegen.block_size or options.effective_block_size``), so codegen
  variants that differ only in codegen axes share one Stage-1 build
  while explicit block-size variants correctly rebuild.
* ``vectorize`` / ``vector_width`` are consumed by lowering (as the
  resolved width the codegen variant carries).  They also feed the
  *default* of ``effective_block_size`` -- that influence is captured
  because the Stage-1 key stores the resolved block-size integer, not
  the raw fields.
* ``use_shuffle_transpose`` keys lowering, but a lowering that never
  reached the one decision the flag steers is filed under both of its
  values, so the ``-noshuf`` variant shares the default's lowering
  unless the program holds an unscaled transposed copy of at least 4x4.
* ``scalar_replacement`` / ``load_store_analysis`` key the optimize
  phase as the effective conjunction ``options.<axis> and
  codegen.<axis>``, exactly what :class:`~repro.cir.passes.PassOptions`
  receives.
* ``unroll`` / ``unroll_trip_count`` / ``unroll_body_limit`` key the
  optimize phase as the resolved *plan*
  (:func:`~repro.cir.passes.unroll.unroll_plan`): one unroll/keep
  decision per loop of the lowered function, or ``None`` with
  ``unroll`` off.  Threshold pairs that unroll a function alike build
  the same optimized function, so they share one pass pipeline and, as
  the score key chains from the optimize key, one score.
* The search-control axes (``autotune``, ``max_variants``,
  ``stage1_variants``) decide *which* phase calls happen, never what any
  one phase computes: ``stage1_variants`` resolves into the
  ``variant_choices`` dict that already keys Stage 1.

The score phase consumes no Options field: its key is the optimize key
plus :data:`SCORE_INPUTS`, the machine model and ``nominal_flops``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cir.nodes import Affine, Buffer, CExpr, CStmt, Function
from ..errors import CIRError, ConfigurationError
from ..ir.program import Program
from ..machine.microarch import MicroArchitecture
from ..slingen.options import Options

#: Bump whenever a phase's semantics change such that an old artifact is
#: no longer what the phase would compute today (pass pipeline changes,
#: rewrite tiers, canonicalization, artifact shape).
#: v2: lower and optimize keyed by digests of the artifacts they consume,
#: the ``score`` phase, and no parent-key fields on the artifacts.
#: v3: ``score`` charges each distinct division/square root once per
#: straight-line block; cached scores from the old count are stale.
#: v4: scratch operands lower to temp buffers instead of parameters;
#: cached lowered and optimized functions have the old signature (and
#: lowered artifacts lost their unread ``stats`` field).
#: v5: optimize keyed by the unroll plan instead of the raw thresholds.
#: v6: lower keyed by the program without its name, and a lowering that
#: never read ``use_shuffle_transpose`` filed under both of its values.
#: v7: optimize keyed by the lowering's key instead of a digest of the
#: lowered function, which lowered artifacts no longer carry.
PHASE_SCHEMA_VERSION = 7

#: The phases, in dataflow order.
PHASES: Tuple[str, ...] = ("stage1", "rewrite", "lower", "optimize",
                           "score")

#: Which Options field is consumed by which phase key.  See module docs
#: for how raw fields map to the resolved values the keys actually hash.
PHASE_AXES: Dict[str, Tuple[str, ...]] = {
    "stage1": ("block_size",),
    "rewrite": ("rewrite_rules", "verified_rewrites"),
    "lower": ("vectorize", "vector_width", "use_shuffle_transpose",
              "function_name", "annotate_code"),
    "optimize": ("unroll", "unroll_trip_count", "unroll_body_limit",
                 "scalar_replacement", "load_store_analysis"),
    "score": (),
}

#: What the score key takes besides the optimize key: neither is an
#: Options field, so the partition leaves ``score`` without axes.
SCORE_INPUTS: Tuple[str, ...] = ("machine model", "nominal_flops")

#: Options fields that steer the variant *search*, not any single phase.
SEARCH_AXES: Tuple[str, ...] = ("autotune", "max_variants",
                                "stage1_variants")

#: Options fields that gate artifacts without changing them.  The static
#: verifier (:mod:`repro.analysis`) observes each phase's output and
#: either records diagnostics or refuses to cache it -- identical
#: artifacts are produced under every mode, so these axes feed no phase
#: key (and :func:`repro.service.keys.canonical_options` drops them from
#: the kernel-store key for the same reason).
GATE_AXES: Tuple[str, ...] = ("analysis",)


def partition() -> Dict[str, Tuple[str, ...]]:
    """The full axis partition: phases plus the search-control and
    artifact-gate buckets."""
    table = dict(PHASE_AXES)
    table["search"] = SEARCH_AXES
    table["gate"] = GATE_AXES
    return table


def assert_partition_complete() -> None:
    """Verify the partition against the live ``Options`` dataclass.

    Every field must be assigned to exactly one phase (or be
    search-control); raises :class:`ConfigurationError` on any field
    that is missing, duplicated, or unknown.  A new Options axis makes
    this fail until it is deliberately placed -- which is the point.
    """
    declared = [name for axes in partition().values() for name in axes]
    seen: Dict[str, int] = {}
    for name in declared:
        seen[name] = seen.get(name, 0) + 1
    duplicated = sorted(name for name, count in seen.items() if count > 1)
    option_fields = {f.name for f in dataclasses.fields(Options)}
    missing = sorted(option_fields - set(declared))
    unknown = sorted(set(declared) - option_fields)
    problems = []
    if missing:
        problems.append(f"unassigned Options fields: {', '.join(missing)}")
    if duplicated:
        problems.append(f"fields in more than one phase: "
                        f"{', '.join(duplicated)}")
    if unknown:
        problems.append(f"axes naming no Options field: "
                        f"{', '.join(unknown)}")
    if problems:
        raise ConfigurationError(
            "phase-key partition is not an exact partition of Options: "
            + "; ".join(problems))


def _digest(doc: Dict[str, object]) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def program_digest(program: Program) -> str:
    """SHA-256 of the canonical text of an LA program without its name
    (what lowering consumes of a
    :class:`~repro.pipeline.artifacts.RewrittenProgram`).

    Lowering names the function from the lower key's ``function_name``
    and never reads ``Program.name``, so Stage-1 programs that differ
    only in their name share one lowering.
    """
    from ..service.keys import canonical_contents
    return hashlib.sha256(
        canonical_contents(program).encode("utf-8")).hexdigest()


#: Field values encoded by ``repr``, which round-trips them.
_ATOMS = frozenset((str, int, float, bool, type(None)))

#: C-IR node class -> its dataclass field names, in order.
_NODE_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _encode_cir(value: object, out: List[str]) -> None:
    # A node is its type name and its fields in order; buffers are named
    # (the function header carries their shapes).  The common field
    # types are encoded inline: this runs on every lowering.
    cls = type(value)
    if cls is list or cls is tuple:
        out.append("[")
        for item in value:
            _encode_cir(item, out)
            out.append(",")
        out.append("]")
        return
    if cls in _ATOMS or isinstance(value, float):   # numpy floats too
        out.append(repr(value))
        return
    names = _NODE_FIELDS.get(cls)
    if names is None:
        if not isinstance(value, (CExpr, CStmt)):
            raise CIRError(f"cannot digest a {cls.__name__} in C-IR")
        names = _NODE_FIELDS[cls] = tuple(
            f.name for f in dataclasses.fields(cls))
    out.append(cls.__name__ + "(")
    for name in names:
        field = getattr(value, name)
        kind = type(field)
        if kind in _ATOMS:
            out.append(repr(field))
        elif kind is Buffer:
            out.append("@" + field.name)
        elif kind is Affine:
            out.append(repr(field.terms) + repr(field.const))
        else:
            _encode_cir(field, out)
        out.append(",")
    out.append(")")


def function_digest(function: Function) -> str:
    """SHA-256 of everything the Stage-3 passes read of a C-IR function:
    its name, vector width, each parameter and temporary as (name, rows,
    cols, kind), and its body.  No phase key holds it; tests and the
    hot-path benchmark tell functions apart with it."""
    out = [json.dumps([
        function.name, function.vector_width,
        [[b.name, b.rows, b.cols, b.kind] for b in function.params],
        [[b.name, b.rows, b.cols, b.kind] for b in function.temps]])]
    _encode_cir(function.body, out)
    return hashlib.sha256("".join(out).encode("utf-8")).hexdigest()


def machine_digest(machine: MicroArchitecture) -> str:
    """SHA-256 of the machine model's fingerprint (what scoring consumes
    of the machine)."""
    from ..service.keys import machine_fingerprint
    return _digest(machine_fingerprint(machine))


def stage1_key(program: Program, block_size: int,
               variant_choices: Mapping[int, str],
               program_text: Optional[str] = None) -> str:
    """Key of one Stage-1 synthesis: (program, resolved block size,
    algorithmic variant choices).  ``program_text`` is
    ``canonical_program(program)`` when the caller already has it."""
    if program_text is None:
        from ..service.keys import canonical_program
        program_text = canonical_program(program)
    return _digest({
        "schema": PHASE_SCHEMA_VERSION,
        "phase": "stage1",
        "program": program_text,
        "block_size": int(block_size),
        "variant_choices": sorted(
            (int(index), str(variant))
            for index, variant in variant_choices.items()),
    })


def rewrite_key(stage1: str, rewrite_rules: bool,
                verified_rewrites: Sequence[str]) -> str:
    """Key of the LA-level rewrite phase (sound R0/R1 + CEGIS-verified)."""
    return _digest({
        "schema": PHASE_SCHEMA_VERSION,
        "phase": "rewrite",
        "stage1": stage1,
        "rewrite_rules": bool(rewrite_rules),
        "verified_rewrites": [str(r) for r in verified_rewrites],
    })


def lower_key(program: str, vector_width: int, use_shuffle_transpose: bool,
              function_name: str, annotate: bool) -> str:
    """Key of lowering to C-IR: the :func:`program_digest` of the
    rewritten program plus the resolved vector width and emission axes.

    ``use_shuffle_transpose`` steers one decision, the lowering of an
    unscaled transposed copy of at least 4x4 at width 4.  A lowering
    that reaches no such copy is filed under both values of the flag
    (:func:`repro.pipeline.phases.lower`).
    """
    return _digest({
        "schema": PHASE_SCHEMA_VERSION,
        "phase": "lower",
        "program": program,
        "vector_width": int(vector_width),
        "use_shuffle_transpose": bool(use_shuffle_transpose),
        "function_name": str(function_name),
        "annotate": bool(annotate),
    })


def optimize_key(lower: str, unroll_plan: Optional[Sequence[bool]],
                 scalar_replacement: bool, load_store_analysis: bool) -> str:
    """Key of the Stage-3 pass pipeline: the key of the lowering it
    optimizes (``LoweredFunction.key``; the lowered function is a pure
    function of it), the function's unroll plan (``None`` with unrolling
    off) and the effective pass toggles.

    Keying by the lowering rather than by a digest of its function saves
    digesting every lowering; two lowerings with different keys that
    happen to build one function optimize it twice."""
    return _digest({
        "schema": PHASE_SCHEMA_VERSION,
        "phase": "optimize",
        "lower": lower,
        "unroll_plan": (None if unroll_plan is None
                        else [bool(d) for d in unroll_plan]),
        "scalar_replacement": bool(scalar_replacement),
        "load_store_analysis": bool(load_store_analysis),
    })


def score_key(optimize: str, machine: str,
              nominal_flops: Optional[float]) -> str:
    """Key of the roofline score: the optimize key (the optimized
    function is a pure function of it), the :func:`machine_digest`, and
    the nominal flop count."""
    return _digest({
        "schema": PHASE_SCHEMA_VERSION,
        "phase": "score",
        "optimize": optimize,
        "machine": machine,
        "nominal_flops": nominal_flops,
    })
