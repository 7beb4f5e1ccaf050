"""The differential oracle: one fuzz case through the whole pipeline.

``run_case`` parses the sampled LA program, generates code with the
sampled options, executes the generated kernel on every available
backend (C-IR interpreter, NumPy unrolled, NumPy vectorized, compiled C
when ``$CC`` resolves) via :func:`repro.backend.make_executor`, and
compares all outputs element-wise.  It also evaluates the *LA program
itself* with NumPy/SciPy (an independent semantic reference that catches
wrong-code bugs all backends would faithfully execute) and checks the
kernels against it.

Outcome classification:

* ``ok`` -- everything agreed.
* ``reject`` -- the frontend refused the program (syntax/semantic/
  dimension errors) or the HLAC surface does not cover it
  (:class:`~repro.errors.UnsupportedHLACError`) or the options were
  invalid.  Rejects are *documented refusals*, not failures.
* ``crash`` -- any other exception anywhere in the pipeline.  Once the
  frontend accepted a program, the pipeline must compile and run it.
* ``divergence`` -- backends disagreed beyond tolerance, or the kernels
  disagree with the LA-level reference.

Numeric comparison is relative-aware (``|a-b| <= tol * max(1, |a|,
|b|)``) with NaN == NaN, because C's ``sqrt`` of a negative value is NaN
on every backend by design.

The reference evaluator models the pipeline's documented storage
semantics: sBLAC statements read and write full buffers; HLAC expansions
read triangular coefficients from their stored triangle, mirror
symmetric operands from their stored half, and write triangular unknowns
only inside their triangle (so ``ow(...)`` leftovers outside it survive,
exactly like the generated code behaves).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..backend import make_executor, resolve_backends
from ..cl1ck.operations import recognize
from ..errors import (ConfigurationError, DimensionError, LASemanticError,
                      LASyntaxError, ReproError, UnsupportedHLACError)
from ..ir.operands import View
from ..ir.program import Assign, Program
from ..ir.properties import StorageHalf, Structure
from ..kernels import reference as ref
from ..slingen.generator import SLinGen
from .spec import FuzzCase

#: Differential tolerance between execution backends: they run the same
#: operation sequence, so they agree to accumulation noise.
DEFAULT_TOL = 1e-9

#: Tolerance against the LA-level NumPy/SciPy reference, which computes
#: with *different* algorithms (LAPACK solves vs. synthesized loops).
DEFAULT_REF_TOL = 1e-6

#: Frontend errors that mean "program refused", not "pipeline broken".
_REJECT_PARSE = (LASyntaxError, LASemanticError, DimensionError)
_REJECT_GENERATE = (UnsupportedHLACError, ConfigurationError)


class ReferenceSkip(Exception):
    """The LA-level reference is not computable for these values (e.g. a
    Cholesky right-hand side that is not numerically positive definite);
    the differential backend comparison still stands."""


@dataclass
class CaseResult:
    """Outcome of one differential run."""

    status: str                   # ok | reject | crash | divergence
    stage: str = ""               # parse | generate | analysis | execute | compare | reference
    error_type: str = ""
    error: str = ""
    backend: str = ""             # backend that crashed (execute stage)
    backends: List[str] = field(default_factory=list)
    worst_delta: float = 0.0
    worst_pair: str = ""
    divergent: List[str] = field(default_factory=list)
    reference_checked: bool = False
    reference_skip: str = ""

    @property
    def failed(self) -> bool:
        return self.status in ("crash", "divergence")

    def signature(self) -> Tuple[str, ...]:
        """What kind of failure this is -- the shrinker only accepts
        reductions that preserve it."""
        if self.status == "crash":
            return ("crash", self.error_type)
        if self.status == "divergence":
            kind = "reference" if "reference" in self.worst_pair \
                else "backend"
            return ("divergence", kind)
        return (self.status,)

    def describe(self) -> str:
        if self.status == "ok":
            extra = f" (reference skipped: {self.reference_skip})" \
                if self.reference_skip else ""
            return f"ok delta={self.worst_delta:.2e}{extra}"
        if self.status == "reject":
            return f"reject[{self.stage}] {self.error_type}: {self.error}"
        if self.status == "crash":
            where = f"{self.stage}:{self.backend}" if self.backend \
                else self.stage
            return f"crash[{where}] {self.error_type}: {self.error}"
        return (f"divergence {self.worst_pair} delta={self.worst_delta:.3e} "
                f"outputs={','.join(self.divergent)}")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def make_inputs(program: Program, seed: int) -> Dict[str, np.ndarray]:
    """Well-conditioned random inputs honouring declared properties.

    Structured operands get values consistent with their annotation
    (symmetric matrices symmetric, triangular matrices with exact zeros
    outside the triangle, SPD matrices genuinely positive definite,
    non-singular triangles with a dominant diagonal, unit diagonals
    exactly 1) so solves stay well-conditioned and structure-exploiting
    algorithms see the values they were promised.
    """
    rng = np.random.default_rng(seed)
    inputs: Dict[str, np.ndarray] = {}
    for operand in program.operands.values():
        if not operand.is_input:
            continue
        rows, cols = operand.rows, operand.cols
        props = operand.properties
        if rows == 1 and cols == 1:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            inputs[operand.name] = np.array([[sign * rng.uniform(0.5, 1.5)]])
            continue
        if cols == 1 or rows == 1:
            inputs[operand.name] = rng.standard_normal((rows, cols))
            continue
        scale = 1.0 / np.sqrt(max(rows, cols))
        if rows == cols and props.positive_definite:
            value = ref.random_spd(rows, rng)
        elif rows == cols and props.structure is Structure.SYMMETRIC:
            raw = rng.standard_normal((rows, rows)) * scale
            value = (raw + raw.T) / 2.0
        elif rows == cols and props.structure is Structure.LOWER_TRIANGULAR:
            value = np.tril(rng.standard_normal((rows, rows)) * scale)
            if props.non_singular:
                np.fill_diagonal(value, 1.0 + np.abs(rng.standard_normal(rows)))
            if props.unit_diagonal:
                np.fill_diagonal(value, 1.0)
        elif rows == cols and props.structure is Structure.UPPER_TRIANGULAR:
            value = np.triu(rng.standard_normal((rows, rows)) * scale)
            if props.non_singular:
                np.fill_diagonal(value, 1.0 + np.abs(rng.standard_normal(rows)))
            if props.unit_diagonal:
                np.fill_diagonal(value, 1.0)
        else:
            value = rng.standard_normal((rows, cols)) * scale
        inputs[operand.name] = value
    return inputs


# ---------------------------------------------------------------------------
# LA-level reference evaluation
# ---------------------------------------------------------------------------


def _tri_read(value: np.ndarray, structure: Structure) -> np.ndarray:
    if structure is Structure.LOWER_TRIANGULAR:
        return np.tril(value)
    if structure is Structure.UPPER_TRIANGULAR:
        return np.triu(value)
    return value


def _struct_read(view: View, value: np.ndarray) -> np.ndarray:
    """Read an HLAC operand the way the synthesized algorithm does."""
    props = view.operand.properties
    if props.structure in (Structure.LOWER_TRIANGULAR,
                           Structure.UPPER_TRIANGULAR):
        return _tri_read(value, props.structure)
    if props.structure is Structure.SYMMETRIC:
        if props.storage is StorageHalf.LOWER:
            low = np.tril(value)
            return low + np.tril(value, -1).T
        up = np.triu(value)
        return up + np.triu(value, 1).T
    return value


def _region_write(region: str, old: np.ndarray,
                  solution: np.ndarray) -> np.ndarray:
    """Write an HLAC unknown the way the synthesized algorithm does.

    ``region`` is determined by the *operation* (a Cholesky factor is
    written triangle-only whatever the operand declaration says), so
    anything else in the buffer -- zeros or ``ow`` leftovers -- survives
    exactly like in the generated code."""
    if region == "lower":
        out = old.copy()
        mask = np.tril(np.ones_like(old, dtype=bool))
        out[mask] = solution[mask]
        return out
    if region == "upper":
        out = old.copy()
        mask = np.triu(np.ones_like(old, dtype=bool))
        out[mask] = solution[mask]
        return out
    return solution.copy()


class _ReferenceEvaluator:
    """Evaluates an LA program on NumPy arrays, modelling the pipeline's
    storage-group (``ow``) aliasing."""

    def __init__(self, program: Program, inputs: Dict[str, np.ndarray]):
        self.program = program
        self.leaders = program.storage_groups()
        self.env: Dict[str, np.ndarray] = {}
        for leader in sorted(set(self.leaders.values())):
            operand = program.operands[leader]
            if operand.is_input:
                value = np.asarray(inputs[leader], dtype=np.float64)
                self.env[leader] = value.reshape(operand.rows,
                                                 operand.cols).copy()
            else:
                self.env[leader] = np.zeros((operand.rows, operand.cols))

    def _value(self, name: str) -> np.ndarray:
        return self.env[self.leaders[name]]

    def run(self) -> Dict[str, np.ndarray]:
        import scipy.linalg
        self._scipy = scipy.linalg
        # non-finite values propagate like in the kernels, silently
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for statement in self.program.unrolled_statements():
                if statement.is_hlac():
                    self._eval_hlac(statement)
                elif isinstance(statement, Assign):
                    value = self._eval_expr(statement.rhs)
                    leader = self.leaders[statement.lhs.operand.name]
                    self.env[leader] = np.asarray(
                        value, dtype=np.float64).reshape(
                            statement.lhs.rows, statement.lhs.cols).copy()
                else:
                    raise ReferenceSkip(
                        f"reference cannot evaluate "
                        f"{type(statement).__name__}")
        outputs: Dict[str, np.ndarray] = {}
        groups: Dict[str, List[str]] = {}
        for name, leader in self.leaders.items():
            groups.setdefault(leader, []).append(name)
        for leader, members in groups.items():
            if any(self.program.operands[m].is_output for m in members):
                outputs[leader] = self.env[leader]
        return outputs

    # -- expressions --------------------------------------------------------

    def _eval_expr(self, expr) -> np.ndarray:
        from ..ir.expr import (Add, Const, Div, Mul, Neg, Ref, Sqrt, Sub,
                               Transpose)
        if isinstance(expr, Const):
            return np.array([[float(expr.value)]])
        if isinstance(expr, Ref):
            return self._value(expr.view.operand.name)
        if isinstance(expr, Transpose):
            return self._eval_expr(expr.child).T
        if isinstance(expr, Neg):
            return -self._eval_expr(expr.child)
        if isinstance(expr, Sqrt):
            with np.errstate(invalid="ignore"):
                return np.sqrt(self._eval_expr(expr.child))
        if isinstance(expr, Add):
            return self._eval_expr(expr.left) + self._eval_expr(expr.right)
        if isinstance(expr, Sub):
            return self._eval_expr(expr.left) - self._eval_expr(expr.right)
        if isinstance(expr, Mul):
            left = self._eval_expr(expr.left)
            right = self._eval_expr(expr.right)
            if left.shape == (1, 1):
                return float(left[0, 0]) * right
            if right.shape == (1, 1):
                return left * float(right[0, 0])
            return left @ right
        if isinstance(expr, Div):
            left = self._eval_expr(expr.left)
            right = self._eval_expr(expr.right)
            with np.errstate(divide="ignore", invalid="ignore"):
                return left / float(right[0, 0])
        raise ReferenceSkip(
            f"reference cannot evaluate expression {type(expr).__name__}")

    # -- HLACs --------------------------------------------------------------

    def _read(self, view: View) -> np.ndarray:
        return _struct_read(view, self._value(view.operand.name))

    def _write(self, view: View, solution: np.ndarray,
               region: str = "full") -> None:
        leader = self.leaders[view.operand.name]
        self.env[leader] = _region_write(region, self.env[leader], solution)

    def _eval_hlac(self, statement) -> None:
        scipy_linalg = self._scipy
        operation = recognize(statement)
        views = operation.views
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if operation.kind == "cholesky_upper":
                    # like LAPACK dpotrf('U'), the expansion reads only
                    # the triangle it factors (observable under ow
                    # aliasing), not the operand's declared storage half
                    rhs = self._value(views["rhs"].operand.name)
                    mirrored = np.triu(rhs) + np.triu(rhs, 1).T
                    solution = scipy_linalg.cholesky(mirrored, lower=False)
                    self._write(views["factor"], solution, region="upper")
                elif operation.kind == "cholesky_lower":
                    rhs = self._value(views["rhs"].operand.name)
                    mirrored = np.tril(rhs) + np.tril(rhs, -1).T
                    solution = scipy_linalg.cholesky(mirrored, lower=True)
                    self._write(views["factor"], solution, region="lower")
                elif operation.kind == "trsm":
                    coeff_view = views["coefficient"]
                    lower = (coeff_view.operand.properties.structure
                             is Structure.LOWER_TRIANGULAR)
                    trans = "T" if operation.flags.get("transposed") else "N"
                    solution = scipy_linalg.solve_triangular(
                        self._read(coeff_view),
                        self._value(views["rhs"].operand.name),
                        lower=lower, trans=trans)
                    self._write(views["unknown"], solution)
                elif operation.kind == "trtri":
                    coeff_view = views["coefficient"]
                    lower = (coeff_view.operand.properties.structure
                             is Structure.LOWER_TRIANGULAR)
                    trans = "T" if operation.flags.get("transposed") else "N"
                    eye = np.eye(coeff_view.rows)
                    solution = scipy_linalg.solve_triangular(
                        self._read(coeff_view), eye, lower=lower, trans=trans)
                    # the result triangle is op(T)'s triangle
                    self._write(views["unknown"], solution,
                                region=str(operation.flags.get("uplo",
                                                               "full")))
                elif operation.kind == "trsyl":
                    solution = scipy_linalg.solve_sylvester(
                        self._read(views["coefficient_left"]),
                        self._read(views["coefficient_right"]),
                        self._value(views["rhs"].operand.name))
                    self._write(views["unknown"], solution)
                elif operation.kind == "trlya":
                    coeff = self._read(views["coefficient"])
                    # the expansion computes X[i, j] for i >= j from
                    # S[i, j] and mirrors, i.e. it reads the *lower*
                    # half of the right-hand side buffer (observable
                    # when ow aliasing desynchronized the halves)
                    rhs = self._value(views["rhs"].operand.name)
                    mirrored = np.tril(rhs) + np.tril(rhs, -1).T
                    solution = scipy_linalg.solve_sylvester(
                        coeff, coeff.T, mirrored)
                    self._write(views["unknown"], solution)
                else:
                    raise ReferenceSkip(
                        f"reference has no rule for HLAC {operation.kind!r}")
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise ReferenceSkip(
                f"{operation.kind}: {type(exc).__name__}: {exc}")


def reference_outputs(program: Program,
                      inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """LA-level reference results per writable storage-group leader.

    Raises :class:`ReferenceSkip` when not computable for these values.
    """
    return _ReferenceEvaluator(program, inputs).run()


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _mismatch_mask(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Elementwise disagreement beyond a relative-aware tolerance.

    NaN agrees with NaN (C sqrt semantics), equal infinities agree, and
    the tolerance scales with magnitude so amplified-but-identical
    computations do not alarm.  Only finite pairs can be close: an
    infinity would scale the tolerance to infinity and agree with
    anything."""
    with np.errstate(invalid="ignore"):
        diff = np.abs(a - b)
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        close = np.isfinite(a) & np.isfinite(b) & (diff <= tol * scale)
    equal = (a == b) | (np.isnan(a) & np.isnan(b))
    return ~(equal | close)


#: Public name of the elementwise comparison, for reuse outside the
#: fuzzer (the CEGIS verifier judges candidates with the same predicate
#: the oracle judges backends with).
mismatch_mask = _mismatch_mask


def divergent_buffers(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray],
                      tol: float) -> List[str]:
    """Names of buffers present in both dicts that disagree beyond
    ``tol`` (in ``a``'s iteration order, so callers report the first
    divergence deterministically)."""
    return [buf for buf in a
            if buf in b and _mismatch_mask(a[buf], b[buf], tol).any()]


def max_deviation(a: Dict[str, np.ndarray],
                  b: Dict[str, np.ndarray]) -> float:
    """Largest |delta| between two output dicts (inf on NaN mismatch)."""
    worst = 0.0
    for name in a:
        mask = _mismatch_mask(a[name], b[name], tol=np.inf)
        if mask.any():
            return float("inf")
        with np.errstate(invalid="ignore"):
            diff = np.abs(a[name] - b[name])
        finite = diff[np.isfinite(diff)]
        if finite.size:
            worst = max(worst, float(finite.max()))
    return worst


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def run_case(case: FuzzCase, backends: str = "auto",
             tol: float = DEFAULT_TOL, reference: bool = True,
             ref_tol: float = DEFAULT_REF_TOL,
             phase_cache: "object | None" = None) -> CaseResult:
    """Run one fuzz case differentially and classify the outcome.

    ``phase_cache`` (a :class:`~repro.pipeline.cache.PhaseCache`;
    ``None`` = the shared process-wide one) memoizes pipeline artifacts
    across cases, so campaigns that revisit the same program under
    different codegen options skip Stage 1 after the first build.
    """
    names = resolve_backends(backends)

    try:
        program = case.program.parse()
    except _REJECT_PARSE as exc:
        return CaseResult(status="reject", stage="parse",
                          error_type=type(exc).__name__, error=str(exc))
    except Exception as exc:   # noqa: BLE001 - classifying, not handling
        return CaseResult(status="crash", stage="parse",
                          error_type=type(exc).__name__, error=str(exc))

    try:
        result = SLinGen(case.options,
                         phase_cache=phase_cache).generate_result(program)
    except _REJECT_GENERATE as exc:
        return CaseResult(status="reject", stage="generate",
                          error_type=type(exc).__name__, error=str(exc))
    except Exception as exc:   # noqa: BLE001
        return CaseResult(status="crash", stage="generate",
                          error_type=type(exc).__name__, error=str(exc))

    # Static verification before any backend spends execution work: an
    # artifact the verifier rejects is a pipeline bug even if every
    # backend happens to agree on it (e.g. all reading the same
    # out-of-bounds garbage or the same structural zero).
    from ..analysis import verify_function, verify_program
    report = verify_function(result.function)
    if result.basic_program is not None:
        report = report.merged_with(verify_program(result.basic_program))
    if not report.ok:
        return CaseResult(
            status="crash", stage="analysis", backends=names,
            error_type="AnalysisError",
            error="; ".join(d.describe() for d in report.errors[:8]))

    inputs = make_inputs(program, case.input_seed)

    outputs: Dict[str, Dict[str, np.ndarray]] = {}
    for name in names:
        try:
            kernel = make_executor(result.function, backend=name,
                                   c_code=result.c_code)
            outputs[name] = kernel.run(inputs)
        except Exception as exc:   # noqa: BLE001
            return CaseResult(status="crash", stage="execute", backend=name,
                              backends=names,
                              error_type=type(exc).__name__, error=str(exc))

    outcome = CaseResult(status="ok", backends=names)
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            divergent = divergent_buffers(outputs[first], outputs[second],
                                          tol)
            delta = max_deviation(outputs[first], outputs[second])
            if delta > outcome.worst_delta and not divergent:
                outcome.worst_delta = delta
                outcome.worst_pair = f"{first} vs {second}"
            if divergent:
                return CaseResult(
                    status="divergence", stage="compare", backends=names,
                    worst_delta=delta, worst_pair=f"{first} vs {second}",
                    divergent=divergent)

    if reference:
        base = names[0]
        try:
            expected = reference_outputs(program, inputs)
            outcome.reference_checked = True
            divergent = divergent_buffers(expected, outputs[base], ref_tol)
            if divergent:
                delta = max_deviation(
                    {b: outputs[base][b] for b in expected}, expected)
                return CaseResult(
                    status="divergence", stage="reference", backends=names,
                    worst_delta=delta,
                    worst_pair=f"{base} vs reference",
                    divergent=divergent)
        except ReferenceSkip as exc:
            outcome.reference_skip = str(exc)
        except ReproError as exc:
            # the pipeline accepted what our evaluator cannot model --
            # that is an oracle gap worth surfacing, not an agreement
            return CaseResult(status="crash", stage="reference",
                              backends=names,
                              error_type=type(exc).__name__, error=str(exc))
    return outcome
