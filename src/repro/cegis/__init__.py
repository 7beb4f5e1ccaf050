"""Verified aggressive optimization (CEGIS tier).

The paper's generator is deliberately conservative: the Stage-2 rule
R1 (:mod:`repro.slingen.rewrite`) is restricted to transformations
that are provably safe for *every* program.  This package recovers the
performance that conservatism leaves on the table with a
counterexample-guided inductive synthesis (CEGIS) loop:

1. :mod:`repro.cegis.rewrites` -- a catalog of candidate **unsound**
   transformations over basic (sBLAC-level) programs, each a pure
   ``Program -> Program | None`` transform with a stable id.
2. :mod:`repro.cegis.verifier` -- a reusable counterexample search (the
   differential oracle of :mod:`repro.fuzz.oracle` turned into a
   judge): run two pipelines on every resolvable backend plus the
   LA-level NumPy/SciPy reference and hunt for an input that splits
   them.
3. :mod:`repro.cegis.loop` -- the driver: propose each rewrite, verify
   the composition, accumulate refuting input draws (replayed first
   against every later candidate), accept or reject.
4. :mod:`repro.cegis.fixbank` -- a persistent, corruption-tolerant bank
   of accepted rewrite ids per *(program, machine)*, keyed exactly like
   the tuning database, honoring ``REPRO_FIXBANK``.

Acceptance is **instance-specific**: a banked rewrite was only ever
validated for one concrete (program, sizes, options, machine) tuple
within a finite input budget -- see ``docs/verified.md`` for the
soundness caveats.
"""

from .fixbank import FixBank, FixRecord, default_fixbank_dir, fixbank_key
from .loop import CegisOutcome, optimize_program
from .rewrites import apply_sequence, catalog, get_rewrite, known_ids
from .verifier import Counterexample, find_counterexample

__all__ = [
    "FixBank", "FixRecord", "default_fixbank_dir", "fixbank_key",
    "CegisOutcome", "optimize_program",
    "apply_sequence", "catalog", "get_rewrite", "known_ids",
    "Counterexample", "find_counterexample",
]
