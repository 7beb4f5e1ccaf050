"""Differential fuzzing of the whole generation pipeline.

The paper's premise is that a program generator must be trusted across
an *open-ended* space of LA programs, operand properties, and codegen
variants -- not just the nine registry workloads.  This package opens
that space:

* :mod:`.generate` -- seeded random sampling of LA programs (the full
  grammar: operand kinds/properties, multi-statement bodies, all six
  HLAC templates, loops) and of generator options (the joint Stage-1 x
  codegen space, including pinned ``stage1_variants``).
* :mod:`.oracle` -- the differential oracle: run each (program, options)
  through the pipeline, execute on every backend (interpreter / NumPy /
  compiled C), check agreement, and check against an independent
  LA-level NumPy/SciPy reference.
* :mod:`.shrink` -- greedy failure minimization preserving the failure
  signature.
* :mod:`.corpus` -- the committed corpus of minimized repros
  (``tests/fuzz_corpus/``), replayed by CI and the tier-1 suite.

CLI: ``python -m repro.fuzz run | replay | corpus`` (see
:mod:`.__main__`).
"""

from .corpus import (CorpusEntry, DEFAULT_CORPUS_DIR, entry_id,
                     entry_passes, load_corpus, load_entry, replay_entry,
                     save_entry)
from .generate import sample_case, sample_options, sample_program
from .oracle import (CaseResult, DEFAULT_REF_TOL, DEFAULT_TOL, make_inputs,
                     reference_outputs, resolve_backends, run_case)
from .shrink import ShrinkOutcome, shrink_case
from .spec import (FuzzCase, FuzzDecl, FuzzProgram, options_from_json,
                   options_to_json)

__all__ = [
    "FuzzCase", "FuzzDecl", "FuzzProgram",
    "options_from_json", "options_to_json",
    "sample_case", "sample_options", "sample_program",
    "CaseResult", "DEFAULT_TOL", "DEFAULT_REF_TOL",
    "make_inputs", "reference_outputs", "resolve_backends", "run_case",
    "ShrinkOutcome", "shrink_case",
    "CorpusEntry", "DEFAULT_CORPUS_DIR", "entry_id", "entry_passes",
    "load_corpus", "load_entry", "replay_entry", "save_entry",
]
