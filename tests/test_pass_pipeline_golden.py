"""Golden hashes of what the Stage-3 pass pipeline makes of every
registry lowering.

For each registry spec at n=4 and n=8, lowered at vector width 4 and 1
(the functions the ``registry_lowered`` fixture of ``test_pipeline.py``
builds), ``run_pipeline`` runs under every setting in :data:`SETTINGS`:
the unroll thresholds (8, 64), (4, 32) and (16, 128) and unrolling off,
each with scalar replacement and load/store analysis both on and both
off.  ``tests/golden/pass_pipeline.json`` holds the SHA-256 of the C the
optimized function unparses to and the pipeline's
:class:`~repro.cir.passes.LoadStoreStats`.  The C golden pins only the
13 winners' C; this pins every pass on 40 functions and 8 settings.  A
change meant to leave the passes' output alone -- a performance or
simplicity refactor -- must keep this test green without touching the
fixture.

Regenerate the fixture (only for a deliberate change to a pass)::

    PYTHONPATH=src python tests/test_pass_pipeline_golden.py --update
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
from typing import Dict, List

import pytest

from repro.backend.c_unparser import unparse_function
from repro.cir.nodes import Function
from repro.cir.passes import PassOptions, run_pipeline
from repro.pipeline import phases
from repro.service.registry import build_case, parse_spec, workload_names
from repro.slingen.options import Options

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                       "pass_pipeline.json")

#: Setting label -> (unroll thresholds or None for off, sr and lsa on).
SETTINGS = {
    f"{unroll_label}/{'sr+lsa' if passes else 'plain'}": (unroll, passes)
    for unroll_label, unroll in (("u8x64", (8, 64)), ("u4x32", (4, 32)),
                                 ("u16x128", (16, 128)), ("nounroll", None))
    for passes in (True, False)}

FUNCTIONS = [f"{name}:{size}/w{width}" for name in workload_names()
             for size in (4, 8) for width in (4, 1)]


@functools.lru_cache(maxsize=None)
def _rewritten(spec: str):
    program = build_case(parse_spec(spec)).program
    return phases.rewrite(
        phases.stage1(program, Options().effective_block_size, {}), True, ())


def lowered(function: str) -> Function:
    spec, width = function.split("/w")
    return phases.lower(_rewritten(spec), int(width), True, "kernel",
                        False).function


def fingerprint(function: str) -> Dict[str, List[object]]:
    """Every setting's (C SHA-256, load/store stats) for one lowering."""
    source = lowered(function)
    out: Dict[str, List[object]] = {}
    for label, (unroll, passes) in SETTINGS.items():
        options = PassOptions(unroll=unroll is not None,
                              scalar_replacement=passes,
                              load_store_analysis=passes)
        if unroll is not None:
            options.max_unroll_trip_count, options.max_unroll_body = unroll
        shell = Function(source.name, list(source.params),
                         list(source.temps), source.body,
                         source.vector_width)
        report = run_pipeline(shell, options)
        out[label] = [
            hashlib.sha256(unparse_function(shell).encode()).hexdigest(),
            dataclasses.astuple(report.load_store)]
    return out


def load_fixture() -> Dict[str, Dict[str, List[object]]]:
    with open(FIXTURE) as handle:
        return json.load(handle)


def test_fixture_covers_every_registry_lowering():
    assert list(load_fixture()) == FUNCTIONS


@pytest.mark.parametrize("function", FUNCTIONS)
def test_pass_pipeline_matches_golden(function):
    got = json.loads(json.dumps(fingerprint(function)))
    assert got == load_fixture()[function]


def main(argv) -> int:
    if argv != ["--update"]:
        print(__doc__)
        return 2
    golden = {function: fingerprint(function) for function in FUNCTIONS}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as handle:
        # One line per (function, setting).
        handle.write("{\n" + ",\n".join(
            f" {json.dumps(function)}: {{\n" + ",\n".join(
                f"  {json.dumps(label)}: {json.dumps(entry)}"
                for label, entry in settings.items()) + "\n }"
            for function, settings in golden.items()) + "\n}\n")
    print(f"wrote {len(golden)} entries to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
