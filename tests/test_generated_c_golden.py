"""Golden hashes of the C generated for the paper-suite kernels.

Each of the 13 paper-suite specs is generated cold (a private, empty
phase cache) and compared with ``tests/golden/generated_c.json``: the
SHA-256 of the emitted C, the kernel-service content key, and every
candidate's ``(label, score)`` in search order.  Generation reads nothing
from the host (fixed machine model, no compiler probe), so the fixture
holds on any runner.  A change that is meant to leave generation alone
-- a performance or simplicity refactor -- must keep this test green
without touching the fixture.  A change to the machine model's
parameters (a field added to or removed from ``MicroArchitecture``)
moves every ``service_key`` and nothing else: the fixture update then
changes only the keys, and every ``c_sha256`` and candidate list must
stay as it was.

Regenerate the fixture (only for a deliberate change to generated code)::

    PYTHONPATH=src python tests/test_generated_c_golden.py --update
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict

import pytest

from repro.api import (KernelService, MemoryKernelStore, PhaseCache, SLinGen,
                       make_request)

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                       "generated_c.json")

#: The kernels (and sizes) of the paper suite: Figs. 14-15 plus the
#: application kernels.
PAPER_SUITE = (
    "potrf:4", "potrf:8", "trtri:4", "trtri:8", "trsyl:4", "trlya:4",
    "gemm:4", "gemm:8", "trsm:4", "trsm:8", "kf:4", "gpr:4", "l1a:4")


def fingerprint(spec: str) -> Dict[str, object]:
    """Generate ``spec`` cold and summarize what it produced."""
    request = make_request(spec)
    key = KernelService(store=MemoryKernelStore()).request_key(request)
    result = SLinGen(request.options, phase_cache=PhaseCache()
                     ).generate_result(request.program,
                                       nominal_flops=request.nominal_flops)
    return {
        "c_sha256": hashlib.sha256(result.c_code.encode()).hexdigest(),
        "service_key": key,
        "candidates": [[c["label"], c["score"]] for c in result.candidates],
    }


def load_fixture() -> Dict[str, Dict[str, object]]:
    with open(FIXTURE) as handle:
        return json.load(handle)


def test_fixture_covers_the_paper_suite():
    assert list(load_fixture()) == list(PAPER_SUITE)


@pytest.mark.parametrize("spec", PAPER_SUITE)
def test_generated_c_matches_golden(spec):
    assert fingerprint(spec) == load_fixture()[spec]


def main(argv) -> int:
    if argv != ["--update"]:
        print(__doc__)
        return 2
    golden = {spec: fingerprint(spec) for spec in PAPER_SUITE}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=False)
        handle.write("\n")
    print(f"wrote {len(golden)} entries to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
