"""The host fingerprint stamped into every trajectory record.

Wall-clock medians are only comparable between *comparable hosts*: a
2-core CI runner, a 16-core workstation, a numpy major release, and a
different C compiler all shift absolute timings by far more than any
regression threshold.  Every record therefore carries
:func:`environment_fingerprint`, and the gate consults
:func:`compatibility_issues` before comparing two records -- an
incompatible pair is *refused* (reported as non-comparable), never
scored, so a laptop run can never "regress" against a CI baseline.

The trajectory's oldest records (run id ``"seed"``, taken over from the
pre-trajectory ``BENCH_seed.json``, which recorded no host) carry a
fingerprint whose fields are all null plus a ``source`` naming that
file.  Such a fingerprint is incompatible with everything: the history
is kept, but nothing is ever judged against it.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict, List, Optional

def _compiler_label() -> Optional[str]:
    """The resolved C compiler's basename (``$CC`` wins), or None."""
    from ..backend import find_c_compiler
    try:
        compiler = find_c_compiler()
    except Exception:       # resolution must never fail a benchmark run
        return None
    if not compiler:
        return None
    return os.path.basename(compiler)


def environment_fingerprint() -> Dict[str, object]:
    """The JSON-able identity of the measuring host.

    Fields (all always present):

    ``python``      -- full CPython version string (``"3.11.7"``).
    ``numpy``       -- numpy version string.
    ``platform``    -- ``sys.platform`` (``"linux"``, ``"darwin"``, ...).
    ``machine``     -- CPU architecture (``platform.machine()``).
    ``cpu_count``   -- ``os.cpu_count()``.
    ``cc``          -- basename of the resolved C compiler, or null.
    ``vectorize`` / ``vector_width`` -- default codegen vectorization
    flags (the generated kernels being timed depend on them).
    """
    import numpy as np

    from ..slingen.options import Options
    defaults = Options()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "cc": _compiler_label(),
        "vectorize": bool(defaults.vectorize),
        "vector_width": int(defaults.vector_width),
    }


def _numpy_major(version: object) -> Optional[str]:
    if not isinstance(version, str) or not version:
        return None
    return version.split(".", 1)[0]


def compatibility_issues(a: Dict[str, object],
                         b: Dict[str, object]) -> List[str]:
    """Why two fingerprints must not be timing-compared (empty = fine).

    The checks are deliberately coarse: same CPU count, same
    architecture and OS, same numpy *major*, same C compiler, and same
    vectorization flags.  Anything unknown on either side (a migrated
    record) is an issue by itself.
    """
    issues: List[str] = []
    if not isinstance(a, dict) or not isinstance(b, dict):
        return ["environment fingerprint missing"]
    for env in (a, b):
        if env.get("source") or env.get("cpu_count") is None:
            return ["environment unknown (migrated or pre-trajectory "
                    "record)"]
    for field, label in (("cpu_count", "CPU count"),
                         ("machine", "CPU architecture"),
                         ("platform", "OS"),
                         ("cc", "C compiler"),
                         ("vectorize", "vectorization"),
                         ("vector_width", "vector width")):
        if a.get(field) != b.get(field):
            issues.append(f"{label} differs "
                          f"({a.get(field)!r} vs {b.get(field)!r})")
    if _numpy_major(a.get("numpy")) != _numpy_major(b.get("numpy")):
        issues.append(f"numpy major differs "
                      f"({a.get('numpy')!r} vs {b.get('numpy')!r})")
    return issues
