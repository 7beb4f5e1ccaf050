"""The serving process stays small: it never loads scipy or the benchmark
harness.

Importing scipy's LAPACK bindings adds about 28 MB of RSS to a process,
and only the reference oracles in :mod:`repro.kernels.reference` call
them.  The test runs a fresh interpreter through the daemon's import graph
and one served request, so a single top-level import anywhere on that path
fails it.
"""

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Modules a serving process must not load.
UNSERVED = ("scipy", "repro.bench")

_SERVE_ONE = """
import json, sys

import numpy as np

import repro.service.__main__
from repro.backend import compiler_available
from repro.service import DiskKernelStore, KernelService, make_request
from repro.tuning.measure import synthesize_inputs

service = KernelService(store=DiskKernelStore(root=sys.argv[1]))
response = service.generate(make_request("potrf:4"))
inputs = synthesize_inputs(response.result.function)
backends = ["numpy"] + (["compiled"] if compiler_available() else [])
outputs = [response.kernel(backend).run(inputs) for backend in backends]
for name, value in outputs[0].items():
    assert np.all(np.isfinite(value)), name
    for other in outputs[1:]:
        assert np.allclose(value, other[name], rtol=1e-12, atol=1e-12), name
print(json.dumps(sorted(set(sys.modules) & set(sys.argv[2:]))))
"""


def test_serving_path_loads_neither_scipy_nor_the_harness(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    env["REPRO_NUMPY_CACHE"] = str(tmp_path / "numpy")
    env["REPRO_OBJECT_CACHE"] = str(tmp_path / "objects")
    result = subprocess.run(
        [sys.executable, "-c", _SERVE_ONE, str(tmp_path / "store"),
         *UNSERVED],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert loaded == [], (
        f"the serving path imported {loaded}; import them where they are "
        f"first used")
