"""Execution backends for generated kernels.

Three tiers run a C-IR function, strongest-signal first:

* ``compiled`` -- unparse to C (:mod:`.c_unparser`), compile with the host
  compiler, call through ctypes (:mod:`.compile`).  Needs ``$CC``.
* ``numpy`` -- translate to a Python/NumPy callable (:mod:`.numpy_backend`).
  Portable, fast enough to benchmark, no compiler.
* ``interpreter`` -- statement-at-a-time C-IR interpretation
  (:mod:`repro.cir.interpreter`).  Slow; the reference semantics.

:func:`make_executor` resolves a backend name (or ``"auto"``) to a kernel
object with the shared ``run(inputs)``/``time(inputs, ...)`` contract.
"""

from typing import Optional

from ..cir.interpreter import InterpreterKernel
from ..cir.nodes import Function
from ..errors import BackendError
from .c_unparser import CUnparser, unparse_function
from .compile import (CompiledKernel, compile_kernel, compiler_available,
                      find_c_compiler)
from .numpy_backend import (NumPyKernel, NumPyTranslator, compile_numpy_kernel,
                            default_numpy_cache_dir, translate_function)

#: Executable-backend names accepted by :func:`make_executor`.
EXECUTORS = ("compiled", "numpy", "interpreter")


def resolve_backends(spec: str = "auto"):
    """Backend-name list for a differential run.

    ``"auto"`` means every portable tier (interpreter first -- it is the
    reference semantics) plus ``compiled`` when a C compiler resolves; a
    comma-separated list passes through verbatim.  The single definition
    both ``python -m repro.backend crosscheck`` and the fuzz oracle use,
    so a new tier joins every differential surface at once.
    """
    if spec == "auto":
        backends = ["interpreter", "numpy"]
        if compiler_available():
            backends.append("compiled")
        return backends
    return [name.strip() for name in spec.split(",") if name.strip()]


def make_executor(function: Function, backend: str = "auto",
                  c_code: Optional[str] = None,
                  cache_key: Optional[str] = None):
    """An executable kernel for ``function`` on the chosen backend.

    ``backend`` is one of :data:`EXECUTORS` or ``"auto"`` (compiled when a
    C compiler is available, NumPy otherwise).  ``c_code`` (the already
    emitted C) is optional and only saves the compiled backend from
    re-unparsing the function.  ``cache_key`` enables content-addressed
    reuse of compiled artifacts (shared objects / generated Python
    sources).
    """
    if backend == "auto":
        backend = "compiled" if compiler_available() else "numpy"
    if backend == "compiled":
        return compile_kernel(c_code if c_code is not None
                              else unparse_function(function),
                              function, cache_key=cache_key)
    if backend == "numpy":
        return compile_numpy_kernel(function, cache_key=cache_key)
    if backend == "interpreter":
        return InterpreterKernel(function)
    raise BackendError(
        f"unknown execution backend {backend!r}; known: "
        f"{', '.join(EXECUTORS)} (or 'auto')")


__all__ = [
    "CUnparser", "unparse_function",
    "CompiledKernel", "compile_kernel", "compiler_available",
    "find_c_compiler",
    "NumPyKernel", "NumPyTranslator", "compile_numpy_kernel",
    "default_numpy_cache_dir", "translate_function",
    "InterpreterKernel", "EXECUTORS", "make_executor", "resolve_backends",
]
