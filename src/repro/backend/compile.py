"""Compile-and-run support for the emitted C code (via gcc + ctypes).

The reproduction validates generated kernels primarily through the C-IR
interpreter; when a C compiler is available, this module additionally
compiles the emitted single-source C and executes it on numpy arrays, which
is the strongest end-to-end check that the generated code is real, valid C.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cir.nodes import BinOp, Function, UnOp, walk_expressions
from ..errors import BackendError


def find_c_compiler() -> Optional[str]:
    """Return the path of a usable C compiler, or None.

    The ``CC`` environment variable takes precedence (the conventional way
    to select a compiler); when it is unset or does not resolve to an
    executable, the usual suspects are probed in order.
    """
    cc = os.environ.get("CC", "").strip()
    if cc:
        path = shutil.which(cc)
        if path:
            return path
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def compiler_available() -> bool:
    return find_c_compiler() is not None


@dataclass
class CompiledKernel:
    """A compiled shared object wrapping one generated kernel."""

    function: Function
    library_path: str
    _library: ctypes.CDLL

    def _symbol(self):
        symbol = getattr(self._library, self.function.name)
        symbol.restype = None
        return symbol

    def _prepare_buffers(self, inputs: Dict[str, np.ndarray]
                         ) -> "tuple[List[np.ndarray], List[object]]":
        """Working arrays (one per parameter, input values copied in) and
        the matching ctypes argument pointers."""
        buffers: List[np.ndarray] = []
        arguments: List[object] = []
        for buf in self.function.params:
            if buf.name in inputs:
                array = np.ascontiguousarray(
                    np.asarray(inputs[buf.name], dtype=np.float64).reshape(
                        buf.rows, buf.cols)).copy()
            elif buf.kind == "out":
                array = np.zeros((buf.rows, buf.cols), dtype=np.float64)
            else:
                raise BackendError(f"missing input buffer {buf.name!r}")
            buffers.append(array)
            arguments.append(array.ctypes.data_as(
                ctypes.POINTER(ctypes.c_double)))
        return buffers, arguments

    def run(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Execute the compiled kernel on numpy inputs (copies, like the
        interpreter)."""
        buffers, arguments = self._prepare_buffers(inputs)
        self._symbol()(*arguments)
        return {buf.name: array
                for buf, array in zip(self.function.params, buffers)
                if buf.writable}

    def time(self, inputs: Dict[str, np.ndarray], repeats: int = 9,
             warmup: int = 2, inner: int = 32) -> List[float]:
        """Time the kernel: ``repeats`` samples of seconds-per-call.

        Buffers and argument pointers are prepared once, then the shared
        batched protocol of :func:`repro.timing.batched_time` runs --
        in-out buffers restored from pristine copies before every call.
        """
        from ..timing import batched_time, pristine_restore

        symbol = self._symbol()
        work, arguments = self._prepare_buffers(inputs)
        return batched_time(lambda: symbol(*arguments),
                            pristine_restore(self.function.params, work),
                            repeats, warmup, inner)


def default_object_cache_dir() -> str:
    """Directory holding cached compiled shared objects.

    Overridable via ``REPRO_OBJECT_CACHE``; shares a parent with the kernel
    cache of :mod:`repro.service.store` so one directory holds all caches.
    """
    from ..ioutil import cache_root
    return cache_root("REPRO_OBJECT_CACHE", "objects")


#: The libm functions the unparser calls: ``sqrt`` for ``UnOp("sqrt")``,
#: ``fmax``/``fmin`` for scalar ``BinOp("max"/"min")``.
_LIBM_FUNCTIONS = ("sqrt", "fmax", "fmin")


def _calls_libm(expr) -> bool:
    return (isinstance(expr, UnOp) and expr.op == "sqrt") or (
        isinstance(expr, BinOp) and expr.op in ("max", "min"))


def kernel_flags(function: Function, c_code: Optional[str] = None
                 ) -> Tuple[List[str], List[str]]:
    """The flags compiling ``function`` needs beyond the fixed recipe: the
    instruction-set flags, which reach the compiler proper, and the
    libraries to link.

    ``-mavx`` for any vector width; ``-lm`` when the C-IR calls libm.  A
    walk over the C-IR decides the latter, so nothing the C text happens to
    contain (a prelude definition, a comment) can switch it on.
    ``c_code``, the function's C, only spares the walk -- which costs up to
    a few milliseconds, against microseconds for a cached object -- when it
    names no libm function: the unparser spells every libm call by name.
    """
    isa = ["-mavx"] if function.vector_width > 1 else []
    if c_code is not None and not any(name in c_code
                                      for name in _LIBM_FUNCTIONS):
        return isa, []
    libm = any(_calls_libm(expr) for stmt in function.walk_statements()
               for expr in walk_expressions(stmt))
    return isa, ["-lm"] if libm else []


def compile_kernel(c_code: str, function: Function,
                   keep_dir: Optional[str] = None,
                   cache_key: Optional[str] = None,
                   cache_dir: Optional[str] = None) -> CompiledKernel:
    """Compile emitted C code into a shared library and wrap it.

    The compiler proper sees ``-O2 -std=c99 -fPIC`` and the ISA flags of
    :func:`kernel_flags`.  The link is ``-shared -nostdlib``: no start
    files and no libc, which the generated code never calls, and ``-lm``
    only when the C-IR calls libm, so such a library records
    ``NEEDED libm.so.6`` and loads into a process that has no libm.
    Symbols the compiler itself adds, such as ``__stack_chk_fail`` under a
    default ``-fstack-protector``, resolve from the loading process's libc.

    When ``cache_key`` is given (the kernel service's content hash), the
    shared object is kept under ``cache_dir`` and reused by later calls with
    the same key, C source and flags, skipping the compiler entirely.
    ``library_path`` names an existing file only when ``cache_key`` or
    ``keep_dir`` is given: otherwise the scratch directory is removed once
    the library is loaded, and the mapping outlives the file.

    Raises :class:`~repro.errors.BackendError` when no compiler is available
    or compilation, linking or loading fails (the diagnostics are included).
    """
    isa, libraries = kernel_flags(function, c_code)
    flags = ["-O2", "-std=c99", "-fPIC", *isa,
             "-pipe", "-shared", "-nostdlib", *libraries]

    cached_path: Optional[str] = None
    if cache_key is not None:
        import hashlib
        # The C source is part of the key: a changed unparser must not be
        # served an object compiled from older C under the same service key.
        source_digest = hashlib.sha256(c_code.encode("utf-8")).hexdigest()
        digest = hashlib.sha256(
            "\x00".join([cache_key, function.name, source_digest]
                         + flags).encode()
        ).hexdigest()[:32]
        cache_root = cache_dir or default_object_cache_dir()
        cached_path = os.path.join(cache_root, f"{digest}.so")
        if os.path.exists(cached_path):
            try:
                library = ctypes.CDLL(cached_path)
                return CompiledKernel(function=function,
                                      library_path=cached_path,
                                      _library=library)
            except OSError:
                # Corrupt/incompatible cached object: drop it and recompile.
                try:
                    os.unlink(cached_path)
                except OSError:
                    pass

    compiler = find_c_compiler()
    if compiler is None:
        raise BackendError("no C compiler available on this system")

    workdir = keep_dir or tempfile.mkdtemp(prefix="repro_cc_")
    try:
        source_path = os.path.join(workdir, f"{function.name}.c")
        library_path = os.path.join(workdir, f"{function.name}.so")
        with open(source_path, "w", encoding="utf-8") as handle:
            handle.write(c_code)

        # libraries after the source: a linker that defaults to
        # --as-needed drops a library no earlier input references
        command = [compiler, source_path, "-o", library_path] + flags
        result = subprocess.run(command, capture_output=True, text=True)
        if result.returncode != 0:
            raise BackendError(
                f"compilation of generated code failed:\n{result.stderr}")

        if cached_path is not None:
            from ..ioutil import atomic_publish
            os.makedirs(os.path.dirname(cached_path), exist_ok=True)
            atomic_publish(library_path, cached_path)
            library_path = cached_path

        try:
            library = ctypes.CDLL(library_path)
        except OSError as exc:
            raise BackendError(
                f"loading the compiled kernel failed: {exc}") from exc
    finally:
        if keep_dir is None:
            # Loaded or failed, the scratch directory has served its
            # purpose; without this, every compile would leave one behind.
            shutil.rmtree(workdir, ignore_errors=True)
    return CompiledKernel(function=function, library_path=library_path,
                          _library=library)
