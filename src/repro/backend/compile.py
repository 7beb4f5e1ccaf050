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
from typing import Dict, List, Optional

import numpy as np

from ..cir.nodes import Buffer, Function, VFma, walk_expressions
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
        writable buffers restored from pristine copies before every call.
        """
        from ..timing import batched_time

        symbol = self._symbol()
        work, arguments = self._prepare_buffers(inputs)
        pristine: List[Optional[np.ndarray]] = [
            array.copy() if buf.writable else None
            for buf, array in zip(self.function.params, work)]

        def restore() -> None:
            for array, original in zip(work, pristine):
                if original is not None:
                    array[...] = original

        return batched_time(lambda: symbol(*arguments), restore,
                            repeats, warmup, inner)


def default_object_cache_dir() -> str:
    """Directory holding cached compiled shared objects.

    Overridable via ``REPRO_OBJECT_CACHE``; shares a parent with the kernel
    cache of :mod:`repro.service.store` so one directory holds all caches.
    """
    from ..ioutil import cache_root
    return cache_root("REPRO_OBJECT_CACHE", "objects")


def isa_flags(function: Function, c_code: Optional[str] = None) -> List[str]:
    """The instruction-set flags ``function`` needs: AVX for any vector
    width, and FMA on top when its body fuses multiply-adds (``VFma``).

    The C-IR decides, so nothing the C text happens to contain (a prelude
    definition, a comment) can switch FMA on.  ``c_code``, the function's
    C, only spares the walk over the body -- which costs up to a few
    milliseconds, against microseconds for a cached object -- when it
    names no FMA intrinsic at all: the unparser spells every ``VFma`` as
    one.
    """
    if function.vector_width == 1:
        return []
    uses_fma = (c_code is None or "_fmadd_pd" in c_code) and any(
        isinstance(expr, VFma) for stmt in function.walk_statements()
        for expr in walk_expressions(stmt))
    return ["-mavx", "-mfma"] if uses_fma else ["-mavx"]


def compile_kernel(c_code: str, function: Function,
                   extra_flags: Optional[List[str]] = None,
                   keep_dir: Optional[str] = None,
                   cache_key: Optional[str] = None,
                   cache_dir: Optional[str] = None) -> CompiledKernel:
    """Compile emitted C code into a shared library and wrap it.

    When ``cache_key`` is given (the kernel service's content hash), the
    shared object is kept under ``cache_dir`` and reused by later calls with
    the same key, C source and flags, skipping the compiler entirely.

    Raises :class:`~repro.errors.BackendError` when no compiler is available
    or compilation fails (the compiler diagnostics are included).
    """
    flags = ["-O2", "-std=c99", "-shared", "-fPIC", "-lm"]
    flags.extend(isa_flags(function, c_code))
    if extra_flags:
        flags.extend(extra_flags)

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
    source_path = os.path.join(workdir, f"{function.name}.c")
    library_path = os.path.join(workdir, f"{function.name}.so")
    with open(source_path, "w", encoding="utf-8") as handle:
        handle.write(c_code)

    command = [compiler, source_path, "-o", library_path] + flags
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        if keep_dir is None:
            shutil.rmtree(workdir, ignore_errors=True)
        raise BackendError(
            f"compilation of generated code failed:\n{result.stderr}")

    if cached_path is not None:
        from ..ioutil import atomic_publish
        os.makedirs(os.path.dirname(cached_path), exist_ok=True)
        atomic_publish(library_path, cached_path)
        library_path = cached_path
        if keep_dir is None:
            # The shared object now lives in the cache; the scratch dir
            # would otherwise accumulate one orphan per compilation.
            shutil.rmtree(workdir, ignore_errors=True)

    library = ctypes.CDLL(library_path)
    return CompiledKernel(function=function, library_path=library_path,
                          _library=library)
