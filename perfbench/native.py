"""Native timing of compiled kernels and OpenBLAS baselines via kbench.c.

The driver is built once per set-up with the host C compiler.  It is a
separate process per measurement: it ``dlopen``s the shared object that
``compile_kernel`` produced, so the kernel runs exactly as the system built
it, and a crashing kernel cannot take the benchmark down.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import struct
import subprocess
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import common

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_ARGS = 64

#: Kernel batches per driver run; each batch is ~50 us of kernel time, so
#: one driver run takes ~2 * BATCHES * 50 us plus calibration.
BATCHES = 51

#: Driver runs a kernel gets at least, however short the run.
MIN_ROUNDS = 3


def _calls_header() -> str:
    """``call_kernel(fn, p, n)``: call ``fn`` with exactly ``n`` pointer
    arguments, so no kernel pays for stack arguments it does not take."""
    lines = ["static void call_kernel(void *fn, double **p, int n) {",
             "    switch (n) {"]
    for arity in range(1, MAX_ARGS + 1):
        types = ", ".join(["D"] * arity)
        args = ", ".join(f"p[{i}]" for i in range(arity))
        lines.append(f"    case {arity}: ((void (*)({types}))fn)({args}); "
                     f"break;")
    lines += ["    }", "}", ""]
    return "\n".join(lines)


def _cc_command(workdir: str, calls_header: str, opt: str) -> List[str]:
    """``$CC`` on kbench.c, its calls header written into ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "kbench_calls.h"), "w") as handle:
        handle.write(calls_header)
    return [os.environ.get("CC") or "gcc", opt, "-std=c11", "-I", workdir,
            os.path.join(HERE, "kbench.c")]


def build_driver(workdir: str) -> str:
    """Compile kbench into ``workdir``; returns the executable's path."""
    exe = os.path.join(workdir, "kbench")
    subprocess.run(_cc_command(workdir, _calls_header(), "-O2")
                   + ["-o", exe, "-ldl"],
                   check=True, capture_output=True, text=True)
    return exe


class Gauge:
    """The host's pace, read as the seconds ``$CC -O0`` takes to compile
    kbench.c (with a one-line calls header) to an object: a fixed task that
    no change to the system touches, and like a build mostly ``$CC`` and
    its headers.

    Other tenants of the host slow all work here by 30-45%, for stretches
    of seconds to minutes, so a run can fall wholly into a slow stretch.
    A time ``t`` measured next to a reading ``g`` is reported as
    ``t * NOMINAL_S / g``, the time at the pace at which the gauge reads
    ``NOMINAL_S`` (its reading on a calm reference host, a 2-vCPU Xeon with
    gcc 12).  Over 10 minutes of cold builds with a slow stretch every
    minute or so, builds paced by a reading after each moved the suite
    figure of 20-s windows by 4% (quartile distance over median; range
    0.94-1.08x) where the fastest raw build times moved it by 10%
    (0.90-1.30x).  Builds and set-ups, which are mostly ``$CC``, are paced;
    serve-mix's HTTP latencies follow the gauge loosely (correlation
    0.2-0.3; paced by it, they spread wider) and have a gauge of their own
    (``serve_mix._HttpGauge``), and the native driver counts core cycles."""

    NOMINAL_S = 0.29

    def __init__(self, workdir: str) -> None:
        stub = ("static void call_kernel(void *fn, double **p, int n) "
                "{ (void)fn; (void)p; (void)n; }\n")
        self.command = _cc_command(workdir, stub, "-O0") + [
            "-c", "-o", os.path.join(workdir, "gauge.o")]
        self.readings: List[float] = []
        self._compile()  # warm the page cache: the first read is cold

    def _compile(self) -> float:
        started = time.perf_counter()
        subprocess.run(self.command, check=True, capture_output=True)
        return time.perf_counter() - started

    def scale(self) -> float:
        """Reads the gauge once; times measured just before it, multiplied
        by the result, are at the nominal pace."""
        reading = self._compile()
        self.readings.append(reading)
        return self.NOMINAL_S / reading

    def pace(self, seconds: float) -> float:
        """``seconds`` just measured, at the nominal pace."""
        return seconds * self.scale()


def _run(exe: str, abi: str, lib: str, symbol: str,
         buffers: Sequence[Tuple[np.ndarray, bool]], workdir: str,
         order: int = 0, repeat: int = 1,
         batches: int = BATCHES) -> Dict[str, float]:
    data_path = os.path.join(workdir, f"kbench-{os.getpid()}.bin")
    with open(data_path, "wb") as handle:
        for array, _ in buffers:
            handle.write(np.ascontiguousarray(array, dtype="<f8").tobytes())
    specs = [f"{array.size}:{int(bool(w))}" for array, w in buffers]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    try:
        done = subprocess.run(
            [exe, abi, lib, symbol, data_path, str(order), str(repeat),
             str(batches), str(len(buffers))] + specs,
            capture_output=True, text=True, env=env, timeout=60)
    finally:
        os.unlink(data_path)
    if done.returncode != 0:
        raise RuntimeError(f"kbench {symbol}: {done.stderr.strip()}")
    return json.loads(done.stdout)


def kernel_buffers(kernel, inputs: Dict[str, np.ndarray]
                   ) -> List[Tuple[np.ndarray, bool]]:
    """The kernel's parameters in signature order, filled like
    ``CompiledKernel.run`` fills them: inputs copied, outputs zeroed.

    Only in-out buffers are marked for restoring: a kernel reads them, so
    every call must start from the same values.  Output-only buffers are
    recomputed from the inputs on every call, and restoring them would only
    raise the floor that is subtracted from the kernel's time."""
    buffers = []
    for buf in kernel.function.params:
        if buf.name in inputs:
            array = np.asarray(inputs[buf.name], dtype=np.float64).reshape(
                buf.rows, buf.cols)
        else:
            array = np.zeros((buf.rows, buf.cols))
        buffers.append((array, buf.kind == "inout"))
    return buffers


def time_kernel(exe: str, kernel, inputs: Dict[str, np.ndarray],
                workdir: str, repeat: int = 1) -> Dict[str, float]:
    """Time a ``CompiledKernel`` (its ``.so`` and symbol) natively."""
    return _run(exe, "kernel", kernel.library_path, kernel.function.name,
                kernel_buffers(kernel, inputs), workdir, repeat=repeat)


def openblas_library() -> Optional[str]:
    """scipy's bundled OpenBLAS (the LAPACK every scipy user already runs)."""
    import scipy
    libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)),
                        "scipy.libs")
    found = sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so")))
    return found[0] if found else None


def _lower(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.tril(rng.uniform(-1.0, 1.0, (n, n))) + n * np.eye(n)


def openblas_buffers(routine: str, n: int, seed: int
                     ) -> List[Tuple[np.ndarray, bool]]:
    """Operands, as the Fortran routine sees them, for one LAPACK/BLAS call
    of order ``n`` that does the case's computation (writable operand
    marked): triangular operands are lower for dpotrf/dtrtri/dtrsm and
    upper for dtrsyl, which is what each call in kbench.c asks for."""
    rng = np.random.default_rng(seed)
    general = lambda: rng.standard_normal((n, n))  # noqa: E731
    if routine == "dgemm":
        return [(general(), False), (general(), False), (general(), True)]
    if routine == "dpotrf":
        a = general()
        return [(a @ a.T + n * np.eye(n), True)]
    if routine == "dtrtri":
        return [(_lower(n, rng), True)]
    if routine == "dtrsyl":
        return [(_lower(n, rng).T, False), (_lower(n, rng).T, False),
                (general(), True)]
    if routine == "dtrsm":
        return [(_lower(n, rng), False), (general(), True)]
    raise ValueError(routine)


def time_openblas(exe: str, lib: str, routine: str, n: int, seed: int,
                  workdir: str) -> Dict[str, float]:
    # Buffers are written in C order; passing the transpose's bytes gives
    # the column-major layout Fortran expects.
    buffers = [(array.T, w) for array, w in openblas_buffers(routine, n, seed)]
    result = _run(exe, routine, lib, f"scipy_{routine}_", buffers, workdir,
                  order=n)
    if result["info"] != 0:
        raise RuntimeError(f"{routine}:{n} returned info={result['info']}")
    return result


def text_bytes(path: str) -> int:
    """Size of the ``.text`` section of an ELF64 shared object."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:4] != b"\x7fELF" or blob[4] != 2:
        raise ValueError(f"{path}: not an ELF64 file")
    shoff, = struct.unpack_from("<Q", blob, 0x28)
    shentsize, shnum, shstrndx = struct.unpack_from("<HHH", blob, 0x3A)

    def section(index: int) -> Tuple[int, int, int]:
        base = shoff + index * shentsize
        name, = struct.unpack_from("<I", blob, base)
        offset, size = struct.unpack_from("<QQ", blob, base + 0x18)
        return name, offset, size

    _, strtab, _ = section(shstrndx)
    for index in range(shnum):
        name, _, size = section(index)
        end = blob.index(b"\0", strtab + name)
        if blob[strtab + name:end] == b".text":
            return size
    raise ValueError(f"{path}: no .text section")


class KernelTimer:
    """Driver runs of the delivered kernels (``kernels.latest``), gathered
    while a workload runs and reduced when it ends.  Kernels in
    ``self_check`` are also timed with every call doubled, which must read
    as 2x.

    Other tenants of the host slow memory-bound code by up to half, for
    seconds at a time.  So the runs of a kernel are spread over ten seconds
    or more and the fastest is reported: over such windows the geomean of
    the fastest runs moved by 1-3%, where runs packed into 1-2 s moved by
    16%."""

    def __init__(self, exe: str, kernels, root: str, self_check=()) -> None:
        self.exe = exe
        self.kernels = kernels
        self.root = root
        self.self_check = self_check
        self.runs: Dict[Tuple[str, int], List[Dict[str, float]]] = {}
        self.error: Optional[str] = None
        self._turn = 0

    def _time(self, spec: str) -> None:
        if self.error is not None:
            return
        kernel, _ = self.kernels.latest[spec]
        try:
            for repeat in ((1, 2) if spec in self.self_check else (1,)):
                self.runs.setdefault((spec, repeat), []).append(time_kernel(
                    self.exe, kernel, self.kernels.inputs[spec], self.root,
                    repeat))
        except (RuntimeError, OSError) as exc:
            self.error = f"native timing: {exc}"

    def next(self, count: int) -> None:
        """One driver run each for the next ``count`` delivered kernels,
        taken in turn."""
        specs = sorted(self.kernels.latest)
        for _ in range(min(count, len(specs))):
            self._time(specs[self._turn % len(specs)])
            self._turn += 1

    def spread(self, seconds: float) -> None:
        """Driver runs, the kernels in turn, for ``seconds``."""
        deadline = time.perf_counter() + seconds
        while (self.kernels.latest and self.error is None
               and time.perf_counter() < deadline):
            self.next(1)

    def put(self, trace: bool, outcome) -> None:
        """Top every kernel up to ``MIN_ROUNDS`` runs, then put the
        end-to-end kernel metrics; traced runs add the per-kernel rows."""
        for spec in sorted(self.kernels.latest):
            while (self.error is None
                   and len(self.runs.get((spec, 1), ())) < MIN_ROUNDS):
                self._time(spec)
        if self.error is not None:
            outcome.attempt(False, self.error)
            return
        _put_kernels(self.kernels, self.runs, trace, outcome, self.self_check)


def _put_kernels(kernels, runs, trace: bool, outcome, self_check) -> None:
    specs = sorted(kernels.latest)

    def fastest(spec: str, field: str, repeat: int = 1) -> float:
        return min(run[field] for run in runs[spec, repeat])

    def net(spec: str, unit: str, repeat: int = 1) -> float:
        """Fastest kernel round minus fastest floor round (the minimum of
        per-round differences would favour rounds with a disturbed floor)."""
        return (fastest(spec, f"raw_{unit}", repeat)
                - fastest(spec, f"floor_{unit}", repeat))

    fpcs, floors, text_total = [], [], 0
    for spec in specs:
        kernel, model_fpc = kernels.latest[spec]
        cycles = net(spec, "core_cycles")
        if not outcome.attempt(cycles > 0,
                               f"native {spec}: no time above the floor"):
            continue
        fpc = kernels.cases[spec].nominal_flops / cycles
        try:
            text = text_bytes(kernel.library_path)
        except (ValueError, OSError) as exc:
            outcome.attempt(False, f"{spec}: {exc}")
            continue
        fpcs.append(fpc)
        floors.append(fastest(spec, "floor_ns"))
        text_total += text
        name = common.metric_name(spec)
        if trace:
            outcome.put(f"kernel.{name}.ns", net(spec, "ns"), "ns")
            outcome.put(f"kernel.{name}.fpc", fpc, "flops/cycle")
            outcome.put(f"kernel.{name}.text_bytes", text, "bytes")
            outcome.put(f"machine.model_ratio.{name}", model_fpc / fpc,
                        "ratio")
        if spec in self_check:
            ratio = net(spec, "ns", 2) / net(spec, "ns")
            low, high = common.SELF_CHECK_RANGE
            outcome.attempt(low <= ratio <= high,
                            f"self-check {spec}: 2x reads {ratio:.2f}x")
            if trace:
                outcome.put(f"kernel.selfcheck.{name}", ratio, "ratio")
    outcome.tsc_ghz = runs[specs[0], 1][-1]["tsc_ghz"] if specs else None
    if fpcs:
        outcome.put("kernel_fpc_geomean", common.geomean(fpcs), "flops/cycle")
        outcome.put("kernel_text_kb", text_total / 1024.0, "KB")
        if trace:
            outcome.put("kernel.floor_ns", statistics.median(floors), "ns")


def measure_openblas(exe: str, kernels, seed: int, root: str,
                     outcome) -> None:
    """Context rows: the suite's computations through scipy's OpenBLAS,
    timed by the same driver (not gated)."""
    lib = openblas_library()
    if lib is None:
        outcome.notes.append("no scipy OpenBLAS found; baseline rows skipped")
        return
    for spec, case in sorted(kernels.cases.items()):
        name, _, size = spec.partition(":")
        routine = common.OPENBLAS_ROUTINES.get(name)
        if routine is None:
            continue
        try:
            timing = time_openblas(exe, lib, routine, int(size), seed, root)
        except (RuntimeError, OSError) as exc:
            outcome.notes.append(f"openblas {spec}: {exc}")
            continue
        outcome.put(f"openblas.{common.metric_name(spec)}.fpc",
                    case.nominal_flops / timing["core_cycles"], "flops/cycle")
