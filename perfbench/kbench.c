/*
 * kbench: time one generated kernel (or one OpenBLAS routine) in native code.
 *
 *   kbench ABI LIB SYMBOL DATA N REPEAT BATCHES NBUF LEN:W ...
 *
 * ABI      "kernel" (void f(double*, ...), one pointer per buffer) or one of
 *          "dgemm", "dpotrf", "dtrtri", "dtrsyl", "dtrsm" (Fortran LAPACK/BLAS
 *          entry points, column-major operands, order fixed below).
 * LIB      shared object to dlopen (the .so compile_kernel produced, or the
 *          OpenBLAS library); SYMBOL is looked up in it.
 * DATA     file holding the initial contents of every buffer as raw
 *          little-endian doubles, buffers concatenated in order.
 * N        matrix order for the Fortran ABIs (ignored for "kernel").
 * REPEAT   calls per timed iteration: 1 normally, 2 for the self-check that an
 *          injected 2x slowdown reads as 2x.
 * BATCHES  number of timed batches of each kind (kernel and floor).
 * LEN:W    per buffer: its length in doubles and 1 when the routine writes it.
 *
 * Each iteration restores the written buffers from pristine copies with
 * memcpy and then calls the routine REPEAT times.  Kernel batches alternate
 * with floor batches that only restore, so drift hits both alike.  The
 * iteration count per batch is calibrated so a kernel batch lasts ~50 us.
 * Each pair of batches is bracketed by a core-clock reading
 * (tsc_per_core_cycle), which converts its TSC cycles to core cycles.
 * Prints one JSON object: median ns, TSC cycles and core cycles per
 * iteration of both kinds, their differences, and the TSC rate measured
 * against CLOCK_MONOTONIC.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <x86intrin.h>

#define MAX_BUFS 64

typedef double *D;

static int nbuf;
static size_t lens[MAX_BUFS];
static int writable[MAX_BUFS];
static double *work[MAX_BUFS];
static double *pristine[MAX_BUFS];
static void *fn;
static int abi_id;
static int order;
static int repeat_calls;

enum { ABI_KERNEL, ABI_DGEMM, ABI_DPOTRF, ABI_DTRTRI, ABI_DTRSYL, ABI_DTRSM };

typedef void (*dgemm_t)(const char *, const char *, const int *, const int *,
                        const int *, const double *, const double *,
                        const int *, const double *, const int *,
                        const double *, double *, const int *, size_t, size_t);
typedef void (*dpotrf_t)(const char *, const int *, double *, const int *,
                         int *, size_t);
typedef void (*dtrtri_t)(const char *, const char *, const int *, double *,
                         const int *, int *, size_t, size_t);
typedef void (*dtrsyl_t)(const char *, const char *, const int *, const int *,
                         const int *, const double *, const int *,
                         const double *, const int *, double *, const int *,
                         double *, int *, size_t, size_t);
typedef void (*dtrsm_t)(const char *, const char *, const char *, const char *,
                        const int *, const int *, const double *,
                        const double *, const int *, double *, const int *,
                        size_t, size_t, size_t, size_t);

static int lapack_info;

/* kbench_calls.h defines call_kernel(fn, p, n): a switch over the arity. */
#include "kbench_calls.h"

static void call_once(void) {
    static const double one = 1.0;
    static const int isgn = 1;
    double scale;
    switch (abi_id) {
    case ABI_KERNEL:
        call_kernel(fn, work, nbuf);
        break;
    case ABI_DGEMM: /* C := A B + C */
        ((dgemm_t)fn)("N", "N", &order, &order, &order, &one, work[0], &order,
                      work[1], &order, &one, work[2], &order, 1, 1);
        break;
    case ABI_DPOTRF: /* A := chol(A), lower */
        ((dpotrf_t)fn)("L", &order, work[0], &order, &lapack_info, 1);
        break;
    case ABI_DTRTRI: /* A := inv(A), lower, non-unit */
        ((dtrtri_t)fn)("L", "N", &order, work[0], &order, &lapack_info, 1, 1);
        break;
    case ABI_DTRSYL: /* A X + X B = C, A and B upper triangular */
        ((dtrsyl_t)fn)("N", "N", &isgn, &order, &order, work[0], &order,
                       work[1], &order, work[2], &order, &scale, &lapack_info,
                       1, 1);
        break;
    case ABI_DTRSM: /* B := inv(A) B, A lower */
        ((dtrsm_t)fn)("L", "L", "N", "N", &order, &order, &one, work[0],
                      &order, work[1], &order, 1, 1, 1, 1);
        break;
    }
}

static void restore(void) {
    for (int b = 0; b < nbuf; b++)
        if (writable[b])
            memcpy(work[b], pristine[b], lens[b] * sizeof(double));
    /* The compiler must not merge or drop restores the routine never reads. */
    __asm__ volatile("" ::: "memory");
}

static double now_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

/* TSC cycles per core cycle, from a chain of dependent 3-cycle imuls.  The
   core clock moves with the host's load (2.7-3.0 GHz against a 2.1 GHz TSC
   within seconds on the reference host), so kernel time in TSC cycles is
   converted to core cycles, the unit of the paper's flops/cycle. */
#define CHAIN_ITERS 2000
static double tsc_per_core_cycle(void) {
    long x = 1;
    unsigned long long c0 = __rdtsc();
    for (long i = 0; i < CHAIN_ITERS; i++)
        __asm__ volatile("imul $3, %0, %0\n\timul $3, %0, %0\n\t"
                         "imul $3, %0, %0\n\timul $3, %0, %0\n\t"
                         "imul $3, %0, %0\n\timul $3, %0, %0\n\t"
                         "imul $3, %0, %0\n\timul $3, %0, %0"
                         : "+r"(x));
    return (double)(__rdtsc() - c0) / (CHAIN_ITERS * 8.0 * 3.0);
}

/* One batch of `iters` iterations; per-iteration ns and TSC cycles. */
static void batch(long iters, int with_call, double *ns, double *cycles) {
    double t0 = now_ns();
    unsigned long long c0 = __rdtsc();
    for (long i = 0; i < iters; i++) {
        restore();
        if (with_call)
            for (int r = 0; r < repeat_calls; r++)
                call_once();
    }
    unsigned long long c1 = __rdtsc();
    double t1 = now_ns();
    *ns = (t1 - t0) / (double)iters;
    *cycles = (double)(c1 - c0) / (double)iters;
}

static int cmp_double(const void *a, const void *b) {
    double x = *(const double *)a, y = *(const double *)b;
    return (x > y) - (x < y);
}

static double median(double *v, int n) {
    qsort(v, (size_t)n, sizeof(double), cmp_double);
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

static int parse_abi(const char *name) {
    static const char *names[] = {"kernel", "dgemm", "dpotrf",
                                  "dtrtri", "dtrsyl", "dtrsm"};
    for (int i = 0; i < 6; i++)
        if (strcmp(name, names[i]) == 0)
            return i;
    return -1;
}

int main(int argc, char **argv) {
    if (argc < 9) {
        fprintf(stderr, "usage: kbench ABI LIB SYMBOL DATA N REPEAT BATCHES "
                        "NBUF LEN:W ...\n");
        return 2;
    }
    abi_id = parse_abi(argv[1]);
    order = atoi(argv[5]);
    repeat_calls = atoi(argv[6]);
    int batches = atoi(argv[7]);
    nbuf = atoi(argv[8]);
    if (abi_id < 0 || nbuf < 1 || nbuf > MAX_BUFS || argc != 9 + nbuf ||
        repeat_calls < 1 || batches < 1) {
        fprintf(stderr, "kbench: bad arguments\n");
        return 2;
    }
    void *lib = dlopen(argv[2], RTLD_NOW | RTLD_LOCAL);
    if (!lib) {
        fprintf(stderr, "kbench: %s\n", dlerror());
        return 1;
    }
    fn = dlsym(lib, argv[3]);
    if (!fn) {
        fprintf(stderr, "kbench: %s\n", dlerror());
        return 1;
    }
    FILE *data = fopen(argv[4], "rb");
    if (!data) {
        perror("kbench: data");
        return 1;
    }
    /* Buffers live packed in two page-aligned arenas, each buffer on its
       own 64-byte line.  The layout is then the same on every run whatever
       the heap did before, and the pristine arena sits half a page off the
       working one so restores never 4K-alias the kernel's loads. */
    size_t offsets[MAX_BUFS], total = 0;
    for (int b = 0; b < nbuf; b++) {
        char *colon = strchr(argv[9 + b], ':');
        lens[b] = (size_t)strtoul(argv[9 + b], NULL, 10);
        writable[b] = colon && colon[1] == '1';
        offsets[b] = total;
        total += (lens[b] * sizeof(double) + 63) / 64 * 64;
    }
    size_t arena = (total + 4095) / 4096 * 4096;
    char *work_arena = aligned_alloc(4096, arena);
    char *pristine_arena = aligned_alloc(4096, arena + 4096);
    if (!work_arena || !pristine_arena) {
        fprintf(stderr, "kbench: out of memory\n");
        return 1;
    }
    for (int b = 0; b < nbuf; b++) {
        work[b] = (double *)(work_arena + offsets[b]);
        pristine[b] = (double *)(pristine_arena + 2048 + offsets[b]);
        if (fread(pristine[b], sizeof(double), lens[b], data) != lens[b]) {
            fprintf(stderr, "kbench: short data for buffer %d\n", b);
            return 1;
        }
        memcpy(work[b], pristine[b], lens[b] * sizeof(double));
    }
    fclose(data);

    /* Warm up, then calibrate the batch length to ~50 us of kernel time. */
    double ns, cycles;
    batch(1000, 1, &ns, &cycles);
    long iters = 1;
    for (;;) {
        batch(iters, 1, &ns, &cycles);
        if (ns * (double)iters >= 50e3 || iters >= (1L << 26))
            break;
        iters *= 2;
    }

    double *k_ns = malloc(sizeof(double) * batches);
    double *k_cyc = malloc(sizeof(double) * batches);
    double *f_ns = malloc(sizeof(double) * batches);
    double *f_cyc = malloc(sizeof(double) * batches);
    double *k_core = malloc(sizeof(double) * batches);
    double *f_core = malloc(sizeof(double) * batches);
    double start_ns = now_ns();
    unsigned long long start_tsc = __rdtsc();
    for (int i = 0; i < batches; i++) {
        double ratio = tsc_per_core_cycle();
        batch(iters, 1, &k_ns[i], &k_cyc[i]);
        batch(iters, 0, &f_ns[i], &f_cyc[i]);
        ratio = 0.5 * (ratio + tsc_per_core_cycle());
        k_core[i] = k_cyc[i] / ratio;
        f_core[i] = f_cyc[i] / ratio;
    }
    double tsc_ghz = (double)(__rdtsc() - start_tsc) / (now_ns() - start_ns);
    double kn = median(k_ns, batches), kc = median(k_cyc, batches);
    double fl = median(f_ns, batches), fc = median(f_cyc, batches);
    double kq = median(k_core, batches), fq = median(f_core, batches);
    printf("{\"iters\": %ld, \"batches\": %d, \"repeat\": %d, "
           "\"raw_ns\": %.6f, \"raw_cycles\": %.6f, "
           "\"floor_ns\": %.6f, \"floor_cycles\": %.6f, "
           "\"raw_core_cycles\": %.6f, \"floor_core_cycles\": %.6f, "
           "\"ns\": %.6f, \"cycles\": %.6f, \"core_cycles\": %.6f, "
           "\"tsc_ghz\": %.6f, \"info\": %d}\n",
           iters, batches, repeat_calls, kn, kc, fl, fc, kq, fq, kn - fl,
           kc - fc, kq - fq, tsc_ghz, lapack_info);
    return 0;
}
