"""Run a kernel's fixed row blocks on every CPU the process may use.

A kernel cuts its rows into blocks whose size does not depend on the CPU
count, and each block goes through the same numpy calls whichever thread runs
it, so results are the same for any number of workers. Work functions should
spend their time in numpy calls that release the GIL (matmul, copies, ufunc
loops, sorts). A work function may itself call ``run_blocks``: that nested
call runs its blocks serially in the thread that made it, so no call waits on
the pool it is running in. A caller can thus hand the pool two different tasks
(``run_blocks(lambda task, _: task(), [a, b])``), and each task's own row
blocks run where that task runs. ``taskset`` limits the CPUs; with one CPU the
blocks run in the calling thread and no pool is created.

Importing this module runs numpy's bundled OpenBLAS on one thread, so the blocks
own the CPUs and no bits depend on a BLAS thread count (stderr says if none is
found), and keeps every thread's allocations in glibc's one main malloc arena
(``one_malloc_arena``). The training loops call ``keep_heap_mapped`` when they start.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading

import numpy as np

_pool = None
_pool_key = None
_in_work = threading.local()  # .active: this thread is running a work function


def one_blas_thread(libdir: str) -> None:
    """Run the OpenBLAS in ``libdir`` on one thread, or say on stderr that there is none."""
    names = sorted(name for name in os.listdir(libdir) if "openblas" in name) if os.path.isdir(libdir) else []
    for name in names:
        lib = ctypes.CDLL(os.path.join(libdir, name))  # numpy has loaded it already
        # the setters of numpy 2's scipy-openblas and of older numpy wheels' OpenBLAS
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_"):
            if hasattr(lib, symbol):
                getattr(lib, symbol)(1)
                return
    print(f"radiogan: no OpenBLAS in {libdir}; n_fft 2048 bits may depend on the BLAS thread count", file=sys.stderr)


one_blas_thread(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs"))

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # glibc's mallopt parameters


def _mallopt():
    """glibc's ``mallopt``, or None where libc has none."""
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallopt"):
        return None
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    return libc.mallopt


def one_malloc_arena() -> None:
    """Serve every thread's allocations from glibc's main malloc arena.

    A pool thread would otherwise get an arena of its own, and the memory it
    frees there stays resident: over three rounds of a default published-scale
    ``generate`` and ``validate --generated`` in one process, each ``validate``
    peaked 4-8 MB higher. The threads allocate little while their numpy calls
    run, so they seldom wait on the shared arena's lock. A silent no-op where
    libc has no ``mallopt``; no result depends on it.
    """
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_ARENA_MAX, 1)


one_malloc_arena()


def keep_heap_mapped() -> None:
    """Keep the memory one training step frees mapped for the next step (glibc only).

    Sets glibc's mmap threshold to 16 MiB and its trim threshold to 64 MiB, so
    freed arrays stay in the heap instead of going back to the kernel and
    faulting in again on the next step. Not called at import: one-shot
    generation and validation gain nothing from holding freed memory. A silent
    no-op where libc has no ``mallopt`` or refuses a value; no result depends
    on it.
    """
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 16 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def cpu_count() -> int:
    """CPUs in this process's affinity mask (all CPUs where there is no mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def row_blocks(rows: int, step: int) -> list:
    """Slices cutting ``rows`` rows into blocks of ``step``, the last one ragged."""
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def joined_blocks(rows: int, step: int) -> list:
    """Slices cutting ``rows`` rows into ``max(1, rows // step)`` blocks of
    ``step``, fewer than ``step`` rows left at the end joining the last block.

    BLAS may round a product of a few rows differently from the same rows in a
    larger one, so a kernel run over these blocks gives each row the bits of
    one run over all the rows where a ragged block of one row would not.
    """
    n_blocks = max(1, rows // step)
    return [slice(k * step, rows if k == n_blocks - 1 else (k + 1) * step) for k in range(n_blocks)]


def _executor(cpus: int):
    # Keyed on the pid as well, so a forked child starts its own threads.
    global _pool, _pool_key
    key = (os.getpid(), cpus)
    if _pool_key != key:
        # Imported here so that serial runs never load concurrent.futures.
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(max_workers=cpus - 1, thread_name_prefix="radiogan-blocks")
        _pool_key = key
    return _pool


def run_blocks(work, blocks, scratch=lambda: None) -> list:
    """Return ``[work(rows, buffers) for rows in blocks]``, in block order.

    ``work`` runs once per block, with the buffers ``scratch()`` made for the
    run of blocks it belongs to. Each worker gets one contiguous run of whole
    blocks; the calling thread takes the first run and makes every run's
    buffers, since a worker thread's own large allocations would stay
    resident in its malloc arena. The workers run under the caller's numpy
    error handling (``np.errstate``). A worker's exception reaches the caller
    once every run has finished. A call made from inside a work function runs
    all its blocks in order in the thread that made it.
    """
    blocks = list(blocks)
    cpus = 1 if getattr(_in_work, "active", False) else cpu_count()
    workers = min(cpus, len(blocks))
    cuts = [len(blocks) * i // workers for i in range(workers + 1)] if blocks else []
    runs = [(blocks[lo:hi], scratch()) for lo, hi in zip(cuts, cuts[1:])]

    def run(part, buffers):
        nested = getattr(_in_work, "active", False)
        _in_work.active = True
        try:
            return [work(rows, buffers) for rows in part]
        finally:
            _in_work.active = nested

    errors = np.geterr()  # a worker thread would start from numpy's default error handling
    futures = [_executor(cpus).submit(np.errstate(**errors)(run), *r) for r in runs[1:]]
    try:
        results = run(*runs[0]) if runs else []
    finally:
        for future in futures:
            future.exception()  # waits; the result is read below
    for future in futures:
        results.extend(future.result())
    return results
