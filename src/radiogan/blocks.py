"""Run a kernel's fixed row blocks on every CPU the process may use.

A kernel cuts its rows into blocks whose size does not depend on the CPU
count, and each block goes through the same numpy calls whichever thread runs
it, so results are the same for any number of workers. Work functions must
call only numpy (its matmul, copies and ufunc loops release the GIL).
``taskset`` limits the CPUs; with one CPU the blocks run in the calling thread
and no pool is created.

Work that calls BLAS shares the CPUs with the BLAS library's own threads, so
it gets one worker per that many CPUs: with BLAS left at its default of one
thread per CPU, it runs serially, as the library's threads would otherwise
compete with the workers for the same cores. The thread count is read as the
OpenBLAS that numpy ships with reads it; other BLAS libraries are not
modelled.
"""

from __future__ import annotations

import os
import re

# The thread variables OpenBLAS reads, in its order: the first positive one wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_pool = None
_pool_key = None


def cpu_count() -> int:
    """CPUs in this process's affinity mask (all CPUs where there is no mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_threads(cpus: int) -> int:
    """Threads OpenBLAS uses: the first positive thread variable, at most ``cpus``.

    Values are read as C's ``atoi`` reads them (leading digits, else 0), as
    OpenBLAS does; with none positive it uses one thread per CPU.
    """
    for var in BLAS_THREAD_VARS:
        digits = re.match(r"\s*\+?(\d*)", os.environ.get(var, "")).group(1)
        if digits and int(digits) > 0:
            return min(int(digits), cpus)
    return cpus


def row_blocks(rows: int, step: int) -> list:
    """Slices cutting ``rows`` rows into blocks of ``step``, the last one ragged."""
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


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


def run_blocks(work, blocks, scratch, blas: bool = False) -> list:
    """Return ``work``'s per-block results for ``blocks``, in block order.

    ``work(run, buffers)`` takes a contiguous run of blocks and the buffers
    ``scratch()`` made for that run, and returns one result per block. Each
    worker gets one run of whole blocks; the calling thread takes the first
    run and makes every run's buffers, since a worker thread's own large
    allocations would stay resident in its malloc arena. A worker's exception
    reaches the caller once every run has finished. ``blas=True`` marks work
    whose time goes mostly to BLAS calls.
    """
    blocks = list(blocks)
    if len(blocks) <= 1:  # no CPU or BLAS lookups for work too small to split
        return list(work(blocks, scratch())) if blocks else []
    cpus = cpu_count()
    workers = min(cpus // blas_threads(cpus) if blas else cpus, len(blocks))
    if workers <= 1:
        return list(work(blocks, scratch()))
    cuts = [len(blocks) * i // workers for i in range(workers + 1)]
    runs = [(blocks[lo:hi], scratch()) for lo, hi in zip(cuts, cuts[1:])]
    pool = _executor(cpus)
    futures = [pool.submit(work, *run) for run in runs[1:]]
    try:
        results = list(work(*runs[0]))
    finally:
        for future in futures:
            future.exception()  # waits; the result is read below
    for future in futures:
        results.extend(future.result())
    return results
