"""Environment block recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path

# Thread-count variables honoured by the BLAS builds numpy ships with.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# One BLAS thread: the benchmark is a single closed-loop client, and a
# single-threaded BLAS is the setting that stays steady on a shared 2-core host.
BLAS_THREADS = 1


def pin_threads() -> None:
    """Pin every BLAS thread variable; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def effective_blas_threads():
    """Ask the loaded OpenBLAS for its thread count; None if it cannot be found."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    result = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() or None


def src_digest(root: Path) -> str:
    """SHA-256 over the package sources, which identifies the code under test
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = effective_blas_threads()
    if BLAS_THREADS > nproc:
        raise RuntimeError(f"pinned BLAS threads {BLAS_THREADS} exceed nproc {nproc}")
    if threads is not None and threads != BLAS_THREADS:
        raise RuntimeError(f"BLAS runs {threads} threads, expected {BLAS_THREADS}")
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads_effective": threads,
        "git_sha": _git_sha(root),
        "src_sha256": src_digest(root),
    }
