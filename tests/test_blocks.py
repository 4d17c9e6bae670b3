"""The row-block runner: order, contiguous runs, errors, one CPU, fork, the BLAS setter."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from radiogan import blocks
from radiogan.net.layers import Conv1DLayer


def _recording_work(calls):
    def work(run, buffers):
        assert buffers == ("made by", threading.main_thread().ident)
        calls.append((list(run), threading.get_ident()))
        return [block * 10 for block in run]

    return work


def _scratch():
    return ("made by", threading.get_ident())


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("n_blocks", [1, 2, 4, 7, 11])
def test_results_come_back_in_block_order_from_contiguous_runs(monkeypatch, workers, n_blocks):
    monkeypatch.setattr(blocks, "cpu_count", lambda: workers)
    calls, made = [], []

    def scratch():
        made.append(threading.get_ident())
        return _scratch()

    assert blocks.run_blocks(_recording_work(calls), range(n_blocks), scratch) == [10 * b for b in range(n_blocks)]
    runs = sorted(run for run, _ in calls)
    assert len(runs) == min(workers, n_blocks)
    assert made == [threading.get_ident()] * len(runs)  # one set of buffers a run, all made by the caller
    assert [b for run in runs for b in run] == list(range(n_blocks))  # whole, contiguous, disjoint
    assert max(map(len, runs)) - min(map(len, runs)) <= 1
    first = next(thread for run, thread in calls if 0 in run)
    assert first == threading.get_ident()  # the caller runs the first run itself


def test_one_cpu_runs_serially_and_creates_no_pool(monkeypatch):
    monkeypatch.setattr(blocks, "cpu_count", lambda: 1)
    monkeypatch.setattr(blocks, "_pool", None)
    monkeypatch.setattr(blocks, "_pool_key", None)
    calls = []
    assert blocks.run_blocks(_recording_work(calls), range(6), _scratch) == [0, 10, 20, 30, 40, 50]
    assert calls == [(list(range(6)), threading.get_ident())]
    assert blocks._pool is None


def test_no_blocks_runs_nothing(monkeypatch):
    monkeypatch.setattr(blocks, "cpu_count", lambda: 3)
    calls = []
    assert blocks.run_blocks(_recording_work(calls), [], _scratch) == []
    assert calls == []


@pytest.mark.parametrize("missing", [False, True])
def test_no_openblas_found_keeps_running_and_says_so_once(tmp_path, capsys, missing):
    # an MKL or Accelerate build of numpy ships no OpenBLAS to set
    blocks.one_blas_thread(str(tmp_path / "absent" if missing else tmp_path))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "BLAS thread count" in captured.err


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the environments the old model of OpenBLAS's variables was checked against, and more
_THREAD_ENVS = [
    {},
    {"OPENBLAS_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "2"},
    {"OPENBLAS_NUM_THREADS": "64"},
    {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": " 1x"},
    {"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "2"},
    {"OMP_NUM_THREADS": "4"},
    {"MKL_NUM_THREADS": "1"},
    {"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"},
]

_LOADED_BLAS_THREADS = """
import ctypes, os
import numpy as np
import radiogan
libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
for name in [name for name in sorted(os.listdir(libdir)) if "openblas" in name] if os.path.isdir(libdir) else []:
    lib = ctypes.CDLL(os.path.join(libdir, name))
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
        if hasattr(lib, symbol):
            print(getattr(lib, symbol)())  # the count the loaded library runs
"""


@pytest.mark.parametrize("env", _THREAD_ENVS)
def test_importing_radiogan_runs_the_loaded_openblas_on_one_thread(env):
    clean = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    clean["PYTHONPATH"] = os.pathsep.join([os.path.dirname(os.path.dirname(blocks.__file__)), clean.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_BLAS_THREADS], env={**clean, **env}, capture_output=True, text=True, check=True
    )
    if not done.stdout.strip():
        pytest.skip("numpy's bundled OpenBLAS was not found")
    assert done.stdout.split() == ["1"]
    assert "no OpenBLAS" not in done.stderr


@pytest.mark.parametrize("env", _THREAD_ENVS[:4])
def test_blas_thread_variables_do_not_change_the_worker_count(monkeypatch, env):
    # BLAS runs one thread, so the blocks take every CPU whatever the variables say
    for var in _THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(blocks, "cpu_count", lambda: 3)
    calls = []
    assert blocks.run_blocks(_recording_work(calls), range(8), _scratch) == [10 * b for b in range(8)]
    assert len(calls) == 3


def test_cpu_count_reads_the_affinity_mask():
    assert blocks.cpu_count() >= 1
    if hasattr(blocks.os, "sched_getaffinity"):
        assert blocks.cpu_count() == len(blocks.os.sched_getaffinity(0))


@pytest.mark.parametrize("failing_block", [0, 5, 9])
def test_a_worker_exception_reaches_the_caller(monkeypatch, failing_block):
    monkeypatch.setattr(blocks, "cpu_count", lambda: 3)
    finished = []

    def work(run, buffers):
        if failing_block in run:
            raise ArithmeticError(f"block {failing_block}")
        time.sleep(0.05)
        finished.append(run[0])
        return list(run)

    with pytest.raises(ArithmeticError, match=f"block {failing_block}"):
        blocks.run_blocks(work, range(10), lambda: None)
    # every other run had finished before the error was raised
    assert len(finished) == 2


def test_the_first_failing_run_in_block_order_wins(monkeypatch):
    monkeypatch.setattr(blocks, "cpu_count", lambda: 3)

    def work(run, buffers):
        if run[0] > 0:
            raise LookupError(f"run from {run[0]}")
        return list(run)

    with pytest.raises(LookupError, match="run from 3"):
        blocks.run_blocks(work, range(9), lambda: None)


def _conv_case():
    layer = Conv1DLayer.create(8, 32, 5)
    layer.bias = np.random.default_rng(6).standard_normal(8)
    x = np.random.default_rng(7).standard_normal((64, 2048))
    return layer, x


def _child_forward(conn):
    try:
        layer, x = _conv_case()
        out, _ = layer.forward(x)
        conn.send((out.tobytes(), blocks._pool_key))
    finally:
        conn.close()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fork start method")
def test_forked_child_starts_its_own_pool_and_matches_the_parent(monkeypatch):
    monkeypatch.setattr(blocks, "cpu_count", lambda: 2)
    layer, x = _conv_case()
    want, _ = layer.forward(x)  # the parent's pool now exists
    assert blocks._pool_key == (blocks.os.getpid(), 2)
    ctx = multiprocessing.get_context("fork")
    parent_end, child_end = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_forward, args=(child_end,))
    child.start()
    child_end.close()
    try:
        assert parent_end.poll(60), "the forked child produced no result"
        got, child_key = parent_end.recv()
    finally:
        child.join(60)
    assert child.exitcode == 0
    assert got == want.tobytes()
    assert child_key == (child.pid, 2)
