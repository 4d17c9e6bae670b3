"""The row-block runner: order, contiguous runs, nesting, errors, one CPU, fork, the BLAS setter, the heap policies."""

import importlib.util
import multiprocessing
import os
import random
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest

from radiogan import blocks
from radiogan.net.layers import Conv1DLayer


def _recording_work(calls):
    """Work that records ``(block, run buffers, thread)`` and returns ``10 * block``."""

    def work(block, buffers):
        assert buffers[0] == "made by" and buffers[1] == threading.main_thread().ident
        calls.append((block, buffers[2], threading.get_ident()))
        return block * 10

    return work


def _scratch():
    _scratch.made += 1
    return ("made by", threading.get_ident(), _scratch.made)


_scratch.made = 0


def _runs(calls):
    """The blocks each set of run buffers saw, in the order they were worked."""
    runs = {}
    for block, run, _ in calls:
        runs.setdefault(run, []).append(block)
    return sorted(runs.values())


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("n_blocks", [1, 2, 4, 7, 11])
def test_results_come_back_in_block_order_from_contiguous_runs(monkeypatch, workers, n_blocks):
    monkeypatch.setattr(blocks, "cpu_count", lambda: workers)
    calls = []
    made = _scratch.made
    assert blocks.run_blocks(_recording_work(calls), range(n_blocks), _scratch) == [10 * b for b in range(n_blocks)]
    assert sorted(block for block, _, _ in calls) == list(range(n_blocks))  # each block once
    runs = _runs(calls)
    assert len(runs) == min(workers, n_blocks) == _scratch.made - made  # one set of buffers a run
    for run in runs:  # whole, contiguous, in order
        assert run == list(range(run[0], run[0] + len(run)))
    assert [b for run in runs for b in run] == list(range(n_blocks))
    assert max(map(len, runs)) - min(map(len, runs)) <= 1
    for run in runs:  # a run stays on one thread; the caller runs the first itself
        threads = {thread for block, _, thread in calls if block in run}
        assert len(threads) == 1
        if 0 in run:
            assert threads == {threading.get_ident()}


def test_work_gets_none_without_a_scratch(monkeypatch):
    monkeypatch.setattr(blocks, "cpu_count", lambda: 2)
    seen = []
    assert blocks.run_blocks(lambda block, buffers: seen.append(buffers) or block, range(4)) == [0, 1, 2, 3]
    assert seen == [None] * 4


def test_one_cpu_runs_serially_and_creates_no_pool(monkeypatch):
    monkeypatch.setattr(blocks, "cpu_count", lambda: 1)
    monkeypatch.setattr(blocks, "_pool", None)
    monkeypatch.setattr(blocks, "_pool_key", None)
    calls = []
    assert blocks.run_blocks(_recording_work(calls), range(6), _scratch) == [0, 10, 20, 30, 40, 50]
    assert [block for block, _, _ in calls] == list(range(6))
    assert {thread for _, _, thread in calls} == {threading.get_ident()}
    assert len(_runs(calls)) == 1
    assert blocks._pool is None


def test_no_blocks_runs_nothing(monkeypatch):
    monkeypatch.setattr(blocks, "cpu_count", lambda: 3)
    calls = []
    made = _scratch.made
    assert blocks.run_blocks(_recording_work(calls), [], _scratch) == []
    assert calls == []
    assert _scratch.made == made


@pytest.mark.parametrize("missing", [False, True])
def test_no_openblas_found_keeps_running_and_says_so_once(tmp_path, capsys, missing):
    # an MKL or Accelerate build of numpy ships no OpenBLAS to set
    blocks.one_blas_thread(str(tmp_path / "absent" if missing else tmp_path))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "BLAS thread count" in captured.err


@pytest.mark.parametrize("has_mallopt", [False, True], ids=["no mallopt", "mallopt refuses"])
@pytest.mark.parametrize("policy, settings", [
    (blocks.keep_heap_mapped, [(-3, 16 << 20), (-1, 64 << 20)]),  # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD
    (blocks.one_malloc_arena, [(-8, 1)]),  # M_ARENA_MAX
], ids=["keep_heap_mapped", "one_malloc_arena"])
def test_a_heap_policy_is_a_silent_no_op_without_a_working_mallopt(monkeypatch, capsys, has_mallopt, policy, settings):
    calls = []

    def refusing_mallopt(param, value):
        calls.append((param, value))
        return 0

    libc = types.SimpleNamespace(**({"mallopt": refusing_mallopt} if has_mallopt else {}))
    monkeypatch.setattr(blocks.ctypes, "CDLL", lambda name: libc)
    policy()
    assert capsys.readouterr() == ("", "")
    assert calls == (settings if has_mallopt else [])


def test_keep_heap_mapped_twice_draws_no_random_number_and_calls_no_traced_name(monkeypatch, capsys):
    # the benchmark's tracer, which wraps every name its per-layer counts come from
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    np_state, py_state = np.random.get_state(), random.getstate()
    with tracer.recording("heap"):
        blocks.keep_heap_mapped()
        blocks.keep_heap_mapped()
    assert tracer.spans == []
    assert random.getstate() == py_state
    after = np.random.get_state()
    assert after[0] == np_state[0] and np.array_equal(after[1], np_state[1]) and after[2:] == np_state[2:]
    assert capsys.readouterr() == ("", "")


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
    assert len(_runs(calls)) == 3


def test_cpu_count_reads_the_affinity_mask():
    assert blocks.cpu_count() >= 1
    if hasattr(blocks.os, "sched_getaffinity"):
        assert blocks.cpu_count() == len(blocks.os.sched_getaffinity(0))


@pytest.mark.parametrize("os_count,expected", [(5, 5), (None, 1)])
def test_cpu_count_falls_back_to_os_cpu_count_without_an_affinity_mask(monkeypatch, os_count, expected):
    # as on a platform without sched_getaffinity; os.cpu_count() may be None
    monkeypatch.delattr(blocks.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(blocks.os, "cpu_count", lambda: os_count)
    assert blocks.cpu_count() == expected


@pytest.mark.parametrize("failing_block", [0, 5, 9])
def test_a_worker_exception_reaches_the_caller_after_every_run_ends(monkeypatch, failing_block):
    # 10 blocks on 3 workers run as [0, 3), [3, 6) and [6, 10)
    monkeypatch.setattr(blocks, "cpu_count", lambda: 3)
    finished = []

    def work(block, buffers):
        if block == failing_block:
            raise ArithmeticError(f"block {block}")
        time.sleep(0.05)
        finished.append(block)
        return block

    with pytest.raises(ArithmeticError, match=f"block {failing_block}"):
        blocks.run_blocks(work, range(10), lambda: None)
    # the failing run stopped at its failing block; every other run had finished
    run_end = next(end for end in (3, 6, 10) if failing_block < end)
    assert sorted(finished) == [b for b in range(10) if not failing_block <= b < run_end]


@pytest.mark.parametrize("failing", [{3, 4, 6, 7}, {5, 6}, {1, 8}, {7, 8}])
def test_the_first_failing_block_in_block_order_wins(monkeypatch, failing):
    monkeypatch.setattr(blocks, "cpu_count", lambda: 3)

    def work(block, buffers):
        if block in failing:
            raise LookupError(f"block {block}")
        return block

    with pytest.raises(LookupError, match=f"block {min(failing)}"):
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


@pytest.mark.parametrize(
    "rows, sizes",
    [(0, [0]), (1, [1]), (127, [127]), (128, [128]), (255, [255]), (256, [128, 128]), (300, [128, 172]),
     (12345, [128] * 95 + [185])],
)
def test_joined_blocks_join_a_short_remainder_to_the_last_block(rows, sizes):
    cuts = blocks.joined_blocks(rows, 128)
    assert [s.stop - s.start for s in cuts] == sizes
    assert cuts[0].start == 0 and cuts[-1].stop == rows
    assert all(a.stop == b.start for a, b in zip(cuts, cuts[1:]))


def _nested_work(inner_calls):
    """Work whose block is a task id; each task runs five inner blocks through a
    nested ``run_blocks`` and returns their results."""

    def inner(block, _):
        inner_calls.append((block, threading.get_ident()))
        return block

    def outer(task, _):
        return (threading.get_ident(), blocks.run_blocks(lambda b, buf: inner((task, b), buf), range(5)))

    return outer


def _within(seconds, fn, *args):
    """``fn(*args)`` run in a daemon thread, failing if it has not returned after
    ``seconds``: a nested call that waited on a busy pool would never return."""
    outcome = []

    def target():
        try:
            outcome.append((True, fn(*args)))
        except BaseException as exc:  # handed to the test's thread below
            outcome.append((False, exc))

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), "a nested run_blocks call deadlocked"
    returned, value = outcome[0]
    if not returned:
        raise value
    return value, runner.ident


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_nested_call_runs_its_blocks_in_order_in_the_thread_that_made_it(monkeypatch, workers):
    # two CPUs make a pool of one worker, which runs the second task itself
    monkeypatch.setattr(blocks, "cpu_count", lambda: workers)
    inner_calls = []
    results, caller = _within(60, blocks.run_blocks, _nested_work(inner_calls), range(3))
    for task, (thread, inner_results) in enumerate(results):
        assert inner_results == [(task, b) for b in range(5)]
        ran = [(block, t) for block, t in inner_calls if block[0] == task]
        assert [block for block, _ in ran] == [(task, b) for b in range(5)]  # in block order
        assert {t for _, t in ran} == {thread}  # where the task ran
    assert results[0][0] == caller
    # the caller is back to splitting its blocks into one run per worker
    calls = []
    blocks.run_blocks(_recording_work(calls), range(6), _scratch)
    assert len(_runs(calls)) == min(workers, 6)


@pytest.mark.parametrize("failing_task", [0, 1])
def test_a_nested_exception_reaches_the_outer_caller_after_every_run_ends(monkeypatch, failing_task):
    monkeypatch.setattr(blocks, "cpu_count", lambda: 2)
    finished = []

    def inner(block, _):
        task, b = block
        if task == failing_task and b == 2:
            raise ArithmeticError(f"task {task} block {b}")
        time.sleep(0.02)
        finished.append(block)

    def outer(task, _):
        blocks.run_blocks(lambda b, buf: inner((task, b), buf), range(5))

    def run_and_check_the_flag():
        try:
            blocks.run_blocks(outer, range(2))
        finally:
            assert not getattr(blocks._in_work, "active", False)  # the caller is no longer inside work

    with pytest.raises(ArithmeticError, match=f"task {failing_task} block 2"):
        _within(60, run_and_check_the_flag)
    # the failing task stopped at its failing block; the other one had finished
    other = 1 - failing_task
    assert sorted(finished) == sorted([(failing_task, 0), (failing_task, 1)] + [(other, b) for b in range(5)])


def _two_conv_tasks():
    """Two conv1d forwards handed to the pool as tasks; their own row blocks nest."""
    layer, x = _conv_case()
    tasks = [lambda: layer.forward(x)[0], lambda: layer.forward(x[::-1].copy())[0]]
    return [out.tobytes() for out in blocks.run_blocks(lambda task, _: task(), tasks)]


def test_nested_results_are_the_same_on_one_cpu_and_on_two(monkeypatch):
    layer, x = _conv_case()
    want = [layer.forward(x)[0].tobytes(), layer.forward(x[::-1].copy())[0].tobytes()]
    for cpus in (1, 2):
        monkeypatch.setattr(blocks, "cpu_count", lambda: cpus)
        assert _within(60, _two_conv_tasks)[0] == want
