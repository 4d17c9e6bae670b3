"""radiogan benchmark: one closed-loop client driving the ``radiogan`` CLI.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0

Run from the repository root (or any checkout holding ``src/radiogan``).
Set-up runs several times, each in a fresh interpreter, and reports the
median. Operations then repeat back to back, at least two of them, for as
long as the next one is expected to end within ``--seconds``. Every operation
is checked; repetitions must produce identical outputs.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced operations and prints the per-layer metrics plus the
tracing overhead. The last line of stdout is the JSON result; a readable
table with sample counts precedes it, and the full record (environment block,
per-operation numbers, computed counts, spans) goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import envinfo

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"
SETUP_REPEATS = 5
MIN_OPS = 2
TAIL_SAMPLES = 10  # samples beyond the highest percentile reported
WORKLOAD_NAMES = ("desk_train", "published_train", "generate_validate")

# Gated end-to-end metrics (BENCHMARK.json); every workload reports each one.
END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _peak_rss_mb() -> float:
    # Set-up children run one at a time while this process idles, so the
    # tree's peak is the larger of the two high-water marks.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _setups(workload: str, seed: int, work: Path):
    """Run set-up SETUP_REPEATS times in fresh interpreters; returns wall times
    and the directory of the first one."""
    from workloads import WORKLOADS, setup_digest

    times, digests = [], set()
    for k in range(SETUP_REPEATS):
        out = work / f"setup{k}"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--prepare", str(out)]
        tic = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        times.append(time.perf_counter() - tic)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed (exit {proc.returncode}):\n{proc.stderr}")
        digests.add(setup_digest(WORKLOADS[workload], out))
        if k:
            shutil.rmtree(out)
    if len(digests) != 1:
        raise RuntimeError("set-up outputs differ between repetitions of the same seed")
    return times, work / "setup0"


def _closed_loop(w, seed, setup_dir, work, seconds, tracer=None):
    """Repeat the workload's operation; with a tracer, every second one is traced."""
    from workloads import run_op

    results, durations, traced = [], [], []
    start = time.perf_counter()
    while True:
        k = len(results)
        trace_this = tracer is not None and k % 2 == 1
        around = (lambda: tracer.recording(f"op{k}")) if trace_this else nullcontext
        gc.collect()
        tic = time.perf_counter()
        res = run_op(w, seed, setup_dir, work / "op", first=(k == 0), around=around)
        durations.append(time.perf_counter() - tic)
        results.append(res)
        traced.append(trace_this)
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_OPS and elapsed + statistics.median(durations) > seconds:
            return results, traced


def _judge(results):
    """Mark operations whose outputs differ from the first good repetition."""
    reference = next((r.digest for r in results if r.failure is None), None)
    for r in results:
        if r.failure is None and r.digest != reference:
            r.failure = "outputs differ from an earlier repetition with the same seed"
    return sum(r.failure is not None for r in results)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _report_metrics(w, results, setup_times, peak_mb):
    """Every end-to-end metric that applies to this workload, gated or not:
    name -> (value, unit, sample count)."""
    good = [r for r in results if r.failure is None]
    m = {"setup_s": (_median(setup_times), "s", len(setup_times))} if setup_times else {}
    if w.kind == "train":
        epochs = [ms / 1000.0 for r in good for ms in r.epoch_ms]
        m["pretrain_s"] = (_median([r.stages["pretrain_s"] for r in good]), "s", len(good))
        m["epoch_s.p50"] = (_median(epochs), "s", len(epochs))
        if len(epochs) >= 2 * TAIL_SAMPLES:
            # the highest percentile with TAIL_SAMPLES epochs beyond it
            pct = 100.0 * (1.0 - TAIL_SAMPLES / len(epochs))
            tail = statistics.quantiles(epochs, n=1000)[round(10 * pct) - 1]
            m[f"epoch_s.p{pct:g}"] = (tail, "s", len(epochs))
        m["train_s"] = (_median([r.stages["train_s"] for r in good]), "s", len(good))
    else:
        rates = [r.computed["payload_bytes"] / 8 / 1e6 / r.stages["generate_s"] for r in good]
        m["generate_msamples_per_s"] = (_median(rates), "Msample/s", len(good))
        m["validate_s"] = (_median([r.stages["validate_s"] for r in good]), "s", len(good))
    # With every operation failed the run is reported incorrect, still timed.
    op_times = [r.seconds for r in good] or [r.seconds for r in results]
    m["op_s"] = (_median(op_times), "s", len(op_times))
    m["peak_rss_mb"] = (peak_mb, "MB", 1)
    failed = sum(r.failure is not None for r in results)
    m["failed_frac"] = (failed / len(results), "frac", len(results))
    return m


def _epoch_crosscheck(w, results):
    """Mean logged epoch time over the outside-timed train call minus
    pretraining, per epoch; near 1 when wall_ms covers the epoch."""
    good = [r for r in results if r.failure is None]
    if w.kind != "train" or not good:
        return None
    logged = sum(sum(r.epoch_ms) / 1000.0 for r in good)
    outside = sum(r.stages["train_s"] - r.stages["pretrain_s"] for r in good)
    return logged / outside


def _print_table(rows):
    print(f"{'metric':<40} {'value':>14} {'unit':<10} {'n':>5}")
    for name, (value, unit, n) in rows.items():
        print(f"{name:<40} {value:>14.6g} {unit:<10} {n:>5}")


def _check_declared(metrics: dict, section: str) -> None:
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec[section]}
    produced = {name: m["unit"] for name, m in metrics.items()}
    if declared != produced:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json {section}: "
                           f"{sorted(set(declared.items()) ^ set(produced.items()))}")


def _prepare_only(args) -> int:
    from workloads import WORKLOADS, prepare

    prepare(WORKLOADS[args.workload], args.seed, Path(args.prepare))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    envinfo.pin_threads()
    src = ROOT / "src"
    if not (src / "radiogan" / "__init__.py").is_file():
        print(f"error: no radiogan sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import radiogan

    if Path(radiogan.__file__).resolve().parent != (src / "radiogan").resolve():
        print(f"error: imported radiogan from {radiogan.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.prepare:
        return _prepare_only(args)

    from workloads import WORKLOADS, prepare

    w = WORKLOADS[args.workload]
    env = envinfo.environment(ROOT)
    work = WORK_DIR / f"{w.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = None
    try:
        if args.trace:
            from tracer import Tracer, unit_of

            tracer = Tracer()  # resolves every traced name, failing loudly on a rename
            with tracer.recording("setup"):
                prepare(w, args.seed, work / "setup0")
            setup_times, setup_dir = [], work / "setup0"
        else:
            setup_times, setup_dir = _setups(w.name, args.seed, work)
        results, traced = _closed_loop(w, args.seed, setup_dir, work, args.seconds, tracer)
        if tracer is not None:
            tracer.check_expected(w.kind)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = _judge(results)
    peak_mb = _peak_rss_mb()
    report = _report_metrics(w, results, setup_times, peak_mb)
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env,
        "ops": [{"seconds": r.seconds, "traced": t, **r.stages, "failure": r.failure,
                 "computed": r.computed, "checks": r.checks, "epoch_ms": r.epoch_ms} for r, t in zip(results, traced)],
        "setup_s_samples": setup_times,
    }
    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for k, r in enumerate(results):
        if r.failure:
            print(f"op {k} FAILED: {r.failure}")

    if args.trace:
        layer = tracer.metrics()
        t_on = _median([r.seconds for r, t in zip(results, traced) if t])
        t_off = _median([r.seconds for r, t in zip(results, traced) if not t])
        layer["trace.overhead_frac"] = (t_on - t_off) / t_off
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layer.items()}
        n_traced = sum(traced)
        _print_table({n: (v["value"], v["unit"], n_traced) for n, v in metrics.items()})
        record["per_call"] = tracer.per_call()
        RESULTS_DIR.mkdir(exist_ok=True)
        tracer.write(RESULTS_DIR / f"{w.name}-seed{args.seed}-spans.jsonl")
    else:
        _print_table(report)
        ratio = _epoch_crosscheck(w, results)
        if ratio is not None:
            flag = "" if 0.9 <= ratio <= 1.1 else "  WARNING: wall_ms disagrees with outside timing"
            print(f"epoch cross-check (logged / outside-timed): {ratio:.4f}{flag}")
            record["epoch_crosscheck_ratio"] = ratio
        metrics = {name: {"value": report[name][0], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    _check_declared(metrics, "per_layer" if args.trace else "end_to_end")
    record["report"] = {n: {"value": v, "unit": u, "n": c} for n, (v, u, c) in report.items()}
    record["metrics"] = metrics
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
