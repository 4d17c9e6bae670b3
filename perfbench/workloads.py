"""The three benchmark workloads: set-up, one closed-loop operation, checks.

Every operation drives ``radiogan.cli.main`` exactly as a user would, with
arguments derived from the workload seed. Checks compare repetitions of the
same operation with each other, never against a committed digest, because a
faster kernel may legitimately change the rounding.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from radiogan import cli
from radiogan.dsp import raised_cosine_taps
from radiogan.gan import TrainingLog, load_gan
from radiogan.iqcore import frame_tensor, load_iq, normalize_frames
from radiogan.seeding import substream
from radiogan.synthesis import (
    DEFAULT_RC_LENGTH,
    DEFAULT_ROLLOFF,
    GEN_PACKETS_PER_PROTOTYPE_PACKET,
    assemble_iq,
    generate_packets,
)
from radiogan.validation import ValidationReport

PUBLISHED_PACKETS = 128  # packets per frame of the published-scale prototype
PUBLISHED_SAMPLES = 2 * PUBLISHED_PACKETS * 2048
GEN_SNR_DB = -27.0  # midpoint of the default training SNR range, the CLI default
SLICE_PACKETS = 4  # packets of the stream compared against np.convolve


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "generate_validate"
    n_fft: int
    proto_args: tuple
    train_args: tuple
    epochs: int  # adversarial epochs per rail in one train operation


WORKLOADS = {
    # The acceptance configuration: conv1d einsum dominates, no DSP runs.
    "desk_train": Workload(
        "desk_train", "train", 256, (),
        ("--nfft", "256", "--frames", "2", "--examples", "64", "--eta-g", "0.005"), 20,
    ),
    # CLI defaults (n_fft 2048, batch 300, 128 examples, 1 pretrain epoch);
    # the prototype holds 128 packets per frame.
    "published_train": Workload(
        "published_train", "train", 2048, ("--samples", str(PUBLISHED_SAMPLES)), (), 1,
    ),
    # Default-size generate (20 x 128 packets) then validate of that file; the
    # checkpoint is untrained because generate and validate cost the same
    # whatever the weights.
    "generate_validate": Workload(
        "generate_validate", "generate_validate", 2048,
        ("--samples", str(PUBLISHED_SAMPLES)), ("--epochs", "0"), 0,
    ),
}


class CheckFailed(Exception):
    """An output check failed; the operation counts as failed."""


def _run_cli(argv, around=nullcontext) -> int:
    """Call the program; ``around()`` encloses only the call, never the checks."""
    with around():
        return cli.main([str(a) for a in argv])


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _frame(seed: int) -> int:
    return seed % 2


def prepare(w: Workload, seed: int, out: Path) -> None:
    """Set-up: prototype synthesis, framing, and for generate_validate the checkpoint."""
    out.mkdir(parents=True, exist_ok=True)
    proto = out / "proto.iq"
    if _run_cli(["protogen", "--preset", "qpsk-burst", *w.proto_args,
                 "--out", proto, "--seed", seed, "--quiet"]) != 0:
        raise RuntimeError("protogen failed during set-up")
    # Framing is part of what a user pays before training; train repeats it.
    normalize_frames(frame_tensor(load_iq(proto), w.n_fft, 2))
    if w.kind == "generate_validate":
        if _run_cli(["train", "--proto", proto, "--out-dir", out / "run", *w.train_args,
                     "--seed", seed, "--quiet"]) != 0:
            raise RuntimeError("checkpoint train failed during set-up")


def setup_digest(w: Workload, out: Path) -> str:
    files = [out / "proto.iq", out / "proto.iq.meta"]
    if w.kind == "generate_validate":
        files += [out / "run" / "model_i.psg", out / "run" / "model_q.psg", out / "run" / "run.meta"]
    return _digest(*files)


@dataclass
class OpResult:
    seconds: float = 0.0
    stages: dict = field(default_factory=dict)  # stage name -> seconds
    epoch_ms: list = field(default_factory=list)
    digest: str = ""
    computed: dict = field(default_factory=dict)  # byte counts from file sizes
    checks: dict = field(default_factory=dict)  # measured margins of the output checks
    failure: str | None = None


@contextmanager
def _stage_timer(module, attr, sink: list):
    """Time each call of module.attr; restores the original on exit."""
    original = getattr(module, attr)

    def timed(*args, **kwargs):
        tic = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - tic)

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, original)


def _strip_wall_ms(log_path: Path) -> bytes:
    lines = log_path.read_text(encoding="utf-8").splitlines()
    return "\n".join(line.rsplit(",", 1)[0] for line in lines).encode()


def train_op(w: Workload, seed: int, setup_dir: Path, op_dir: Path, res: OpResult, around) -> None:
    pretrain = []
    argv = ["train", "--proto", setup_dir / "proto.iq", "--out-dir", op_dir, *w.train_args,
            "--epochs", w.epochs, "--seed", seed, "--quiet"]
    with _stage_timer(cli, "pretrain_discriminator", pretrain):
        tic = time.perf_counter()
        rc = _run_cli(argv, around)
        res.seconds = time.perf_counter() - tic
    res.stages = {"train_s": res.seconds, "pretrain_s": sum(pretrain)}
    if rc != 0:
        raise CheckFailed(f"train exited {rc}")
    h = hashlib.sha256()
    for rail in ("i", "q"):
        log_path = op_dir / f"train_log_{rail}.csv"
        log = TrainingLog.from_csv(log_path)
        if len(log) != w.epochs:
            raise CheckFailed(f"rail {rail}: {len(log)} epochs logged, expected {w.epochs}")
        if not (np.all(np.isfinite(log.d_loss)) and np.all(np.isfinite(log.g_loss))):
            raise CheckFailed(f"rail {rail}: non-finite loss logged")
        res.epoch_ms += log.wall_ms
        model_path = op_dir / f"model_{rail}.psg"
        model = load_gan(model_path)
        if model.n_fft != w.n_fft or model.component != rail.upper():
            raise CheckFailed(f"{model_path.name} loads as n_fft={model.n_fft}, rail {model.component}")
        h.update(model_path.read_bytes())
        h.update(_strip_wall_ms(log_path))
        res.computed[f"checkpoint_{rail}_bytes"] = model_path.stat().st_size
    h.update((op_dir / "run.meta").read_bytes())
    res.digest = h.hexdigest()


def _reference_slice(setup_dir: Path, seed: int, first: int):
    """Rebuild packets [first, first + SLICE_PACKETS) of the generated stream
    from the same seeds through the public functions, filtered by np.convolve."""
    run = setup_dir / "run"
    gens = [load_gan(run / f"model_{rail}.psg").generator for rail in ("i", "q")]
    n_fft = gens[0].n_fft
    _, stats = normalize_frames(frame_tensor(load_iq(setup_dir / "proto.iq"), n_fft, 2))
    n_rows = first + SLICE_PACKETS + 1  # one packet past the slice covers the filter tail
    i_mat, q_mat = (
        generate_packets(g, n_rows, GEN_SNR_DB, substream(seed, "synthesis", "latent", rail))
        for g, rail in zip(gens, ("I", "Q"))
    )
    stream = assemble_iq(i_mat, q_mat, float(stats.per_frame_power[_frame(seed)])).reshape(-1)
    taps = raised_cosine_taps(DEFAULT_RC_LENGTH, DEFAULT_ROLLOFF).taps
    delay = (DEFAULT_RC_LENGTH - 1) // 2
    full = np.convolve(stream, taps)
    lo, hi = first * n_fft, (first + SLICE_PACKETS) * n_fft
    return full[lo + delay : hi + delay], lo, hi


def generate_validate_op(w: Workload, seed: int, setup_dir: Path, op_dir: Path,
                         res: OpResult, around, check_slice: bool) -> None:
    op_dir.mkdir(parents=True, exist_ok=True)
    run, gen, val = setup_dir / "run", op_dir / "gen.iq", op_dir / "val"
    tic = time.perf_counter()
    rc_gen = _run_cli(["generate", "--run-dir", run, "--out", gen, "--seed", seed,
                       "--frame", _frame(seed), "--snr", repr(GEN_SNR_DB), "--quiet"], around)
    mid = time.perf_counter()
    rc_val = _run_cli(["validate", "--proto", setup_dir / "proto.iq", "--run-dir", run,
                       "--generated", gen, "--out-dir", val, "--seed", seed, "--quiet"], around)
    res.seconds = time.perf_counter() - tic
    res.stages = {"generate_s": mid - tic, "validate_s": res.seconds - (mid - tic)}
    if rc_gen != 0:
        raise CheckFailed(f"generate exited {rc_gen}")
    expected = GEN_PACKETS_PER_PROTOTYPE_PACKET * PUBLISHED_PACKETS * w.n_fft * 8
    size = gen.stat().st_size
    if size != expected:
        raise CheckFailed(f"payload is {size} bytes, expected {expected}")
    payload = np.fromfile(gen, dtype="<f4")
    if not np.all(np.isfinite(payload)):
        raise CheckFailed("payload holds non-finite samples")
    res.computed["payload_bytes"] = size
    if check_slice:
        ref, lo, hi = _reference_slice(setup_dir, seed, seed % 6)
        got = payload[2 * lo : 2 * hi : 2] + 1j * payload[2 * lo + 1 : 2 * hi : 2]
        err = float(np.max(np.abs(got - ref)))
        tol = 16 * float(np.finfo(np.float32).eps) * float(np.max(np.abs(ref)))
        res.checks.update(slice_max_abs_err=err, slice_tol=tol)
        if not err <= tol:
            raise CheckFailed(f"stream slice differs from np.convolve reference by {err:.3g} (tol {tol:.3g})")
    if rc_val not in (0, 1):
        raise CheckFailed(f"validate exited {rc_val}")
    report = ValidationReport.from_text((val / "report.txt").read_text(encoding="utf-8"))
    if (rc_val == 0) != (report.verdict == "pass"):
        raise CheckFailed(f"validate exited {rc_val} with verdict {report.verdict!r}")
    res.digest = _digest(gen, val / "report.txt")


def run_op(w: Workload, seed: int, setup_dir: Path, op_dir: Path, first: bool,
           around=nullcontext) -> OpResult:
    """One closed-loop operation with its output checks; never raises on a
    failed operation, which is recorded in ``failure`` instead. ``around()``
    encloses each program call (the tracer, on traced operations)."""
    shutil.rmtree(op_dir, ignore_errors=True)
    res = OpResult()
    try:
        if w.kind == "train":
            train_op(w, seed, setup_dir, op_dir, res, around)
        else:
            generate_validate_op(w, seed, setup_dir, op_dir, res, around, check_slice=first)
    except CheckFailed as exc:
        res.failure = str(exc)
    except Exception as exc:  # an exception escaping the program is a failed operation
        res.failure = f"{type(exc).__name__}: {exc}"
    return res
