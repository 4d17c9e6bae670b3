"""Training loop behaviour: determinism, the SNR schedule, pretraining, stopping."""

import ctypes
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiogan import gan
from radiogan.gan import (
    GanModel,
    TrainConfig,
    TrainingDiverged,
    TrainingLog,
    build_discriminator,
    build_generator,
    load_gan,
    pretrain_discriminator,
    save_gan,
    train,
)
from radiogan.iqcore import IQRecording, frame_tensor, normalize_frames
from radiogan.net.checkpoint import CheckpointError
from radiogan.seeding import substream

N_FFT = 64


def _frames(seed=0, n_frames=1, n_packets=20):
    rng = np.random.default_rng(seed)
    n = n_frames * n_packets * N_FFT
    t = np.arange(n)
    carrier = np.exp(2j * np.pi * 0.21 * t)
    z = 0.9 * carrier + 0.15 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    rec = IQRecording(samples=z, sample_rate_hz=1e6, center_freq_hz=2.4e9, rx_gain_db=10.0)
    return normalize_frames(frame_tensor(rec, N_FFT, n_frames))


def _models(seed=0):
    g = build_generator(N_FFT, substream(seed, "init", "I", "generator"), width=16)
    d = build_discriminator(
        N_FFT,
        substream(seed, "init", "I", "discriminator"),
        n_kernels=4,
        kernel_len=16,
        width=8,
    )
    return g, d


def _cfg(**overrides):
    base = dict(n_epoch=12, n_examples=16, s_batch=40, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def _packets():
    frames, _ = _frames()
    return frames[0].real


def _run(seed=0, **cfg_overrides):
    """Train fresh I-rail nets; returns the trained ``GanModel`` and the log."""
    g, d = _models(seed)
    cfg = _cfg(seed=seed, **cfg_overrides)
    g_opt, d_opt, log = train(g, d, _packets(), "I", cfg)
    return GanModel(g, d, g_opt, d_opt, cfg, "I", 0), log


def test_two_runs_same_seed_identical():
    model_a, log_a = _run(seed=3)
    model_b, log_b = _run(seed=3)
    assert log_a.d_loss == log_b.d_loss
    assert log_a.g_loss == log_b.g_loss
    assert log_a.d_accuracy == log_b.d_accuracy
    assert log_a.snr_db == log_b.snr_db
    # wall_ms is the one permitted difference
    for pa, pb in zip(model_a.generator.params(), model_b.generator.params()):
        assert np.array_equal(pa, pb)
    for pa, pb in zip(model_a.discriminator.params(), model_b.discriminator.params()):
        assert np.array_equal(pa, pb)


def test_different_seeds_diverge():
    _, log_a = _run(seed=1)
    _, log_b = _run(seed=2)
    assert log_a.snr_db != log_b.snr_db


def test_training_leaves_packets_untouched():
    packets = _packets()
    before = packets.copy()
    g, d = _models()
    train(g, d, packets, "I", _cfg())
    assert np.array_equal(packets, before)


def test_log_rows_are_sane():
    _, log = _run(seed=5)
    assert len(log) == 12
    assert all(np.isfinite(v) for v in log.d_loss)
    assert all(np.isfinite(v) for v in log.g_loss)
    assert all(0.0 <= a <= 1.0 for a in log.d_accuracy)
    assert all(-30.0 <= s <= -24.0 for s in log.snr_db)
    assert all(w >= 0 for w in log.wall_ms)


def test_logged_snr_follows_named_substream():
    # the per-epoch virtual SNR must be reproducible from the seed alone
    _, log = _run(seed=9)
    rng = substream(9, "train", "I", "snr")
    expect = [float(rng.uniform(-30.0, -24.0)) for _ in range(len(log))]
    assert log.snr_db == pytest.approx(expect, abs=0.0)


def test_snr_schedule_is_uniform_over_range():
    # decile chi-square on 10^4 single draws; 27.877 is the 99.9% point for 9 dof
    rng = substream(0, "train", "I", "snr")
    lo, hi = -30.0, -24.0
    draws = np.array([float(rng.uniform(lo, hi)) for _ in range(10_000)])
    assert draws.min() >= lo and draws.max() <= hi
    counts, _ = np.histogram(draws, bins=10, range=(lo, hi))
    expected = draws.size / 10.0
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert chi2 < 27.877


def test_early_stop_band_halts_training():
    # a band covering [0,1] trips as soon as the patience window fills
    _, log = _run(seed=0, n_epoch=200, early_stop_band=(0.0, 1.0), early_stop_patience=5)
    assert len(log) == 5


def test_early_stop_band_can_never_trip():
    _, log = _run(seed=0, n_epoch=8, early_stop_band=(0.999, 1.0), early_stop_patience=2)
    assert len(log) == 8


def test_lr_decay_changes_trajectory():
    _, log_flat = _run(seed=4)
    _, log_decay = _run(seed=4, lr_decay=0.9)
    assert log_flat.snr_db == log_decay.snr_db  # same draws ...
    assert log_flat.d_loss != log_decay.d_loss  # ... different updates


def test_train_input_validation():
    packets = _packets()
    g, d = _models()
    with pytest.raises(ValueError, match="component"):
        train(g, d, packets, "X", _cfg())
    with pytest.raises(ValueError, match="non-empty 2-D"):
        train(g, d, packets[0], "I", _cfg())
    with pytest.raises(ValueError, match="non-empty 2-D"):
        train(g, d, packets[:0], "I", _cfg())
    with pytest.raises(ValueError, match="exceeds available packets"):
        train(g, d, packets, "I", _cfg(n_examples=21))
    with pytest.raises(ValueError, match="s_batch"):
        train(g, d, packets, "I", _cfg(s_batch=64))


def test_train_rejects_mismatched_widths():
    g = build_generator(128, 0, width=16)
    d = build_discriminator(128, 0, n_kernels=4, kernel_len=16, width=8)
    with pytest.raises(ValueError, match="widths"):
        train(g, d, _packets(), "I", _cfg())


def test_pretrain_zero_epochs_is_identity():
    _, d = _models(seed=6)
    before = [p.copy() for p in d.params()]
    frames, _ = _frames()
    out = pretrain_discriminator(d, frames[0].real, _cfg(n_epoch_pretrain=0), "I")
    for p, q in zip(before, out.params()):
        assert np.array_equal(p, q)


def test_pretrain_moves_weights_and_separates():
    frames, _ = _frames()
    packets = frames[0].real
    _, d = _models(seed=6)

    def separation(net):
        sigma2 = 10 ** (2.7)  # latent variance at the schedule midpoint
        noise = substream(99, "probe").normal(0.0, np.sqrt(sigma2), packets.shape)
        p_real = net.predict(packets)[:, 0]
        p_noise = net.predict(noise)[:, 0]
        return float(np.mean(p_real) - np.mean(p_noise))

    before = separation(d)
    pretrain_discriminator(d, packets, _cfg(n_epoch_pretrain=100, eta_d=3e-3), "I")
    after = separation(d)
    assert after > before
    assert after > 0.5


def test_both_training_loops_keep_the_heap_mapped_and_no_bit_depends_on_it(monkeypatch):
    def run():
        g, d = _models(seed=3)
        pretrain_discriminator(d, _packets(), _cfg(seed=3), "I")
        return g, d, train(g, d, _packets(), "I", _cfg(seed=3))[2]

    g_a, d_a, log_a = run()
    calls = []
    monkeypatch.setattr(gan, "keep_heap_mapped", lambda: calls.append(None))
    g_b, d_b, log_b = run()
    assert len(calls) == 2  # once as each loop starts, not per step
    assert (log_a.d_loss, log_a.g_loss, log_a.d_accuracy) == (log_b.d_loss, log_b.g_loss, log_b.d_accuracy)
    for pa, pb in zip(g_a.params() + d_a.params(), g_b.params() + d_b.params()):
        assert np.array_equal(pa, pb)


def _refuse_after(monkeypatch, n_steps):
    """Let ``n_steps`` Adam steps through, then refuse every later one as a non-finite gradient."""
    calls = []

    def step(params, grads, state):
        calls.append(None)
        if len(calls) > n_steps:
            raise ValueError("non-finite gradient")
        real_adam_step(params, grads, state)

    real_adam_step = gan.adam_step
    monkeypatch.setattr(gan, "adam_step", step)


def test_train_diverges_with_the_log_so_far_when_a_step_is_refused(monkeypatch):
    _, unrefused = _run()
    # one discriminator and one generator step an epoch: the fifth step is epoch 2's first
    _refuse_after(monkeypatch, 4)
    g, d = _models()
    with pytest.raises(TrainingDiverged) as caught:
        train(g, d, _packets(), "I", _cfg())
    assert str(caught.value) == "I-component training diverged: epoch 2: non-finite gradient"
    assert caught.value.log.d_loss == unrefused.d_loss[:2]


def test_pretraining_diverges_with_an_empty_log_when_a_step_is_refused(monkeypatch):
    _refuse_after(monkeypatch, 0)
    _, d = _models()
    with pytest.raises(TrainingDiverged) as caught:
        pretrain_discriminator(d, _packets(), _cfg(), "Q")
    assert str(caught.value) == "Q-component pretraining diverged: epoch 0: non-finite gradient"
    assert len(caught.value.log) == 0


def test_train_diverges_with_the_log_so_far_on_a_non_finite_loss(monkeypatch):
    losses = iter([0.25, float("nan")])
    monkeypatch.setattr(gan, "generator_loss", lambda d_fake: next(losses))
    g, d = _models()
    with pytest.raises(TrainingDiverged, match=r"^I-component training diverged: non-finite loss at epoch 1: "
                                               r"d_loss=[0-9.]+, g_loss=nan$") as caught:
        train(g, d, _packets(), "I", _cfg())
    assert caught.value.log.g_loss == [0.25]


# A desk-shape train after a warm-up one, in a fresh interpreter; prints the
# minor page faults of the second train.
_TRAIN_FAULTS = """
import resource, sys
from radiogan.cli import main
tmp = sys.argv[1]
assert main(["protogen", "--preset", "qpsk-burst", "--seed", "7", "--out", tmp + "/proto.iq"]) == 0
args = ["train", "--proto", tmp + "/proto.iq", "--nfft", "256", "--frames", "2", "--examples", "64", "--quiet"]
assert main(args + ["--out-dir", tmp + "/warm", "--epochs", "2"]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(args + ["--out-dir", tmp + "/run", "--epochs", "5"]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_training_steps_reuse_the_heap_instead_of_faulting_it_back_in(tmp_path):
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("libc has no mallopt")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(os.path.dirname(gan.__file__)), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _TRAIN_FAULTS, str(tmp_path)], env=env, capture_output=True, text=True, check=True
    )
    faults = int(done.stdout.split()[-1])
    # about 2,600 per rail-epoch when glibc trims the heap after every step
    assert faults < 100 * 5 * 2, f"{faults} minor page faults over 5 epochs x 2 rails"


def test_pretrain_rejects_insufficient_packets():
    frames, _ = _frames()
    _, d = _models()
    with pytest.raises(ValueError):
        pretrain_discriminator(d, frames[0].real, _cfg(n_examples=64), "I")
    with pytest.raises(ValueError):
        pretrain_discriminator(d, np.empty((0, N_FFT)), _cfg(), "I")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "row",
    [
        (NAN, 0.5, 0.5, -27.0, 1),
        (INF, 0.5, 0.5, -27.0, 1),
        (0.5, -INF, 0.5, -27.0, 1),
        (0.5, NAN, 0.5, -27.0, 1),
        (0.5, 0.5, NAN, -27.0, 1),
        (0.5, 0.5, 0.5, NAN, 1),
        (0.5, 0.5, 0.5, INF, 1),
        (0.5, 0.5, 0.5, -27.0, -1),
    ],
    ids=["nan_d_loss", "inf_d_loss", "inf_g_loss", "nan_g_loss", "nan_accuracy", "nan_snr", "inf_snr",
         "negative_wall_ms"],
)
def test_training_log_refuses_non_finite_values_and_negative_wall_time(tmp_path, row):
    log = TrainingLog()
    with pytest.raises(ValueError):
        log.append(*row)
    assert len(log) == 0
    d_loss, g_loss, accuracy, snr_db, wall_ms = row
    path = tmp_path / "train_log_i.csv"
    path.write_text(f"epoch,d_loss,g_loss,d_accuracy,snr_db,wall_ms\n0,{d_loss!r},{g_loss!r},{accuracy!r},"
                    f"{snr_db!r},{wall_ms}\n")
    with pytest.raises(ValueError, match="train_log_i.csv"):
        TrainingLog.from_csv(path)


def test_trained_model_round_trips_through_checkpoint(tmp_path):
    model, _ = _run(seed=11)
    path = tmp_path / "gan.ckpt"
    save_gan(path, model)
    back = load_gan(path)
    z = substream(0, "z").standard_normal((4, N_FFT))
    assert np.allclose(back.generator.predict(z), model.generator.predict(z), atol=0.0)
    assert back.component == model.component
    assert back.frame == model.frame
    assert back.config == model.config
    assert back.generator_opt.step_count == model.generator_opt.step_count


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_corrupted_gan_checkpoint_is_refused_or_loads_finite(tmp_path_factory, data):
    g, d = _models(seed=3)
    path = tmp_path_factory.mktemp("fuzz") / "gan.psg"
    save_gan(path, GanModel(g, d, None, None, _cfg(), "Q", 1))
    raw = bytearray(path.read_bytes())
    # most edits land in the trailing config text, the rest anywhere
    tail = len(raw) - 400
    for _ in range(data.draw(st.integers(1, 4))):
        pos = data.draw(st.integers(tail, len(raw) - 1) | st.integers(0, len(raw) - 1))
        raw[pos] = data.draw(st.integers(0, 255))
    path.write_bytes(bytes(raw))
    try:
        model = load_gan(path)
    except CheckpointError:
        return
    params = model.generator.params() + model.discriminator.params()
    assert all(np.isfinite(p).all() for p in params)
