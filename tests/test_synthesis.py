"""Generation mode: packet sampling, denormalization, stream assembly."""

import numpy as np
import pytest

from radiogan.gan import build_generator
from radiogan.iqcore import FrameStats
from radiogan.seeding import substream
from radiogan.synthesis import (
    SynthesisConfig,
    assemble_iq,
    generate_packets,
    resolve_frame,
    synthesize,
)

N_FFT = 256  # wide enough for the default 129-tap smoothing kernel


def _gen(seed=0, tag="I"):
    return build_generator(N_FFT, substream(seed, "init", tag, "generator"), width=16)


def test_generate_packets_shape_and_range():
    mat = generate_packets(_gen(), 10, -27.0, substream(0, "latent"))
    assert mat.shape == (10, N_FFT)
    assert mat.dtype == np.float64
    assert np.all(np.abs(mat) < 1.0)  # tanh head


def test_generate_packets_deterministic_per_seed():
    a = generate_packets(_gen(), 6, -27.0, substream(1, "latent"))
    b = generate_packets(_gen(), 6, -27.0, substream(1, "latent"))
    c = generate_packets(_gen(), 6, -27.0, substream(2, "latent"))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generate_packets_snr_changes_latent_scale():
    a = generate_packets(_gen(), 6, -27.0, substream(1, "latent"))
    b = generate_packets(_gen(), 6, 0.0, substream(1, "latent"))
    assert not np.array_equal(a, b)


def test_generate_packets_guards():
    with pytest.raises(ValueError):
        generate_packets(None, 4, -27.0, 0)
    with pytest.raises(ValueError):
        generate_packets(_gen(), 0, -27.0, 0)


def test_assemble_iq_pairs_components():
    i_mat = np.full((2, 4), 0.5)
    q_mat = np.full((2, 4), -0.25)
    out = assemble_iq(i_mat, q_mat, frame_power=1.0)
    assert out.dtype.kind == "c"
    assert np.all(out == 0.5 - 0.25j)


def test_assemble_iq_scales_by_sqrt_power():
    i_mat = np.full((1, 4), 0.5)
    q_mat = np.full((1, 4), 0.5)
    out = assemble_iq(i_mat, q_mat, frame_power=4.0)
    # power 4 -> amplitudes doubled on both rails
    assert np.allclose(out.real, 1.0)
    assert np.allclose(out.imag, 1.0)


def test_assemble_iq_shape_mismatch():
    i_mat = np.zeros((2, 4))
    q_mat = np.zeros((3, 4))
    with pytest.raises(ValueError):
        assemble_iq(i_mat, q_mat, 1.0)


def _synth(cfg, frame="random", stats=None, gi=None, gq=None):
    stats = stats if stats is not None else FrameStats(per_frame_power=np.array([1.0, 4.0]))
    return synthesize(gi or _gen(0, "I"), gq or _gen(0, "Q"), cfg, stats, frame=frame)


def test_synthesize_length_and_determinism():
    cfg = SynthesisConfig(n_gen=12, snr_db=-27.0, seed=5)
    rec_a = _synth(cfg)
    rec_b = _synth(cfg)
    assert rec_a.n_samples == 12 * N_FFT
    assert np.array_equal(rec_a.samples, rec_b.samples)
    rec_c = _synth(SynthesisConfig(n_gen=12, snr_db=-27.0, seed=6))
    assert not np.array_equal(rec_a.samples, rec_c.samples)


def test_synthesize_longer_than_any_prototype():
    # arbitrary-length synthesis: ask for 100x more packets than the
    # prototype frame held and get exactly that many samples out
    cfg = SynthesisConfig(n_gen=800, snr_db=-27.0, seed=0)
    rec = _synth(cfg)
    assert rec.n_samples == 800 * N_FFT


def test_synthesize_smoothing_is_a_unit_gain_lowpass():
    # the kernel's taps are non-negative and sum to one, so it can never
    # amplify, and it concentrates what it keeps at low frequencies
    cfg_raw = SynthesisConfig(n_gen=16, snr_db=-27.0, seed=3, rc_length=1)
    cfg_rc = SynthesisConfig(n_gen=16, snr_db=-27.0, seed=3, rc_length=129)
    raw = _synth(cfg_raw, frame=0)
    smooth = _synth(cfg_rc, frame=0)
    assert np.sum(np.abs(smooth.samples) ** 2) < np.sum(np.abs(raw.samples) ** 2)

    def low_frac(x, cut=0.02):
        spec = np.abs(np.fft.fft(x)) ** 2
        freqs = np.fft.fftfreq(x.size)
        return float(spec[np.abs(freqs) <= cut].sum() / spec.sum())

    assert low_frac(smooth.samples) > low_frac(raw.samples)
    assert low_frac(smooth.samples) > 0.8


def test_synthesize_single_tap_is_plain_concatenation():
    cfg = SynthesisConfig(n_gen=4, snr_db=-27.0, seed=2, rc_length=1)
    rec = _synth(cfg, frame=0)
    i_mat = generate_packets(_gen(0, "I"), 4, -27.0, substream(2, "synthesis", "latent", "I"))
    q_mat = generate_packets(_gen(0, "Q"), 4, -27.0, substream(2, "synthesis", "latent", "Q"))
    expect = (i_mat + 1j * q_mat).reshape(-1)
    assert np.allclose(rec.samples, expect, atol=1e-12)


def test_synthesize_frame_power_denormalizes():
    stats = FrameStats(per_frame_power=np.array([1.0, 4.0]))
    cfg = SynthesisConfig(n_gen=8, snr_db=-27.0, seed=1, rc_length=1)
    rec0 = _synth(cfg, frame=0, stats=stats)
    rec1 = _synth(cfg, frame=1, stats=stats)
    assert np.allclose(rec1.samples, 2.0 * rec0.samples, atol=1e-12)


def test_synthesize_random_frame_is_seeded():
    stats = FrameStats(per_frame_power=np.array([1.0, 1e6]))
    cfg = SynthesisConfig(n_gen=4, snr_db=-27.0, seed=9, rc_length=1)
    a = _synth(cfg, frame="random", stats=stats)
    b = _synth(cfg, frame="random", stats=stats)
    assert np.array_equal(a.samples, b.samples)
    # the draw must match one of the explicit frame choices
    explicit = [_synth(cfg, frame=f, stats=stats).samples for f in (0, 1)]
    assert any(np.array_equal(a.samples, e) for e in explicit)


def test_resolve_frame_draws_from_the_synthesis_frame_substream():
    for seed in range(6):
        drawn = resolve_frame("random", seed, 3)
        assert drawn == int(substream(seed, "synthesis", "frame").integers(0, 3))
        stats = FrameStats(per_frame_power=np.array([1.0, 4.0, 9.0]))
        cfg = SynthesisConfig(n_gen=2, snr_db=-27.0, seed=seed, rc_length=1)
        assert np.array_equal(_synth(cfg, "random", stats).samples, _synth(cfg, drawn, stats).samples)
    assert resolve_frame(2, 0, 3) == 2
    assert resolve_frame("1", 0, 3) == 1
    for bad in (3, -1, "x"):
        with pytest.raises(ValueError):
            resolve_frame(bad, 0, 3)


def test_synthesize_validation():
    stats = FrameStats(per_frame_power=np.array([1.0]))
    cfg = SynthesisConfig(n_gen=4, snr_db=-27.0)
    with pytest.raises(ValueError):
        synthesize(_gen(0, "I"), build_generator(128, 0, width=16), cfg, stats)
    with pytest.raises(ValueError):
        _synth(cfg, frame=5, stats=stats)
    with pytest.raises(ValueError):
        SynthesisConfig(n_gen=0, snr_db=-27.0)
    with pytest.raises(ValueError):
        SynthesisConfig(n_gen=4, snr_db=-27.0, rc_length=128)


def test_synthesize_metadata_passthrough():
    cfg = SynthesisConfig(
        n_gen=4, snr_db=-27.0, sample_rate_hz=2e6, center_freq_hz=1e9, rx_gain_db=7.5
    )
    rec = _synth(cfg, frame=0)
    assert rec.sample_rate_hz == 2e6
    assert rec.center_freq_hz == 1e9
    assert rec.rx_gain_db == 7.5
