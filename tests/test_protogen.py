"""Synthetic prototype captures: spectral placement, bursts, determinism."""

import tracemalloc

import numpy as np
import pytest

from radiogan.iqcore import frame_tensor, normalize_frames
from radiogan.protogen import (
    BURST_PERIOD,
    SyntheticScenario,
    _baseband,
    _burst_gate,
    synth_prototype,
)


def _band_fraction(samples, band):
    """Fraction of total spectral energy inside the declared band."""
    spec = np.abs(np.fft.fft(samples)) ** 2
    freqs = np.fft.fftfreq(samples.size)
    inside = (freqs >= band[0]) & (freqs <= band[1])
    return float(spec[inside].sum() / spec.sum())


def test_deterministic_per_seed():
    sc = SyntheticScenario(n_samples=4096, seed=3)
    a = synth_prototype(sc)
    b = synth_prototype(sc)
    assert np.array_equal(a.samples, b.samples)
    c = synth_prototype(SyntheticScenario(n_samples=4096, seed=4))
    assert not np.array_equal(a.samples, c.samples)


def test_tone_lands_on_band_center():
    sc = SyntheticScenario(
        n_samples=8192, modulation="tone", occupied_band=(0.245, 0.255), snr_db=float("inf")
    )
    rec = synth_prototype(sc)
    spec = np.abs(np.fft.fft(rec.samples)) ** 2
    freqs = np.fft.fftfreq(rec.n_samples)
    peak = freqs[int(np.argmax(spec))]
    assert peak == pytest.approx(0.25, abs=2.0 / rec.n_samples)
    # a pure tone concentrates essentially all energy within a couple of bins
    window = np.abs(freqs - 0.25) <= 2.0 / rec.n_samples
    assert spec[window].sum() / spec.sum() > 0.99


def test_qpsk_energy_stays_in_declared_band():
    sc = SyntheticScenario(
        n_samples=32768,
        occupied_band=(0.17, 0.30),
        symbol_rate_frac=1.0 / 32.0,
        snr_db=30.0,
        seed=7,
    )
    rec = synth_prototype(sc)
    assert _band_fraction(rec.samples, sc.occupied_band) > 0.9


def test_multitone_spreads_across_band():
    sc = SyntheticScenario(
        n_samples=16384, modulation="multitone", occupied_band=(0.1, 0.4), snr_db=float("inf")
    )
    rec = synth_prototype(sc)
    assert _band_fraction(rec.samples, (0.1, 0.4)) > 0.99
    # energy in both halves of the band, not a single collapsed tone
    assert _band_fraction(rec.samples, (0.1, 0.25)) > 0.2
    assert _band_fraction(rec.samples, (0.25, 0.4)) > 0.2


def test_snr_controls_noise_floor():
    quiet = synth_prototype(SyntheticScenario(n_samples=16384, snr_db=40.0, seed=1))
    loud = synth_prototype(SyntheticScenario(n_samples=16384, snr_db=0.0, seed=1))
    band = (0.125, 0.375)
    assert _band_fraction(quiet.samples, band) > _band_fraction(loud.samples, band)
    # at 0 dB roughly half the energy is noise spread over the full bandwidth
    assert _band_fraction(loud.samples, band) < 0.75


def test_infinite_snr_is_noiseless():
    sc = SyntheticScenario(n_samples=2048, modulation="tone", snr_db=float("inf"))
    rec = synth_prototype(sc)
    assert np.abs(rec.samples) == pytest.approx(np.ones(2048), abs=1e-12)


def test_cfo_shifts_the_spectrum():
    base = SyntheticScenario(
        n_samples=8192, modulation="tone", occupied_band=(0.245, 0.255), snr_db=float("inf")
    )
    shifted = SyntheticScenario(
        n_samples=8192,
        modulation="tone",
        occupied_band=(0.245, 0.255),
        snr_db=float("inf"),
        cfo_frac=0.01,
    )
    f = np.fft.fftfreq(8192)
    peak_base = f[int(np.argmax(np.abs(np.fft.fft(synth_prototype(base).samples))))]
    peak_shift = f[int(np.argmax(np.abs(np.fft.fft(synth_prototype(shifted).samples))))]
    assert peak_shift - peak_base == pytest.approx(0.01, abs=2.0 / 8192)


def test_burst_gate_duty_cycle():
    gate = _burst_gate(4 * BURST_PERIOD, 0.5)
    assert gate.mean() == pytest.approx(0.5, abs=1e-6)
    assert set(np.unique(gate)) == {0.0, 1.0}
    # ON comes first in each period
    assert gate[0] == 1.0
    assert gate[BURST_PERIOD - 1] == 0.0


def test_burst_gate_full_duty_is_all_ones():
    assert np.all(_burst_gate(1000, 1.0) == 1.0)


def test_first_frame_sits_inside_one_burst():
    # desk-scale framing (256-sample packets, 64 per frame) must not straddle
    # the gate edge, so frame 0 of a 50% duty capture is fully ON
    assert BURST_PERIOD >= 2 * 64 * 256
    gate = _burst_gate(BURST_PERIOD, 0.5)
    assert np.all(gate[: 64 * 256] == 1.0)


def test_bursty_capture_on_half_carries_double_power():
    sc = SyntheticScenario(
        n_samples=2 * BURST_PERIOD, burst_duty_cycle=0.5, snr_db=float("inf"), seed=2
    )
    rec = synth_prototype(sc)
    on = rec.samples[: BURST_PERIOD // 2]
    whole = rec.samples
    p_on = np.mean(np.abs(on) ** 2)
    p_whole = np.mean(np.abs(whole) ** 2)
    assert p_on == pytest.approx(2.0 * p_whole, rel=1e-6)


def test_prototype_feeds_framing_pipeline():
    sc = SyntheticScenario(n_samples=32768, occupied_band=(0.17, 0.30), seed=7)
    rec = synth_prototype(sc)
    frames, stats = normalize_frames(frame_tensor(rec, 256, 2))
    assert frames.shape == (2, 64, 256)
    assert stats.n_frames == 2
    for f in range(2):
        assert np.mean(np.abs(frames[f]) ** 2) == pytest.approx(1.0, abs=1e-9)


def test_sidecar_extras_record_ground_truth():
    sc = SyntheticScenario(n_samples=1024, occupied_band=(0.17, 0.30), seed=5)
    extras = sc.sidecar_extras()
    assert extras["scenario_occupied_band"] == "0.17:0.3"
    assert extras["scenario_seed"] == 5
    assert extras["scenario_modulation"] == "qpsk"
    assert "scenario_sample_rate_hz" not in extras


def test_scenario_validation():
    with pytest.raises(ValueError):
        SyntheticScenario(n_samples=0)
    with pytest.raises(ValueError):
        SyntheticScenario(n_samples=10, occupied_band=(0.3, 0.2))
    with pytest.raises(ValueError):
        SyntheticScenario(n_samples=10, occupied_band=(0.1, 0.6))
    with pytest.raises(ValueError):
        SyntheticScenario(n_samples=10, burst_duty_cycle=0.0)
    with pytest.raises(ValueError):
        SyntheticScenario(n_samples=10, modulation="ofdm")
    with pytest.raises(ValueError):
        SyntheticScenario(n_samples=10, symbol_rate_frac=0.0)


def test_recording_metadata_passthrough():
    sc = SyntheticScenario(n_samples=512, sample_rate_hz=1e6, center_freq_hz=9e8, rx_gain_db=3.0)
    rec = synth_prototype(sc)
    assert rec.sample_rate_hz == 1e6
    assert rec.center_freq_hz == 9e8
    assert rec.rx_gain_db == 3.0
    assert rec.n_samples == 512


def test_a_symbol_longer_than_the_recording_costs_no_more_than_the_recording():
    # the preset's 32768 samples: 1e-7 repeated one symbol 10^7 times, 153 MiB
    sc = SyntheticScenario(n_samples=32768, symbol_rate_frac=1e-7)
    tracemalloc.start()
    try:
        samples = _baseband(sc, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert samples.shape == (32768,)
    assert peak < 32 * sc.n_samples * 16, peak  # 16 MiB
