"""I/Q payload round trips, framing, and normalization."""

import numpy as np
import pytest

from radiogan.iqcore import (
    IQFormatError,
    IQRecording,
    denormalize,
    frame_tensor,
    load_iq,
    normalize_frames,
    save_iq,
    sidecar_path,
)


def _rec(n=4096, seed=0, rate=1e6):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # float32-representable samples so file round trips are exact
    z = z.astype(np.complex64).astype(np.complex128)
    return IQRecording(samples=z, sample_rate_hz=rate, center_freq_hz=2.4e9, rx_gain_db=20.0)


def test_round_trip_bit_exact(tmp_path):
    rec = _rec()
    path = tmp_path / "cap.iq"
    save_iq(rec, path)
    back = load_iq(path)
    assert np.array_equal(back.samples, rec.samples)
    assert back.sample_rate_hz == rec.sample_rate_hz
    assert back.center_freq_hz == rec.center_freq_hz
    assert back.rx_gain_db == rec.rx_gain_db


def test_round_trip_keeps_signed_zeros(tmp_path):
    parts = np.array([-0.0, 0.0, 0.0, -0.0, -0.0, -0.0, 1.5, -0.0, -0.0, -2.25])
    rec = IQRecording(samples=parts.view(np.complex128), sample_rate_hz=1e6)
    path = tmp_path / "zeros.iq"
    save_iq(rec, path)
    back = load_iq(path)
    assert back.samples.dtype == np.complex128
    assert back.samples.tobytes() == rec.samples.tobytes()


def test_payload_is_interleaved_le_float32(tmp_path):
    rec = _rec(n=8)
    path = tmp_path / "cap.iq"
    save_iq(rec, path)
    raw = np.fromfile(path, dtype="<f4")
    assert raw.size == 16
    assert np.array_equal(raw[0::2].astype(np.float64), rec.samples.real)
    assert np.array_equal(raw[1::2].astype(np.float64), rec.samples.imag)


def test_sidecar_extras_survive(tmp_path):
    rec = _rec(n=16)
    path = tmp_path / "cap.iq"
    save_iq(rec, path, extra_meta={"note": "bench-3", "n_fft": 256})
    text = sidecar_path(path).read_text()
    assert "note=bench-3" in text
    assert "n_fft=256" in text
    load_iq(path)  # extras must not break parsing


def test_missing_sidecar_rejected(tmp_path):
    rec = _rec(n=16)
    path = tmp_path / "cap.iq"
    save_iq(rec, path)
    sidecar_path(path).unlink()
    with pytest.raises(IQFormatError):
        load_iq(path)


def test_missing_required_key_rejected(tmp_path):
    rec = _rec(n=16)
    path = tmp_path / "cap.iq"
    save_iq(rec, path)
    sc = sidecar_path(path)
    lines = [l for l in sc.read_text().splitlines() if not l.startswith("sample_rate_hz")]
    sc.write_text("\n".join(lines) + "\n")
    with pytest.raises(IQFormatError):
        load_iq(path)


def test_truncated_payload_rejected(tmp_path):
    rec = _rec(n=16)
    path = tmp_path / "cap.iq"
    save_iq(rec, path)
    data = path.read_bytes()
    path.write_bytes(data[:-4])  # half a complex sample
    with pytest.raises(IQFormatError):
        load_iq(path)


def test_empty_payload_rejected(tmp_path):
    rec = _rec(n=16)
    path = tmp_path / "cap.iq"
    save_iq(rec, path)
    path.write_bytes(b"")
    with pytest.raises(IQFormatError):
        load_iq(path)


def test_non_finite_payload_rejected(tmp_path):
    rec = _rec(n=16)
    path = tmp_path / "cap.iq"
    save_iq(rec, path)
    raw = np.fromfile(path, dtype="<f4")
    raw[3] = np.nan
    raw.tofile(path)
    with pytest.raises(IQFormatError):
        load_iq(path)


def test_recording_validation():
    with pytest.raises(ValueError):
        IQRecording(np.array([], dtype=complex), 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        IQRecording(np.ones((2, 2), dtype=complex), 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        IQRecording(np.ones(4, dtype=complex), 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        IQRecording(np.ones(4, dtype=complex), 1.0, -1.0, 0.0)


def test_duration_and_power():
    rec = IQRecording(np.full(1000, 3 + 4j), 2000.0, 0.0, 0.0)
    assert rec.duration_s == pytest.approx(0.5)
    assert rec.mean_power() == pytest.approx(25.0)


def test_frame_tensor_shape_and_layout():
    # 8192 samples, n_fft 2048, 2 frames -> 2 packets per frame
    rec = _rec(n=8192)
    t = frame_tensor(rec, 2048, 2)
    assert t.data.shape == (2, 2, 2, 2048)
    # packet (frame 1, packet 0) must be samples [2*2048 : 3*2048)
    seg = rec.samples[2 * 2048 : 3 * 2048]
    assert np.array_equal(t.data[1, 0, 0], seg.real)
    assert np.array_equal(t.data[1, 0, 1], seg.imag)


def test_frame_tensor_drops_tail():
    rec = _rec(n=1000)
    t = frame_tensor(rec, 64, 3)
    # 1000 // (3*64) = 5 packets per frame; 40 samples dropped
    assert t.n_packets == 5
    assert np.array_equal(t.data[0, 0, 0], rec.samples[:64].real)


def test_frame_tensor_too_short():
    rec = _rec(n=100)
    with pytest.raises(ValueError):
        frame_tensor(rec, 64, 2)


def test_component_and_complex_packets():
    rec = _rec(n=1024)
    t = frame_tensor(rec, 128, 2)
    i = t.component_packets(0, "I")
    q = t.component_packets(0, "Q")
    z = t.complex_packets(0)
    assert i.shape == (4, 128)
    assert np.array_equal(z, i + 1j * q)
    with pytest.raises(ValueError):
        t.component_packets(0, "x")
    with pytest.raises(ValueError):
        t.component_packets(5, "I")


def test_normalize_unit_power_and_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rec = IQRecording(
            (rng.standard_normal(2048) + 1j * rng.standard_normal(2048)) * rng.uniform(0.1, 9.0),
            1.0,
            0.0,
            0.0,
        )
        t = frame_tensor(rec, 128, 2)
        norm, stats = normalize_frames(t)
        for f in range(2):
            power = np.mean(np.sum(norm.data[f] ** 2, axis=1))
            assert power == pytest.approx(1.0, abs=1e-9)
            back = denormalize(norm.complex_packets(f), stats.per_frame_power[f])
            assert np.max(np.abs(back - t.complex_packets(f))) < 1e-9


def test_normalize_scales_by_sqrt_power():
    # packets of constant power 4 -> normalized amplitude halves
    data = np.zeros((1, 2, 2, 8))
    data[0, :, 0, :] = 2.0  # I = 2, Q = 0 -> power 4
    from radiogan.iqcore import PrototypeTensor

    t = PrototypeTensor(data=data)
    norm, stats = normalize_frames(t)
    assert stats.per_frame_power[0] == pytest.approx(4.0)
    assert np.allclose(norm.data[0, :, 0, :], 1.0)


def test_normalize_rejects_zero_frame_and_double_call():
    from radiogan.iqcore import PrototypeTensor

    zero = PrototypeTensor(data=np.zeros((1, 2, 2, 8)))
    with pytest.raises(ValueError):
        normalize_frames(zero)
    t = PrototypeTensor(data=np.random.default_rng(0).standard_normal((1, 2, 2, 8)))
    norm, _ = normalize_frames(t)
    with pytest.raises(ValueError):
        normalize_frames(norm)


def test_denormalize_rejects_bad_power():
    with pytest.raises(ValueError):
        denormalize(np.ones((2, 4), dtype=complex), 0.0)
