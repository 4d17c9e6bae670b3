"""I/Q payload round trips, framing, and normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiogan.gan import TrainConfig, _rail_packets
from radiogan.iqcore import (
    IQFormatError,
    IQRecording,
    denormalize,
    frame_tensor,
    iq_reader,
    iq_writer,
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


@pytest.mark.parametrize("field", ["sample_rate_hz", "center_freq_hz", "rx_gain_db"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_recording_refuses_non_finite_metadata(field, value):
    fields = {"sample_rate_hz": 1.0, "center_freq_hz": 0.0, "rx_gain_db": 0.0, field: value}
    with pytest.raises(ValueError, match=field):
        IQRecording(np.ones(4, dtype=complex), **fields)


@pytest.mark.parametrize(
    "bad",
    [complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 1.0), complex(1e39, 0.0), complex(0.0, -3.5e38)],
    ids=["nan", "inf_imag", "neg_inf", "beyond_float32", "beyond_float32_negative_imag"],
)
def test_save_refuses_samples_load_would_refuse_and_writes_nothing(tmp_path, bad):
    rec = _rec(n=16)
    rec.samples[5] = bad
    path = tmp_path / "cap.iq"
    with pytest.raises(ValueError, match="float32 range"):
        save_iq(rec, path)
    assert not path.exists()
    assert not sidecar_path(path).exists()


def test_writer_streams_blocks_into_one_payload(tmp_path):
    rec = _rec(n=40)
    path = tmp_path / "cap.iq"
    with iq_writer(path, {"sample_rate_hz": 1e6, "center_freq_hz": 2.4e9, "rx_gain_db": 20.0}, {"n": 3}) as write:
        for lo in range(0, 40, 16):
            write(rec.samples[lo : lo + 16])
        assert not path.exists()  # nothing in place before the block ends
    back = load_iq(path)
    assert back.samples.tobytes() == rec.samples.tobytes()
    save_iq(rec, tmp_path / "whole.iq", extra_meta={"n": 3})
    assert path.read_bytes() == (tmp_path / "whole.iq").read_bytes()
    assert sidecar_path(path).read_bytes() == sidecar_path(tmp_path / "whole.iq").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cap.iq", "cap.iq.meta", "whole.iq", "whole.iq.meta"]


@pytest.mark.parametrize("failure", ["refused_block", "error_between_blocks"])
def test_writer_failing_mid_stream_leaves_the_previous_files_and_no_temporary_file(tmp_path, failure):
    path = tmp_path / "cap.iq"
    save_iq(_rec(n=16, seed=1), path)
    before = path.read_bytes(), sidecar_path(path).read_bytes()
    bad = _rec(n=16, seed=2).samples
    bad[3] = complex(1e39, 0.0)
    with pytest.raises(ValueError):
        with iq_writer(path, {"sample_rate_hz": 5e5, "center_freq_hz": 0.0, "rx_gain_db": 0.0}) as write:
            write(_rec(n=16, seed=3).samples)
            if failure == "refused_block":
                write(bad)
            raise ValueError("the stream's producer failed")
    assert (path.read_bytes(), sidecar_path(path).read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cap.iq", "cap.iq.meta"]


def test_save_keeps_the_largest_float32(tmp_path):
    big = float(np.finfo(np.float32).max)
    rec = IQRecording(np.array([complex(big, -big), 0.5j]), 1e6)
    save_iq(rec, tmp_path / "big.iq")
    assert load_iq(tmp_path / "big.iq").samples.tobytes() == rec.samples.tobytes()


@pytest.mark.parametrize(
    "key, text",
    [
        ("sample_rate_hz", "nan"),
        ("sample_rate_hz", "inf"),
        ("sample_rate_hz", "-inf"),
        ("sample_rate_hz", "-5"),
        ("center_freq_hz", "NaN"),
        ("rx_gain_db", "-infinity"),
    ],
)
def test_load_refuses_bad_metadata_values(tmp_path, key, text):
    path = tmp_path / "cap.iq"
    save_iq(_rec(n=16), path)
    meta = sidecar_path(path)
    lines = meta.read_text().splitlines()
    meta.write_text("".join(f"{key}={text}\n" if l.startswith(key + "=") else l + "\n" for l in lines))
    with pytest.raises(IQFormatError):
        load_iq(path)


def test_load_refuses_a_sidecar_that_is_not_utf8_text(tmp_path):
    path = tmp_path / "cap.iq"
    save_iq(_rec(n=16), path)
    sidecar_path(path).write_bytes(b"sample_rate_hz=\xff\n")
    with pytest.raises(IQFormatError):
        load_iq(path)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.data())
def test_corrupted_recording_is_refused_or_loads_finite(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "cap.iq"
    save_iq(_rec(n=8), path, extra_meta={"format": "cf32"})
    for target in (path, sidecar_path(path)):
        raw = bytearray(target.read_bytes())
        for _ in range(data.draw(st.integers(0, 4))):
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        if data.draw(st.booleans()):
            raw = raw[: data.draw(st.integers(0, len(raw)))]
        target.write_bytes(bytes(raw))
    try:
        rec = load_iq(path)
    except IQFormatError:
        return
    assert np.isfinite(rec.samples).all()
    assert all(np.isfinite([rec.sample_rate_hz, rec.center_freq_hz, rec.rx_gain_db]))


def test_duration_and_power():
    rec = IQRecording(np.full(1000, 3 + 4j), 2000.0, 0.0, 0.0)
    assert rec.duration_s == pytest.approx(0.5)
    assert rec.mean_power() == pytest.approx(25.0)


def test_frame_tensor_shape_and_layout():
    # 8192 samples, n_fft 2048, 2 frames -> 2 packets per frame
    rec = _rec(n=8192)
    t = frame_tensor(rec, 2048, 2)
    assert t.shape == (2, 2, 2048)
    assert t.dtype == np.complex128
    assert np.shares_memory(t, rec.samples)  # a view, not a copy
    # packet (frame 1, packet 0) must be samples [2*2048 : 3*2048)
    assert np.array_equal(t[1, 0], rec.samples[2 * 2048 : 3 * 2048])


def test_frame_tensor_drops_tail():
    rec = _rec(n=1000)
    t = frame_tensor(rec, 64, 3)
    # 1000 // (3*64) = 5 packets per frame; 40 samples dropped
    assert t.shape == (3, 5, 64)
    assert np.array_equal(t[0, 0], rec.samples[:64])


def test_frame_tensor_too_short():
    rec = _rec(n=100)
    with pytest.raises(ValueError):
        frame_tensor(rec, 64, 2)


def test_component_and_complex_packets():
    """A rail is the real or imaginary part of a frame's packets, which the
    training loops take as a strided float64 view, without a copy."""
    rec = _rec(n=1024)
    t = frame_tensor(rec, 128, 2)
    cfg = TrainConfig(n_examples=4)
    i, q = (_rail_packets(rail, component, cfg) for rail, component in ((t[0].real, "I"), (t[0].imag, "Q")))
    assert i.shape == (4, 128)
    assert np.shares_memory(i, rec.samples) and np.shares_memory(q, rec.samples)
    assert np.array_equal(t[0], i + 1j * q)
    with pytest.raises(ValueError):
        _rail_packets(t[0].real, "x", cfg)


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
            assert np.mean(np.abs(norm[f]) ** 2) == pytest.approx(1.0, abs=1e-9)
            back = denormalize(norm[f], stats.per_frame_power[f])
            assert np.max(np.abs(back - t[f])) < 1e-9


def test_normalize_divides_each_part_by_the_root_power_bit_for_bit():
    """Each part is a float divide by sqrt(P_f), and P_f is the sum of the
    squared parts' mean; a complex divide (``frames / scale``) rounds
    differently, which this data shows."""
    rng = np.random.default_rng(5)
    shape = (2, 50, 1000)
    frames = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.array([3.7, 0.2])[:, None, None]
    norm, stats = normalize_frames(frames)
    stacked = np.stack([frames.real, frames.imag], axis=2)  # [frames, packets, I/Q, n_fft]
    power = np.mean(np.sum(stacked**2, axis=2), axis=(1, 2))
    assert stats.per_frame_power.tobytes() == power.tobytes()
    scale = np.sqrt(power)[:, None, None]
    assert norm.dtype == np.complex128
    for part, want in ((norm.real, frames.real / scale), (norm.imag, frames.imag / scale)):
        assert np.ascontiguousarray(part).tobytes() == want.tobytes()
    assert not np.array_equal(frames / scale, norm)


def test_normalize_scales_by_sqrt_power():
    # packets of constant power 4 -> normalized amplitude halves
    frames = np.full((1, 2, 8), 2.0 + 0.0j)  # I = 2, Q = 0 -> power 4
    norm, stats = normalize_frames(frames)
    assert stats.per_frame_power[0] == pytest.approx(4.0)
    assert np.allclose(norm.real, 1.0)
    assert np.all(norm.imag == 0.0)


def test_normalize_rejects_a_zero_frame():
    frames = np.random.default_rng(0).standard_normal((3, 2, 8)) + 0j
    frames[1] = 0.0
    with pytest.raises(ValueError, match=r"all-zero frame\(s\) \[1\]"):
        normalize_frames(frames)


def test_denormalize_rejects_bad_power():
    with pytest.raises(ValueError):
        denormalize(np.ones((2, 4), dtype=complex), 0.0)


def test_reader_yields_whole_packets_in_joined_blocks(tmp_path):
    rec = _rec(n=300 * 8 + 5)  # 300 packets of 8 and 5 samples of another
    path = tmp_path / "cap.iq"
    save_iq(rec, path)
    reader = iq_reader(path)
    assert reader.n_samples == rec.n_samples
    assert reader.capture == {"sample_rate_hz": 1e6, "center_freq_hz": 2.4e9, "rx_gain_db": 20.0}
    got = list(reader.blocks(8, 128))
    assert [b.shape for b in got] == [(128, 8), (172, 8)]
    assert np.concatenate(got).tobytes() == rec.samples[: 300 * 8].tobytes()


def test_reader_refuses_a_non_finite_block_after_yielding_the_ones_before(tmp_path):
    path = tmp_path / "cap.iq"
    save_iq(_rec(n=300 * 8), path)
    raw = np.fromfile(path, dtype="<f4")
    raw[-1] = np.nan
    raw.tofile(path)
    blocks = iq_reader(path).blocks(8, 128)
    assert next(blocks).shape == (128, 8)
    with pytest.raises(IQFormatError, match="non-finite"):
        next(blocks)


def test_reader_refuses_the_sidecar_before_reading_any_sample(tmp_path):
    path = tmp_path / "cap.iq"
    save_iq(_rec(n=16), path)
    raw = np.fromfile(path, dtype="<f4")
    raw[0] = np.nan
    raw.tofile(path)
    sidecar_path(path).unlink()
    with pytest.raises(IQFormatError, match="missing metadata sidecar"):
        iq_reader(path)
