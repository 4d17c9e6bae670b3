"""Generation mode: packet sampling, denormalization, stream assembly."""

import threading

import numpy as np
import pytest

from radiogan import blocks, synthesis
from radiogan.dsp import OverlapSaveCarry, overlap_save_reconstruct
from radiogan.gan import Net, build_generator, latent_noise_variance, sample_latent
from radiogan.seeding import substream
from radiogan.synthesis import _taps, assemble_iq, generate_packets, resolve_frame, synthesize

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


def _synth(n_gen, seed=0, frame_power=1.0, gi=None, gq=None, **kwargs):
    blocks = []
    synthesize(gi or _gen(0, "I"), gq or _gen(0, "Q"), n_gen, -27.0, seed, frame_power, blocks.append, **kwargs)
    return np.concatenate(blocks)


def test_synthesize_length_and_determinism():
    a = _synth(12, seed=5)
    b = _synth(12, seed=5)
    assert a.shape == (12 * N_FFT,)
    assert a.dtype == np.complex128
    assert np.array_equal(a, b)
    assert not np.array_equal(a, _synth(12, seed=6))


def test_synthesize_longer_than_any_prototype():
    # arbitrary-length synthesis: ask for 100x more packets than the
    # prototype frame held and get exactly that many samples out
    assert _synth(800).size == 800 * N_FFT


def test_synthesize_smoothing_is_a_unit_gain_lowpass():
    # the kernel's taps are non-negative and sum to one, so it can never
    # amplify, and it concentrates what it keeps at low frequencies
    raw = _synth(16, seed=3, rc_length=1)
    smooth = _synth(16, seed=3, rc_length=129)
    assert np.sum(np.abs(smooth) ** 2) < np.sum(np.abs(raw) ** 2)

    def low_frac(x, cut=0.02):
        spec = np.abs(np.fft.fft(x)) ** 2
        freqs = np.fft.fftfreq(x.size)
        return float(spec[np.abs(freqs) <= cut].sum() / spec.sum())

    assert low_frac(smooth) > low_frac(raw)
    assert low_frac(smooth) > 0.8


def test_synthesize_single_tap_is_plain_concatenation():
    samples = _synth(4, seed=2, rc_length=1)
    i_mat = generate_packets(_gen(0, "I"), 4, -27.0, substream(2, "synthesis", "latent", "I"))
    q_mat = generate_packets(_gen(0, "Q"), 4, -27.0, substream(2, "synthesis", "latent", "Q"))
    expect = (i_mat + 1j * q_mat).reshape(-1)
    assert np.allclose(samples, expect, atol=1e-12)


@pytest.mark.parametrize("rc_length", [129, 1])
@pytest.mark.parametrize("block", [3, 8, 128])
def test_synthesize_in_blocks_is_the_one_shot_stream_bit_for_bit(monkeypatch, block, rc_length):
    # The generator pass of a block is taken as it ran (BLAS may round a
    # product of a few rows differently from the same rows in a larger one);
    # everything else is checked against the stream made at once: one latent
    # draw per rail and one overlap-save call on every packet.
    monkeypatch.setattr(synthesis, "GEN_BLOCK_PACKETS", block)
    for n_gen in sorted({1, block - 1, block + 1, 20 * 16}):
        latents, packets, blocks = [], [], []
        monkeypatch.setattr(synthesis, "sample_latent", _spy(sample_latent, latents))
        monkeypatch.setattr(synthesis, "generate_packets", _spy(generate_packets, packets))
        synthesize(_gen(0, "I"), _gen(0, "Q"), n_gen, -27.0, 4, 2.5, blocks.append, rc_length=rc_length)

        sizes = [len(p) for p in packets[::2]]
        assert sizes == [len(p) for p in packets[1::2]]
        assert sizes[:-1] == [block] * (len(sizes) - 1) and sum(sizes) == n_gen
        assert sizes[-1] < 2 * block and (sizes[-1] >= block or len(sizes) == 1)  # a short last block joins
        sigma2 = latent_noise_variance(1.0, -27.0)
        for rail, drawn in zip(("I", "Q"), (latents[::2], latents[1::2])):
            whole = sample_latent(n_gen, N_FFT, sigma2, substream(4, "synthesis", "latent", rail))
            assert np.concatenate(drawn).tobytes() == whole.tobytes()
        i_mat, q_mat = np.concatenate(packets[::2]), np.concatenate(packets[1::2])
        one_shot = overlap_save_reconstruct(assemble_iq(i_mat, q_mat, 2.5), _taps(rc_length, 0.25))
        assert np.concatenate(blocks).tobytes() == one_shot.tobytes()


def _serial_writes(gi, gq, n_gen, seed, frame_power):
    """What the serial block loop hands ``write``: each block's generator
    passes, then its assembly and overlap-save, one block after the other."""
    taps = _taps(129, 0.25)
    latents = [substream(seed, "synthesis", "latent", rail) for rail in ("I", "Q")]
    carry = OverlapSaveCarry(n_gen * N_FFT)
    writes = []
    for rows in blocks.joined_blocks(n_gen, synthesis.GEN_BLOCK_PACKETS):
        i_mat, q_mat = (generate_packets(g, rows.stop - rows.start, -27.0, latent) for g, latent in zip((gi, gq), latents))
        writes.append(overlap_save_reconstruct(assemble_iq(i_mat, q_mat, frame_power), taps, carry))
    return writes


@pytest.mark.parametrize("cpus", [1, 2, None], ids=["one CPU", "two CPUs", "all CPUs"])
def test_the_pipeline_hands_write_the_serial_loops_blocks_in_stream_order(monkeypatch, cpus):
    # 13 packets in blocks of 4 are three blocks, the last one of 5
    monkeypatch.setattr(synthesis, "GEN_BLOCK_PACKETS", 4)
    gi, gq = _gen(0, "I"), _gen(0, "Q")
    want = _serial_writes(gi, gq, 13, 4, 2.5)
    if cpus is not None:
        monkeypatch.setattr(blocks, "cpu_count", lambda: cpus)
    writes, threads = [], []

    def write(samples):
        threads.append(threading.get_ident())
        writes.append(samples)

    synthesize(gi, gq, 13, -27.0, 4, 2.5, write)
    assert [len(w) for w in writes] == [len(w) for w in want] and len(want) == 3
    assert [w.tobytes() for w in writes] == [w.tobytes() for w in want]
    if cpus == 1:
        assert set(threads) == {threading.get_ident()}  # the two tasks run in turn in the caller
    elif cpus == 2:
        assert set(threads) != {threading.get_ident()}  # a block is written while the next is generated


def _spy(fn, outputs):
    def spied(*args):
        outputs.append(fn(*args))
        return outputs[-1]

    return spied


def test_synthesize_frame_power_denormalizes():
    unit = _synth(8, seed=1, rc_length=1, frame_power=1.0)
    assert np.allclose(_synth(8, seed=1, rc_length=1, frame_power=4.0), 2.0 * unit, atol=1e-12)


def test_resolve_frame_draws_from_the_synthesis_frame_substream():
    for seed in range(6):
        drawn = resolve_frame("random", seed, 3)
        assert drawn == int(substream(seed, "synthesis", "frame").integers(0, 3))
        assert resolve_frame("random", seed, 3) == drawn
    assert resolve_frame(2, 0, 3) == 2
    assert resolve_frame("1", 0, 3) == 1
    for bad in (3, -1, "x"):
        with pytest.raises(ValueError):
            resolve_frame(bad, 0, 3)


def test_synthesize_validation():
    with pytest.raises(ValueError):
        synthesize(_gen(0, "I"), build_generator(128, 0, width=16), 4, -27.0, 0, 1.0, _no_write)
    with pytest.raises(ValueError, match="n_gen"):
        _synth(0)


@pytest.mark.parametrize("rc_length", [128, 2, 0, -1])
def test_synthesize_refuses_an_even_or_non_positive_rc_length(monkeypatch, rc_length):
    monkeypatch.setattr(Net, "predict", _no_generator_pass)
    with pytest.raises(ValueError, match="rc_length must be odd and >= 1"):
        _synth(4, rc_length=rc_length)


@pytest.mark.parametrize("rolloff", [5.0, 0.0, -1.0, float("nan")])
@pytest.mark.parametrize("rc_length", [1, 129])
def test_synthesize_refuses_a_rolloff_outside_0_1_at_every_length(monkeypatch, rc_length, rolloff):
    monkeypatch.setattr(Net, "predict", _no_generator_pass)
    with pytest.raises(ValueError, match=r"rolloff must be in \(0, 1\]"):
        _synth(4, rc_length=rc_length, rolloff=rolloff)


def _no_generator_pass(*args, **kwargs):
    raise AssertionError("a generator pass ran")


def _no_write(samples):
    raise AssertionError("samples were written")
