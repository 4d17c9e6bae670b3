"""Transform, filter-tap, and block-convolution checks against direct oracles."""

import os
import subprocess
import sys

import numpy as np
import pytest

from radiogan import blocks, dsp
from radiogan.dsp import (
    OverlapSaveCarry,
    RaisedCosineSpec,
    circular_convolve,
    dft,
    idft,
    overlap_save_reconstruct,
    raised_cosine_taps,
    raised_cosine_value,
)


def naive_dft(x):
    """O(N^2) direct sum, written independently of the library code."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return x @ basis.T


def naive_circular(x, h):
    """y[n] = sum_m x[(n-m) mod N] h[m]."""
    n = x.size
    y = np.zeros(n, dtype=np.complex128)
    for m, tap in enumerate(h):
        y += tap * np.roll(x, m)
    return y


def test_dft_impulse():
    x = np.zeros(64)
    x[0] = 1.0
    assert np.allclose(dft(x), np.ones(64), atol=1e-12)


def test_dft_constant():
    x = np.ones(64)
    expect = np.zeros(64, dtype=complex)
    expect[0] = 64.0
    assert np.allclose(dft(x), expect, atol=1e-9)


def test_dft_single_tone():
    n = 128
    x = np.exp(2j * np.pi * 5 * np.arange(n) / n)
    spec = dft(x)
    assert abs(spec[5] - n) < 1e-9
    mask = np.ones(n, bool)
    mask[5] = False
    assert np.max(np.abs(spec[mask])) < 1e-9


@pytest.mark.parametrize("n", [256, 2048])
def test_dft_matches_direct_sum(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.max(np.abs(dft(x) - naive_dft(x))) < 1e-9


@pytest.mark.parametrize("n", [3, 5, 6, 100])
def test_dft_non_pow2_lengths(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.max(np.abs(dft(x) - naive_dft(x))) < 1e-9


def test_dft_batched_rows_match_loop():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
    batched = dft(x)
    for i in range(5):
        assert np.max(np.abs(batched[i] - dft(x[i]))) < 1e-11


def test_dft_linearity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    b = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    lhs = dft(2.0 * a + 3.0 * b)
    rhs = 2.0 * dft(a) + 3.0 * dft(b)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("n", [4, 64, 256, 1024, 4096])
def test_parseval(n):
    rng = np.random.default_rng(n + 7)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    time_e = np.sum(np.abs(x) ** 2)
    freq_e = np.sum(np.abs(dft(x)) ** 2) / n
    assert abs(time_e - freq_e) / time_e < 1e-6


@pytest.mark.parametrize("n", [8, 100, 256])
def test_idft_inverts(n):
    rng = np.random.default_rng(n + 17)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.max(np.abs(idft(dft(x)) - x)) < 1e-9


def test_dft_length_one():
    assert np.allclose(dft(np.array([3.0 + 1j])), [3.0 + 1j])


def test_dft_rejects_empty():
    with pytest.raises(ValueError):
        dft(np.array([]))


# --- blocked four-step FFT: row by row and against radix-2 -------------------


def reference_fft_pow2(x):
    """The radix-2 loop over the whole batch at once, stage by stage, as the
    package first wrote it: an accuracy oracle for the four-step FFT."""
    n = x.shape[-1]
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for bit in range(bits):
        rev |= ((idx >> bit) & 1) << (bits - 1 - bit)
    out = np.ascontiguousarray(x, dtype=np.complex128)[..., rev]
    span = 2
    while span <= n:
        half = span // 2
        twiddle = np.exp(-2j * np.pi * np.arange(half) / span)
        blocks = out.reshape(*out.shape[:-1], n // span, span)
        odd = blocks[..., half:] * twiddle
        even = blocks[..., :half]
        low = even + odd
        high = even - odd
        blocks[..., :half] = low
        blocks[..., half:] = high
        span *= 2
    return out


def reference_ifft_pow2(x):
    x = np.asarray(x)
    return np.conj(reference_fft_pow2(np.conj(x))) / x.shape[-1]


def assert_same_bits(actual, expected):
    """Exact equality, down to the sign of zero."""
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()


def one_row_at_a_time(transform, x):
    """``transform`` of each row of ``x`` on its own: one row, one block, one thread."""
    x = np.asarray(x)
    rows = x.reshape(-1, x.shape[-1])
    return np.stack([transform(row) for row in rows]).reshape(x.shape)


def assert_fft_bits_per_row(x):
    """``dft`` and ``idft`` of the batch give each row the bits it gets alone,
    and differ from radix-2 by at most 1e-14 times the spectrum's peak."""
    for transform, reference in ((dft, reference_fft_pow2), (idft, reference_ifft_pow2)):
        out = transform(x)
        assert out.flags.c_contiguous
        assert_same_bits(out, one_row_at_a_time(transform, x))
        expect = reference(x)
        assert np.max(np.abs(out - expect)) <= 1e-14 * np.max(np.abs(expect))


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize(
    "shape",
    [(2,), (64,), (2048,), (5, 64), (3, 256), (2, 3, 128), (2, 2, 2, 32), (3, 4096), (3, 8192), (2, 32768)],
)
def test_fft_matches_whole_batch_loop_bitwise(shape):
    # 4096 is the longest split in one pass; 8192 and 32768 recurse
    rng = np.random.default_rng(sum(shape))
    x = _complex(rng, shape)
    assert_fft_bits_per_row(x)
    if shape[-1] <= 256:
        assert np.max(np.abs(dft(x) - naive_dft(x))) < 1e-9


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_fft_real_input_matches_whole_batch_loop_bitwise(dtype):
    rng = np.random.default_rng(7)
    assert_fft_bits_per_row((100 * rng.standard_normal((4, 128))).astype(dtype))


@pytest.mark.parametrize("real", [False, True])
def test_fft_exact_zeros_keep_their_signs(real):
    x = np.zeros((3, 16), dtype=np.complex128)
    x[1] = -0.0
    x[2, ::2] = complex(-0.0, 0.0)
    if real:
        x = np.concatenate([x.real, np.eye(16), np.ones((1, 16))])
    assert_fft_bits_per_row(x)
    assert not np.any(dft(x[:3])) and not np.any(idft(x[:3]))


@pytest.mark.parametrize("n_fft,length", [(256, 129), (64, 5)])
def test_fft_of_overlap_save_windows_matches_whole_batch_loop(n_fft, length):
    # the strided window view overlap_save_reconstruct transforms
    rng = np.random.default_rng(n_fft)
    hop = n_fft - (length - 1)
    padded = np.concatenate([np.zeros(length - 1), _complex(rng, 20 * n_fft), np.zeros(hop)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, n_fft)[::hop]
    assert not windows.flags.c_contiguous
    assert_fft_bits_per_row(windows)


@pytest.mark.parametrize("block_rows", [1, 3])
@pytest.mark.parametrize("n_rows", [1, 2, 3, 6, 7, 10])
def test_fft_block_boundaries(monkeypatch, block_rows, n_rows):
    # batches inside one block, on block boundaries, and with a ragged tail
    monkeypatch.setattr(dsp, "FFT_BLOCK_BYTES", block_rows * 16 * 64)
    assert dsp.fft_block_rows(64) == block_rows
    assert_fft_bits_per_row(_complex(np.random.default_rng(n_rows), (n_rows, 64)))


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("block_rows", [1, 2, 3])
@pytest.mark.parametrize("n_rows", [1, 2, 4, 7, 17])
def test_fft_on_any_worker_count_matches_the_whole_batch_loop(monkeypatch, workers, block_rows, n_rows):
    # fewer blocks than workers, runs of several blocks, ragged last blocks
    monkeypatch.setattr(blocks, "cpu_count", lambda: workers)
    monkeypatch.setattr(dsp, "FFT_BLOCK_BYTES", block_rows * 16 * 64)
    x = _complex(np.random.default_rng(100 * workers + n_rows), (n_rows, 64))
    assert_fft_bits_per_row(x)
    assert_fft_bits_per_row(x.real)


def test_fft_default_blocks_with_ragged_tail():
    step = dsp.fft_block_rows(2048)
    assert step >= 1
    assert_fft_bits_per_row(_complex(np.random.default_rng(11), (2 * step + 3, 2048)))


_BLAS_THREAD_BYTES = """
import ctypes, hashlib, os
import numpy as np
import radiogan
from radiogan.dsp import dft, idft
from radiogan.net.layers import DenseLayer
libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
for name in [name for name in sorted(os.listdir(libdir)) if "openblas" in name] if os.path.isdir(libdir) else []:
    lib = ctypes.CDLL(os.path.join(libdir, name))
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
        if hasattr(lib, symbol):
            print("threads", getattr(lib, symbol)())  # the count the loaded library runs
for n in (64, 256, 2048, 8192):
    x = np.random.default_rng(n).standard_normal((37, 2 * n)).view(np.complex128)
    print(n, hashlib.sha256(dft(x).tobytes() + idft(x).tobytes()).hexdigest())
# the discriminator's first dense layer at n_fft 2048: stacked (32 x 1921) . (1921 x 32) GEMMs
layer = DenseLayer.create(1921, 32, "relu", 1)
layer.weights, layer.bias = layer.weights.astype(np.float32), np.full(32, 0.1, np.float32)
x = np.random.default_rng(2).standard_normal((64, 32, 1921)).astype(np.float32)
out, cache = layer.forward(x)
grad_x, grads = layer.backward(cache, np.random.default_rng(3).standard_normal(out.shape))
print("dense", hashlib.sha256(b"".join(a.tobytes() for a in (out, grad_x, *grads))).hexdigest())
"""


def test_fft_bits_do_not_depend_on_the_blas_thread_count():
    # importing radiogan sets numpy's OpenBLAS to one thread, whatever the
    # variables say, so the FFT and the stacked dense GEMMs give the same bytes
    src = os.path.dirname(os.path.dirname(dsp.__file__))
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    outputs = {
        threads: subprocess.run(
            [sys.executable, "-c", _BLAS_THREAD_BYTES],
            env=env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for threads in ("1", "2", "64", None)
    }
    if not outputs["1"].startswith("threads "):
        pytest.skip("numpy's bundled OpenBLAS was not found")
    for out in outputs.values():
        assert out.splitlines()[0] == "threads 1"
    digests = {out.split("\n", 1)[1] for out in outputs.values()}
    assert len(digests) == 1
    assert digests.pop().count("\n") == 5


def test_fft_of_zero_rows_is_empty():
    assert dft(np.zeros((0, 8))).shape == (0, 8)
    assert idft(np.zeros((2, 0, 8))).shape == (2, 0, 8)


def test_fft_does_not_modify_its_input():
    x = _complex(np.random.default_rng(13), (4, 64))
    before = x.copy()
    dft(x)
    idft(x)
    assert_same_bits(x, before)


def test_fft_cached_tables_are_read_only():
    dft(np.ones(8192))
    # the radix DFT matrix, the twiddles of each split and the last DFT matrix
    for table in (dsp._roots(64, 64, 64), dsp._roots(8192, 64, 128), dsp._roots(128, 64, 2), dsp._roots(2, 2, 2)):
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
    assert np.allclose(dft(np.eye(64)), naive_dft(np.eye(64)), atol=1e-9)


# --- raised cosine -----------------------------------------------------------


def test_rc_value_center_and_endpoints():
    L, beta = 129, 0.25
    assert raised_cosine_value(0.0, L, beta) == pytest.approx(1.0, abs=1e-15)
    edge = (1 + beta) / (2 * L)
    assert raised_cosine_value(edge, L, beta) == pytest.approx(0.0, abs=1e-12)
    assert raised_cosine_value(-edge, L, beta) == pytest.approx(0.0, abs=1e-12)
    assert raised_cosine_value(2 * edge, L, beta) == 0.0


def test_rc_value_rolloff_midpoint():
    # |tau| = 1/(2L) puts the cosine argument at pi/4 -> value 1/2 exactly
    L = 129
    for beta in (0.25, 0.5, 1.0):
        assert raised_cosine_value(1.0 / (2 * L), L, beta) == pytest.approx(0.5, abs=1e-12)


def test_rc_value_flat_region():
    L, beta = 129, 0.25
    flat = (1 - beta) / (2 * L)
    taus = np.linspace(-flat, flat, 11)
    assert np.allclose(raised_cosine_value(taus, L, beta), 1.0, atol=1e-15)


def test_rc_taps_shape_properties():
    spec = raised_cosine_taps(129, 0.25)
    taps = spec.taps
    assert taps.shape == (129,)
    # symmetry is exact (grid is symmetric by construction)
    assert np.array_equal(taps, taps[::-1])
    assert taps[64] == np.max(taps)  # flat top: center ties with its neighbors
    assert taps[0] == pytest.approx(0.0, abs=1e-15)
    assert taps[-1] == pytest.approx(0.0, abs=1e-15)
    assert np.sum(taps) == pytest.approx(1.0, abs=1e-12)
    assert np.all(taps >= 0.0)


def test_rc_taps_prenormalization_values():
    # center tap sits at tau=0 (value 1) before unit-DC scaling
    spec = raised_cosine_taps(129, 0.25)
    rescaled = spec.taps / spec.taps[64]
    grid = (np.arange(129) - 64) * (1 + 0.25) / (129 * 128)
    assert np.max(np.abs(rescaled - raised_cosine_value(grid, 129, 0.25))) < 1e-12


@pytest.mark.parametrize("bad_len", [1, 2, 4, -3])
def test_rc_taps_rejects_bad_length(bad_len):
    with pytest.raises(ValueError):
        raised_cosine_taps(bad_len, 0.25)


@pytest.mark.parametrize("bad_beta", [0.0, -0.1, 1.5])
def test_rc_taps_rejects_bad_beta(bad_beta):
    with pytest.raises(ValueError):
        raised_cosine_taps(129, bad_beta)


# --- circular convolution ----------------------------------------------------


def test_circular_identity_tap():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.max(np.abs(circular_convolve(x, np.array([1.0])) - x)) < 1e-12


def test_circular_shift_tap():
    x = np.arange(8, dtype=float)
    y = circular_convolve(x, np.array([0.0, 1.0]))
    assert np.allclose(y, np.roll(x, 1), atol=1e-12)


@pytest.mark.parametrize("n,l", [(64, 5), (100, 7), (256, 129), (2048, 129)])
def test_circular_matches_modular_sum(n, l):
    rng = np.random.default_rng(n + l)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    h = rng.standard_normal(l)
    assert np.max(np.abs(circular_convolve(x, h) - naive_circular(x, h))) < 1e-9


def test_circular_rejects_long_taps():
    with pytest.raises(ValueError):
        circular_convolve(np.ones(4), np.ones(5))


# --- overlap-save reconstruction ---------------------------------------------


def oracle_reconstruct(packets, taps):
    """Direct linear convolution of the concatenated stream, delay-compensated."""
    stream = packets.reshape(-1)
    delay = (taps.size - 1) // 2
    full = np.convolve(stream, taps)
    return full[delay : delay + stream.size]


def test_overlap_save_impulse_taps():
    rng = np.random.default_rng(5)
    packets = rng.standard_normal((3, 256)) + 1j * rng.standard_normal((3, 256))
    spec = RaisedCosineSpec(length=1, rolloff=0.25, taps=np.ones(1))
    out = overlap_save_reconstruct(packets, spec)
    assert np.array_equal(out, packets.reshape(-1))


def test_overlap_save_single_tap_scales():
    packets = np.ones((2, 64), dtype=complex)
    spec = RaisedCosineSpec(length=1, rolloff=0.25, taps=np.array([0.5]))
    assert np.allclose(overlap_save_reconstruct(packets, spec), 0.5, atol=1e-15)


@pytest.mark.parametrize("n_fft", [256, 2048])
@pytest.mark.parametrize("n_packets", [1, 2, 3, 7])
@pytest.mark.parametrize("length", [3, 63, 129])
def test_overlap_save_matches_linear_convolution(n_fft, n_packets, length):
    rng = np.random.default_rng(n_fft + n_packets * 31 + length)
    packets = rng.standard_normal((n_packets, n_fft)) + 1j * rng.standard_normal((n_packets, n_fft))
    spec = raised_cosine_taps(length, 0.25)
    out = overlap_save_reconstruct(packets, spec)
    expect = oracle_reconstruct(packets, spec.taps)
    assert out.shape == (n_packets * n_fft,)
    assert np.max(np.abs(out - expect)) < 1e-9


def _blocked_reconstruct(packets, spec, cuts):
    """``overlap_save_reconstruct`` fed the packets in blocks ending at ``cuts``."""
    carry = OverlapSaveCarry(packets.size)
    starts = [0, *cuts]
    out = [overlap_save_reconstruct(packets[lo:hi], spec, carry) for lo, hi in zip(starts, [*cuts, len(packets)])]
    assert carry.taken == packets.size
    return np.concatenate(out)


@pytest.mark.parametrize(
    "n_fft,length,n_packets,cuts",
    [
        (256, 129, 9, [1, 2, 3, 8]),  # one-packet blocks, and one at the end
        (256, 129, 9, [4]),
        (2048, 129, 5, [2]),
        (64, 63, 12, [1, 5, 6]),  # hop 2: the group delay spans many windows and blocks
        (64, 5, 7, [3]),
        (48, 17, 6, [1, 4]),  # a length without the FFT: the direct circular sum
        (64, 1, 5, [2, 3]),
    ],
)
def test_overlap_save_in_blocks_is_the_one_shot_stream_bit_for_bit(n_fft, length, n_packets, cuts):
    rng = np.random.default_rng(n_fft * length + n_packets)
    packets = rng.standard_normal((n_packets, n_fft)) + 1j * rng.standard_normal((n_packets, n_fft))
    spec = raised_cosine_taps(length, 0.25) if length > 1 else RaisedCosineSpec(1, 0.25, np.array([0.5]))
    whole = overlap_save_reconstruct(packets, spec)
    assert _blocked_reconstruct(packets, spec, cuts).tobytes() == whole.tobytes()
    assert np.max(np.abs(whole - oracle_reconstruct(packets, spec.taps))) < 1e-9


def test_overlap_save_carry_holds_less_than_a_window():
    rng = np.random.default_rng(2)
    spec = raised_cosine_taps(129, 0.25)
    carry = OverlapSaveCarry(6 * 256)
    for _ in range(5):
        overlap_save_reconstruct(rng.standard_normal((1, 256)) + 0j, spec, carry)
        assert carry.tail.size < 256
    with pytest.raises(ValueError, match="runs past the stream's 1536 samples"):
        overlap_save_reconstruct(np.ones((2, 256), dtype=complex), spec, carry)


def test_overlap_save_rejects_bad_shapes():
    spec = raised_cosine_taps(129, 0.25)
    with pytest.raises(ValueError):
        overlap_save_reconstruct(np.ones(256, dtype=complex), spec)  # 1-D
    with pytest.raises(ValueError):
        overlap_save_reconstruct(np.ones((1, 64), dtype=complex), spec)  # L > n_fft
