"""Spectral transforms and the pulse-shaping filter for stream assembly.

The DFT here is deliberately self-contained: a four-step FFT for
power-of-two lengths, whose short DFTs are matrix products with cached DFT
matrices (so its time goes to BLAS), and a direct O(N^2) evaluation
otherwise. Nothing in the package imports an FFT from elsewhere; tests check
this implementation against a naive transform and a radix-2 FFT.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .blocks import row_blocks, run_blocks


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# Length of the short DFTs the FFT is built from, each done as a matrix
# product. A length n > FFT_RADIX is split as FFT_RADIX * (n // FFT_RADIX).
FFT_RADIX = 64

# Size of the FFT's row blocks: rows are transformed as many at a time as fit,
# at least one, so a block's intermediates stay in cache. The result does not
# depend on it.
FFT_BLOCK_BYTES = 256 * 1024


@functools.lru_cache(maxsize=32)
def _roots(n: int, rows: int, cols: int) -> np.ndarray:
    """Read-only ``exp(-2j pi (j k mod n) / n)`` for ``j < rows``, ``k < cols``.

    ``_roots(n, n, n)`` is the length-``n`` DFT matrix (it is symmetric).
    """
    jk = np.outer(np.arange(rows), np.arange(cols)) % n
    table = np.exp(-2j * np.pi * jk / n)
    table.setflags(write=False)
    return table


def fft_block_rows(n: int) -> int:
    """Rows per FFT block for a transform of length ``n``."""
    return max(1, FFT_BLOCK_BYTES // (16 * n))


def _dft_columns(a: np.ndarray) -> np.ndarray:
    """DFT down the columns of each matrix of the ``(stack, n, cols)`` array ``a``, ``n`` a power of two.

    Bailey's four-step FFT: with ``n = FFT_RADIX * n2``, column element
    ``n2 * j1 + j2`` goes to cell ``(j1, j2)``. Length-``FFT_RADIX`` DFTs over
    ``j1``, a twiddle ``exp(-2j pi k1 j2 / n)`` on cell ``(k1, j2)`` and
    length-``n2`` DFTs over ``j2`` (recursing, with the ``FFT_RADIX`` values
    of ``k1`` as extra columns) leave bin ``k1 + FFT_RADIX * k2`` at
    ``(k2, k1)``, in natural order. Every product is stacked per matrix, so
    each matrix gets the same BLAS calls whatever the size of the stack.
    """
    stack, n, cols = a.shape
    if n <= FFT_RADIX:
        return _roots(n, n, n) @ a
    n2 = n // FFT_RADIX
    cells = _roots(FFT_RADIX, FFT_RADIX, FFT_RADIX) @ a.reshape(stack, FFT_RADIX, n2 * cols)
    cells = cells.reshape(stack, FFT_RADIX, n2, cols)
    cells *= _roots(n, FFT_RADIX, n2)[:, :, None]
    spectra = _dft_columns(cells.transpose(0, 2, 1, 3).reshape(stack, n2, FFT_RADIX * cols))
    return spectra.reshape(stack, n, cols)


def _fft_pow2(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Four-step FFT over the last axis, for a power-of-two length.

    Rows go ``fft_block_rows(n)`` at a time through ``_dft_columns``, each
    as a one-column matrix; ``run_blocks`` spreads the blocks over the CPUs.
    Each row goes through the same operations in the same order whatever the
    block or the worker. ``inverse`` computes ``conj(fft(conj(x))) / n`` instead. The
    output is C-contiguous.
    """
    n = x.shape[-1]
    out = np.empty(x.shape, dtype=np.complex128)
    src = np.asarray(x, dtype=np.complex128).reshape(-1, n)
    dst = out.reshape(-1, n)
    conjugate_in = inverse and np.iscomplexobj(x)

    def transform(rows, _):
        block = np.conjugate(src[rows]) if conjugate_in else src[rows]
        spectra = _dft_columns(block[:, :, None]).reshape(block.shape)
        if inverse:
            np.divide(np.conjugate(spectra, out=spectra), n, out=dst[rows])
        else:
            dst[rows] = spectra

    run_blocks(transform, row_blocks(dst.shape[0], fft_block_rows(n)))
    return out


def _dft_direct(x: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    if n == 1:
        return np.array(x, dtype=np.complex128)
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return np.asarray(x, dtype=np.complex128) @ basis.T


def dft(x: np.ndarray, *, inverse: bool = False) -> np.ndarray:
    """Discrete Fourier transform over the last axis (any length >= 1).

    Power-of-two lengths take the four-step FFT; other lengths fall back
    to the direct transform. Output is complex128 with numpy conventions
    (bin k holds ``sum_n x[n] exp(-2j pi k n / N)``, no scaling).
    ``inverse=True`` gives the inverse transform, as ``idft``.
    """
    x = np.asarray(x)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("dft needs a non-empty array")
    n = x.shape[-1]
    if n > 1 and _is_pow2(n):
        return _fft_pow2(x, inverse)
    if inverse:
        return np.conj(_dft_direct(np.conj(x))) / n
    return _dft_direct(x)


def idft(x: np.ndarray) -> np.ndarray:
    """Inverse DFT over the last axis (1/N convention), any length >= 1."""
    return dft(x, inverse=True)


@dataclass(frozen=True)
class RaisedCosineSpec:
    """A pulse-shaping kernel: odd length, rolloff in (0, 1], unit DC gain."""

    length: int
    rolloff: float
    taps: np.ndarray = field(repr=False)


def raised_cosine_value(tau, length: int, rolloff: float):
    """Evaluate the raised-cosine kernel on its continuous argument.

    Flat at 1 for ``|tau| <= (1-rolloff)/(2*length)``, cosine rolloff out to
    ``(1+rolloff)/(2*length)``, zero beyond. Accepts scalars or arrays.
    """
    tau = np.asarray(tau, dtype=np.float64)
    a = np.abs(tau)
    flat_edge = (1.0 - rolloff) / (2.0 * length)
    outer_edge = (1.0 + rolloff) / (2.0 * length)
    rolled = 0.5 * (1.0 + np.cos(np.pi * length / rolloff * (a - flat_edge)))
    out = np.where(a <= flat_edge, 1.0, np.where(a <= outer_edge, rolled, 0.0))
    return float(out) if out.ndim == 0 else out


def raised_cosine_taps(length: int, rolloff: float) -> RaisedCosineSpec:
    """Sample the kernel on a symmetric grid and normalize to unit DC gain.

    The grid is ``tau_j = (j - (length-1)/2) * (1+rolloff) / (length*(length-1))``,
    which spans exactly the kernel support, so the endpoint taps are zero and
    the center tap is the maximum.
    """
    if length < 3 or length % 2 == 0:
        raise ValueError(f"length must be odd and >= 3, got {length}")
    if not 0.0 < rolloff <= 1.0:
        raise ValueError(f"rolloff must be in (0, 1], got {rolloff}")
    offsets = np.arange(length) - (length - 1) // 2
    tau = offsets * ((1.0 + rolloff) / (length * (length - 1)))
    taps = raised_cosine_value(tau, length, rolloff)
    taps = taps / taps.sum()
    return RaisedCosineSpec(length=length, rolloff=float(rolloff), taps=taps)


@functools.lru_cache(maxsize=8)
def _taps_spectrum(taps: tuple, n: int) -> np.ndarray:
    """Read-only DFT of ``taps`` zero-extended to length ``n``."""
    h = np.zeros(n, dtype=np.complex128)
    h[: len(taps)] = taps
    spectrum = dft(h)
    spectrum.setflags(write=False)
    return spectrum


def circular_convolve(signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Circular convolution over the last axis, taps zero-extended to match.

    Uses the DFT product for power-of-two lengths and the direct modular sum
    otherwise. Output is complex128 and has the signal's shape. The taps'
    transform is computed once per taps and length, as the DFT matrices are.
    """
    signal = np.asarray(signal, dtype=np.complex128)
    taps = np.asarray(taps)
    n = signal.shape[-1]
    if taps.ndim != 1 or taps.size == 0:
        raise ValueError("taps must be a non-empty 1-D array")
    if taps.size > n:
        raise ValueError(f"taps ({taps.size}) longer than signal ({n})")
    if _is_pow2(n):
        return idft(dft(signal) * _taps_spectrum(tuple(taps.tolist()), n))
    out = np.zeros_like(signal)
    for m in range(taps.size):
        out += taps[m] * np.roll(signal, m, axis=-1)
    return out


@dataclass
class OverlapSaveCarry:
    """What one block of a stream leaves the next in ``overlap_save_reconstruct``."""

    n_samples: int  # the whole stream's length
    taken: int = 0  # stream samples passed in so far
    made: int = 0  # filtered samples the windows have yielded so far, the group delay's included
    tail: np.ndarray | None = field(default=None, repr=False)  # the prefixed stream from the next window on


def overlap_save_reconstruct(packets: np.ndarray, spec: RaisedCosineSpec,
                             carry: OverlapSaveCarry | None = None) -> np.ndarray:
    """Stitch generated packets into one pulse-shaped stream.

    The packets are concatenated in row order and filtered with ``spec.taps``
    by the overlap-save method: the stream is prefixed with ``length - 1``
    zeros, windows of ``packet_len`` samples advancing by
    ``packet_len - (length - 1)`` are circularly convolved with the
    zero-extended taps, and the first ``length - 1`` samples of each window
    (the circular wrap-around) are discarded. The result is compensated for
    the filter group delay ``(length - 1) / 2`` and truncated to the
    concatenated length, so it matches direct linear convolution of the
    stream with the same truncation.

    A stream may come in blocks of whole packets: ``carry``, made as
    ``OverlapSaveCarry(n_samples)`` for the whole stream and passed with each
    block in order, keeps the unconsumed end of the prefixed stream between
    calls, fewer than ``packet_len`` samples. Each call returns the filtered
    samples its block completes; the last block's call pads the zeros the
    final windows need. The windows keep the grid of the whole stream and
    each is transformed once, so the concatenated results are the bits of one
    call on every packet, which is the call without ``carry``.
    """
    packets = np.asarray(packets, dtype=np.complex128)
    if packets.ndim != 2 or packets.size == 0:
        raise ValueError("packets must be a non-empty 2-D array")
    n_fft = packets.shape[1]
    length = spec.length
    if length > n_fft:
        raise ValueError(f"filter length {length} exceeds packet length {n_fft}")
    stream = packets.reshape(-1)
    if carry is None:
        carry = OverlapSaveCarry(stream.size)
    if carry.taken + stream.size > carry.n_samples:
        raise ValueError(f"block runs past the stream's {carry.n_samples} samples")
    carry.taken += stream.size
    if length == 1:
        # No overlap to save: a one-tap filter is an exact scaling.
        return stream * spec.taps[0]

    delay = (length - 1) // 2
    hop = n_fft - (length - 1)
    if carry.tail is None:
        carry.tail = np.zeros(length - 1, dtype=np.complex128)
    held = carry.tail.size + stream.size
    if carry.taken < carry.n_samples:
        n_windows = (held - n_fft) // hop + 1  # the whole windows held; a block holds at least one
        pad = 0
    else:
        # enough windows to cover the delayed end, their last one zero-padded
        n_windows = -(-(carry.n_samples + delay - carry.made) // hop)  # ceil
        pad = (n_windows - 1) * hop + n_fft - held
    padded = np.concatenate([carry.tail, stream, np.zeros(pad, dtype=np.complex128)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, n_fft)[::hop][:n_windows]
    filtered = circular_convolve(windows, spec.taps)
    linear = filtered[:, length - 1 :].reshape(-1)
    carry.tail = padded[n_windows * hop :].copy()
    first = max(0, delay - carry.made)  # the group delay's samples not yet dropped
    emitted = max(0, carry.made - delay)
    carry.made += linear.size
    return linear[first : first + carry.n_samples - emitted]
