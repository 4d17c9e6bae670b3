"""Quantitative model validation: spectra, PDFs, KS distance, verdicts.

Each of the qualitative checks usually done by eye on spectra and PDF
overlays is converted into a number: occupied-band energy fractions against
a white-noise baseline, Kolmogorov-Smirnov distances between sample
distributions, and the mean discriminator accuracy near the end of training.
The pass thresholds are artifact decisions calibrated on the synthetic
prototype and are stored inside the report so the verdict is re-derivable
from the report alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .blocks import joined_blocks, row_blocks, run_blocks
from .dsp import dft, fft_block_rows
from .gan import Net
from .iqcore import COMPONENTS
from .kvfile import format_kv, parse_kv
from .seeding import substream
from .synthesis import assemble_iq, generate_packets

DEFAULT_COVERAGE = 0.9
DEFAULT_N_BINS = 101
DEFAULT_SIGMA_SPAN = 4.0
DEFAULT_BAND_RATIO_MIN = 2.0
DEFAULT_ACCURACY_BAND = (0.3, 0.8)

SPECTRUM_BLOCK_ROWS = 128  # packets transformed at a time by spectral_matrix
SPECTRUM_TABLE_PACKETS = 64  # packet columns of each spectrum table

# Distinct values counted at a time by the KS distance, so that no temporary
# grows with the sample size.
_CHUNK = 1 << 16

_CRITERIA = ("ks_gen_below_noise", "band_fraction_ratio", "accuracy_in_band")


def spectral_matrix(blocks, pool=None) -> tuple:
    """``(energies, table)`` of the packets of ``blocks``, an iterable of
    complex [rows, n_fft] blocks in packet order: the energy of each frequency
    bin, summed over the P packets, and the magnitude spectra of the first
    ``min(P, SPECTRUM_TABLE_PACKETS)`` packets, one column each.

    Each block is transformed by one ``dft`` call in this thread; its
    magnitudes, their squares and the copies into ``pool`` are then taken on
    the CPU pool, in the FFT's row blocks. Each packet's squared magnitudes
    are added into the energies in packet order, the float sum down the
    packet axis of the whole [P, n_fft] matrix bit for bit (adding per-block
    sums would round differently); no [P, n_fft] array is made. With
    ``pool``, a float64 [2, P, n_fft] array, each block's real parts are also
    copied into ``pool[0]`` and its imaginary parts into ``pool[1]``, and
    blocks holding more or fewer than its P packets raise ``ValueError``.
    """
    start = 0
    for block in blocks:
        block = np.asarray(block, dtype=np.complex128)
        if block.ndim != 2:
            raise ValueError(f"each block must be a 2-D [rows, n_fft] array, got shape {block.shape}")
        stop = start + block.shape[0]
        if start == 0:
            energies = np.zeros(block.shape[1])
            table = np.empty((SPECTRUM_TABLE_PACKETS, block.shape[1]))
        if pool is not None and stop > pool.shape[1]:
            raise ValueError(f"the blocks hold more than {pool.shape[1]} packets")
        spectrum = dft(block)
        magnitudes = np.empty(spectrum.shape)

        def finish(rows, _):
            packets = slice(start + rows.start, start + rows.stop)
            if pool is not None:
                pool[0, packets], pool[1, packets] = block[rows].real, block[rows].imag
            np.abs(spectrum[rows], out=magnitudes[rows])
            table[packets] = magnitudes[rows][: max(0, SPECTRUM_TABLE_PACKETS - packets.start)]
            np.square(magnitudes[rows], out=magnitudes[rows])

        run_blocks(finish, row_blocks(len(block), fft_block_rows(block.shape[1])))
        for row in magnitudes:
            energies += row
        start = stop
    if start == 0:
        raise ValueError("the blocks hold no packet")
    if pool is not None and start != pool.shape[1]:
        raise ValueError(f"the blocks hold {start} packets, not {pool.shape[1]}")
    return energies, table[:start].T


def band_fraction(energies: np.ndarray, bins: np.ndarray) -> float:
    """Fraction of the total of the bin ``energies`` inside the given bins."""
    total = energies.sum()
    if total <= 0.0:
        raise ValueError("all-zero packets carry no energy")
    return float(energies[bins].sum() / total)


class _Ascending(tuple):
    """A sample set's parts, each a flat float64 array already in ascending
    order (NaN last), which the statistics take as they are."""


def _sorted_parts(samples) -> _Ascending:
    """A sample set's parts as they are if marked ``_Ascending``, else each
    sorted as a flat float64 copy (NaN last): the items of a tuple, whose
    values together are the set, or else the whole array."""
    if isinstance(samples, _Ascending):
        return samples
    parts = samples if isinstance(samples, tuple) else (samples,)
    return _Ascending(np.sort(np.asarray(part, dtype=np.float64), axis=None) for part in parts)


def _has_nan(parts) -> bool:
    """Whether any ascending part holds NaN, which sorts last."""
    return any(part.size and np.isnan(part[-1]) for part in parts)


def empirical_pdf(samples, n_bins: int, value_range) -> tuple:
    """Histogram masses over equal bins; out-of-range samples go to edge bins.

    ``np.histogram``'s edges and rule (bin i holds ``edges[i] <= x < edges[i+1]``,
    the last bin is closed), read off the sorted samples at the inner edges.
    ``samples`` is an array, or a tuple of arrays (its parts) whose counts are
    added. Returns ``(bin_centers, masses)``, masses summing to 1; NaN raises.
    """
    parts = _sorted_parts(samples)
    size = sum(part.size for part in parts)
    if size == 0:
        raise ValueError("empty input")
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    lo, hi = float(value_range[0]), float(value_range[1])
    if not -np.inf < lo < hi < np.inf:
        raise ValueError(f"range must be finite with lo < hi, got ({lo}, {hi})")
    if _has_nan(parts):
        raise ValueError("samples contain NaN")
    edges = np.linspace(lo, hi, n_bins + 1)
    below = sum(np.searchsorted(part, edges[1:-1]) for part in parts)
    counts = np.diff(below, prepend=0, append=size)
    return 0.5 * (edges[:-1] + edges[1:]), counts / size  # bin centers, masses


def ks_distance(a, b) -> float:
    """Sup-norm distance between the empirical CDFs of two sample sets.

    Each is an array, or a tuple of arrays (its parts), in any order; a
    sorted array is not sorted again. Let ``a`` be the smaller; its parts, if
    it has more than one, are merged. Between consecutive distinct values of
    ``a`` its count is fixed and that of ``b`` grows, so the CDF difference is
    monotone there and peaks at an end: at a value v of ``a`` (``A(v)``,
    ``#b <= v``) or just below it (the previous count, or 0, and ``#b < v``).
    The counts of ``b`` are taken for ``_CHUNK`` distinct values of ``a`` at a
    time, each non-empty part of ``b`` on the CPU pool, and added in part
    order. Each candidate is ``|count_a/n_a - count_b/n_b|`` and rounding is
    monotone, so the result is the same float as the maximum over every
    merged value. Empty or NaN input raises ``ValueError``.
    """
    a, b = _sorted_parts(a), _sorted_parts(b)
    n_a, n_b = (sum(part.size for part in parts) for parts in (a, b))
    if n_b < n_a:  # a is the smaller sample
        a, b, n_a, n_b = b, a, n_b, n_a
    if n_a == 0:
        raise ValueError("empty input")
    if _has_nan(a) or _has_nan(b):
        raise ValueError("samples contain NaN")
    a = a[0] if len(a) == 1 else np.sort(np.concatenate(a))
    last = np.flatnonzero(np.append(a[1:] != a[:-1], True))  # the end of each run of equal values
    b = [part for part in b if part.size]
    distance = 0.0
    for start in range(0, last.size, _CHUNK):
        ends = last[start : start + _CHUNK]
        values = a[ends]
        count_a = ends + 1.0
        counts = run_blocks(partial(_counts_at, values), b)  # each part on its own CPU
        upto, below = (sum(part_counts) for part_counts in zip(*counts))
        at_v = count_a / n_a - upto / n_b
        below_v = np.append(last[start - 1] + 1.0 if start else 0.0, count_a[:-1]) / n_a - below / n_b
        distance = max(distance, np.max(np.abs(at_v)), np.max(np.abs(below_v)))
    return float(distance)


def _counts_at(values, part, _) -> tuple:
    """``(#part <= v, #part < v)`` for each of the ascending ``values``, ``part`` ascending and not empty."""
    upto = np.searchsorted(part, values, side="right")
    below = upto.copy()  # the same count unless the part holds v
    held = (part[upto - 1] == values) & (upto > 0)
    below[held] = np.searchsorted(part, values[held], side="left")
    return upto, below


def occupied_band_bins(energies: np.ndarray, coverage: float = DEFAULT_COVERAGE) -> np.ndarray:
    """Smallest set of bins holding ``coverage`` of the total of the bin ``energies``.

    Bins are taken greedily by descending energy (ties broken by bin index);
    the returned indices are sorted ascending.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must lie in (0, 1], got {coverage}")
    total = energies.sum()
    if total <= 0.0:
        raise ValueError("all-zero spectrum has no occupied band")
    order = np.argsort(-energies, kind="stable")
    cumulative = np.cumsum(energies[order])
    n_needed = int(np.searchsorted(cumulative, coverage * total)) + 1
    return np.sort(order[:n_needed])


@dataclass
class ValidationReport:
    """Validation numbers plus the thresholds that turn them into a verdict."""

    ks_proto_vs_gen: float
    ks_proto_vs_noise: float
    band_energy_fraction_gen: float
    band_energy_fraction_noise: float
    mean_d_accuracy: float
    packet_correlation_gen: float
    band_ratio_min: float = DEFAULT_BAND_RATIO_MIN
    accuracy_band: tuple = DEFAULT_ACCURACY_BAND
    criteria: dict = field(default_factory=dict)
    verdict: str = ""

    def __post_init__(self) -> None:
        self.accuracy_band = (float(self.accuracy_band[0]), float(self.accuracy_band[1]))
        derived = self.derive_criteria()
        if not self.criteria:
            self.criteria = derived
        elif self.criteria != derived:
            raise ValueError("stored criteria disagree with the stored numbers")
        expected = "pass" if all(derived.values()) else "fail"
        if not self.verdict:
            self.verdict = expected
        elif self.verdict != expected:
            raise ValueError(f"stored verdict {self.verdict!r} disagrees with the stored numbers")

    def derive_criteria(self) -> dict:
        return {
            "ks_gen_below_noise": bool(self.ks_proto_vs_gen < self.ks_proto_vs_noise),
            "band_fraction_ratio": bool(
                self.band_energy_fraction_gen >= self.band_ratio_min * self.band_energy_fraction_noise
            ),
            "accuracy_in_band": bool(
                self.accuracy_band[0] < self.mean_d_accuracy < self.accuracy_band[1]
            ),
        }

    def to_text(self) -> str:
        """The float fields in declaration order, the accuracy band, the criteria, the verdict."""
        pairs = {f.name: repr(getattr(self, f.name)) for f in fields(self) if f.type == "float"}
        pairs["accuracy_band_low"], pairs["accuracy_band_high"] = map(repr, self.accuracy_band)
        for name in _CRITERIA:
            pairs[f"criterion_{name}"] = "true" if self.criteria[name] else "false"
        pairs["verdict"] = self.verdict
        return format_kv(pairs)

    @classmethod
    def from_text(cls, text: str) -> "ValidationReport":
        pairs = parse_kv(text)
        return cls(
            **{f.name: float(pairs[f.name]) for f in fields(cls) if f.type == "float"},
            accuracy_band=(float(pairs["accuracy_band_low"]), float(pairs["accuracy_band_high"])),
            criteria={name: pairs[f"criterion_{name}"] == "true" for name in _CRITERIA},
            verdict=pairs["verdict"],
        )


def _noise_baseline(proto_packets: np.ndarray, shape: tuple, seed: int, out=None) -> np.ndarray:
    """The real and imaginary parts, a float64 [2, *shape] array, of white
    complex noise packets of ``shape`` with the prototype's power.

    The real parts are drawn, then the imaginary parts, straight into the
    array (``out`` if given), and scaled in place: the bits of one draw of
    each part, with no temporary.
    """
    scale = np.sqrt(float(np.mean(np.abs(proto_packets) ** 2)) / 2.0)
    parts = substream(seed, "validate", "noise").standard_normal((2,) + tuple(shape), out=out)
    return np.multiply(parts, scale, out=parts)


def _complex_blocks(parts: np.ndarray):
    """Yield the complex packets whose real and imaginary parts are ``parts[0]``
    and ``parts[1]``, in the blocks of ``SPECTRUM_BLOCK_ROWS`` packets that
    ``joined_blocks`` cuts."""
    for rows in joined_blocks(parts.shape[1], SPECTRUM_BLOCK_ROWS):
        block = np.empty((rows.stop - rows.start, parts.shape[2]), dtype=np.complex128)
        block.real, block.imag = parts[:, rows]
        yield block


def _mean_pairwise_correlation(parts: np.ndarray, max_packets: int = 256) -> float:
    """Mean absolute pairwise Pearson correlation between packets (diversity
    stat), of the first ``max_packets`` packets of ``parts``, the real and
    imaginary parts [2, P, n_fft] of the packets."""
    rows = np.concatenate(np.asarray(parts)[:, :max_packets], axis=1)  # [real parts, imaginary parts]
    if rows.shape[0] < 2:
        return 0.0
    rows -= rows.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0.0] = 1.0
    rows /= norms[:, None]  # unit rows
    corr = rows @ rows.T
    upper = np.triu_indices(corr.shape[0], k=1)
    return float(np.mean(np.abs(corr[upper])))


def _sample_stats(pool, proto_values, pdf_range) -> tuple:
    """``(ks, PDF masses)`` of one packet matrix's pooled values, ``pool``, a
    float64 array of its real parts and then its imaginary parts.

    Each half is sorted once, in place, for both, and neither checks its
    order again; with two CPUs the two sorts run at the same time, and so do
    the KS counts over the two sorted halves.
    """
    halves = pool.reshape(2, -1)
    run_blocks(lambda half, _: half.sort(), halves)
    parts = _Ascending(halves)
    return ks_distance(proto_values, parts), empirical_pdf(parts, DEFAULT_N_BINS, pdf_range)[1]


def generated_blocks(i_model: Net, q_model: Net, n_gen: int, snr_db: float, seed: int, frame_power: float):
    """Yield ``n_gen`` pseudo-radio-signal packets of the rails' generators
    ``i_model`` and ``q_model``, without the reconstruction filter, as the
    complex blocks of ``SPECTRUM_BLOCK_ROWS`` packets that ``joined_blocks``
    cuts. Each block draws its latent rows at ``snr_db`` from each rail's
    ``("validate", "latent", rail)`` substream of ``seed`` in turn, and
    ``frame_power`` denormalizes its packets: the bits of one
    ``generate_packets`` call per rail over all ``n_gen`` packets.
    """
    latents = [substream(seed, "validate", "latent", rail) for rail in COMPONENTS]
    for rows in joined_blocks(n_gen, SPECTRUM_BLOCK_ROWS):
        i_mat, q_mat = (generate_packets(model, rows.stop - rows.start, snr_db, latent)
                        for model, latent in zip((i_model, q_model), latents))
        yield assemble_iq(i_mat, q_mat, frame_power)


def validate(proto_packets: np.ndarray, logs, blocks, n_gen: int, *, seed: int = 0,
             write_table=lambda name, table: None) -> ValidationReport:
    """Score ``n_gen`` generated packets against their prototype, handing each table to ``write_table``.

    ``proto_packets`` is the scored prototype frame, complex [P, n_fft]
    packets in physical units. ``blocks`` is an iterable of complex [rows,
    n_fft] blocks holding the ``n_gen`` packets in order, read once:
    ``generated_blocks`` of a model pair, or an ``IQReader``'s ``blocks``.
    ``logs`` is a sequence of TrainingLogs; the mean discriminator accuracy
    over the final quartile of each non-empty log is averaged, and is 0.0
    when every log is empty. ``seed`` seeds the noise baseline. ``n_gen``
    below 1 raises ``ValueError`` before any block is read, and blocks
    holding other than ``n_gen`` packets, or carrying no energy, raise it
    once they are read. The thresholds are the ``DEFAULT_*`` constants, which
    the report stores.

    ``write_table(name, table)`` gets each table once it is final, and the
    first only after the last block has been read and scored: each packet
    set's spectrum table from ``spectral_matrix`` as ``"spectrum_prototype"``,
    ``"spectrum_generated"`` and ``"spectrum_noise"``, and ``"histogram"``,
    the tuple ``(bin centers, prototype, generated and noise masses)``. The
    first two are handed on while the noise is drawn, on another CPU where
    there is one.
    """
    n_fft = proto_packets.shape[1]
    if n_gen < 1:
        raise ValueError(f"n_gen must be >= 1, got {n_gen}: no whole {n_fft}-sample packet to score")

    populated = [l for l in logs if len(l) > 0]
    mean_accuracy = 0.0  # every log empty, as after train --epochs 0
    if populated:
        quartiles = [l.final_quartile_accuracy() for l in populated]
        mean_accuracy = float(np.mean(quartiles))

    # Each packet set's spectra and pooled values (real parts, then imaginary
    # parts) come from one pass over its blocks, and serve both the numbers
    # and the tables.
    proto_pool = np.empty((2,) + proto_packets.shape)
    proto_energies, proto_table = spectral_matrix(
        (proto_packets[rows] for rows in joined_blocks(len(proto_packets), SPECTRUM_BLOCK_ROWS)), proto_pool)
    proto_values = proto_pool.reshape(-1)
    sigma = float(np.std(proto_values))  # before the sort, which would reorder its sum
    proto_values.sort()
    proto_values = _Ascending((proto_values,))
    band = occupied_band_bins(proto_energies, DEFAULT_COVERAGE)
    raw_proto = band_fraction(proto_energies, band)
    span = DEFAULT_SIGMA_SPAN * (sigma if sigma > 0.0 else 1.0)
    pdf_range = (-span, span)
    centers, proto_mass = empirical_pdf(proto_values, DEFAULT_N_BINS, pdf_range)
    # One full-size pool serves the generated packets and then the noise. The
    # generated packets are read into it a block at a time and scored first,
    # their correlation read off the pool before its sort; every refusal of
    # them comes before any table is handed on.
    pool = np.empty((2, n_gen, n_fft))
    gen_energies, gen_table = spectral_matrix(blocks, pool)
    gen_fraction = band_fraction(gen_energies, band)
    correlation = _mean_pairwise_correlation(pool)
    ks_gen, gen_mass = _sample_stats(pool, proto_values, pdf_range)

    def finished_tables():
        write_table("spectrum_prototype", proto_table)
        write_table("spectrum_generated", gen_table)

    # The noise is drawn over the sorted values on one CPU while the other
    # hands on the finished tables: the draw releases the GIL, which
    # formatting them holds.
    run_blocks(lambda task, _: task(),
               [partial(_noise_baseline, proto_packets, pool.shape[1:], seed, pool), finished_tables])
    noise_energies, noise_table = spectral_matrix(_complex_blocks(pool))
    ks_noise, noise_mass = _sample_stats(pool, proto_values, pdf_range)
    write_table("spectrum_noise", noise_table)
    write_table("histogram", (centers, proto_mass, gen_mass, noise_mass))

    return ValidationReport(
        ks_proto_vs_gen=ks_gen,
        ks_proto_vs_noise=ks_noise,
        band_energy_fraction_gen=min(1.0, gen_fraction / raw_proto),
        band_energy_fraction_noise=min(1.0, band_fraction(noise_energies, band) / raw_proto),
        mean_d_accuracy=mean_accuracy,
        packet_correlation_gen=correlation,
    )
