"""Validation statistics and the pass/fail report."""

import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radiogan import blocks, validation
from radiogan.blocks import joined_blocks
from radiogan.dsp import dft
from radiogan.gan import TrainingLog, build_generator
from radiogan.iqcore import IQRecording, denormalize, frame_tensor, iq_reader, normalize_frames, save_iq
from radiogan.kvfile import parse_kv
from radiogan.seeding import substream
from radiogan.synthesis import assemble_iq, generate_packets
from radiogan.validation import (
    SPECTRUM_BLOCK_ROWS,
    ValidationReport,
    _mean_pairwise_correlation,
    band_fraction,
    empirical_pdf,
    ks_distance,
    occupied_band_bins,
    spectral_matrix,
    validate,
)

N_FFT = 64
N_PACKETS = 24  # packets of the prototype frame


def _blocks(packets, rows=SPECTRUM_BLOCK_ROWS):
    """The rows of a packet matrix in the blocks of ``rows`` packets that ``joined_blocks`` cuts."""
    return (packets[r] for r in joined_blocks(len(packets), rows))


def _whole_transform(packets):
    """The per-bin energies and the spectrum table of ``packets`` from one
    transform of them all: the sum down the packet axis of the [P, n_fft]
    squared magnitudes, and the first 64 rows of the magnitudes, transposed."""
    magnitudes = np.abs(dft(packets))
    return np.sum(np.square(magnitudes), axis=0), magnitudes[:64].T


def test_spectral_matrix_layout_and_values():
    rng = np.random.default_rng(0)
    packets = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
    energies, table = spectral_matrix(_blocks(packets))
    assert energies.shape == (16,)
    assert table.shape == (16, 5)
    for p in range(5):
        assert np.allclose(table[:, p], np.abs(np.fft.fft(packets[p])), atol=1e-9)
    assert np.allclose(energies, np.sum(np.abs(np.fft.fft(packets, axis=1)) ** 2, axis=0), rtol=1e-12)


def test_spectral_matrix_parseval_per_column():
    rng = np.random.default_rng(1)
    packets = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
    energies, table = spectral_matrix(_blocks(packets))
    for p in range(3):
        lhs = np.sum(table[:, p] ** 2)
        rhs = 32 * np.sum(np.abs(packets[p]) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)
    assert energies.sum() == pytest.approx(32 * np.sum(np.abs(packets) ** 2), rel=1e-12)


def test_spectral_matrix_constant_packet_hits_dc_only():
    energies, table = spectral_matrix([np.ones((1, 8), dtype=complex)])
    assert table[0, 0] == pytest.approx(8.0, abs=1e-12)
    assert np.all(table[1:, 0] < 1e-12)
    assert energies[0] == pytest.approx(64.0, abs=1e-12)


@pytest.mark.parametrize("n_packets", [1, 63, 64, 65, 300])
@pytest.mark.parametrize("block_rows", [7, 128])
def test_spectral_matrix_in_blocks_is_the_whole_transform_bit_for_bit(monkeypatch, block_rows, n_packets):
    rng = np.random.default_rng(block_rows + n_packets)
    packets = rng.standard_normal((n_packets, 64)) + 1j * rng.standard_normal((n_packets, 64))
    calls = []
    monkeypatch.setattr(validation, "dft", lambda x: calls.append(len(x)) or dft(x))
    energies, table = spectral_matrix(_blocks(packets, block_rows))
    # whole blocks, fewer rows than a block left at the end joining the last one
    n_blocks = max(1, n_packets // block_rows)
    assert calls == [block_rows] * (n_blocks - 1) + [n_packets - (n_blocks - 1) * block_rows]
    want_energies, want_table = _whole_transform(packets)
    assert energies.tobytes() == want_energies.tobytes()
    assert table.shape == (64, min(n_packets, 64))
    assert table.tobytes() == want_table.tobytes()


@pytest.mark.parametrize("shape", [(128, 2048), (1280, 256), (130, 256)])
def test_spectral_matrix_energies_are_the_whole_sum_bit_for_bit_at_scale(shape):
    rng = np.random.default_rng(shape[0])
    packets = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    energies, table = spectral_matrix(_blocks(packets))
    want_energies, want_table = _whole_transform(packets)
    assert energies.tobytes() == want_energies.tobytes()
    assert table.tobytes() == want_table.tobytes()


@pytest.mark.parametrize("n_packets", [129, 257])
@pytest.mark.parametrize("n_fft", [100, 257])
def test_spectral_matrix_at_a_non_power_of_two_length_is_the_whole_transform_bit_for_bit(n_fft, n_packets):
    # The direct DFT of one row is a one-row GEMM, which rounds unlike the
    # same row in a larger product; no block of one row is transformed.
    rng = np.random.default_rng(n_fft + n_packets)
    packets = rng.standard_normal((n_packets, n_fft)) + 1j * rng.standard_normal((n_packets, n_fft))
    energies, table = spectral_matrix(_blocks(packets))
    want_energies, want_table = _whole_transform(packets)
    assert energies.tobytes() == want_energies.tobytes()
    assert table.tobytes() == want_table.tobytes()


def test_spectral_matrix_holds_no_packet_by_bin_matrix():
    packets = np.exp(1j * np.arange(2048 * 256).reshape(2048, 256) * 1e-3)  # 2048 packets of 256
    one_matrix = 2048 * 256 * 8  # a float64 [2048, 256] matrix, 4 MiB
    spectral_matrix(_blocks(packets))  # any cached DFT factors are made outside the trace
    tracemalloc.start()
    try:
        spectral_matrix(_blocks(packets))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_matrix, peak


def test_spectral_matrix_validation():
    for blocks in ([], [np.zeros((0, 4))], [np.zeros(4)], np.zeros((2, 4))):  # a matrix's rows are not blocks
        with pytest.raises(ValueError):
            spectral_matrix(blocks)
    packets = np.ones((5, 4), dtype=complex)
    for n_pool in (4, 6):  # a pool of one packet fewer, then one more, than the blocks hold
        with pytest.raises(ValueError, match="packets"):
            spectral_matrix(_blocks(packets, 2), np.empty((2, n_pool, 4)))


@pytest.mark.parametrize("swap", [None, 0, 65535, 65536, 131071, 3 * 65536 + 3])
def test_unmarked_parts_are_sorted_whatever_place_an_inversion_has(swap):
    """Input not marked ``_Ascending`` is sorted into a copy, in order or not,
    and scores as its marked sorted values do."""
    x = np.arange(3 * 65536 + 5, dtype=np.float64)
    if swap is not None:
        x[[swap, swap + 1]] = x[[swap + 1, swap]]
    before = x.copy()
    (got,) = validation._sorted_parts(x)
    assert np.array_equal(got, np.sort(before))
    assert not np.shares_memory(got, x)
    assert np.array_equal(x, before)  # the input keeps its order
    ref = np.linspace(-1.0, 3 * 65536 + 6, 1000)
    assert ks_distance(x, ref) == ks_distance(validation._Ascending((np.sort(before),)), ref)


def test_empirical_pdf_fixture():
    centers, masses = empirical_pdf([0.1, 0.1, 0.9], 2, (0.0, 1.0))
    assert np.allclose(centers, [0.25, 0.75])
    assert np.allclose(masses, [2.0 / 3.0, 1.0 / 3.0])
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_empirical_pdf_clips_outliers_to_edges():
    _, masses = empirical_pdf([-10.0, 0.5, 10.0], 3, (0.0, 1.0))
    assert masses[0] == pytest.approx(1.0 / 3.0)
    assert masses[2] == pytest.approx(1.0 / 3.0)
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_empirical_pdf_validation():
    with pytest.raises(ValueError):
        empirical_pdf([], 2, (0.0, 1.0))
    with pytest.raises(ValueError):
        empirical_pdf([1.0], 1, (0.0, 1.0))
    with pytest.raises(ValueError):
        empirical_pdf([1.0], 2, (1.0, 1.0))
    for value_range in ((-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(ValueError):
            empirical_pdf([1.0], 2, value_range)


def reference_pdf(samples, n_bins, value_range):
    """Clip to the range, then np.histogram over equal bins."""
    samples = np.asarray(samples, dtype=np.float64).ravel()
    lo, hi = float(value_range[0]), float(value_range[1])
    counts, edges = np.histogram(np.clip(samples, lo, hi), bins=n_bins, range=(lo, hi))
    return 0.5 * (edges[:-1] + edges[1:]), counts / samples.size


def _assert_pdf_matches_reference(samples, n_bins, value_range):
    for got, want in zip(empirical_pdf(samples, n_bins, value_range),
                         reference_pdf(samples, n_bins, value_range)):
        assert got.tobytes() == want.tobytes()


EDGES_0_1_BY_4 = [0.0, 0.25, 0.5, 0.75, 1.0]


@pytest.mark.parametrize(
    "samples",
    [
        EDGES_0_1_BY_4,  # one sample on every edge
        EDGES_0_1_BY_4[::-1] * 3,
        [-1.0, -1e-300, 0.0, 1.0, 1.0 + 1e-15, 5.0],  # below, on and above the range
        [-np.inf, np.inf, 0.5, -np.inf],
        [-0.0, 0.0, -0.0],
        [0.3],
        [-7.0],
        [np.nextafter(0.25, 0.0), 0.25, np.nextafter(0.25, 1.0), np.nextafter(1.0, 0.0)],
    ],
)
@pytest.mark.parametrize("order", ["given", "sorted", "reversed"])
def test_empirical_pdf_equals_histogram_formulation(samples, order):
    samples = np.asarray(samples, dtype=np.float64)
    samples = {"given": samples, "sorted": np.sort(samples), "reversed": np.sort(samples)[::-1]}[order]
    _assert_pdf_matches_reference(samples, 4, (0.0, 1.0))
    _assert_pdf_matches_reference(samples, 3, (-0.0, 1.0))
    _assert_pdf_matches_reference(samples, 101, (-0.5, 0.75))


def test_empirical_pdf_equals_histogram_formulation_at_scale():
    rng = np.random.default_rng(11)
    values = np.concatenate([rng.standard_normal(200_000), np.round(rng.standard_normal(50_000), 1)])
    sigma = float(np.std(values))
    for samples in (values, np.sort(values)):
        _assert_pdf_matches_reference(samples, 101, (-4.0 * sigma, 4.0 * sigma))


@settings(derandomize=True, database=None, max_examples=300)
@given(st.data())
def test_empirical_pdf_equals_histogram_formulation_property(data):
    n_bins = data.draw(st.integers(2, 12))
    lo = data.draw(st.integers(-8, 8).map(lambda k: k / 4) | st.floats(-1e3, 1e3))
    hi = lo + data.draw(st.integers(1, 16).map(lambda k: k / 4) | st.floats(1e-6, 1e3))
    assume(lo < hi)
    edges = np.linspace(lo, hi, n_bins + 1).tolist()
    value = st.sampled_from(edges) | st.floats(lo, hi) | st.floats(allow_nan=False)
    samples = data.draw(st.lists(value, min_size=1, max_size=60))
    if data.draw(st.booleans()):
        samples.sort()
    _assert_pdf_matches_reference(samples, n_bins, (lo, hi))


@pytest.mark.parametrize("samples", [[np.nan], [0.0, 1.0, np.nan], [np.nan, 0.5], [0.5, np.nan, 0.7]])
def test_empirical_pdf_rejects_nan(samples):
    with pytest.raises(ValueError, match="NaN"):
        empirical_pdf(samples, 4, (0.0, 1.0))


@pytest.mark.parametrize("make", [lambda x: x, np.sort])
def test_neither_statistic_reorders_or_mutates_its_input(make):
    rng = np.random.default_rng(5)
    a, b = make(rng.standard_normal(300)), make(rng.standard_normal(1000))
    a_before, b_before = a.copy(), b.copy()
    ks_distance(a, b)
    ks_distance(b, a)
    empirical_pdf(a, 7, (-1.0, 1.0))
    assert a.tobytes() == a_before.tobytes()
    assert b.tobytes() == b_before.tobytes()


def test_sorted_inputs_are_not_sorted_again(monkeypatch):
    """Parts marked ``_Ascending``, as validate marks its sorted pools, are taken as they are."""
    rng = np.random.default_rng(6)
    a, b = np.sort(rng.standard_normal(50)), np.sort(rng.standard_normal(80))
    expect_ks, expect_pdf = ks_distance(a, b), empirical_pdf(b, 5, (-1.0, 1.0))[1]
    a, b = validation._Ascending((a,)), validation._Ascending((b[:30], b[30:]))

    def no_sort(*args, **kwargs):
        raise AssertionError("np.sort called on an already sorted sample")

    monkeypatch.setattr(np, "sort", no_sort)
    assert ks_distance(a, b) == expect_ks
    assert empirical_pdf(b, 5, (-1.0, 1.0))[1].tobytes() == expect_pdf.tobytes()


def test_ks_distance_basic_properties():
    a = np.random.default_rng(0).standard_normal(500)
    assert ks_distance(a, a) == 0.0
    assert ks_distance(np.zeros(10), np.ones(10)) == 1.0
    b = np.random.default_rng(1).standard_normal(400)
    assert ks_distance(a, b) == pytest.approx(ks_distance(b, a), abs=1e-15)
    assert 0.0 <= ks_distance(a, b) <= 1.0
    with pytest.raises(ValueError):
        ks_distance(a, [])


def test_ks_distance_separates_different_scales():
    rng = np.random.default_rng(2)
    narrow = rng.standard_normal(20_000)
    wide = 2.0 * rng.standard_normal(20_000)
    # analytic sup-distance between N(0,1) and N(0,4) is ~0.157
    assert 0.1 < ks_distance(narrow, wide) < 0.3


@pytest.mark.parametrize("seed", range(5))
def test_ks_distance_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(rng.integers(50, 400))
    b = rng.standard_normal(rng.integers(50, 400)) * rng.uniform(0.5, 2.0)
    if seed % 2:
        b = np.round(b, 1)  # force ties
        a = np.round(a, 1)
    ours = ks_distance(a, b)
    ref = scipy.stats.ks_2samp(a, b, method="asymp").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def reference_ks(a, b):
    """Both empirical CDFs evaluated at every sample by binary search."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


@pytest.mark.parametrize(
    "a,b",
    [
        ([np.nan], [0.0]),
        ([0.0, np.nan], [0.0, 1.0]),
        ([0.0], [1.0, np.nan]),
        ([np.nan], [np.nan]),
        ([0.0, 1.0, 2.0, np.nan], [0.5]),  # sorted, NaN last
        ([0.5], [0.0, 1.0, 2.0, np.nan]),
        ([np.nan, 1.0, 2.0], [0.5, 0.6]),
    ],
)
def test_ks_distance_rejects_nan(a, b):
    with pytest.raises(ValueError, match="NaN"):
        ks_distance(a, b)


@pytest.mark.parametrize(
    "a,b",
    [
        ([0.0], [0.0]),
        ([0.0], [1.0]),
        ([1.0], [0.0]),
        ([0.0, 1.0], [0.5]),
        ([1.0, 1.0], [1.0, 2.0]),
        ([2.0, 1.0], [1.0, 2.0]),
        ([-0.0], [0.0]),
        ([-np.inf, 0.0], [np.inf, 0.0]),
    ],
)
def test_ks_distance_equals_grid_formulation_at_sizes_one_and_two(a, b):
    assert ks_distance(a, b) == reference_ks(a, b)
    assert ks_distance(b, a) == reference_ks(b, a)


@pytest.mark.parametrize("seed", range(4))
def test_ks_distance_equals_grid_formulation_on_ties(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        a = rng.integers(-k, k + 1, rng.integers(1, 60)).astype(float)
        b = rng.integers(-k, k + 1, rng.integers(1, 60)).astype(float)
        assert ks_distance(a, b) == reference_ks(a, b)
        assert ks_distance(b, a) == reference_ks(b, a)


def test_ks_distance_equals_grid_formulation_at_unequal_sizes():
    rng = np.random.default_rng(9)
    big = np.round(rng.standard_normal(20_000), 2)
    for small in ([0.0], [0.0, 0.01], np.round(rng.standard_normal(3), 2), big[:7]):
        assert ks_distance(small, big) == reference_ks(small, big)
        assert ks_distance(big, small) == reference_ks(big, small)


_KS_SAMPLES = st.lists(
    st.one_of(st.integers(-3, 3).map(float), st.floats(allow_nan=False)), min_size=1, max_size=40
)


@settings(derandomize=True, database=None, max_examples=300)
@given(_KS_SAMPLES, _KS_SAMPLES)
def test_ks_distance_equals_grid_formulation_property(a, b):
    assert ks_distance(a, b) == reference_ks(a, b)


@settings(derandomize=True, database=None, max_examples=300)
@given(st.data())
def test_ks_and_masses_over_sorted_parts_are_those_of_the_whole_pool(data):
    # Tie-heavy values, parts of unequal lengths (empty ones too), and pool
    # values that equal prototype values: the counts added over the parts are
    # those of the whole sorted pool, so the floats are the same bits.
    value = st.integers(-3, 3).map(float) | st.sampled_from([-0.0, 0.5, -np.inf, np.inf]) | st.floats(allow_nan=False)
    proto = data.draw(st.lists(value, min_size=1, max_size=40))
    part = st.lists(value | st.sampled_from(proto), max_size=40).map(lambda p: np.array(p, dtype=np.float64))
    parts = tuple(data.draw(st.lists(part, min_size=1, max_size=3)))
    assume(sum(p.size for p in parts) > 0)
    if data.draw(st.booleans()):
        parts = tuple(np.sort(p) for p in parts)  # as validate hands them over
    whole = np.sort(np.concatenate(parts))
    for cpus in (1, 2, 3):  # the parts are counted on the CPU pool
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(blocks, "cpu_count", lambda: cpus)
            got_ks = ks_distance(proto, parts).hex()
            assert got_ks == ks_distance(proto, whole).hex() == reference_ks(proto, whole).hex()
            assert ks_distance(parts, proto).hex() == ks_distance(whole, proto).hex()
            for got, want in zip(empirical_pdf(parts, 5, (-2.0, 2.0)), empirical_pdf(whole, 5, (-2.0, 2.0))):
                assert got.tobytes() == want.tobytes()


def test_ks_counts_the_distinct_values_in_chunks_as_at_once(monkeypatch):
    # many more distinct values than a chunk, and a chunk boundary inside a run of ties
    rng = np.random.default_rng(12)
    small = np.sort(np.round(rng.standard_normal(5000), 2))
    big = (np.round(rng.standard_normal(3000), 1), np.round(rng.standard_normal(4000), 3))
    want = ks_distance(small, big)
    for cpus in (1, 2, 3):  # each part of big counted on the CPU pool
        monkeypatch.setattr(blocks, "cpu_count", lambda: cpus)
        for chunk in (1, 7, 64):
            monkeypatch.setattr(validation, "_CHUNK", chunk)
            assert ks_distance(small, big) == ks_distance(big, small) == want
    assert want == reference_ks(small, np.concatenate(big))


@pytest.mark.parametrize(
    "parts",
    [(), (np.array([]),), (np.array([]), np.array([])), (np.array([0.0, np.nan]), np.array([1.0])),
     (np.array([]), np.array([np.nan])), (np.array([1.0]), np.array([np.nan, 0.0]))],
)
def test_sorted_parts_holding_nan_or_no_value_are_refused(parts):
    with pytest.raises(ValueError):
        ks_distance([0.0, 1.0], parts)
    with pytest.raises(ValueError):
        ks_distance(parts, [0.0, 1.0])
    with pytest.raises(ValueError):
        empirical_pdf(parts, 4, (0.0, 1.0))


def test_occupied_band_bins_greedy_fixture():
    energies = np.array([10.0, 1.0, 5.0, 4.0])
    # descending order 10,5,4 covers 19/20 >= 0.9*20
    assert np.array_equal(occupied_band_bins(energies, coverage=0.9), [0, 2, 3])
    assert np.array_equal(occupied_band_bins(energies, coverage=0.4), [0])
    assert np.array_equal(occupied_band_bins(energies, coverage=1.0), [0, 1, 2, 3])


def test_occupied_band_bins_validation():
    with pytest.raises(ValueError):
        occupied_band_bins(np.ones(4), coverage=0.0)
    with pytest.raises(ValueError):
        occupied_band_bins(np.zeros(4))


def test_in_band_fraction_tone():
    t = np.arange(32)
    energies, _ = spectral_matrix([np.exp(2j * np.pi * (4 / 32) * t)[None, :]])
    assert band_fraction(energies, np.array([4])) == pytest.approx(1.0, abs=1e-12)
    assert band_fraction(energies, np.array([5])) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        band_fraction(spectral_matrix([np.zeros((1, 32), dtype=complex)])[0], np.array([0]))


def _parts(packets):
    """The real and imaginary parts [2, P, n] of a packet matrix."""
    return np.stack([np.real(packets), np.imag(packets)])


def test_mean_pairwise_correlation_extremes():
    row = np.random.default_rng(3).standard_normal(64)
    clones = np.tile(row, (5, 1)) * np.array([1.0, 2.0, -1.0, 0.5, 3.0])[:, None]
    assert _mean_pairwise_correlation(_parts(clones)) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(4)
    diverse = rng.standard_normal((50, 512))
    assert _mean_pairwise_correlation(_parts(diverse)) < 0.2
    assert _mean_pairwise_correlation(_parts(row[None, :])) == 0.0


def _report(**overrides):
    base = dict(
        ks_proto_vs_gen=0.05,
        ks_proto_vs_noise=0.20,
        band_energy_fraction_gen=0.5,
        band_energy_fraction_noise=0.1,
        mean_d_accuracy=0.55,
        packet_correlation_gen=0.07,
    )
    base.update(overrides)
    return ValidationReport(**base)


def test_report_verdict_derivation():
    assert _report().verdict == "pass"
    assert _report().criteria == {
        "ks_gen_below_noise": True,
        "band_fraction_ratio": True,
        "accuracy_in_band": True,
    }
    assert _report(ks_proto_vs_gen=0.25).verdict == "fail"
    assert _report(band_energy_fraction_gen=0.19).verdict == "fail"
    assert _report(mean_d_accuracy=0.8).verdict == "fail"  # band is exclusive
    assert _report(mean_d_accuracy=0.3).verdict == "fail"


def test_report_band_ratio_threshold_is_exact():
    # gen fraction exactly 2x the noise fraction passes; a hair under fails
    ok = _report(band_energy_fraction_gen=0.2, band_energy_fraction_noise=0.1)
    assert ok.criteria["band_fraction_ratio"] is True
    bad = _report(band_energy_fraction_gen=0.2 - 1e-12, band_energy_fraction_noise=0.1)
    assert bad.criteria["band_fraction_ratio"] is False


def test_report_text_round_trip():
    rep = _report()
    back = ValidationReport.from_text(rep.to_text())
    assert back == rep
    failing = _report(ks_proto_vs_gen=0.5)
    assert ValidationReport.from_text(failing.to_text()) == failing


def test_report_text_keys_and_order_are_pinned():
    assert list(parse_kv(_report().to_text())) == [
        "ks_proto_vs_gen",
        "ks_proto_vs_noise",
        "band_energy_fraction_gen",
        "band_energy_fraction_noise",
        "mean_d_accuracy",
        "packet_correlation_gen",
        "band_ratio_min",
        "accuracy_band_low",
        "accuracy_band_high",
        "criterion_ks_gen_below_noise",
        "criterion_band_fraction_ratio",
        "criterion_accuracy_in_band",
        "verdict",
    ]


def test_report_text_writes_each_float_as_its_repr():
    rep = _report(packet_correlation_gen=0.1 + 0.2)
    assert parse_kv(rep.to_text())["packet_correlation_gen"] == "0.30000000000000004"
    assert ValidationReport.from_text(rep.to_text()).packet_correlation_gen == 0.1 + 0.2


def test_report_tamper_detection():
    text = _report().to_text()
    with pytest.raises(ValueError):
        ValidationReport.from_text(text.replace("verdict=pass", "verdict=fail"))
    with pytest.raises(ValueError):
        ValidationReport.from_text(
            text.replace("criterion_ks_gen_below_noise=true", "criterion_ks_gen_below_noise=false")
        )


def _scored_frame(samples):
    """A one-frame recording of ``samples`` as ``validate`` scores it, and the
    frame's power: normalized and denormalized again, as the CLI passes it."""
    rec = IQRecording(samples=samples, sample_rate_hz=1e6, center_freq_hz=1e9, rx_gain_db=0.0)
    frames, stats = normalize_frames(frame_tensor(rec, N_FFT, 1))
    power = float(stats.per_frame_power[0])
    return denormalize(frames[0], power), power


def _prototype(seed=0):
    """``_scored_frame`` of N_PACKETS packets of a tone in noise."""
    rng = np.random.default_rng(seed)
    n = N_PACKETS * N_FFT
    t = np.arange(n)
    z = 0.9 * np.exp(2j * np.pi * 0.2 * t) + 0.1 * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    return _scored_frame(z)


def _gens(seed=0):
    return (
        build_generator(N_FFT, substream(seed, "init", "I", "generator"), width=16),
        build_generator(N_FFT, substream(seed, "init", "Q", "generator"), width=16),
    )


def _log(accuracies):
    log = TrainingLog()
    for a in accuracies:
        log.append(0.5, 0.5, a, -27.0, 1)
    return log


def _validate(*args, **kwargs):
    """validate's report and the tables it hands to ``write_table``, by name."""
    tables = {}
    return validate(*args, write_table=tables.__setitem__, **kwargs), tables


def _in_process(power, n_gen=N_PACKETS, seed=0):
    """validate's in-process ``blocks`` and ``n_gen``: ``n_gen`` packets of
    ``_gens()`` at -27 dB, drawn from ``seed`` and scaled to frame power ``power``."""
    return validation.generated_blocks(*_gens(), n_gen, -27.0, seed, power), n_gen


def test_validate_passes_when_fed_the_prototype_itself():
    proto, _ = _prototype()
    log = _log([0.5] * 8)
    rep = validate(proto, [log], _blocks(proto), len(proto))
    assert rep.ks_proto_vs_gen == 0.0
    assert rep.band_energy_fraction_gen == 1.0
    assert rep.verdict == "pass"


def test_validate_flags_a_white_noise_generator():
    proto, _ = _prototype()
    log = _log([0.5] * 8)
    rng = np.random.default_rng(0)
    white = rng.standard_normal((24, N_FFT)) + 1j * rng.standard_normal((24, N_FFT))
    rep = validate(proto, [log], _blocks(white), len(white))
    # white noise cannot beat the matched-power noise reference on band energy
    assert rep.criteria["band_fraction_ratio"] is False
    assert rep.verdict == "fail"


def test_validate_in_process_generation_is_seeded():
    proto, power = _prototype()
    log = _log([0.5] * 8)
    rep_a = validate(proto, [log], *_in_process(power, seed=3), seed=3)
    rep_b = validate(proto, [log], *_in_process(power, seed=3), seed=3)
    assert rep_a == rep_b
    rep_c = validate(proto, [log], *_in_process(power, seed=4), seed=4)
    assert rep_a.ks_proto_vs_gen != rep_c.ks_proto_vs_gen
    # The blocks give the bits of one generate_packets call per rail over
    # every packet, one block of all of them: under a block, one whole block,
    # a joined last block, and several blocks.
    for n_gen in (30, 128, 300, 1000):
        rep, tables = _validate(proto, [log], *_in_process(power, n_gen, seed=3), seed=3)
        rails = (generate_packets(model, n_gen, -27.0, substream(3, "validate", "latent", rail))
                 for model, rail in zip(_gens(), "IQ"))
        want, want_tables = _validate(proto, [log], [assemble_iq(*rails, power)], n_gen, seed=3)
        assert rep.to_text() == want.to_text()
        for got, expect in zip(tables["histogram"], want_tables["histogram"]):
            assert got.tobytes() == expect.tobytes()
        for name in ("spectrum_prototype", "spectrum_generated", "spectrum_noise"):
            assert tables[name].tobytes() == want_tables[name].tobytes()


def test_validate_accepts_recording_input(tmp_path):
    proto, _ = _prototype()
    log = _log([0.5] * 8)
    rng = np.random.default_rng(1)
    rec = IQRecording(
        samples=rng.standard_normal(24 * N_FFT) + 1j * rng.standard_normal(24 * N_FFT),
        sample_rate_hz=1e6,
        center_freq_hz=1e9,
        rx_gain_db=0.0,
    )
    save_iq(rec, tmp_path / "gen.iq")
    rep = validate(proto, [log], iq_reader(tmp_path / "gen.iq").blocks(N_FFT, SPECTRUM_BLOCK_ROWS), 24)
    assert 0.0 <= rep.ks_proto_vs_gen <= 1.0


def test_validate_final_quartile_accuracy():
    proto, power = _prototype()
    # 8 epochs: final quartile = last 2 rows
    log = _log([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.6, 0.4])
    rep = validate(proto, [log], *_in_process(power))
    assert rep.mean_d_accuracy == pytest.approx(0.5)
    # two logs: mean of the per-log quartile means
    rep2 = validate(proto, [log, _log([0.1, 0.1, 0.1, 0.3])], *_in_process(power))
    assert rep2.mean_d_accuracy == pytest.approx(0.5 * (0.5 + 0.3))


def test_validate_empty_log_handling():
    proto, power = _prototype()
    for logs in ([TrainingLog()], [TrainingLog(), TrainingLog()], []):
        rep = validate(proto, logs, *_in_process(power))
        assert rep.mean_d_accuracy == 0.0
        assert rep.criteria["accuracy_in_band"] is False
    # an empty log beside a populated one does not count
    rep = validate(proto, [TrainingLog(), _log([0.5] * 4)], *_in_process(power))
    assert rep.mean_d_accuracy == 0.5


def test_validate_with_tables():
    proto, power = _prototype()
    _, tables = _validate(proto, [_log([0.5] * 4)], *_in_process(power))
    # each table handed on once, the two finished ones while the noise is drawn
    assert list(tables) == ["spectrum_prototype", "spectrum_generated", "spectrum_noise", "histogram"]
    centers, p_mass, g_mass, n_mass = tables["histogram"]
    assert centers.shape == (101,)
    for mass in (p_mass, g_mass, n_mass):
        assert mass.sum() == pytest.approx(1.0, abs=1e-9)
    assert tables["spectrum_prototype"].shape == (N_FFT, N_PACKETS)
    assert tables["spectrum_generated"].shape == (N_FFT, N_PACKETS)


def _validate_recomputing_everything(proto, log, seed, gen_packets):
    """validate's report and tables the long way: every spectrum and every
    pooled sample set is recomputed where it is used, and the KS distances
    and histograms come from the reference formulations above. The
    thresholds are written as numbers, so a changed constant shows here."""
    noise_rng = substream(seed, "validate", "noise")
    power = float(np.mean(np.abs(proto) ** 2))  # I + jQ drawn first, then scaled
    noise = np.sqrt(power / 2.0) * (
        noise_rng.standard_normal(gen_packets.shape)
        + 1j * noise_rng.standard_normal(gen_packets.shape)
    )

    def pooled(packets):
        return np.concatenate([packets.real.ravel(), packets.imag.ravel()])

    def energies(packets):
        return _whole_transform(packets)[0]

    def fraction(packets, bins):
        return float(energies(packets)[bins].sum() / energies(packets).sum())

    band = occupied_band_bins(energies(proto), 0.9)
    raw_proto = fraction(proto, band)
    report = ValidationReport(
        ks_proto_vs_gen=reference_ks(pooled(proto), pooled(gen_packets)),
        ks_proto_vs_noise=reference_ks(pooled(proto), pooled(noise)),
        band_energy_fraction_gen=min(1.0, fraction(gen_packets, band) / raw_proto),
        band_energy_fraction_noise=min(1.0, fraction(noise, band) / raw_proto),
        mean_d_accuracy=float(np.mean([log.mean_accuracy(last_n=-(-len(log) // 4))])),
        packet_correlation_gen=_mean_pairwise_correlation(_parts(gen_packets)),
        band_ratio_min=2.0,
        accuracy_band=(0.3, 0.8),
    )
    sigma = float(np.std(pooled(proto)))
    span = 4.0 * (sigma if sigma > 0.0 else 1.0)
    centers, proto_mass = reference_pdf(pooled(proto), 101, (-span, span))
    tables = {
        "histogram": (
            centers,
            proto_mass,
            reference_pdf(pooled(gen_packets), 101, (-span, span))[1],
            reference_pdf(pooled(noise), 101, (-span, span))[1],
        ),
        "spectrum_prototype": _whole_transform(proto)[1],
        "spectrum_generated": _whole_transform(gen_packets)[1],
        "spectrum_noise": _whole_transform(noise)[1],
    }
    return report, tables


def test_validate_transforms_each_matrix_once(monkeypatch):
    proto, _ = _prototype()
    log = _log([0.4, 0.5, 0.6, 0.55])
    seed = 5
    rng = np.random.default_rng(3)
    gen = 0.5 * (rng.standard_normal((30, N_FFT)) + 1j * rng.standard_normal((30, N_FFT)))
    transformed = []
    original = validation.spectral_matrix

    def counting(blocks, pool=None):
        blocks = list(blocks)  # read once
        transformed.append(np.concatenate(blocks))
        return original(blocks, pool)

    monkeypatch.setattr(validation, "spectral_matrix", counting)
    ks_calls = []
    monkeypatch.setattr(validation, "ks_distance", lambda *args: ks_calls.append(args) or ks_distance(*args))
    rep, got_tables = _validate(proto, [log], _blocks(gen), len(gen), seed=seed)
    monkeypatch.undo()

    # one transform each of the prototype, the generated and the noise matrix,
    # in that order: the generated packets are scored before the noise is drawn
    assert len(transformed) == 3
    assert [m.shape for m in transformed] == [proto.shape, gen.shape, gen.shape]
    assert np.array_equal(transformed[1], gen)
    assert not np.array_equal(transformed[2], gen)
    assert len(ks_calls) == 2  # one KS distance each for the generated packets and the noise

    expect, tables = _validate_recomputing_everything(proto, log, seed, gen)
    assert rep.to_text() == expect.to_text()
    assert rep == expect
    for got, want in zip(got_tables["histogram"], tables["histogram"]):
        assert got.tobytes() == want.tobytes()
    for name in ("spectrum_prototype", "spectrum_generated", "spectrum_noise"):
        assert got_tables[name].tobytes() == tables[name].tobytes()


@pytest.mark.parametrize("generated", [True, False])
def test_validate_transforms_each_matrix_in_128_packet_blocks(monkeypatch, generated):
    proto, power = _prototype()
    n_gen = 300  # a whole block, and one of 172 that the last 44 packets join
    gen = np.random.default_rng(2).standard_normal((n_gen, N_FFT)) + 0j
    calls = []
    monkeypatch.setattr(validation, "dft", lambda x: calls.append(len(x)) or dft(x))
    blocks = _blocks(gen) if generated else _in_process(power, n_gen)[0]
    validate(proto, [_log([0.5] * 4)], blocks, n_gen)
    # max(1, P // 128) blocks for the prototype, the noise and the generated packets each
    assert calls == [N_PACKETS] + [128, 172] * 2


def test_validate_sorts_no_pooled_sample_copy(monkeypatch):
    """The pooled samples are sorted in place once; the statistics see them
    sorted and sort no copy of them (np.sort serves only the band bins)."""
    proto, power = _prototype()
    log = _log([0.5] * 4)
    expect, expect_tables = _validate(proto, [log], *_in_process(power, seed=2), seed=2)
    sizes = []
    original = np.sort

    def recording_sort(a, *args, **kwargs):
        sizes.append(np.size(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", recording_sort)
    rep, tables = _validate(proto, [log], *_in_process(power, seed=2), seed=2)
    monkeypatch.undo()
    assert sizes and max(sizes) <= N_FFT
    assert rep.to_text() == expect.to_text()
    for got, want in zip(tables["histogram"], expect_tables["histogram"]):
        assert got.tobytes() == want.tobytes()


def test_noise_baseline_is_the_two_draw_formulation_byte_for_byte():
    rng = np.random.default_rng(9)
    proto = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    parts = validation._noise_baseline(proto, (7, 16), 11)
    noise_rng = substream(11, "validate", "noise")
    scale = np.sqrt(float(np.mean(np.abs(proto) ** 2)) / 2.0)
    want = np.empty((7, 16), dtype=np.complex128)
    for part in (want.real, want.imag):  # a draw of the real parts, then one of the imaginary parts
        np.multiply(scale, noise_rng.standard_normal((7, 16)), out=part)
    assert parts.shape == (2, 7, 16)
    assert parts[0].tobytes() == want.real.tobytes()
    assert parts[1].tobytes() == want.imag.tobytes()


def test_noise_baseline_is_one_draw_of_both_parts_byte_for_byte():
    proto = np.random.default_rng(9).standard_normal((4, 16)) * (1 + 1j)
    scale = np.sqrt(float(np.mean(np.abs(proto) ** 2)) / 2.0)
    draws = substream(11, "validate", "noise").standard_normal((2, 300, 16))
    parts = validation._noise_baseline(proto, (300, 16), 11)
    assert parts.tobytes() == (draws * scale).tobytes()
    pool = np.full((2, 300, 16), np.nan)  # drawn into in place, as validate draws it over the sorted pool
    assert validation._noise_baseline(proto, (300, 16), 11, pool) is pool
    assert pool.tobytes() == parts.tobytes()


def test_noise_baseline_draws_no_full_size_part():
    proto = np.ones((4, 256), dtype=np.complex128)
    part = 1024 * 256 * 8  # one float64 [1024, 256] part, 2 MiB
    tracemalloc.start()
    try:
        parts = validation._noise_baseline(proto, (1024, 256), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - parts.nbytes < part // 2, peak


@pytest.mark.parametrize("shape", [(7, 16), (300, 64)])
def test_noise_ks_and_masses_are_those_of_the_two_draw_pool(shape):
    # The pool validate sorts is the noise's drawn parts themselves; the
    # oracle pools one (2, P, N) draw, real parts then imaginary parts.
    rng = np.random.default_rng(5)
    proto = rng.standard_normal((4, shape[1])) + 1j * rng.standard_normal((4, shape[1]))
    proto_values = np.sort(np.concatenate([proto.real.ravel(), proto.imag.ravel()]))
    pdf_range = (-3.0, 3.0)
    scale = np.sqrt(float(np.mean(np.abs(proto) ** 2)) / 2.0)
    draws = substream(13, "validate", "noise").standard_normal((2,) + shape)
    draws *= scale
    want_ks, want_mass = ks_distance(proto_values, draws.reshape(-1)), empirical_pdf(draws, 101, pdf_range)[1]
    parts = validation._noise_baseline(proto, shape, 13)
    ks, mass = validation._sample_stats(parts.reshape(-1), proto_values, pdf_range)
    assert ks == want_ks
    assert mass.tobytes() == want_mass.tobytes()


def test_pooled_values_are_the_real_parts_then_the_imaginary_parts(monkeypatch):
    rng = np.random.default_rng(8)
    packets = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
    wide = rng.standard_normal((130, 1024)) + 1j * rng.standard_normal((130, 1024))  # 9 of the FFT's row blocks
    for cpus in (1, 2, 3):  # the copies are made on the CPU pool
        monkeypatch.setattr(blocks, "cpu_count", lambda: cpus)
        for p in (packets, packets.astype(np.complex64), packets[::2, ::3], packets.T, wide):
            expect = np.concatenate([p.real.ravel(), p.imag.ravel()]).astype(np.float64)
            pool = np.empty((2,) + p.shape)
            energies, table = spectral_matrix([p], pool)
            assert pool.tobytes() == expect.tobytes()
            want_energies, want_table = _whole_transform(p)
            assert energies.tobytes() == want_energies.tobytes()
            assert table.tobytes() == want_table.tobytes()


def test_validate_takes_the_pdf_range_from_the_unsorted_prototype():
    rng = np.random.default_rng(4)
    n = N_PACKETS * N_FFT
    z = np.exp(3 * rng.standard_normal(n)) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    proto, _ = _scored_frame(z)
    values = np.concatenate([proto.real.ravel(), proto.imag.ravel()])
    assert np.std(values) != np.std(np.sort(values))  # heavy tails: the sum's order shows
    log, seed = _log([0.5] * 4), 1
    gen = 300.0 * (rng.standard_normal((24, N_FFT)) + 1j * rng.standard_normal((24, N_FFT)))
    _, got_tables = _validate(proto, [log], _blocks(gen), len(gen), seed=seed)
    _, tables = _validate_recomputing_everything(proto, log, seed, gen)
    for got, want in zip(got_tables["histogram"], tables["histogram"]):
        assert got.tobytes() == want.tobytes()


def test_validate_input_checks(monkeypatch):
    proto, power = _prototype()
    log = _log([0.5] * 4)
    drawn, written = [], []
    monkeypatch.setattr(validation, "generate_packets", lambda *args: drawn.append(args) or generate_packets(*args))

    def refused(blocks, n_gen, match=None):
        with pytest.raises(ValueError, match=match):
            validate(proto, [log], blocks, n_gen, write_table=lambda *table: written.append(table))

    refused(*_in_process(power, 0), "n_gen must be >= 1, got 0")
    assert drawn == []  # refused before any latent draw
    # a stream one packet short, then one packet long, of the n_gen it is scored as
    refused(_in_process(power, 29)[0], 30, "hold 29 packets, not 30")
    refused(_in_process(power, 31)[0], 30, "more than 30 packets")
    refused([np.ones((24, 2 * N_FFT), dtype=complex)], 24)  # packets of another length than the prototype's

    def failing_last(packets):  # as a file's reader refuses a non-finite value in its last block
        yield from packets[:-1]
        raise ValueError("the last block is corrupt")

    refused(failing_last(list(_blocks(np.ones((300, N_FFT), dtype=complex)))), 300, "last block is corrupt")
    refused(_blocks(np.zeros((300, N_FFT), dtype=complex)), 300, "no energy")  # read whole, then refused
    assert written == []  # no table is handed on before every block is read and scored
