"""One test per release criterion, each printing a PASS/FAIL line with numbers.

The desk-scale pipeline criteria run the real CLI end to end on a synthetic
prototype; the numeric criteria check the library against independent oracles
at their stated tolerances.
"""

import time

import numpy as np
import pytest

from test_dsp import naive_circular, naive_dft, oracle_reconstruct
from test_net_layers import check_layer_grads

from radiogan.cli import main
from radiogan.dsp import (
    RaisedCosineSpec,
    circular_convolve,
    dft,
    overlap_save_reconstruct,
    raised_cosine_taps,
    raised_cosine_value,
)
from radiogan.gan import (
    TrainingLog,
    discriminator_loss,
    generator_loss,
    latent_noise_variance,
    saturating_generator_loss,
)
from radiogan.iqcore import (
    IQRecording,
    denormalize,
    frame_tensor,
    load_iq,
    normalize_frames,
    save_iq,
)
from radiogan.net.layers import Conv1DLayer, DenseLayer, DropoutLayer
from radiogan.validation import ValidationReport

# the calibrated desk-scale recipe: qpsk-burst preset, 256-sample packets,
# 64 packets per frame, 64 examples per epoch side, 300 epochs, seed 7, and
# a generator learning rate backed off to 0.005 for the 1-step/epoch regime
PROTO_ARGS = ["protogen", "--preset", "qpsk-burst", "--seed", "7", "--quiet"]
TRAIN_ARGS = [
    "train", "--nfft", "256", "--frames", "2", "--epochs", "300",
    "--examples", "64", "--eta-g", "0.005", "--seed", "7", "--quiet",
]


@pytest.fixture(scope="module")
def record(request):
    def _record(n, ok, detail):
        line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
        request.config._criterion_lines.append(line)
        print(line)
        assert ok, line
    return _record


def _run_pipeline(base_dir):
    """protogen + train + generate + validate; returns paths and timings."""
    proto = base_dir / "proto.iq"
    run_dir = base_dir / "run"
    gen = base_dir / "gen.iq"
    val_dir = base_dir / "val"
    assert main(PROTO_ARGS + ["--out", str(proto)]) == 0
    tic = time.perf_counter()
    rc_train = main(TRAIN_ARGS + ["--proto", str(proto), "--out-dir", str(run_dir)])
    rc_gen = main(["generate", "--run-dir", str(run_dir), "--out", str(gen), "--quiet"])
    rc_val = main(
        ["validate", "--proto", str(proto), "--run-dir", str(run_dir),
         "--out-dir", str(val_dir), "--quiet"]
    )
    elapsed = time.perf_counter() - tic
    return {
        "proto": proto,
        "run_dir": run_dir,
        "gen": gen,
        "val_dir": val_dir,
        "rc_train": rc_train,
        "rc_gen": rc_gen,
        "rc_val": rc_val,
        "elapsed_s": elapsed,
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return _run_pipeline(tmp_path_factory.mktemp("accept_a"))


def test_criterion_01_latent_variance_rule(record):
    tic = time.perf_counter()
    e1 = abs(latent_noise_variance(1.0, 10.0) - 0.1)
    e2 = abs(latent_noise_variance(2.0, -3.0103) - 4.0)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        power = 10.0 ** rng.uniform(-3, 3)
        sigma2 = 10.0 ** rng.uniform(-3, 3)
        snr_db = 10.0 * np.log10(power) - 10.0 * np.log10(sigma2)
        worst = max(worst, abs(latent_noise_variance(power, snr_db) - sigma2) / sigma2)
    dt = time.perf_counter() - tic
    ok = e1 < 1e-3 and e2 < 1e-3 and worst < 1e-9 and dt < 1.0
    record(1, ok, f"fixture errors {e1:.2e}/{e2:.2e}, worst property error {worst:.2e}, {dt:.2f}s")


def test_criterion_02_gradient_fidelity(record):
    tic = time.perf_counter()
    cases = {
        "dense-tanh": lambda s: (lambda: [DenseLayer.create(6, 5, "tanh", s)], (3, 6), None),
        "dense-relu": lambda s: (lambda: [DenseLayer.create(6, 5, "relu", s)], (3, 6), None),
        "softmax": lambda s: (lambda: [DenseLayer.create(5, 3, "softmax", s)], (4, 5), None),
        "conv1d": lambda s: (lambda: [Conv1DLayer.create(3, 4, s)], (2, 12), None),
        "dropout": lambda s: (
            lambda: [DenseLayer.create(6, 6, "tanh", s), DropoutLayer(rate=0.5)],
            (3, 6),
            s + 100,
        ),
        "decay": lambda s: (
            lambda: [DenseLayer.create(5, 4, "tanh", s, weight_decay_lambda=0.01)],
            (3, 5),
            None,
        ),
    }
    n_checks = 0
    worst = 0.0
    for make_case in cases.values():
        for seed in range(9):
            make_layers, x_shape, dropout_seed = make_case(seed)
            worst = max(worst, check_layer_grads(make_layers, x_shape, seed, dropout_seed))
            n_checks += 1
    dt = time.perf_counter() - tic
    ok = worst < 1e-4 and n_checks >= 50 and dt < 30.0
    record(2, ok, f"{n_checks} seeded layer checks, worst relative error {worst:.2e}, {dt:.1f}s")


def test_criterion_03_loss_fixtures(record):
    e_d = abs(discriminator_loss(0.5, 0.5, alpha=0.0) - np.log(2.0))
    e_g = abs(generator_loss(np.exp(-2.0)) - 1.0)
    rng = np.random.default_rng(1)
    anti = 0.0
    for _ in range(100):
        dr = rng.uniform(0.01, 0.99, 8)
        df = rng.uniform(0.01, 0.99, 8)
        anti = max(anti, abs(saturating_generator_loss(dr, df) + discriminator_loss(dr, df, alpha=0.0)))
    p, h = 1e-6, 1e-9
    slope_ns = (generator_loss(p + h) - generator_loss(p - h)) / (2 * h)
    slope_sat = (
        saturating_generator_loss([0.5], [p + h]) - saturating_generator_loss([0.5], [p - h])
    ) / (2 * h)
    ratio = abs(slope_ns) / abs(slope_sat)
    ok = e_d < 1e-9 and e_g < 1e-9 and anti < 1e-12 and ratio > 1e3
    record(3, ok, f"ln2 err {e_d:.1e}, e^-2 err {e_g:.1e}, antisymmetry {anti:.1e}, gradient ratio {ratio:.1e}")


def test_criterion_04_dsp_oracle_equivalence(record):
    tic = time.perf_counter()
    rng = np.random.default_rng(2)
    dft_err = 0.0
    parseval_err = 0.0
    for n in (256, 2048):
        x = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        spec = dft(x)
        dft_err = max(dft_err, float(np.max(np.abs(spec - naive_dft(x)))))
        lhs = np.sum(np.abs(spec) ** 2, axis=1)
        rhs = n * np.sum(np.abs(x) ** 2, axis=1)
        parseval_err = max(parseval_err, float(np.max(np.abs(lhs - rhs) / rhs)))
    circ_err = 0.0
    for n, taps_len in ((256, 129), (2048, 63)):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h = rng.standard_normal(taps_len)
        circ_err = max(circ_err, float(np.max(np.abs(circular_convolve(x, h) - naive_circular(x, h)))))
    osave_err = 0.0
    for n_packets in (1, 2, 3, 7):
        for length in (3, 63, 129):
            packets = rng.standard_normal((n_packets, 256)) + 1j * rng.standard_normal((n_packets, 256))
            taps = rng.standard_normal(length)
            spec = RaisedCosineSpec(length=length, rolloff=0.25, taps=taps)
            out = overlap_save_reconstruct(packets, spec)
            osave_err = max(osave_err, float(np.max(np.abs(out - oracle_reconstruct(packets, taps)))))
    dt = time.perf_counter() - tic
    ok = dft_err < 1e-9 and parseval_err < 1e-6 and circ_err < 1e-9 and osave_err < 1e-9 and dt < 10.0
    record(
        4,
        ok,
        f"dft {dft_err:.1e}, parseval {parseval_err:.1e}, circular {circ_err:.1e}, "
        f"overlap-save {osave_err:.1e}, {dt:.1f}s",
    )


def test_criterion_05_rc_filter_shape(record):
    length, rolloff = 129, 0.25
    spec = raised_cosine_taps(length, rolloff)
    grid = (np.arange(length) - (length - 1) / 2) * (1.0 + rolloff) / (length * (length - 1))
    pre_norm = raised_cosine_value(grid, length, rolloff)
    center_err = abs(pre_norm[(length - 1) // 2] - 1.0)
    edge = (1.0 + rolloff) / (2.0 * length)
    endpoint_err = max(abs(raised_cosine_value(edge, length, rolloff)),
                       abs(raised_cosine_value(-edge, length, rolloff)))
    midpoint_err = abs(raised_cosine_value(1.0 / (2.0 * length), length, rolloff) - 0.5)
    symmetric = bool(np.array_equal(spec.taps, spec.taps[::-1]))
    dc_err = abs(float(np.sum(spec.taps)) - 1.0)
    ok = (
        center_err == 0.0
        and endpoint_err == 0.0
        and midpoint_err < 1e-12
        and symmetric
        and dc_err < 1e-12
    )
    record(
        5,
        ok,
        f"center err {center_err:.1e}, endpoints {endpoint_err:.1e}, midpoint {midpoint_err:.1e}, "
        f"symmetric {symmetric}, dc gain err {dc_err:.1e}",
    )


def test_criterion_06_normalization_round_trip(record):
    rng = np.random.default_rng(3)
    n = 2 * 16 * 64
    rec = IQRecording(
        samples=5.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        sample_rate_hz=1e6,
        center_freq_hz=1e9,
        rx_gain_db=0.0,
    )
    raw = frame_tensor(rec, 64, 2)
    norm, stats = normalize_frames(raw)
    power_err = max(abs(float(np.mean(np.abs(norm[f]) ** 2)) - 1.0) for f in range(2))
    round_err = 0.0
    for f in range(2):
        back = denormalize(norm[f], float(stats.per_frame_power[f]))
        round_err = max(round_err, float(np.max(np.abs(back - raw[f]))))
    ok = power_err < 1e-9 and round_err < 1e-9
    record(6, ok, f"normalized power err {power_err:.1e}, round-trip err {round_err:.1e}")


def test_criterion_07_desk_scale_end_to_end(record, pipeline):
    report = ValidationReport.from_text((pipeline["val_dir"] / "report.txt").read_text())
    accs = {}
    for comp in ("i", "q"):
        log = TrainingLog.from_csv(pipeline["run_dir"] / f"train_log_{comp}.csv")
        accs[comp] = log.mean_accuracy(last_n=100)
    clean = pipeline["rc_train"] == 0 and pipeline["rc_gen"] == 0
    in_band = all(0.3 < a < 0.8 for a in accs.values())
    ks_ok = report.ks_proto_vs_gen < report.ks_proto_vs_noise
    band_ok = report.band_energy_fraction_gen >= 2.0 * report.band_energy_fraction_noise
    timed = pipeline["elapsed_s"] <= 900.0
    ok = clean and timed and in_band and ks_ok and band_ok
    record(
        7,
        ok,
        f"{pipeline['elapsed_s']:.0f}s (<=900), final-100 accuracy I/Q "
        f"{accs['i']:.3f}/{accs['q']:.3f} in (0.3,0.8), KS gen {report.ks_proto_vs_gen:.4f} "
        f"< noise {report.ks_proto_vs_noise:.4f}, band {report.band_energy_fraction_gen:.4f} "
        f">= 2x {report.band_energy_fraction_noise:.4f}",
    )


def _strip_wall_ms(csv_text):
    lines = csv_text.strip().split("\n")
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_criterion_08_determinism(record, pipeline, tmp_path):
    second = _run_pipeline(tmp_path)
    same_ckpt = all(
        (pipeline["run_dir"] / name).read_bytes() == (second["run_dir"] / name).read_bytes()
        for name in ("model_i.psg", "model_q.psg")
    )
    same_meta = (pipeline["run_dir"] / "run.meta").read_bytes() == (
        second["run_dir"] / "run.meta"
    ).read_bytes()
    # wall_ms is wall-clock measurement, exempt from bit-identity; every
    # numeric column must match exactly
    same_logs = all(
        _strip_wall_ms((pipeline["run_dir"] / name).read_text())
        == _strip_wall_ms((second["run_dir"] / name).read_text())
        for name in ("train_log_i.csv", "train_log_q.csv")
    )
    same_payloads = (
        pipeline["proto"].read_bytes() == second["proto"].read_bytes()
        and pipeline["gen"].read_bytes() == second["gen"].read_bytes()
    )
    ok = same_ckpt and same_meta and same_logs and same_payloads
    record(
        8,
        ok,
        f"checkpoints identical {same_ckpt}, meta identical {same_meta}, "
        f"logs identical (ex wall_ms) {same_logs}, payloads identical {same_payloads}",
    )


def test_criterion_09_regularization_sweep(record, pipeline, tmp_path):
    sweep_dir = tmp_path / "sweep"
    rc = main(
        ["train", "--proto", str(pipeline["proto"]), "--out-dir", str(sweep_dir),
         "--nfft", "256", "--frames", "2", "--epochs", "30", "--examples", "64",
         "--seed", "7", "--sweep", "regularization", "--quiet"]
    )
    rows = (sweep_dir / "sweep.csv").read_text().strip().split("\n")
    header_ok = rows[0] == "regularization,mean_d_accuracy,runtime_s"
    names = [r.split(",")[0] for r in rows[1:]]
    names_ok = names == ["none", "dropout", "weight_decay", "label_smoothing"]
    cells = [r.split(",") for r in rows[1:]]
    values_ok = all(0.0 <= float(c[1]) <= 1.0 and float(c[2]) > 0.0 for c in cells)
    ok = rc == 0 and header_ok and names_ok and values_ok
    ranking = ", ".join(f"{c[0]}={float(c[1]):.3f}" for c in cells)
    record(9, ok, f"4 configs ran; accuracies (reported, not asserted): {ranking}")


def test_criterion_10_file_format_conformance(record, pipeline, tmp_path):
    rng = np.random.default_rng(4)
    z = (rng.standard_normal(512) + 1j * rng.standard_normal(512)).astype(np.complex64)
    rec = IQRecording(
        samples=z.astype(np.complex128), sample_rate_hz=2e6, center_freq_hz=9e8, rx_gain_db=1.0
    )
    path = tmp_path / "roundtrip.iq"
    save_iq(rec, path)
    round_ok = np.array_equal(load_iq(path).samples, rec.samples)

    train_accepts_proto = pipeline["rc_train"] == 0  # trained straight off protogen's file
    val_dir = tmp_path / "val_gen"
    rc_val = main(
        ["validate", "--proto", str(pipeline["proto"]), "--run-dir", str(pipeline["run_dir"]),
         "--generated", str(pipeline["gen"]), "--out-dir", str(val_dir), "--quiet"]
    )
    validate_accepts_gen = rc_val in (0, 1) and (val_dir / "report.txt").exists()
    inspect_accepts_gen = main(["inspect", "--in", str(pipeline["gen"])]) == 0
    ok = round_ok and train_accepts_proto and validate_accepts_gen and inspect_accepts_gen
    record(
        10,
        ok,
        f"bit-exact round trip {round_ok}, train<-protogen {train_accepts_proto}, "
        f"validate<-generate {validate_accepts_gen}, inspect<-generate {inspect_accepts_gen}",
    )
