"""End-to-end CLI behaviour on small desk-scale runs."""

import gc
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from radiogan import blocks, cli, synthesis
from radiogan.cli import CONFIG_FLAGS, _resolve_train_config, build_parser, main
from radiogan.gan import (CONFIG_PARSERS, Net, TrainConfig, TrainingLog, build_discriminator, build_generator, load_gan,
                          save_gan)
from radiogan.iqcore import load_iq, sidecar_path
from radiogan.kvfile import read_kv, write_kv
from radiogan.manifest import config_digest, read_manifest
from radiogan.net.checkpoint import load_stacks, save_stacks
from radiogan.net.layers import DropoutLayer, FlattenLayer
from radiogan.seeding import substream
from radiogan.validation import ValidationReport
from test_checkpoint import write_with_field

# desk-scale packet length: wide enough for the conv kernel and the
# default 129-tap reconstruction filter
NFFT = 256

# Keys an older run.meta repeated from the checkpoints; no longer written or read.
RETIRED_RUN_META = ("n_fft", "frame", "snr_low", "snr_high", "seed")


def _protogen(tmp_path, name="proto.iq", extra=()):
    out = tmp_path / name
    rc = main(
        [
            "protogen",
            "--out",
            str(out),
            "--samples",
            "8192",
            "--seed",
            "3",
            "--quiet",
            *extra,
        ]
    )
    assert rc == 0
    return out


def _train(tmp_path, proto, name="run", extra=()):
    run_dir = tmp_path / name
    rc = main(
        [
            "train",
            "--proto",
            str(proto),
            "--out-dir",
            str(run_dir),
            "--nfft",
            str(NFFT),
            "--frames",
            "2",
            "--epochs",
            "2",
            "--examples",
            "12",
            "--seed",
            "1",
            "--quiet",
            *extra,
        ]
    )
    return rc, run_dir


def test_protogen_writes_artifacts(tmp_path):
    out = _protogen(tmp_path)
    assert out.exists()
    assert sidecar_path(out).exists()
    meta = read_kv(sidecar_path(out))
    assert meta["scenario_seed"] == "3"
    manifest = read_manifest(tmp_path / "proto.manifest")
    assert manifest.command == "protogen"
    assert manifest.seed == 3
    rec = load_iq(out)
    assert rec.n_samples == 8192


def test_protogen_same_seed_same_payload(tmp_path):
    a = _protogen(tmp_path, "a.iq")
    b = _protogen(tmp_path, "b.iq")
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.iq"
    assert main(["protogen", "--out", str(c), "--samples", "8192", "--seed", "4", "--quiet"]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_protogen_presets_differ(tmp_path):
    a = _protogen(tmp_path, "a.iq", extra=("--preset", "qpsk-burst"))
    b = _protogen(tmp_path, "b.iq", extra=("--preset", "tone"))
    assert a.read_bytes() != b.read_bytes()


def test_protogen_missing_out_flag_exits_2(capsys):
    assert main(["protogen"]) == 2
    capsys.readouterr()


def test_protogen_invalid_band_exits_2(tmp_path, capsys):
    rc = main(
        ["protogen", "--out", str(tmp_path / "x.iq"), "--band", "0.4:0.2", "--quiet"]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("snr,rc", [("inf", 0), ("-inf", 2), ("nan", 2)])
def test_protogen_refuses_a_non_finite_snr_other_than_inf(tmp_path, capsys, snr, rc):
    out = tmp_path / "x.iq"
    args = ["protogen", "--preset", "qpsk-burst", "--seed", "7", "--samples", "8192", f"--snr={snr}"]
    assert main(args + ["--out", str(out), "--quiet"]) == rc
    if rc:
        assert "snr_db" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # nothing written
    else:
        assert out.exists()


def test_protogen_at_a_symbol_longer_than_the_recording_writes_one_symbol(tmp_path, capsys):
    # 1e-320 made round(inf) raise; 1e-6 repeated its one symbol a million times
    payloads = []
    for rate in ("1e-320", "1e-6"):
        out = tmp_path / f"rate_{rate}.iq"
        args = ["protogen", "--preset", "qpsk-burst", "--seed", "7", "--samples", "8192", "--symbol-rate", rate]
        assert main(args + ["--out", str(out), "--quiet"]) == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
    assert capsys.readouterr().err == ""


def test_version_flag():
    assert main(["--version"]) == 0


def test_train_smoke_writes_run_dir(tmp_path):
    proto = _protogen(tmp_path)
    rc, run_dir = _train(tmp_path, proto)
    assert rc == 0
    for name in (
        "model_i.psg",
        "model_q.psg",
        "train_log_i.csv",
        "train_log_q.csv",
        "run.meta",
        "train.manifest",
    ):
        assert (run_dir / name).exists(), name
    meta = read_kv(run_dir / "run.meta")
    assert meta["n_frames"] == "2"
    assert meta["n_packets"] == "16"
    assert not set(RETIRED_RUN_META) & set(meta)  # the checkpoints hold these
    model = load_gan(run_dir / "model_i.psg")
    assert model.n_fft == NFFT
    assert model.config.seed == 1
    log_text = (run_dir / "train_log_i.csv").read_text()
    assert log_text.startswith("epoch,d_loss,g_loss,d_accuracy,snr_db,wall_ms")
    assert len(log_text.strip().split("\n")) == 3  # header + 2 epochs


def test_train_zero_epochs_writes_untrained_checkpoints(tmp_path):
    proto = _protogen(tmp_path)
    rc, run_dir = _train(tmp_path, proto, extra=("--epochs", "0"))
    assert rc == 0
    assert (run_dir / "model_i.psg").exists()
    log_text = (run_dir / "train_log_i.csv").read_text()
    assert len(log_text.strip().split("\n")) == 1  # header only


def test_train_config_file_and_flag_precedence(tmp_path):
    proto = _protogen(tmp_path)
    cfg_file = tmp_path / "train.cfg"
    cfg_file.write_text("n_epoch=5\neta_g=0.002\nseed=7\n")
    rc, run_dir = _train_with_config(tmp_path, proto, cfg_file)
    assert rc == 0
    assert load_gan(run_dir / "model_i.psg").config.seed == 7  # file seed survives (no --seed flag)
    assert not set(RETIRED_RUN_META) & set(read_kv(run_dir / "run.meta"))
    log_text = (run_dir / "train_log_i.csv").read_text()
    assert len(log_text.strip().split("\n")) == 1 + 2  # --epochs 2 beat n_epoch=5


def _train_with_config(tmp_path, proto, cfg_file):
    run_dir = tmp_path / "cfgrun"
    rc = main(
        [
            "train",
            "--proto",
            str(proto),
            "--out-dir",
            str(run_dir),
            "--nfft",
            str(NFFT),
            "--frames",
            "2",
            "--epochs",
            "2",
            "--examples",
            "12",
            "--config",
            str(cfg_file),
            "--quiet",
        ]
    )
    return rc, run_dir


def test_train_config_with_a_repeated_key_exits_2_without_writing(tmp_path, capsys):
    proto = _protogen(tmp_path)
    cfg_file = tmp_path / "train.cfg"
    cfg_file.write_text("n_epoch=5\nn_epoch=2\n")
    rc, run_dir = _train_with_config(tmp_path, proto, cfg_file)
    assert rc == 2
    assert capsys.readouterr().err == "error: line 2: duplicate key 'n_epoch'\n"
    assert not run_dir.exists()


LOG_HEADER = "epoch,d_loss,g_loss,d_accuracy,snr_db,wall_ms\n"


def test_train_pretraining_divergence_exits_1_with_a_header_only_log(tmp_path, capsys):
    # two pretraining epochs: the first step at eta_d 1e38 leaves the weights finite, the next is refused
    proto = _protogen(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings on the way there
        rc, run_dir = _train(tmp_path, proto, extra=("--eta-d", "1e38", "--pretrain-epochs", "2"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.endswith("error: I-component pretraining diverged: epoch 1: non-finite gradient\n"), err
    assert [p.name for p in run_dir.iterdir()] == ["train_log_i.csv"]  # no model_i.psg, no run.meta
    assert (run_dir / "train_log_i.csv").read_text() == LOG_HEADER


@pytest.mark.parametrize("sweep", [False, True], ids=["plain", "sweep"])
def test_train_adversarial_divergence_exits_1_with_the_log_so_far(tmp_path, capsys, sweep):
    proto = _protogen(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        extra = ("--eta-g", "1e38", "--sweep", "regularization") if sweep else ("--eta-g", "1e38")
        rc, run_dir = _train(tmp_path, proto, extra=extra)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.endswith("error: I-component training diverged: non-finite loss at epoch 1: d_loss=nan, g_loss=nan\n")
    rail_dir = run_dir / "none" if sweep else run_dir
    if sweep:
        assert [p.name for p in run_dir.iterdir()] == ["none"]  # the sweep stops at its first row
    assert [p.name for p in rail_dir.iterdir()] == ["train_log_i.csv"]  # no model_i.psg, no run.meta
    log = TrainingLog.from_csv(rail_dir / "train_log_i.csv")
    assert len(log) == 1  # epoch 0, the last epoch with finite losses


def _subprocess_env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(synthesis.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return env


# The CLI in a fresh interpreter with its row blocks on argv[1] CPUs (worker
# threads for 2, none for 1) whatever the host has.
_MAIN_ON_CPUS = """
import sys
from radiogan import blocks
blocks.cpu_count = lambda: int(sys.argv[1])
from radiogan.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("flag, error", [
    pytest.param("--eta-g", "error: I-component training diverged: non-finite loss at epoch 1: "
                 "d_loss=nan, g_loss=nan\n", id="eta_g"),
    pytest.param("--eta-d", "error: I-component pretraining diverged: epoch 0: non-finite gradient\n", id="eta_d"),
])
def test_a_diverged_train_writes_only_its_error_line(tmp_path, flag, error, cpus):
    # the README prototype and desk flags; the overflows on the way to the
    # divergence, in the calling thread and in the workers, print nothing
    proto = tmp_path / "proto.iq"
    assert main(["protogen", "--preset", "qpsk-burst", "--seed", "7", "--out", str(proto), "--quiet"]) == 0
    done = subprocess.run(
        [sys.executable, "-c", _MAIN_ON_CPUS, str(cpus), "train", "--proto", str(proto), "--out-dir",
         str(tmp_path / "run"), "--nfft", "256", "--frames", "2", "--epochs", "3", "--examples", "64",
         "--seed", "7", flag, "1e38", "--quiet"],
        env=_subprocess_env(), capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert done.stderr == error


def test_train_rejects_oversized_examples(tmp_path, capsys):
    proto = _protogen(tmp_path)
    rc, _ = _train(tmp_path, proto, extra=("--examples", "64"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "exceeds packets per frame" in err
    assert f"protogen --samples {64 * NFFT * 2}" in err


def test_default_train_refusal_names_the_published_recording_length(tmp_path, capsys):
    """A default-length prototype cannot feed default (published-scale) training;
    the refusal says how long a recording would: 128 x 2048 x 2 samples."""
    proto = tmp_path / "proto.iq"
    assert main(["protogen", "--preset", "qpsk-burst", "--out", str(proto), "--quiet"]) == 0
    capsys.readouterr()
    rc = main(["train", "--proto", str(proto), "--out-dir", str(tmp_path / "run"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n_examples=128 exceeds packets per frame (8)" in err
    assert "n_examples x n_fft x frames = 524288 samples (protogen --samples 524288)" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("extra", [("--epochs", "0", "--frame", "99"), ("--frame", "-1"), ("--frame", "2")])
def test_train_frame_out_of_range_exits_2_without_writing(tmp_path, capsys, extra):
    proto = _protogen(tmp_path)
    rc, run_dir = _train(tmp_path, proto, extra=extra)
    assert rc == 2
    assert "out of range [0, 2)" in capsys.readouterr().err
    assert not run_dir.exists()


def test_train_unknown_config_key_exits_2(tmp_path, capsys):
    proto = _protogen(tmp_path)
    bad = tmp_path / "bad.cfg"
    bad.write_text("warp_speed=9\n")
    rc, _ = _train_with_config(tmp_path, proto, bad)
    assert rc == 2
    capsys.readouterr()


def test_train_none_snr_range_in_config_exits_2(tmp_path, capsys):
    # only early_stop_band may be none
    proto = _protogen(tmp_path)
    bad = tmp_path / "bad.cfg"
    bad.write_text("snr_range_db=none\n")
    rc, run_dir = _train_with_config(tmp_path, proto, bad)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (run_dir / "model_i.psg").exists()


_FLOAT_FIELDS = [f.name for f in fields(TrainConfig) if f.type == "float"]
_NON_FINITE = [(name, text) for name in _FLOAT_FIELDS for text in ("nan", "inf")] + [
    ("snr_range_db", "nan:-24.0"),
    ("snr_range_db", "-inf:-24.0"),
    ("snr_range_db", "-30.0:inf"),
]


@pytest.mark.parametrize("route", ["config", "flag"])
@pytest.mark.parametrize("field_name,text", _NON_FINITE)
def test_train_refuses_non_finite_config_values(tmp_path, capsys, route, field_name, text):
    proto = _protogen(tmp_path)
    if route == "config":
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"{field_name}={text}\n")
        rc, run_dir = _train_with_config(tmp_path, proto, cfg_file)
    else:
        flag = next(flag for flag, name, _ in CONFIG_FLAGS if name == field_name)
        rc, run_dir = _train(tmp_path, proto, extra=(f"{flag}={text}",))
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (run_dir / "model_i.psg").exists()


# A valid non-default value for each annotation a train flag can have.
_FLAG_VALUES = {"int": "37", "float": "0.0625", "tuple": "-5.0:-1.0"}


@pytest.mark.parametrize("flag,field_name", [(flag, name) for flag, name, _ in CONFIG_FLAGS])
def test_each_config_flag_sets_its_field(flag, field_name):
    annotation = next(f.type for f in fields(TrainConfig) if f.name == field_name)
    text = _FLAG_VALUES[annotation]
    args = build_parser().parse_args(["train", "--proto", "p.iq", "--out-dir", "run", f"{flag}={text}"])
    cfg = _resolve_train_config(args, NFFT)
    expected = CONFIG_PARSERS[field_name](text)
    assert getattr(cfg, field_name) == expected
    assert getattr(TrainConfig(), field_name) != expected


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("clirun")
    proto = _protogen(tmp_path)
    rc, run_dir = _train(tmp_path, proto)
    assert rc == 0
    return tmp_path, proto, run_dir


def test_generate_defaults(trained_run):
    tmp_path, _, run_dir = trained_run
    out = tmp_path / "gen_default.iq"
    rc = main(["generate", "--run-dir", str(run_dir), "--out", str(out), "--quiet"])
    assert rc == 0
    rec = load_iq(out)
    # default packet count is 20x the prototype's per-frame count (16)
    assert rec.n_samples == 20 * 16 * NFFT
    meta = read_kv(sidecar_path(out))
    assert meta["n_gen"] == str(20 * 16)
    assert meta["n_fft"] == str(NFFT)
    proto = load_iq(tmp_path / "proto.iq")  # the prototype's capture metadata carries over
    assert (rec.sample_rate_hz, rec.center_freq_hz, rec.rx_gain_db) == (
        proto.sample_rate_hz, proto.center_freq_hz, proto.rx_gain_db)
    assert read_manifest(tmp_path / "gen_default.manifest").command == "generate"


def test_generate_explicit_count_and_determinism(trained_run):
    tmp_path, _, run_dir = trained_run
    a = tmp_path / "gen_a.iq"
    b = tmp_path / "gen_b.iq"
    base = ["generate", "--run-dir", str(run_dir), "--ngen", "8", "--seed", "5", "--quiet"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert load_iq(a).n_samples == 8 * NFFT
    c = tmp_path / "gen_c.iq"
    assert main(["generate", "--run-dir", str(run_dir), "--ngen", "8", "--seed", "6",
                 "--out", str(c), "--quiet"]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_generate_records_the_frame_it_drew(trained_run):
    tmp_path, _, run_dir = trained_run
    draws = {int(substream(seed, "synthesis", "frame").integers(0, 2)): seed for seed in range(20)}
    assert sorted(draws) == [0, 1]
    for index, seed in draws.items():
        base = ["generate", "--run-dir", str(run_dir), "--ngen", "8", "--seed", str(seed), "--quiet"]
        drawn, chosen = tmp_path / f"drawn_{index}.iq", tmp_path / f"chosen_{index}.iq"
        assert main(base + ["--out", str(drawn)]) == 0
        assert main(base + ["--frame", str(index), "--out", str(chosen)]) == 0
        assert read_kv(sidecar_path(drawn))["frame"] == str(index)
        assert read_kv(sidecar_path(drawn)) == read_kv(sidecar_path(chosen))
        assert drawn.read_bytes() == chosen.read_bytes()
        digests = [read_manifest(p.with_suffix(".manifest")).config_digest for p in (drawn, chosen)]
        assert digests[0] == digests[1]


def test_generate_frame_out_of_range_exits_2(trained_run, capsys):
    tmp_path, _, run_dir = trained_run
    rc = main(
        ["generate", "--run-dir", str(run_dir), "--out", str(tmp_path / "x.iq"),
         "--ngen", "4", "--frame", "9", "--quiet"]
    )
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


def _no_generator_pass(*args, **kwargs):
    raise AssertionError("a generator pass ran")


@pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
def test_generate_refuses_a_non_finite_snr_before_any_generator_pass(trained_run, monkeypatch, capsys, snr):
    tmp_path, _, run_dir = trained_run
    monkeypatch.setattr(Net, "predict", _no_generator_pass)
    out = tmp_path / "snr.iq"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["generate", "--run-dir", str(run_dir), "--out", str(out), f"--snr={snr}", "--quiet"])
    assert rc == 2
    assert not out.exists()
    assert "finite positive noise variance" in capsys.readouterr().err


@pytest.mark.parametrize("rc_length", ["2", "0", "-1"])
def test_generate_refuses_an_even_or_non_positive_rc_length(trained_run, capsys, rc_length):
    tmp_path, _, run_dir = trained_run
    out = tmp_path / "rc.iq"
    rc = main(["generate", "--run-dir", str(run_dir), "--out", str(out), "--ngen", "4",
               f"--rc-length={rc_length}", "--quiet"])
    assert rc == 2
    assert "rc_length must be odd and >= 1" in capsys.readouterr().err
    assert not out.exists()
    assert not sidecar_path(out).exists()
    assert not out.with_suffix(".manifest").exists()


@pytest.mark.parametrize("rolloff", ["5", "0", "-1", "nan"])
def test_generate_refuses_a_rolloff_outside_0_1_with_a_one_tap_filter(trained_run, capsys, rolloff):
    tmp_path, _, run_dir = trained_run
    out = tmp_path / "rolloff.iq"
    rc = main(["generate", "--run-dir", str(run_dir), "--out", str(out), "--ngen", "4", "--rc-length", "1",
               f"--rolloff={rolloff}", "--quiet"])
    assert rc == 2
    assert "rolloff must be in (0, 1]" in capsys.readouterr().err
    assert not out.exists()
    assert not sidecar_path(out).exists()
    assert not out.with_suffix(".manifest").exists()


def test_generate_failing_mid_stream_leaves_the_previous_files(trained_run, monkeypatch, capsys):
    tmp_path, _, run_dir = trained_run
    out = tmp_path / "mid_stream.iq"
    argv = ["generate", "--run-dir", str(run_dir), "--out", str(out), "--ngen", "12", "--quiet"]
    assert main(argv + ["--seed", "1"]) == 0
    before = out.read_bytes(), sidecar_path(out).read_bytes(), out.with_suffix(".manifest").read_bytes()
    blocks = []
    assemble_iq = synthesis.assemble_iq

    def overflowing_second_block(i_mat, q_mat, frame_power):
        blocks.append(len(i_mat))
        return assemble_iq(i_mat, q_mat, frame_power) * (1e300 if len(blocks) == 2 else 1.0)

    monkeypatch.setattr(synthesis, "GEN_BLOCK_PACKETS", 4)
    monkeypatch.setattr(synthesis, "assemble_iq", overflowing_second_block)
    assert main(argv + ["--seed", "2"]) == 2
    assert blocks == [4, 4]  # the first block was written, the second refused
    assert "float32 range" in capsys.readouterr().err
    assert (out.read_bytes(), sidecar_path(out).read_bytes(), out.with_suffix(".manifest").read_bytes()) == before
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_generate_in_three_pipelined_blocks_writes_the_same_file_on_any_cpu_count(trained_run, monkeypatch):
    # --ngen 13 in blocks of 4: three blocks, the last one of 5 packets
    tmp_path, _, run_dir = trained_run
    monkeypatch.setattr(synthesis, "GEN_BLOCK_PACKETS", 4)
    files = []
    for k, count in enumerate((lambda: 1, lambda: 2, blocks.cpu_count)):  # one CPU, two, all
        monkeypatch.setattr(blocks, "cpu_count", count)
        out = tmp_path / f"pipelined_{k}.iq"
        assert main(["generate", "--run-dir", str(run_dir), "--out", str(out), "--ngen", "13", "--quiet"]) == 0
        files.append((out.read_bytes(), sidecar_path(out).read_bytes()))
    assert len(files[0][0]) == 13 * NFFT * 8
    assert files[1] == files[0] and files[2] == files[0]


# A generate in a fresh interpreter; prints its peak resident set size.
_GENERATE_PEAK = """
import resource, sys
from radiogan.cli import main
assert main(["generate", "--run-dir", sys.argv[1], "--out", sys.argv[2], "--ngen", sys.argv[3], "--quiet"]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_generate_memory_does_not_grow_with_the_stream(trained_run):
    tmp_path, _, run_dir = trained_run
    peaks = {}
    for n_gen in (1280, 25600):  # 2.6 MB and 52 MB payloads
        out = tmp_path / f"long_{n_gen}.iq"
        done = subprocess.run([sys.executable, "-c", _GENERATE_PEAK, str(run_dir), str(out), str(n_gen)],
                              env=_subprocess_env(), capture_output=True, text=True, check=True)
        peaks[n_gen] = int(done.stdout.split()[-1]) * (1 if sys.platform == "darwin" else 1024)  # bytes
        assert out.stat().st_size == n_gen * NFFT * 8
        out.unlink()
    # 0 measured; holding the whole stream, the second peak was 719 MB higher
    assert peaks[25600] - peaks[1280] < 4e6, peaks


def test_generate_missing_run_dir_exits_2(tmp_path, capsys):
    rc = main(
        ["generate", "--run-dir", str(tmp_path / "nope"), "--out", str(tmp_path / "x.iq"), "--quiet"]
    )
    assert rc == 2
    capsys.readouterr()


def _rewrite_rail_i(edit):
    """A run-directory corruption: model_i.psg rewritten by ``edit(g, d, text) -> (stacks, text)``."""
    def corrupt(run_dir):
        (g, d), _, text = load_stacks(run_dir / "model_i.psg")
        stacks, text = edit(g, d, text)
        save_stacks(run_dir / "model_i.psg", stacks, [None, None], text)
    return corrupt


def _swap_rail_files(run_dir):
    i_path, q_path = run_dir / "model_i.psg", run_dir / "model_q.psg"
    i_bytes = i_path.read_bytes()
    i_path.write_bytes(q_path.read_bytes())
    q_path.write_bytes(i_bytes)


def _drop_line(text, key):
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith(f"{key}="))


def _set_line(text, key, value):
    return _drop_line(text, key) + f"{key}={value}\n"


@pytest.mark.parametrize(
    "corrupt",
    [
        _rewrite_rail_i(lambda g, d, t: ([d, g], t)),
        _rewrite_rail_i(lambda g, d, t: ([g + [FlattenLayer()], d], t)),
        _rewrite_rail_i(lambda g, d, t: ([g, d + [DropoutLayer(0.5)]], t)),
        _rewrite_rail_i(lambda g, d, t: ([g, d], _drop_line(t, "component"))),
        _rewrite_rail_i(lambda g, d, t: ([g, d], _drop_line(t, "frame"))),
        _rewrite_rail_i(lambda g, d, t: ([g, d], _set_line(t, "component", "X"))),
        _rewrite_rail_i(lambda g, d, t: ([g, d], _set_line(t, "frame", "-1"))),
        _swap_rail_files,
    ],
    ids=["stacks_swapped", "generator_ends_non_dense", "discriminator_ends_in_dropout",
         "component_missing", "frame_missing", "component_not_a_rail", "frame_negative",
         "rail_files_swapped"],
)
def test_generate_on_misbuilt_checkpoint_exits_2(trained_run, tmp_path, capsys, corrupt):
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run[2], run_dir)
    corrupt(run_dir)
    rc = main(["generate", "--run-dir", str(run_dir), "--out", str(tmp_path / "x.iq"), "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "put,fmt,value",
    [
        (lambda s, o, v: s[0][0].weights.__setitem__((0, 0), v), "<f4", NAN),
        (lambda s, o, v: s[1][0].kernels.__setitem__((0, 0, 0), v), "<f4", -INF),
        (lambda s, o, v: o[0].second_moment[0].__setitem__((0, 0), v), "<f4", INF),
        (lambda s, o, v: setattr(s[1][4], "weight_decay_lambda", v), "<f8", NAN),
        (lambda s, o, v: setattr(s[1][4], "weight_decay_lambda", v), "<f8", -1.0),
        (lambda s, o, v: setattr(s[1][2], "rate", v), "<f8", NAN),
        (lambda s, o, v: setattr(o[0], "learning_rate", v), "<f8", INF),
        (lambda s, o, v: setattr(o[1], "beta1", v), "<f8", NAN),
        (lambda s, o, v: setattr(o[1], "epsilon", v), "<f8", -INF),
        (lambda s, o, v: setattr(o[0], "learning_rate", v), "<f8", -1.0),
    ],
    ids=[
        "nan_generator_weight",
        "inf_conv_kernel",
        "inf_adam_moment",
        "nan_decay",
        "negative_decay",
        "nan_dropout_rate",
        "inf_learning_rate",
        "nan_beta1",
        "inf_epsilon",
        "negative_learning_rate",
    ],
)
def test_generate_on_checkpoint_with_refused_values_exits_2(trained_run, tmp_path, capsys, put, fmt, value):
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run[2], run_dir)
    stacks, opts, text = load_stacks(run_dir / "model_i.psg")
    write_with_field(run_dir / "model_i.psg", stacks, opts, text, put, fmt, value)
    out = tmp_path / "x.iq"
    rc = main(["generate", "--run-dir", str(run_dir), "--out", str(out), "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_validate_writes_report_and_tables(trained_run, capsys):
    tmp_path, proto, run_dir = trained_run
    out_dir = tmp_path / "val"
    rc = main(
        ["validate", "--proto", str(proto), "--run-dir", str(run_dir),
         "--out-dir", str(out_dir), "--seed", "2"]
    )
    assert rc in (0, 1)  # 2 epochs rarely pass, but either way it must score
    captured = capsys.readouterr().out
    assert "verdict:" in captured
    report = ValidationReport.from_text((out_dir / "report.txt").read_text())
    assert (rc == 0) == (report.verdict == "pass")
    hist = (out_dir / "histogram.csv").read_text().strip().split("\n")
    assert hist[0] == "value,prototype_mass,generated_mass,noise_mass"
    assert len(hist) == 1 + 101
    for name in ("spectrum_prototype", "spectrum_generated", "spectrum_noise"):
        lines = (out_dir / f"{name}.csv").read_text().strip().split("\n")
        assert lines[0].startswith("bin,packet_0")
        assert len(lines) == 1 + NFFT
    assert read_manifest(out_dir / "validate.manifest").command == "validate"


def test_validate_manifest_records_the_thresholds(trained_run):
    tmp_path, proto, run_dir = trained_run
    out_dir = tmp_path / "val_manifest"
    rc = main(
        ["validate", "--proto", str(proto), "--run-dir", str(run_dir),
         "--out-dir", str(out_dir), "--frame", "1", "--seed", "4", "--quiet"]
    )
    assert rc in (0, 1)
    manifest = read_manifest(out_dir / "validate.manifest")
    expected = {
        "run_dir": str(run_dir),
        "frame": 1,
        "generated": "",
        "n_gen": 16,  # the frame's packet count
        "snr_db": "-27.0",  # the middle of the default training SNR range
        "coverage": "0.9",
        "band_ratio_min": "2.0",
        "accuracy_band": "0.3:0.8",
    }
    assert manifest.config_digest == config_digest(expected)
    assert manifest.seed == 4


def test_validate_zero_packets_exits_2_without_writing(trained_run, capsys):
    tmp_path, proto, run_dir = trained_run
    out_dir = tmp_path / "val_ngen0"
    rc = main(
        ["validate", "--proto", str(proto), "--run-dir", str(run_dir),
         "--out-dir", str(out_dir), "--ngen", "0", "--quiet"]
    )
    assert rc == 2
    assert "n_gen must be >= 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_validate_manifest_digest_follows_the_packet_count(trained_run):
    tmp_path, proto, run_dir = trained_run
    digests = []
    for n_gen in ("16", "37"):
        out_dir = tmp_path / f"val_ngen{n_gen}"
        rc = main(["validate", "--proto", str(proto), "--run-dir", str(run_dir),
                   "--out-dir", str(out_dir), "--ngen", n_gen, "--quiet"])
        assert rc in (0, 1)
        digests.append(read_manifest(out_dir / "validate.manifest").config_digest)
    assert digests[0] != digests[1]


def test_validate_refuses_ngen_with_a_generated_file_without_writing(trained_run, capsys):
    tmp_path, proto, run_dir = trained_run
    gen = tmp_path / "gen_ngen_refused.iq"
    assert main(["generate", "--run-dir", str(run_dir), "--ngen", "4", "--out", str(gen), "--quiet"]) == 0
    out_dir = tmp_path / "val_file_ngen"
    rc = main(
        ["validate", "--proto", str(proto), "--run-dir", str(run_dir),
         "--generated", str(gen), "--ngen", "0", "--out-dir", str(out_dir), "--quiet"]
    )
    assert rc == 2
    assert "--ngen" in capsys.readouterr().err
    assert not out_dir.exists()


def test_validate_scores_a_generated_file(trained_run):
    tmp_path, proto, run_dir = trained_run
    gen = tmp_path / "gen_for_val.iq"
    assert main(["generate", "--run-dir", str(run_dir), "--ngen", "16",
                 "--out", str(gen), "--quiet"]) == 0
    out_dir = tmp_path / "val_file"
    rc = main(
        ["validate", "--proto", str(proto), "--run-dir", str(run_dir),
         "--generated", str(gen), "--out-dir", str(out_dir), "--quiet"]
    )
    assert rc in (0, 1)
    assert (out_dir / "report.txt").exists()


def test_validate_refuses_a_file_generated_at_another_n_fft(trained_run, tmp_path, capsys):
    _, proto, run_dir = trained_run
    rc, run_128 = _train(tmp_path, proto, name="run_128", extra=("--nfft", "128"))
    assert rc == 0
    gen = tmp_path / "gen_128.iq"
    assert main(["generate", "--run-dir", str(run_128), "--ngen", "6", "--rc-length", "1",
                 "--out", str(gen), "--quiet"]) == 0
    assert read_kv(sidecar_path(gen))["n_fft"] == "128"
    out_dir = tmp_path / "val_128"
    rc = main(["validate", "--proto", str(proto), "--run-dir", str(run_dir), "--generated", str(gen),
               "--out-dir", str(out_dir), "--quiet"])
    assert rc == 2
    assert "n_fft=128" in capsys.readouterr().err
    assert not out_dir.exists()


def test_validate_refuses_a_file_shorter_than_its_recorded_packets(trained_run, tmp_path, capsys):
    _, proto, run_dir = trained_run
    gen = tmp_path / "gen_cut.iq"
    assert main(["generate", "--run-dir", str(run_dir), "--ngen", "4", "--out", str(gen), "--quiet"]) == 0
    gen.write_bytes(gen.read_bytes()[: 8 * (2 * NFFT + 88)])  # two whole packets and a part of a third
    base = ["validate", "--proto", str(proto), "--run-dir", str(run_dir), "--generated", str(gen), "--quiet"]
    out_dir = tmp_path / "val_cut"
    assert main(base + ["--out-dir", str(out_dir)]) == 2
    assert "n_gen=4" in capsys.readouterr().err
    assert not out_dir.exists()

    # a sidecar that records neither n_fft nor n_gen is scored as it stands
    meta = read_kv(sidecar_path(gen))
    write_kv(sidecar_path(gen), {k: v for k, v in meta.items() if k not in ("n_fft", "n_gen")})
    assert main(base + ["--out-dir", str(out_dir)]) in (0, 1)
    assert (out_dir / "report.txt").exists()


def _float_at(index, value):
    """A payload corruption: the float32 at ``index`` set to ``value``."""
    def corrupt(gen):
        raw = np.fromfile(gen, dtype="<f4")
        raw[index] = value
        raw.tofile(gen)
    return corrupt


def _edit_sidecar(gen, **changes):
    write_kv(sidecar_path(gen), {**read_kv(sidecar_path(gen)), **changes})


@pytest.mark.parametrize(
    "corrupt",
    [
        _float_at(-1, np.nan),  # in the last of the two 128-packet blocks
        _float_at(0, np.inf),  # in the first block
        lambda gen: gen.write_bytes(gen.read_bytes()[:-4]),  # one float short
        lambda gen: gen.write_bytes(b""),
        lambda gen: sidecar_path(gen).unlink(),
        lambda gen: _edit_sidecar(gen, sample_rate_hz="-1.0"),
    ],
    ids=["nan_last_block", "inf_first_block", "one_float_short", "empty", "missing_sidecar", "malformed_sidecar"],
)
def test_validate_refuses_a_corrupt_generated_file_without_writing(trained_run, tmp_path, capsys, corrupt):
    _, proto, run_dir = trained_run
    gen = tmp_path / "gen.iq"
    assert main(["generate", "--run-dir", str(run_dir), "--ngen", "300", "--rc-length", "1",
                 "--out", str(gen), "--quiet"]) == 0
    corrupt(gen)
    out_dir = tmp_path / "val"
    rc = main(["validate", "--proto", str(proto), "--run-dir", str(run_dir), "--generated", str(gen),
               "--out-dir", str(out_dir), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not out_dir.exists()


def test_validate_scores_a_partial_trailing_packet_as_the_whole_packets_before_it(trained_run, tmp_path):
    _, proto, run_dir = trained_run
    gen = tmp_path / "gen.iq"
    assert main(["generate", "--run-dir", str(run_dir), "--ngen", "300", "--rc-length", "1",
                 "--out", str(gen), "--quiet"]) == 0
    meta = read_kv(sidecar_path(gen))
    del meta["n_gen"]  # which a partial packet could not make up
    write_kv(sidecar_path(gen), meta)
    whole = gen.read_bytes()
    outputs = []
    for payload in (whole, whole + whole[: 8 * 88]):  # the second ends in 88 samples of a packet
        gen.write_bytes(payload)
        out_dir = tmp_path / f"val_{len(payload)}"
        rc = main(["validate", "--proto", str(proto), "--run-dir", str(run_dir), "--generated", str(gen),
                   "--out-dir", str(out_dir), "--quiet"])
        assert rc in (0, 1)
        outputs.append([(out_dir / name).read_bytes() for name in _VALIDATE_TABLES])
    assert outputs[0] == outputs[1]


_VALIDATE_TABLES = ("report.txt", "histogram.csv", "spectrum_prototype.csv", "spectrum_generated.csv",
                    "spectrum_noise.csv")


def _validate_peak(argv) -> int:
    """tracemalloc's peak over a ``main(argv)`` run of ``validate``, after one run outside the trace."""
    main(argv)  # any cached DFT factors are made outside the trace
    tracemalloc.start()
    try:
        assert main(argv) in (0, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validate_holds_one_pooled_sample_set_of_a_generated_file(trained_run, tmp_path):
    """``validate --generated`` holds the file's pooled values, or the noise's,
    one at a time: never the file beside the noise or beside its pool."""
    _, proto, run_dir = trained_run
    peaks = {}
    for n_gen in (128, 2560):  # one spectrum block, then a file whose pool is 10.5 MB
        gen = tmp_path / f"gen_{n_gen}.iq"
        assert main(["generate", "--run-dir", str(run_dir), "--ngen", str(n_gen), "--rc-length", "1",
                     "--out", str(gen), "--quiet"]) == 0
        peaks[n_gen] = _validate_peak(["validate", "--proto", str(proto), "--run-dir", str(run_dir),
                                       "--generated", str(gen), "--out-dir", str(tmp_path / f"val_{n_gen}"),
                                       "--quiet"])
    pool = 2 * 2560 * NFFT * 8
    # The one-block file's peak holds what does not grow with the file: the
    # run's nets, the prototype's matrices and one block's transforms.
    # Measured: 17.0 MB against a bound of 22.3 MB; 26.2 MB against 22.0 MB
    # while the recording was held beside the noise, then beside its pool.
    assert peaks[2560] < 1.5 * pool + peaks[128], peaks


def test_validate_in_process_holds_one_pooled_sample_set(trained_run, tmp_path):
    """In-process ``validate`` draws its packets a block at a time into the
    pool the noise's values leave: it never holds them all beside the pool."""
    _, proto, run_dir = trained_run
    peaks = {n_gen: _validate_peak(["validate", "--proto", str(proto), "--run-dir", str(run_dir), "--ngen",
                                     str(n_gen), "--out-dir", str(tmp_path / f"val_{n_gen}"), "--quiet"])
             for n_gen in (128, 2560)}  # one spectrum block, then a pool of 10.5 MB
    pool = 2 * 2560 * NFFT * 8
    # Measured: 17.3 MB against a bound of 22.5 MB; 38.0 MB against 23.2 MB
    # while every packet was generated at once.
    assert peaks[2560] < 1.5 * pool + peaks[128], peaks


@pytest.mark.parametrize("command", ["train", "validate"])
def test_the_prototype_recording_is_released_once_framed(trained_run, tmp_path, monkeypatch, command):
    """Only the normalized frames and the capture metadata outlive the framing:
    the recording, and the samples array that the framed view shares, are
    gone once training or validation starts."""
    _, proto, run_dir = trained_run
    recordings, alive = [], []
    load_iq = cli.load_iq

    def loading(path):
        rec = load_iq(path)
        owner = rec.samples
        while owner.base is not None:  # the array that owns the samples' memory
            owner = owner.base
        recordings.extend(weakref.ref(obj) for obj in (rec, rec.samples, owner))
        return rec

    def starting(stage):
        def started(*args, **kwargs):
            gc.collect()
            alive.append([ref() is not None for ref in recordings])
            return stage(*args, **kwargs)
        return started

    monkeypatch.setattr(cli, "load_iq", loading)
    monkeypatch.setattr(cli, "train", starting(cli.train))
    monkeypatch.setattr(cli, "validate", starting(cli.validate))
    if command == "train":
        rc, _ = _train(tmp_path, proto, extra=("--epochs", "1"))
        assert rc == 0
        assert alive == [[False] * 3] * 2  # one per rail
    else:
        assert main(["validate", "--proto", str(proto), "--run-dir", str(run_dir), "--ngen", "30",
                     "--out-dir", str(tmp_path / "val"), "--quiet"]) in (0, 1)
        assert alive == [[False] * 3]


def test_validate_untrained_run_fails_cleanly(tmp_path, capsys):
    proto = _protogen(tmp_path)
    rc, run_dir = _train(tmp_path, proto, name="run0", extra=("--epochs", "0"))
    assert rc == 0
    out_dir = tmp_path / "val0"
    rc = main(
        ["validate", "--proto", str(proto), "--run-dir", str(run_dir),
         "--out-dir", str(out_dir), "--quiet"]
    )
    # empty log -> accuracy 0 -> accuracy criterion fails -> verdict fail
    assert rc == 1
    report = ValidationReport.from_text((out_dir / "report.txt").read_text())
    assert report.mean_d_accuracy == 0.0
    assert report.criteria["accuracy_in_band"] is False
    capsys.readouterr()


# Every fact of a run directory corrupted in turn. Each case says whether
# generate and validate must both refuse it (exit 2, an "error:" line,
# nothing written) or both write the clean run's outputs byte for byte.
_OUTPUTS = ("gen.iq", "gen.iq.meta", "val/report.txt", "val/histogram.csv", "val/spectrum_prototype.csv",
            "val/spectrum_generated.csv", "val/spectrum_noise.csv")

# Bad values of each key train writes into run.meta.
_RUN_META_BAD = {
    "n_frames": ("x", "2.0", "0", "-1", "1", "3"),
    "n_packets": ("x", "0", "-16", "11"),  # 11 is below the run's 12 examples
    "sample_rate_hz": ("x", "nan", "inf", "0.0", "-1.0"),
    "center_freq_hz": ("x", "nan", "-inf", "-1.0"),
    "rx_gain_db": ("x", "nan", "inf"),
    "frame_power_0": ("x", "nan", "inf", "0.0", "-1.0"),
    "frame_power_1": ("x", "nan", "inf", "0.0", "-1.0"),
}


def _edit_meta(**changes):
    """A corruption of run.meta: each key set to its value, or deleted for None."""
    def corrupt(run_dir):
        pairs = read_kv(run_dir / "run.meta")
        for key, value in changes.items():
            pairs.pop(key)  # the key is there to corrupt
            if value is not None:
                pairs[key] = value
        write_kv(run_dir / "run.meta", pairs)
    return corrupt


def _add_meta(**pairs):
    """A corruption of run.meta: the pairs appended to it."""
    def corrupt(run_dir):
        text = (run_dir / "run.meta").read_text() + "".join(f"{k}={v}\n" for k, v in pairs.items())
        (run_dir / "run.meta").write_text(text)
    return corrupt


def _edit_rails(edit, rails=("q",)):
    """A corruption of the rails' checkpoints: each loaded, passed through ``edit`` and saved."""
    def corrupt(run_dir):
        for rail in rails:
            path = run_dir / f"model_{rail}.psg"
            save_gan(path, edit(load_gan(path)))
    return corrupt


def _other_n_fft(model):
    nets = dict(generator=build_generator(NFFT // 2, 0), discriminator=build_discriminator(NFFT // 2, 1))
    return replace(model, **nets, generator_opt=None, discriminator_opt=None)


def _edit_log(edit):
    """A corruption of train_log_i.csv: its first row's cells passed through ``edit``."""
    def corrupt(run_dir):
        path = run_dir / "train_log_i.csv"
        lines = path.read_text().splitlines()
        lines[1] = ",".join(edit(lines[1].split(",")))
        path.write_text("\n".join(lines) + "\n")
    return corrupt


def _set_cell(column, value):
    return _edit_log(lambda cells: cells[:column] + [value] + cells[column + 1:])


_CORRUPTIONS = (
    [(f"meta_{key}_deleted", _edit_meta(**{key: None}), True) for key in _RUN_META_BAD]
    + [(f"meta_{key}={value}", _edit_meta(**{key: value}), True)
       for key, values in _RUN_META_BAD.items() for value in values]
    + [
        ("meta_stray_frame_power_2", _add_meta(frame_power_2="1.0"), True),
        # an older run.meta's copies of checkpoint facts are ignored, whatever they say
        ("meta_retired_snr_low_frame_seed", _add_meta(snr_low="10.0", frame="1", seed="99"), False),
        ("meta_retired_n_fft_snr_high", _add_meta(n_fft="512", snr_high="12.0"), False),
        # the last of a repeated key used to win: generate wrote 20 x 3 packets
        ("meta_n_packets_repeated", _add_meta(n_packets="3"), True),
        ("rail_files_swapped", _swap_rail_files, True),
        ("rail_q_component_i", _edit_rails(lambda m: replace(m, component="I")), True),
        ("rail_i_component_q", _edit_rails(lambda m: replace(m, component="Q"), rails=("i",)), True),
        ("rail_q_frame_1", _edit_rails(lambda m: replace(m, frame=1)), True),
        ("rails_frame_2", _edit_rails(lambda m: replace(m, frame=2), rails=("i", "q")), True),
        ("rail_q_config_seed", _edit_rails(lambda m: replace(m, config=replace(m.config, seed=99))), True),
        ("rail_q_config_snr", _edit_rails(lambda m: replace(m, config=replace(m.config, snr_range_db=(10.0, 12.0)))),
         True),
        ("rail_q_n_fft", _edit_rails(_other_n_fft), True),
        ("log_row_short", _edit_log(lambda cells: cells[:-1]), True),
        ("log_row_long", _edit_log(lambda cells: cells + ["1"]), True),
    ]
    + [(f"log_{name}={value}", _set_cell(column, value), True)
       for column, name, values in (
           (0, "epoch", ("1", "x")),
           (1, "d_loss", ("nan", "inf", "x")),
           (2, "g_loss", ("-inf", "nan", "x")),
           (3, "d_accuracy", ("1.5", "-0.1", "nan", "x")),
           (4, "snr_db", ("nan", "inf", "x")),
           (5, "wall_ms", ("-1", "1.5", "x")),
       )
       for value in values]
)


def _generate_and_validate(run_dir, proto, out_dir):
    """generate's and validate's exit codes on a run directory, outputs under ``out_dir``."""
    rc_gen = main(["generate", "--run-dir", str(run_dir), "--out", str(out_dir / "gen.iq"),
                   "--seed", "3", "--quiet"])
    rc_val = main(["validate", "--proto", str(proto), "--run-dir", str(run_dir),
                   "--out-dir", str(out_dir / "val"), "--seed", "2", "--quiet"])
    return rc_gen, rc_val


@pytest.fixture(scope="module")
def clean_outputs(trained_run):
    tmp_path, proto, run_dir = trained_run
    out_dir = tmp_path / "clean_outputs"
    out_dir.mkdir()
    rc_gen, rc_val = _generate_and_validate(run_dir, proto, out_dir)
    assert rc_gen == 0 and rc_val in (0, 1)
    return out_dir


def test_the_corruption_cases_cover_every_run_meta_key(trained_run):
    assert set(read_kv(trained_run[2] / "run.meta")) == set(_RUN_META_BAD)


@pytest.mark.parametrize("corrupt,refused", [case[1:] for case in _CORRUPTIONS],
                         ids=[case[0] for case in _CORRUPTIONS])
def test_a_corrupt_run_dir_is_refused_or_changes_nothing(trained_run, clean_outputs, tmp_path, capsys,
                                                         corrupt, refused):
    _, proto, clean_run = trained_run
    run_dir = tmp_path / "run"
    shutil.copytree(clean_run, run_dir)
    corrupt(run_dir)
    capsys.readouterr()
    codes = _generate_and_validate(run_dir, proto, tmp_path)
    err = capsys.readouterr().err.splitlines()
    if refused:
        assert codes == (2, 2)
        assert len(err) == 2 and all(line.startswith("error:") for line in err), err
        assert not any((tmp_path / name).exists() for name in _OUTPUTS)
    else:
        assert codes[0] == 0 and codes[1] in (0, 1) and not err, err
        for name in _OUTPUTS:
            assert (tmp_path / name).read_bytes() == (clean_outputs / name).read_bytes(), name


def test_a_huge_n_frames_is_refused_without_naming_its_frames(trained_run, tmp_path, capsys):
    _, _, clean_run = trained_run
    run_dir = tmp_path / "run"
    shutil.copytree(clean_run, run_dir)
    _edit_meta(n_frames="2000000")(run_dir)
    out = tmp_path / "gen.iq"
    tracemalloc.start()
    try:
        rc = main(["generate", "--run-dir", str(run_dir), "--out", str(out), "--quiet"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "missing key 'frame_power_2'" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 16 << 20, peak  # naming 2,000,000 frames took over 100 MB


@pytest.mark.parametrize("frame", ["5", "-1"])
@pytest.mark.parametrize("generated", [False, True])
def test_validate_refuses_a_frame_out_of_range_without_writing(trained_run, tmp_path, capsys, generated, frame):
    _, proto, run_dir = trained_run
    argv = ["validate", "--proto", str(proto), "--run-dir", str(run_dir), "--frame", frame, "--quiet"]
    if generated:
        gen = tmp_path / "gen.iq"
        assert main(["generate", "--run-dir", str(run_dir), "--ngen", "16", "--out", str(gen), "--quiet"]) == 0
        argv += ["--generated", str(gen)]
    out_dir = tmp_path / "val"
    assert main(argv + ["--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: frame {frame} out of range [0, 2)\n"
    assert not out_dir.exists()


def test_validate_refuses_a_generated_file_whose_frame_is_out_of_range(trained_run, tmp_path, capsys):
    _, proto, run_dir = trained_run
    gen = tmp_path / "gen.iq"
    assert main(["generate", "--run-dir", str(run_dir), "--ngen", "16", "--out", str(gen), "--quiet"]) == 0
    write_kv(sidecar_path(gen), {**read_kv(sidecar_path(gen)), "frame": "-1"})
    out_dir = tmp_path / "val"
    argv = ["validate", "--proto", str(proto), "--run-dir", str(run_dir), "--generated", str(gen), "--quiet"]
    assert main(argv + ["--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == "error: frame -1 out of range [0, 2)\n"
    assert not out_dir.exists()


def test_validate_refuses_a_prototype_framed_unlike_the_run(trained_run, tmp_path, capsys):
    _, _, run_dir = trained_run
    short = _protogen(tmp_path, "short.iq", extra=("--samples", "4096"))  # 8 packets per frame, not 16
    out_dir = tmp_path / "val"
    rc = main(["validate", "--proto", str(short), "--run-dir", str(run_dir), "--out-dir", str(out_dir), "--quiet"])
    assert rc == 2
    assert "8 packets per frame" in capsys.readouterr().err
    assert not out_dir.exists()


def test_validate_scores_the_frame_a_generated_file_records(trained_run):
    tmp_path, proto, run_dir = trained_run
    gen = tmp_path / "gen_frame_1.iq"
    assert main(["generate", "--run-dir", str(run_dir), "--ngen", "16", "--frame", "1", "--rc-length", "1",
                 "--out", str(gen), "--quiet"]) == 0
    base = ["validate", "--proto", str(proto), "--run-dir", str(run_dir), "--generated", str(gen), "--quiet"]
    recorded, explicit = tmp_path / "val_recorded_frame", tmp_path / "val_explicit_frame"
    assert main(base + ["--out-dir", str(recorded)]) in (0, 1)
    assert main(base + ["--frame", "1", "--out-dir", str(explicit)]) in (0, 1)
    expected = {
        "run_dir": str(run_dir),
        "frame": 1,
        "generated": str(gen),
        "n_gen": "",
        "snr_db": "-27.0",
        "coverage": "0.9",
        "band_ratio_min": "2.0",
        "accuracy_band": "0.3:0.8",
    }
    assert read_manifest(recorded / "validate.manifest").config_digest == config_digest(expected)
    assert (recorded / "report.txt").read_bytes() == (explicit / "report.txt").read_bytes()

    # without the sidecar's frame key, the training frame (0) is scored
    write_kv(sidecar_path(gen), {k: v for k, v in read_kv(sidecar_path(gen)).items() if k != "frame"})
    unrecorded, frame_0 = tmp_path / "val_unrecorded_frame", tmp_path / "val_frame_0"
    assert main(base + ["--out-dir", str(unrecorded)]) in (0, 1)
    assert main(base + ["--frame", "0", "--out-dir", str(frame_0)]) in (0, 1)
    assert (unrecorded / "report.txt").read_bytes() == (frame_0 / "report.txt").read_bytes()
    assert (unrecorded / "report.txt").read_bytes() != (recorded / "report.txt").read_bytes()


def test_inspect_prints_summary(trained_run, capsys):
    tmp_path, proto, _ = trained_run
    assert main(["inspect", "--in", str(proto)]) == 0
    out = capsys.readouterr().out
    for field in ("samples", "sample_rate_hz", "duration_s", "mean_power", "peak_magnitude"):
        assert field in out
    assert "8192" in out


def test_inspect_missing_file_exits_2(tmp_path, capsys):
    assert main(["inspect", "--in", str(tmp_path / "missing.iq")]) == 2
    capsys.readouterr()


def test_inspect_takes_no_quiet_or_seed_option(trained_run, capsys):
    _, proto, _ = trained_run
    for option in (["--quiet"], ["--seed", "1"]):
        assert main(["inspect", "--in", str(proto), *option]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_train_sweep_writes_ablation_table(tmp_path):
    proto = _protogen(tmp_path)
    rc, run_dir = _train(tmp_path, proto, name="sweep", extra=("--sweep", "regularization"))
    assert rc == 0
    rows = (run_dir / "sweep.csv").read_text().strip().split("\n")
    assert rows[0] == "regularization,mean_d_accuracy,runtime_s"
    names = [r.split(",")[0] for r in rows[1:]]
    assert names == ["none", "dropout", "weight_decay", "label_smoothing"]
    for name in names:
        assert (run_dir / name / "model_i.psg").exists()
        assert (run_dir / name / "train_log_i.csv").exists()
    for row in rows[1:]:
        acc = float(row.split(",")[1])
        assert 0.0 <= acc <= 1.0


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "radiogan.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "radiogan" in proc.stdout
