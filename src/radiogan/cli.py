"""Command-line pipeline: protogen -> train -> generate -> validate (+ inspect).

Exit codes: 0 success (and validation pass), 1 validation fail or training
divergence, 2 bad arguments or unreadable/malformed inputs. Every
artifact-producing command writes a provenance manifest beside its outputs.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .gan import (
    CONFIG_PARSERS,
    GanModel,
    TrainConfig,
    TrainingDiverged,
    TrainingLog,
    build_discriminator,
    build_generator,
    config_from_pairs,
    config_to_text,
    load_gan,
    parse_range,
    pretrain_discriminator,
    save_gan,
    train,
)
from .iqcore import (COMPONENTS, REQUIRED_META, FrameStats, capture_meta, denormalize, frame_tensor, iq_reader,
                     iq_writer, load_iq, normalize_frames, save_iq)
from .kvfile import parse_kv, read_kv, write_kv
from .manifest import write_manifest
from .protogen import MODULATIONS, SyntheticScenario, synth_prototype
from .seeding import substream
from .synthesis import (
    DEFAULT_RC_LENGTH,
    DEFAULT_ROLLOFF,
    GEN_PACKETS_PER_PROTOTYPE_PACKET,
    resolve_frame,
    synthesize,
)
from .validation import DEFAULT_COVERAGE, SPECTRUM_BLOCK_ROWS, generated_blocks, validate

PRESETS = {
    # Band center deliberately off fs/4: a quarter-rate carrier hits only
    # {0, +/-1} phase points and collapses the amplitude PDF to two spikes.
    "qpsk-burst": dict(
        n_samples=32768,
        occupied_band=(0.17, 0.30),
        burst_duty_cycle=0.5,
        symbol_rate_frac=1.0 / 32.0,
        modulation="qpsk",
        snr_db=30.0,
        cfo_frac=0.0,
    ),
    "tone": dict(
        n_samples=32768,
        occupied_band=(0.245, 0.255),
        burst_duty_cycle=1.0,
        symbol_rate_frac=1.0 / 16.0,
        modulation="tone",
        snr_db=40.0,
        cfo_frac=0.0,
    ),
    "multitone-burst": dict(
        n_samples=32768,
        occupied_band=(0.1, 0.4),
        burst_duty_cycle=0.5,
        symbol_rate_frac=1.0 / 16.0,
        modulation="multitone",
        snr_db=30.0,
        cfo_frac=0.0,
    ),
}

# Regularization ablation rows: each enables exactly one mechanism on the
# discriminator side (the generator keeps its published architecture).
SWEEP_CONFIGS = (
    ("none", dict(label_smoothing_alpha=0.0, dropout_rate=0.0, lambda_d=0.0)),
    ("dropout", dict(label_smoothing_alpha=0.0, dropout_rate=0.5, lambda_d=0.0)),
    ("weight_decay", dict(label_smoothing_alpha=0.0, dropout_rate=0.0, lambda_d=1e-4)),
    ("label_smoothing", dict(label_smoothing_alpha=0.2, dropout_rate=0.0, lambda_d=0.0)),
)

# (flag, TrainConfig field, help) of each train flag that overrides a config
# field; the flag parses its value as the config file does.
CONFIG_FLAGS = (
    ("--epochs", "n_epoch", "adversarial epochs (default 1000)"),
    ("--pretrain-epochs", "n_epoch_pretrain", None),
    ("--batch", "s_batch", "minibatch size (default min(300, max(33, nfft//2)))"),
    ("--examples", "n_examples", "packets per epoch side (default 128)"),
    ("--alpha", "label_smoothing_alpha", "one-sided label smoothing (default 0.2)"),
    ("--snr-range", "snr_range_db", "virtual SNR range in dB (use --snr-range=-30:-24)"),
    ("--eta-g", "eta_g", "generator learning rate"),
    ("--eta-d", "eta_d", "discriminator learning rate"),
    ("--dropout", "dropout_rate", "discriminator dropout rate"),
    ("--lambda-g", "lambda_g", "generator weight decay"),
    ("--lambda-d", "lambda_d", "discriminator weight decay"),
    ("--lr-decay", "lr_decay", "linear LR decay over the run"),
    ("--seed", "seed", "run seed (default 0)"),
)

# (flag, SyntheticScenario field, argparse keywords) of each protogen flag
# that overrides a preset's field.
SCENARIO_FLAGS = (
    ("--samples", "n_samples", dict(type=int)),
    ("--band", "occupied_band", dict(type=parse_range, metavar="LO:HI",
                                     help="occupied band as fractions of fs (use --band=LO:HI)")),
    ("--duty", "burst_duty_cycle", dict(type=float, help="burst duty cycle in (0,1]")),
    ("--symbol-rate", "symbol_rate_frac", dict(type=float, help="symbols per sample")),
    ("--modulation", "modulation", dict(choices=MODULATIONS)),
    ("--snr", "snr_db", dict(type=float, help="capture SNR in dB (inf = noiseless)")),
    ("--cfo", "cfo_frac", dict(type=float, help="carrier offset as fraction of fs")),
)


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


def _manifest_path(out_path: Path) -> Path:
    return out_path.with_suffix(".manifest")


def _flag_overrides(args, table) -> dict:
    """By field name, the values given to the flags of ``table``, rows of (flag, field name, ...)."""
    # flag[2:] with "_" for "-" is argparse's dest for the flag; None is a flag not given
    values = ((field_name, getattr(args, flag[2:].replace("-", "_"))) for flag, field_name, _ in table)
    return {field_name: value for field_name, value in values if value is not None}


def cmd_protogen(args) -> int:
    params = {**PRESETS[args.preset], **_flag_overrides(args, SCENARIO_FLAGS)}
    scenario = SyntheticScenario(seed=args.seed, **params)
    rec = synth_prototype(scenario)
    out = Path(args.out)
    save_iq(rec, out, extra_meta=scenario.sidecar_extras())
    resolved = {"preset": args.preset, **scenario.sidecar_extras()}
    write_manifest(_manifest_path(out), "protogen", resolved, args.seed)
    _say(args, f"wrote {rec.n_samples} samples to {out} (+.meta, {_manifest_path(out).name})")
    return 0


def _resolve_train_config(args, n_fft: int) -> TrainConfig:
    file_pairs = parse_kv(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    cfg = config_from_pairs(file_pairs)
    overrides = _flag_overrides(args, CONFIG_FLAGS)
    if args.batch is None and "s_batch" not in file_pairs:
        # Desk-scale default keeping the batch-size invariant at small n_fft.
        overrides["s_batch"] = min(300, max(33, n_fft // 2))
    return replace(cfg, **overrides)


def _train_rail(out_dir: Path, frames, component: str, frame: int, cfg: TrainConfig) -> TrainingLog:
    """Build, train and write one rail: ``model_<rail>.psg`` and ``train_log_<rail>.csv`` in
    ``out_dir``; returns its log. It trains on the ``component`` rail of ``frames[frame]``, the
    real or imaginary parts of those complex packets. ``n_epoch`` 0 writes the nets untrained,
    without optimizer state. On ``TrainingDiverged`` it writes the log so far and re-raises."""
    generator = build_generator(
        frames.shape[2],
        substream(cfg.seed, "init", component, "generator"),
        weight_decay=cfg.lambda_g,
    )
    discriminator = build_discriminator(
        frames.shape[2],
        substream(cfg.seed, "init", component, "discriminator"),
        dropout_rate=cfg.dropout_rate,
        weight_decay=cfg.lambda_d,
    )
    rail = component.lower()
    g_opt = d_opt = None
    log = TrainingLog()
    if cfg.n_epoch > 0:
        packets = (frames[frame].real, frames[frame].imag)[COMPONENTS.index(component)]
        try:
            pretrain_discriminator(discriminator, packets, cfg, component)
            g_opt, d_opt, log = train(generator, discriminator, packets, component, cfg)
        except TrainingDiverged as exc:
            exc.log.to_csv(out_dir / f"train_log_{rail}.csv")
            raise
    save_gan(out_dir / f"model_{rail}.psg", GanModel(generator, discriminator, g_opt, d_opt, cfg, component, frame))
    log.to_csv(out_dir / f"train_log_{rail}.csv")
    return log


def _write_run_files(out_dir: Path, command: str, capture: dict, frames, stats, frame: int,
                     cfg: TrainConfig, extra: dict) -> None:
    """Write ``run.meta`` (what the checkpoints do not hold) and ``train.manifest``;
    ``capture`` holds the prototype's ``REQUIRED_META`` values, and ``extra``
    joins the manifest's config."""
    meta = {
        "n_frames": len(frames),
        "n_packets": frames.shape[1],
        **{key: repr(capture[key]) for key in REQUIRED_META},
        **{f"frame_power_{i}": repr(float(power)) for i, power in enumerate(stats.per_frame_power)},
    }
    write_kv(out_dir / "run.meta", meta)
    resolved = parse_kv(config_to_text(cfg))
    resolved.update({"n_fft": frames.shape[2], "frame": frame, **extra})
    write_manifest(out_dir / "train.manifest", command, resolved, cfg.seed)


def _run_sweep(args, capture: dict, frames, stats, base_cfg: TrainConfig, out_dir: Path) -> int:
    frame = args.frame
    rows = ["regularization,mean_d_accuracy,runtime_s"]
    for name, overrides in SWEEP_CONFIGS:
        cfg = replace(base_cfg, **overrides)
        sub_dir = out_dir / name
        sub_dir.mkdir(parents=True, exist_ok=True)
        tic = time.perf_counter()
        log = _train_rail(sub_dir, frames, "I", frame, cfg)
        runtime_s = time.perf_counter() - tic
        accuracy = log.mean_accuracy() if len(log) else float("nan")
        rows.append(f"{name},{accuracy!r},{runtime_s:.3f}")
        _say(args, f"sweep {name}: mean accuracy {accuracy:.4f} in {runtime_s:.1f}s")
    (out_dir / "sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    _write_run_files(out_dir, "train --sweep regularization", capture, frames, stats, frame, base_cfg,
                     {"sweep": "regularization"})
    return 0


def cmd_train(args) -> int:
    rec = load_iq(args.proto)
    capture = {key: getattr(rec, key) for key in REQUIRED_META}
    frames, stats = normalize_frames(frame_tensor(rec, args.nfft, args.frames))
    del rec  # the normalized frames are a copy; only the capture metadata is written from here on
    cfg = _resolve_train_config(args, args.nfft)
    cfg.validate_for(args.nfft)
    n_packets = frames.shape[1]
    if cfg.n_examples > n_packets:
        needed = cfg.n_examples * args.nfft * len(frames)
        raise ValueError(
            f"n_examples={cfg.n_examples} exceeds packets per frame ({n_packets}); "
            f"pass --examples {n_packets} or fewer, or train on a recording of at least "
            f"n_examples x n_fft x frames = {needed} samples (protogen --samples {needed})"
        )
    if not 0 <= args.frame < len(frames):
        raise ValueError(f"frame {args.frame} out of range [0, {len(frames)})")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.sweep:
        return _run_sweep(args, capture, frames, stats, cfg, out_dir)

    for component in COMPONENTS:
        tic = time.perf_counter()
        log = _train_rail(out_dir, frames, component, args.frame, cfg)
        if len(log):
            _say(
                args,
                f"{component}: {len(log)} epochs in {time.perf_counter() - tic:.1f}s, "
                f"final-quartile accuracy {log.final_quartile_accuracy():.4f}",
            )
        else:
            _say(args, f"{component}: wrote initialized (untrained) checkpoint")
    _write_run_files(out_dir, "train", capture, frames, stats, args.frame, cfg, {"n_frames": len(frames)})
    return 0


@dataclass(frozen=True)
class Run:
    """A trained run directory, parsed and cross-checked by ``_load_run``."""

    model_i: GanModel
    model_q: GanModel
    logs: tuple  # the rails' TrainingLogs, I then Q
    n_fft: int
    frame: int  # the frame both rails trained on
    snr_mid_db: float  # the middle of the training SNR range
    n_packets: int  # prototype packets per frame
    stats: FrameStats  # per-frame powers; stats.n_frames is the frame count
    capture: dict  # the prototype's sample_rate_hz, center_freq_hz, rx_gain_db


def _load_run(run_dir: Path) -> Run:
    """Read a run directory: the one reader of its checkpoints, logs and ``run.meta``.

    ``n_fft``, the training frame and the SNR range come from the checkpoints;
    the keys an older ``run.meta`` repeated them under are ignored. Raises
    ``ValueError`` for swapped or disagreeing rails, a corrupt log, a training
    frame outside the run's frames, a missing or unparsable key in
    ``run.meta``, an ``n_packets`` below the rails' ``n_examples``, or a stray
    frame power.
    """
    model_i, model_q = (load_gan(run_dir / f"model_{rail.lower()}.psg") for rail in COMPONENTS)
    logs = tuple(TrainingLog.from_csv(run_dir / f"train_log_{rail.lower()}.csv") for rail in COMPONENTS)
    for model, rail in zip((model_i, model_q), COMPONENTS):
        if model.component != rail:
            raise ValueError(f"{run_dir / f'model_{rail.lower()}.psg'} holds the {model.component} rail")
    if (model_i.n_fft, model_i.frame, model_i.config) != (model_q.n_fft, model_q.frame, model_q.config):
        raise ValueError(f"{run_dir}: the I and Q checkpoints disagree on n_fft, frame or config")
    meta_path = run_dir / "run.meta"
    meta = read_kv(meta_path)
    try:
        n_frames, n_packets = int(meta["n_frames"]), int(meta["n_packets"])
        if n_frames < 1 or n_packets < 1:
            raise ValueError(f"n_frames={n_frames} and n_packets={n_packets} must be >= 1")
        if not 0 <= model_i.frame < n_frames:
            raise ValueError(f"training frame {model_i.frame} out of range [0, {n_frames})")
        if n_packets < model_i.config.n_examples:  # train refuses more examples than packets
            raise ValueError(f"n_packets={n_packets} is below the n_examples={model_i.config.n_examples} "
                             "the rails trained on")
        powers = {key for key in meta if key.startswith("frame_power_")}
        # Past the file's count of powers a name is surely missing, so no more
        # are named than that plus one: a huge n_frames costs no memory.
        power_keys = [f"frame_power_{k}" for k in range(min(n_frames, len(powers) + 1))]
        stats = FrameStats(np.asarray([float(meta[key]) for key in power_keys]))
        stray = sorted(powers.difference(power_keys))
        if stray:
            raise ValueError(f"{stray} name frames beyond n_frames={n_frames}")
        snr_low, snr_high = model_i.config.snr_range_db
        snr_mid_db = 0.5 * (snr_low + snr_high)
        return Run(model_i, model_q, logs, model_i.n_fft, model_i.frame, snr_mid_db, n_packets, stats,
                   capture_meta(meta))
    except KeyError as exc:
        raise ValueError(f"{meta_path}: missing key {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from exc


def cmd_generate(args) -> int:
    run_dir = Path(args.run_dir)
    run = _load_run(run_dir)
    n_gen = args.ngen if args.ngen is not None else run.n_packets * GEN_PACKETS_PER_PROTOTYPE_PACKET
    snr_db = args.snr if args.snr is not None else run.snr_mid_db
    frame = resolve_frame(args.frame, args.seed, run.stats.n_frames)  # the meta and manifest record the index
    out = Path(args.out)
    params = {"n_gen": n_gen, "snr_db": repr(snr_db), "rc_length": args.rc_length, "rolloff": repr(args.rolloff),
              "frame": frame}
    # the sidecar records the latent SNR as gen_snr_db
    extra_meta = {"n_fft": run.n_fft, **{("gen_snr_db" if k == "snr_db" else k): v for k, v in params.items()}}
    with iq_writer(out, run.capture, extra_meta) as write:
        synthesize(run.model_i.generator, run.model_q.generator, n_gen, snr_db, args.seed,
                   run.stats.per_frame_power[frame], write, args.rc_length, args.rolloff)
    write_manifest(_manifest_path(out), "generate", {"run_dir": str(run_dir), **params}, args.seed)
    n_samples = n_gen * run.n_fft
    _say(args, f"wrote {n_samples} samples ({n_samples / run.capture['sample_rate_hz']:.6f}s) to {out}")
    return 0


def _write_histogram_csv(path: Path, histogram: tuple) -> None:
    centers, proto_mass, gen_mass, noise_mass = histogram
    lines = ["value,prototype_mass,generated_mass,noise_mass"]
    for c, p, g, n in zip(centers, proto_mass, gen_mass, noise_mass):
        lines.append(f"{c:.8g},{p:.8g},{g:.8g},{n:.8g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_spectrum_csv(path: Path, table) -> None:
    header = "bin," + ",".join(f"packet_{i}" for i in range(table.shape[1]))
    row = ",".join(["%.8g"] * table.shape[1])  # "%.8g" % v is the text of f"{v:.8g}"
    # a row at a time, with no whole-table text or list: validate hands on its
    # tables while it holds its pooled samples
    with open(path, "w", encoding="utf-8") as out:
        out.write(header + "\n")
        for k, values in enumerate(table):
            out.write(f"{k}," + row % tuple(values.tolist()) + "\n")


def _check_generated_fits(generated, n_fft: int) -> None:
    """Refuse a generated file (an ``IQReader``) whose sidecar records packets
    unlike the run's: another ``n_fft``, or an ``n_gen`` that does not make up
    its payload."""
    path, recorded = generated.path, generated.meta
    if "n_fft" in recorded and int(recorded["n_fft"]) != n_fft:
        raise ValueError(f"{path} was generated at n_fft={recorded['n_fft']}; the run trained at n_fft={n_fft}")
    if "n_gen" in recorded and int(recorded["n_gen"]) * n_fft != generated.n_samples:
        raise ValueError(
            f"{path} holds {generated.n_samples} samples, not the n_gen={recorded['n_gen']} packets "
            f"of {n_fft} its sidecar records"
        )


def cmd_validate(args) -> int:
    if args.generated and args.ngen is not None:
        raise ValueError("--ngen sets the in-process packet count; it does not apply with --generated")
    run_dir = Path(args.run_dir)
    run = _load_run(run_dir)
    frames = frame_tensor(load_iq(args.proto), run.n_fft, run.stats.n_frames)  # a view of the recording
    if frames.shape[1] != run.n_packets:
        raise ValueError(
            f"{args.proto} frames into {frames.shape[1]} packets per frame; the run trained on {run.n_packets}"
        )
    frames, fresh_stats = normalize_frames(frames)  # a copy: the recording goes
    # each mode range-checks its frame before use: an index of -1 would pass numpy
    if args.generated:  # its samples are read a block at a time by validate
        generated = iq_reader(args.generated)
        _check_generated_fits(generated, run.n_fft)
        # the frame a generated file's power came from, else the training frame
        frame = int(generated.meta.get("frame", run.frame)) if args.frame is None else args.frame
        frame = resolve_frame(frame, args.seed, len(frames))
        n_gen = generated.n_samples // run.n_fft
        blocks = generated.blocks(run.n_fft, SPECTRUM_BLOCK_ROWS)
    else:
        frame = resolve_frame(run.frame if args.frame is None else args.frame, args.seed, len(frames))
        n_gen = frames.shape[1] if args.ngen is None else args.ngen
        blocks = generated_blocks(run.model_i.generator, run.model_q.generator, n_gen, run.snr_mid_db, args.seed,
                                  fresh_stats.per_frame_power[frame])
    out_dir = Path(args.out_dir)

    def write_table(name, table):  # validate hands on no table before every input is read and scored
        out_dir.mkdir(parents=True, exist_ok=True)
        write = _write_histogram_csv if name == "histogram" else _write_spectrum_csv
        write(out_dir / f"{name}.csv", table)

    # the scored frame in physical units: its normalized packets scaled back by the frame's power
    proto_packets = denormalize(frames[frame], float(fresh_stats.per_frame_power[frame]))
    del frames  # a recording-sized copy; validate needs only the scored frame
    report = validate(proto_packets, run.logs, blocks, n_gen, seed=args.seed, write_table=write_table)
    (out_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    resolved = {
        "run_dir": str(run_dir),
        "frame": frame,
        "generated": args.generated or "",
        "n_gen": "" if args.generated else n_gen,
        "snr_db": repr(run.snr_mid_db),
        "coverage": repr(DEFAULT_COVERAGE),
        "band_ratio_min": repr(report.band_ratio_min),
        "accuracy_band": f"{report.accuracy_band[0]}:{report.accuracy_band[1]}",
    }
    write_manifest(out_dir / "validate.manifest", "validate", resolved, args.seed)
    _say(args, f"verdict: {report.verdict}")
    for name, ok in report.criteria.items():
        _say(args, f"  {name}: {'ok' if ok else 'FAILED'}")
    _say(
        args,
        f"  ks gen/noise: {report.ks_proto_vs_gen:.4f}/{report.ks_proto_vs_noise:.4f}; "
        f"band gen/noise: {report.band_energy_fraction_gen:.4f}/{report.band_energy_fraction_noise:.4f}; "
        f"accuracy: {report.mean_d_accuracy:.4f}",
    )
    return 0 if report.verdict == "pass" else 1


def cmd_inspect(args) -> int:
    rec = load_iq(args.infile)
    dc = np.mean(rec.samples)
    print(f"file            {args.infile}")
    print(f"samples         {rec.n_samples}")
    print(f"sample_rate_hz  {rec.sample_rate_hz}")
    print(f"duration_s      {rec.duration_s:.9g}")
    print(f"center_freq_hz  {rec.center_freq_hz}")
    print(f"rx_gain_db      {rec.rx_gain_db}")
    print(f"mean_power      {rec.mean_power():.9g}")
    print(f"peak_magnitude  {np.max(np.abs(rec.samples)):.9g}")
    print(f"dc_offset       {dc.real:.6g}{dc.imag:+.6g}j")
    return 0


def _add_common(sub) -> None:
    sub.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    sub.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radiogan",
        description="Train a GAN on a recorded I/Q prototype and synthesize lookalike signals.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("protogen", help="synthesize a ground-truth prototype recording")
    p.add_argument("--preset", choices=sorted(PRESETS), default="qpsk-burst")
    p.add_argument("--out", required=True, help="output I/Q payload path")
    for flag, _, keywords in SCENARIO_FLAGS:
        p.add_argument(flag, default=None, **keywords)
    _add_common(p)
    p.set_defaults(func=cmd_protogen)

    p = sub.add_parser("train", help="train the I/Q model pair on a prototype")
    p.add_argument("--proto", required=True, help="prototype I/Q payload")
    p.add_argument("--out-dir", required=True, help="run directory for checkpoints and logs")
    p.add_argument("--nfft", type=int, default=2048, help="packet length (default 2048)")
    p.add_argument("--frames", type=int, default=2, help="frame count (default 2)")
    p.add_argument("--frame", type=int, default=0, help="training frame index (default 0)")
    p.add_argument("--config", default=None, help="key=value config file (flags override it)")
    for flag, field_name, help_text in CONFIG_FLAGS:
        parser_fn = CONFIG_PARSERS[field_name]
        metavar = "LO:HI" if parser_fn is parse_range else None
        p.add_argument(flag, type=parser_fn, default=None, metavar=metavar, help=help_text)
    p.add_argument("--sweep", choices=["regularization"], default=None,
                   help="run the regularization ablation instead of a plain run")
    p.add_argument("--quiet", action="store_true", help="suppress progress output")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="synthesize a pseudo-radio-signal from a trained run")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--out", required=True, help="output I/Q payload path")
    p.add_argument("--ngen", type=int, default=None, help="packet count (default 20 x trained N_p)")
    p.add_argument("--snr", type=float, default=None,
                   help="latent SNR in dB (default: training range midpoint)")
    p.add_argument("--rc-length", type=int, default=DEFAULT_RC_LENGTH)
    p.add_argument("--rolloff", type=float, default=DEFAULT_ROLLOFF)
    p.add_argument("--frame", default="random", help='frame index for power, or "random"')
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="score generated output against the prototype")
    p.add_argument("--proto", required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--generated", default=None, help="generated I/Q payload (default: generate in-process)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--frame", type=int, default=None,
                   help="frame to score (default: the --generated file's frame, else the training frame)")
    p.add_argument("--ngen", type=int, default=None, help="packets for in-process generation (not with --generated)")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("inspect", help="print summary statistics of an I/Q recording")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
