"""Adversarial building blocks: latent schedule, losses, accuracy, config, log."""

from dataclasses import fields

import warnings

import numpy as np
import pytest

from radiogan.gan import (
    REAL,
    TrainConfig,
    TrainingLog,
    build_discriminator,
    build_generator,
    config_from_pairs,
    config_to_text,
    discriminator_accuracy,
    discriminator_loss,
    generator_loss,
    latent_noise_variance,
    sample_latent,
    saturating_generator_loss,
    _clamp,
    _class_targets,
    _generator_minibatch,
    _supervised_minibatch,
)
from radiogan.kvfile import parse_kv
from radiogan.net.adam import AdamState, adam_step
from radiogan.net.layers import net_backward, net_forward, net_params
from radiogan.seeding import substream


def test_latent_variance_fixtures():
    assert latent_noise_variance(1.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert latent_noise_variance(1.0, 10.0) == pytest.approx(0.1, abs=1e-3)
    assert latent_noise_variance(2.0, -3.0103) == pytest.approx(4.0, abs=1e-3)


def test_latent_variance_recovers_sigma():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        power = rng.uniform(1e-3, 1e3)
        sigma2 = rng.uniform(1e-3, 1e3)
        snr_db = 10.0 * np.log10(power) - 10.0 * np.log10(sigma2)
        out = latent_noise_variance(power, snr_db)
        assert abs(out - sigma2) / sigma2 < 1e-9


def test_latent_variance_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        latent_noise_variance(0.0, 0.0)


@pytest.mark.parametrize("snr_db", [np.nan, np.inf, -np.inf, 1e308, -1e308])
def test_latent_variance_rejects_an_snr_without_a_finite_positive_variance(snr_db):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite positive noise variance"):
            latent_noise_variance(1.0, snr_db)


def test_sample_latent_statistics():
    z = sample_latent(2000, 64, 4.0, substream(1, "z"))
    assert z.shape == (2000, 64)
    assert np.var(z) == pytest.approx(4.0, rel=0.02)
    assert np.mean(z) == pytest.approx(0.0, abs=0.01)
    # deterministic per seed stream
    z2 = sample_latent(2000, 64, 4.0, substream(1, "z"))
    assert np.array_equal(z, z2)


def test_discriminator_loss_fixtures():
    # indifferent discriminator, no smoothing -> ln 2
    assert discriminator_loss(0.5, 0.5, alpha=0.0) == pytest.approx(np.log(2.0), abs=1e-9)
    # perfect discriminator with one-sided smoothing alpha=0.2:
    # 0.5*(0.8*ln(1/0.8) + 0.2*ln(1/0.2)) ~= 0.2502
    val = discriminator_loss(np.array([0.8]), np.array([1e-12]), alpha=0.2)
    expect = 0.5 * (0.8 * np.log(1 / 0.8) + 0.2 * np.log(1 / 0.2))
    assert val == pytest.approx(expect, abs=1e-6)
    assert val == pytest.approx(0.2502, abs=1e-4)
    # smoothing keeps the real target at 1-alpha: d_real exactly 1-alpha is optimal
    a = discriminator_loss(np.array([0.8]), np.array([0.0]), alpha=0.2)
    b = discriminator_loss(np.array([0.9]), np.array([0.0]), alpha=0.2)
    assert a < b


def test_generator_loss_fixtures():
    assert generator_loss(np.exp(-2.0)) == pytest.approx(1.0, abs=1e-9)
    assert generator_loss(0.5) == pytest.approx(0.5 * np.log(2.0), abs=1e-9)
    assert generator_loss(np.array([0.25, 0.5])) == pytest.approx(
        0.25 * np.log(4.0) + 0.25 * np.log(2.0), abs=1e-9
    )


def test_saturating_antisymmetry():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d_real = rng.uniform(0.01, 0.99, 16)
        d_fake = rng.uniform(0.01, 0.99, 16)
        lhs = saturating_generator_loss(d_real, d_fake)
        rhs = -discriminator_loss(d_real, d_fake, alpha=0.0)
        assert abs(lhs - rhs) < 1e-12


def test_nonsaturating_gradient_dominates_when_fooled():
    # d/dp of -0.5*ln(p) is -1/(2p); d/dp of 0.5*ln(1-p) is -1/(2(1-p)).
    # at p = 1e-6 the non-saturating slope is ~1e6 times steeper.
    p = 1e-6
    h = 1e-9
    ns = (generator_loss(p + h) - generator_loss(p - h)) / (2 * h)
    sat = (
        saturating_generator_loss(np.array([0.5]), np.array([p + h]))
        - saturating_generator_loss(np.array([0.5]), np.array([p - h]))
    ) / (2 * h)
    assert abs(ns) / abs(sat) > 1e3


def test_loss_clamping_keeps_finite():
    assert np.isfinite(generator_loss(0.0))
    assert np.isfinite(discriminator_loss(np.array([0.0]), np.array([1.0]), alpha=0.0))


def test_accuracy_examples():
    real = np.array([0.9, 0.6, 0.2])  # two right
    fake = np.array([0.1, 0.7, 0.4])  # first and third right
    assert discriminator_accuracy(real, fake) == pytest.approx(4.0 / 6.0)
    # exactly 0.5 counts as wrong on both sides (strict comparisons)
    assert discriminator_accuracy(np.array([0.5]), np.array([0.5])) == 0.0
    assert discriminator_accuracy(np.array([1.0]), np.array([0.0])) == 1.0
    assert discriminator_accuracy(np.array([0.0]), np.array([1.0])) == 0.0


def test_build_shapes_and_determinism():
    g = build_generator(256, 5)
    assert g.n_fft == 256
    z = substream(0, "z").standard_normal((3, 256))
    out = g.predict(z)
    assert out.shape == (3, 256)
    assert np.all(np.abs(out) < 1.0)  # tanh output layer
    g2 = build_generator(256, 5)
    assert np.array_equal(out, g2.predict(z))
    assert not np.array_equal(out, build_generator(256, 6).predict(z))


def test_generator_accepts_rng_seed_stream():
    a = build_generator(256, substream(3, "init", "I", "generator"))
    b = build_generator(256, substream(3, "init", "Q", "generator"))
    assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)


def test_discriminator_outputs_two_way_softmax():
    d = build_discriminator(256, 1)
    x = substream(2, "x").standard_normal((4, 256))
    p = d.predict(x)
    assert p.shape == (4, 2)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > 0.0)


def test_discriminator_rejects_short_packets():
    with pytest.raises(ValueError):
        build_discriminator(64, 0)  # shorter than the conv kernel


def test_discriminator_dropout_only_in_train_mode():
    d = build_discriminator(256, 3)
    x = substream(4, "x").standard_normal((2, 256))
    a = d.predict(x)
    b = d.predict(x)
    assert np.array_equal(a, b)
    out_t, _ = net_forward(d.layers, x, train=True, rng=substream(5, "drop"))
    out_t2, _ = net_forward(d.layers, x, train=True, rng=substream(6, "drop"))
    assert not np.array_equal(out_t, out_t2)


def test_gradient_flows_back_to_input():
    # generator updates need d(probs)/d(input) through the frozen discriminator
    d = build_discriminator(256, 7)
    x = substream(8, "x").standard_normal((2, 256))
    probs, caches = net_forward(d.layers, x, train=True, rng=substream(9, "drop"))
    grad = np.zeros_like(probs)
    grad[:, 0] = 1.0
    grad_x, _ = net_backward(d.layers, caches, grad)
    assert grad_x.shape == x.shape
    assert np.max(np.abs(grad_x)) > 0.0


# --- training steps against full-backward references ---------------------------


def _reference_supervised_step(discriminator, opt, x, targets, dropout_rng):
    probs, caches = net_forward(discriminator.layers, x, train=True, rng=dropout_rng)
    grad = -(targets / _clamp(probs)) / x.shape[0]
    _, grads = net_backward(discriminator.layers, caches, grad)
    adam_step(net_params(discriminator.layers), grads, opt)


def _reference_generator_step(generator, discriminator, opt, z, dropout_rng):
    fake, g_caches = net_forward(generator.layers, z)
    probs, d_caches = net_forward(discriminator.layers, fake, train=True, rng=dropout_rng)
    grad_probs = np.zeros_like(probs)
    grad_probs[:, REAL] = -0.5 / (z.shape[0] * _clamp(probs[:, REAL]))
    grad_fake, _ = net_backward(discriminator.layers, d_caches, grad_probs)
    _, g_grads = net_backward(generator.layers, g_caches, grad_fake)
    adam_step(net_params(generator.layers), g_grads, opt)


def _assert_bit_identical(params_a, opt_a, params_b, opt_b):
    assert opt_a.step_count == opt_b.step_count == 1
    for name, a, b in (
        ("params", params_a, params_b),
        ("first_moment", opt_a.first_moment, opt_b.first_moment),
        ("second_moment", opt_a.second_moment, opt_b.second_moment),
    ):
        assert len(a) == len(b)
        assert all(np.array_equal(x, y) for x, y in zip(a, b)), name


def test_supervised_step_matches_full_backward_reference():
    fast, ref = build_discriminator(256, 11), build_discriminator(256, 11)
    opt_fast, opt_ref = AdamState.for_params(fast.params(), 1e-3), AdamState.for_params(ref.params(), 1e-3)
    x = substream(12, "x").standard_normal((8, 256))
    targets = _class_targets(4, 4, 0.2)
    assert _supervised_minibatch(fast, opt_fast, x, targets, substream(13, "drop")) is None
    _reference_supervised_step(ref, opt_ref, x, targets, substream(13, "drop"))
    _assert_bit_identical(fast.params(), opt_fast, ref.params(), opt_ref)
    assert not np.array_equal(fast.params()[0], build_discriminator(256, 11).params()[0])


def test_generator_step_matches_full_backward_reference_and_freezes_discriminator():
    g_fast, g_ref = build_generator(256, 21), build_generator(256, 21)
    d_fast, d_ref = build_discriminator(256, 22), build_discriminator(256, 22)
    d_before = [p.copy() for p in d_fast.params()]
    opt_fast, opt_ref = AdamState.for_params(g_fast.params(), 1e-3), AdamState.for_params(g_ref.params(), 1e-3)
    z = substream(23, "z").standard_normal((8, 256))
    assert _generator_minibatch(g_fast, d_fast, opt_fast, z, substream(24, "drop")) is None
    _reference_generator_step(g_ref, d_ref, opt_ref, z, substream(24, "drop"))
    _assert_bit_identical(g_fast.params(), opt_fast, g_ref.params(), opt_ref)
    assert all(np.array_equal(a, b) for a, b in zip(d_fast.params(), d_before))


def test_steps_update_the_arrays_the_nets_hold():
    g, d = build_generator(256, 31, width=16), build_discriminator(256, 32, n_kernels=4, kernel_len=16, width=8)
    g_opt, d_opt = AdamState.for_params(g.params(), 1e-3), AdamState.for_params(d.params(), 1e-3)
    held = [(net, net.params(), [p.copy() for p in net.params()]) for net in (g, d)]
    moments = [list(opt.first_moment) + list(opt.second_moment) for opt in (g_opt, d_opt)]
    x = substream(33, "x").standard_normal((8, 256))
    _supervised_minibatch(d, d_opt, x, _class_targets(4, 4, 0.2), substream(34, "drop"))
    _generator_minibatch(g, d, g_opt, x, substream(35, "drop"))
    for net, arrays, values in held:
        assert all(a is b for a, b in zip(net.params(), arrays))  # no copy was set back
        assert all(not np.array_equal(a, v) for a, v in zip(arrays, values) if a.ndim > 1)
    for opt, arrays in zip((g_opt, d_opt), moments):
        assert opt.step_count == 1
        assert all(a is b for a, b in zip(opt.first_moment + opt.second_moment, arrays))


def test_config_defaults_match_published_table():
    cfg = TrainConfig()
    assert cfg.n_epoch == 1000
    assert cfg.n_epoch_pretrain == 1
    assert cfg.s_batch == 300
    assert cfg.n_examples == 128
    assert cfg.label_smoothing_alpha == pytest.approx(0.2)
    assert cfg.snr_range_db == (-30.0, -24.0)
    assert cfg.eta_g == pytest.approx(0.011)
    assert cfg.eta_d == pytest.approx(1e-4)
    assert cfg.dropout_rate == pytest.approx(0.5)
    assert cfg.lambda_g == pytest.approx(1e-3)
    assert cfg.lambda_d == pytest.approx(1e-4)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(label_smoothing_alpha=0.5)
    with pytest.raises(ValueError):
        TrainConfig(snr_range_db=(0.0, -1.0))
    with pytest.raises(ValueError):
        TrainConfig(dropout_rate=1.0)
    with pytest.raises(ValueError):
        TrainConfig(n_examples=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_decay=1.0)
    TrainConfig(s_batch=100).validate_for(256)
    with pytest.raises(ValueError):
        TrainConfig(s_batch=300).validate_for(256)
    with pytest.raises(ValueError):
        TrainConfig(s_batch=32).validate_for(256)


# A valid value for every TrainConfig field that differs from its default.
_NON_DEFAULT_CONFIG = dict(
    n_epoch=7,
    n_epoch_pretrain=3,
    s_batch=40,
    s_minibatch_pretrain=8,
    n_examples=16,
    label_smoothing_alpha=0.125,
    snr_range_db=(-12.5, -3.0),
    seed=9,
    eta_g=0.007,
    eta_d=2.5e-4,
    dropout_rate=0.25,
    lambda_g=0.0,
    lambda_d=1e-5,
    lr_decay=0.5,
    early_stop_band=(0.4, 0.6),
    early_stop_patience=7,
)


def test_config_text_round_trip():
    cfg = TrainConfig(n_epoch=42, snr_range_db=(-12.5, -3.0), eta_g=0.007, early_stop_band=(0.4, 0.6))
    back = config_from_pairs(parse_kv(config_to_text(cfg)))
    assert back == cfg
    # every field, each with a non-default value
    assert set(_NON_DEFAULT_CONFIG) == {f.name for f in fields(TrainConfig)}
    default = TrainConfig()
    for name, value in _NON_DEFAULT_CONFIG.items():
        assert getattr(default, name) != value, name
    assert config_from_pairs(parse_kv(config_to_text(default))) == default  # early_stop_band=none
    cfg = TrainConfig(**_NON_DEFAULT_CONFIG)
    back = config_from_pairs(parse_kv(config_to_text(cfg)))
    assert back == cfg
    for name, value in _NON_DEFAULT_CONFIG.items():
        assert type(getattr(back, name)) is type(value), name


def test_default_config_text_is_stable():
    # checkpoints embed this text and train manifests hash it
    assert config_to_text(TrainConfig()) == (
        "n_epoch=1000\nn_epoch_pretrain=1\ns_batch=300\ns_minibatch_pretrain=32\n"
        "n_examples=128\nlabel_smoothing_alpha=0.2\nsnr_range_db=-30.0:-24.0\nseed=0\n"
        "eta_g=0.011\neta_d=0.0001\ndropout_rate=0.5\nlambda_g=0.001\nlambda_d=0.0001\n"
        "lr_decay=0.0\nearly_stop_band=none\nearly_stop_patience=50\n"
    )


def test_config_from_text_unknown_key():
    with pytest.raises(ValueError):
        config_from_pairs(parse_kv("no_such_knob=1\n"))


def test_config_from_text_partial_override():
    cfg = config_from_pairs(parse_kv("n_epoch=7\nsnr_range_db=-5.0:5.0\n"))
    assert cfg == TrainConfig(n_epoch=7, snr_range_db=(-5.0, 5.0))  # every other field at its default


def test_training_log_round_trip(tmp_path):
    log = TrainingLog()
    log.append(0.7, 0.3, 0.5, -27.25, 12)
    log.append(0.65, 0.31, 0.53125, -24.0, 11)
    path = tmp_path / "train_log_i.csv"
    log.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,d_loss,g_loss,d_accuracy,snr_db,wall_ms"
    assert lines[1].startswith("0,")
    back = TrainingLog.from_csv(path)
    assert back == log
    assert all(type(w) is int for w in back.wall_ms)


def test_training_log_row_text_is_stable(tmp_path):
    # the epoch, then repr of each field's value; wall_ms is written as an int
    log = TrainingLog()
    log.append(0.7, 0.3, 0.5, -27.25, 12)
    log.to_csv(tmp_path / "log.csv")
    assert (tmp_path / "log.csv").read_text() == "epoch,d_loss,g_loss,d_accuracy,snr_db,wall_ms\n0,0.7,0.3,0.5,-27.25,12\n"
    TrainingLog().to_csv(tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == "epoch,d_loss,g_loss,d_accuracy,snr_db,wall_ms\n"
    assert len(TrainingLog.from_csv(tmp_path / "empty.csv")) == 0


def test_training_log_mean_accuracy_window():
    log = TrainingLog()
    for acc in (0.0, 0.0, 1.0, 1.0):
        log.append(0.5, 0.5, acc, -27.0, 1)
    assert log.mean_accuracy() == pytest.approx(0.5)
    assert log.mean_accuracy(last_n=2) == pytest.approx(1.0)
    assert log.mean_accuracy(last_n=100) == pytest.approx(0.5)
    assert log.final_quartile_accuracy() == 1.0  # the last ceil(4 / 4) = 1 epoch
    log.append(0.5, 0.5, 0.0, -27.0, 1)
    assert log.final_quartile_accuracy() == 0.5  # the last ceil(5 / 4) = 2 epochs
    with pytest.raises(ValueError, match="empty log"):
        TrainingLog().final_quartile_accuracy()


@pytest.mark.parametrize(
    "text,reason",
    [
        ("nope\n0,1,2,3,4,5\n", "not a training log CSV"),
        ("epoch,d_loss,g_loss,d_accuracy,snr_db,wall_ms\n3,0.1,0.1,0.5,-25.0,1\n", "non-contiguous"),
        ("epoch,d_loss,g_loss,d_accuracy,snr_db,wall_ms\n0,0.1,0.1,0.5,-25.0\n", "bad row"),
        ("epoch,d_loss,g_loss,d_accuracy,snr_db,wall_ms\n0,0.1,0.1,0.5,-25.0,1.5\n", "invalid literal"),
    ],
    ids=["header", "epoch_gap", "short_row", "float_wall_ms"],
)
def test_training_log_rejects_bad_rows(tmp_path, text, reason):
    with pytest.raises(ValueError):
        TrainingLog().append(0.5, 0.5, 1.5, -27.0, 1)
    path = tmp_path / "train_log_q.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=reason) as caught:
        TrainingLog.from_csv(path)
    assert str(caught.value).startswith(f"{path}: ")
