"""Layer forward/backward checks: hand examples plus central finite differences."""

import tracemalloc

import numpy as np
import pytest

from radiogan import blocks
from radiogan.gan import build_discriminator
from radiogan.net.layers import (
    BLOCK_BYTES,
    Conv1DLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    conv_block_rows,
    decay_penalty,
    net_backward,
    net_forward,
    net_params,
    set_net_params,
    softmax,
    xavier_init,
)
from radiogan.seeding import substream


def test_xavier_shape_bounds_determinism():
    w1 = xavier_init(40, 30, 123)
    w2 = xavier_init(40, 30, 123)
    assert w1.shape == (30, 40)
    assert np.array_equal(w1, w2)
    bound = np.sqrt(6.0 / 70.0)
    assert np.max(np.abs(w1)) <= bound
    # a different seed must give different numbers
    assert not np.array_equal(w1, xavier_init(40, 30, 124))


def test_xavier_spread_uses_both_fans():
    big = xavier_init(10, 10, 0)
    small = xavier_init(1000, 1000, 0)
    assert np.std(big) > np.std(small)


def test_softmax_fixtures():
    assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-12)
    assert np.allclose(softmax(np.log(np.array([1.0, 3.0]))), [0.25, 0.75], atol=1e-12)


def test_softmax_shift_invariant_and_stable():
    logits = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]])
    assert np.allclose(softmax(logits), softmax(logits + 1000.0), atol=1e-12)
    huge = softmax(np.array([1e4, 0.0]))
    assert np.all(np.isfinite(huge))
    assert huge[0] == pytest.approx(1.0)


def test_dense_forward_hand_example():
    layer = DenseLayer(
        weights=np.array([[1.0, 2.0], [0.0, -1.0]]),
        bias=np.array([0.5, 0.0]),
        activation="identity",
    )
    out, cache = layer.forward(np.array([[1.0, 1.0]]))
    assert np.allclose(out, [[3.5, -1.0]])
    # tanh applies elementwise on the same affine map
    layer_t = DenseLayer(weights=layer.weights, bias=layer.bias, activation="tanh")
    out_t, _ = layer_t.forward(np.array([[1.0, 1.0]]))
    assert np.allclose(out_t, np.tanh([[3.5, -1.0]]))


def test_dense_analytic_gradient():
    # f = (w*x - t)^2 on a 1-in/1-out identity layer: df/dw = 2(wx-t)x
    layer = DenseLayer(weights=np.array([[2.0]]), bias=np.array([0.0]), activation="identity")
    x = np.array([[3.0]])
    out, cache = layer.forward(x)
    target = 1.0
    grad_out = 2.0 * (out - target)
    grad_x, grads = layer.backward(cache, grad_out)
    assert grads[0][0, 0] == pytest.approx(2.0 * (6.0 - 1.0) * 3.0)
    assert grads[1][0] == pytest.approx(2.0 * (6.0 - 1.0))
    assert grad_x[0, 0] == pytest.approx(2.0 * (6.0 - 1.0) * 2.0)


def test_conv_forward_hand_example():
    layer = Conv1DLayer(kernels=np.array([[[1.0, 1.0]]]), bias=np.zeros(1))
    out, _ = layer.forward(np.array([[1.0, 2.0, 3.0, 4.0]]))
    assert out.shape == (1, 1, 3)
    assert np.allclose(out[0, 0], [3.0, 5.0, 7.0])


def test_conv_forward_bias_and_channels():
    kernels = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])  # two taps: pick left / pick right
    layer = Conv1DLayer(kernels=kernels, bias=np.array([10.0, -10.0]))
    out, _ = layer.forward(np.array([[1.0, 2.0, 3.0]]))
    assert np.allclose(out[0, 0], [11.0, 12.0])
    assert np.allclose(out[0, 1], [-8.0, -7.0])


# --- conv1d against the einsum oracle ----------------------------------------


def einsum_conv_forward(layer, x):
    windows = np.lib.stride_tricks.sliding_window_view(x, layer.kernel_len, axis=1)
    return np.einsum("bls,ks->bkl", windows, layer.kernels[:, 0, :]) + layer.bias[None, :, None]


def einsum_conv_backward(layer, x, grad_out):
    """Reference gradients: kernel, bias, and input via the zero-padded full correlation."""
    s = layer.kernel_len
    windows = np.lib.stride_tricks.sliding_window_view(x, s, axis=1)
    grad_k = np.einsum("bkl,bls->ks", grad_out, windows)[:, None, :]
    grad_b = grad_out.sum(axis=(0, 2))
    padded = np.pad(grad_out, ((0, 0), (0, 0), (s - 1, s - 1)))
    gwin = np.lib.stride_tricks.sliding_window_view(padded, s, axis=2)
    grad_x = np.einsum("bkns,ks->bn", gwin, layer.kernels[:, 0, ::-1])
    return grad_x, grad_k, grad_b


DESK_ROWS = conv_block_rows(256, 128)


@pytest.mark.parametrize(
    "batch, n_in, n_kernels, kernel_len",
    [
        (1, 12, 3, 4),  # batch 1
        (3, 16, 2, 16),  # kernel as long as the input: one output sample
        (DESK_ROWS - 1, 256, 4, 128),  # one below a block boundary
        (DESK_ROWS, 256, 4, 128),  # exactly one block
        (DESK_ROWS + 1, 256, 4, 128),  # one row into the second block
        (128, 256, 32, 128),  # desk shape
        (1, 2048, 32, 128),  # one published-shape row
    ],
)
def test_conv_matches_einsum_oracle(batch, n_in, n_kernels, kernel_len):
    layer = Conv1DLayer.create(n_kernels, kernel_len, batch + n_in)
    layer.bias = np.random.default_rng(1).standard_normal(n_kernels)
    x = np.random.default_rng(2).standard_normal((batch, n_in))
    out, cache = layer.forward(x)
    grad_out = np.random.default_rng(3).standard_normal(out.shape)
    grad_x, (grad_k, grad_b) = layer.backward(cache, grad_out)
    want_x, want_k, want_b = einsum_conv_backward(layer, x, grad_out)
    assert out.shape == (batch, n_kernels, n_in - kernel_len + 1)
    assert rel_err(out, einsum_conv_forward(layer, x)) <= 1e-12
    assert rel_err(grad_k, want_k) <= 1e-12
    assert rel_err(grad_b, want_b) <= 1e-12
    assert rel_err(grad_x, want_x) <= 1e-12


def test_conv_block_rows_bounds_the_temporaries():
    # the input-gradient tap buffer, kernel_len * (n_in + 1) float64 a row, is the largest
    assert 1 < DESK_ROWS and DESK_ROWS * 8 * 128 * 257 <= BLOCK_BYTES
    assert conv_block_rows(2048, 128) == 1  # a published row alone is about the budget
    assert conv_block_rows(10**7, 128) == 1  # never fewer than one row


# --- conv1d row blocks on several workers ----------------------------------------


def serial_conv_forward(layer, x):
    """The single-thread block loop; any worker count must match it bit for bit."""
    kern = layer.kernels[:, 0, :]
    out = np.empty((x.shape[0], layer.n_kernels, x.shape[1] - layer.kernel_len + 1))
    windows = np.lib.stride_tricks.sliding_window_view(x, layer.kernel_len, axis=1)
    step = conv_block_rows(x.shape[1], layer.kernel_len)
    for start in range(0, x.shape[0], step):
        rows = slice(start, start + step)
        block = out[rows]
        np.matmul(kern, np.ascontiguousarray(windows[rows]).transpose(0, 2, 1), out=block)
        block += layer.bias[:, None]
    return out


def serial_conv_backward(layer, x, grad_out, input_grad, param_grads):
    batch, n_in = x.shape
    n_out = n_in - layer.kernel_len + 1
    kern_t = layer.kernels[:, 0, :].T
    windows = np.lib.stride_tricks.sliding_window_view(x, layer.kernel_len, axis=1)
    grad_x = np.empty((batch, n_in)) if input_grad else None
    grad_k = np.zeros((layer.n_kernels, layer.kernel_len))
    step = conv_block_rows(n_in, layer.kernel_len)
    for start in range(0, batch, step):
        rows = slice(start, start + step)
        g = grad_out[rows]
        if param_grads:
            grad_k += np.matmul(g, np.ascontiguousarray(windows[rows])).sum(axis=0)
        if input_grad:
            taps = np.empty((g.shape[0], layer.kernel_len, n_in + 1))
            np.matmul(kern_t, g, out=taps[:, :, :n_out])
            taps[:, :, n_out:] = 0.0
            flat = taps.reshape(g.shape[0], -1)[:, : layer.kernel_len * n_in]
            grad_x[rows] = flat.reshape(g.shape[0], layer.kernel_len, n_in).sum(axis=1)
    if not param_grads:
        return grad_x, []
    return grad_x, [grad_k[:, None, :], grad_out.sum(axis=(0, 2))]


def assert_same_bytes(actual, expected):
    if expected is None:
        assert actual is None
        return
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "batch, n_in",
    [
        (3 * DESK_ROWS + 2, 256),  # desk shape, 4 blocks with a ragged last one
        (128, 256),  # the desk batch
        (4, 2048),  # published shape: one row a block, fewer blocks than 5 workers
        (7, 2048),
    ],
)
@pytest.mark.parametrize("input_grad, param_grads", [(True, True), (True, False), (False, True), (False, False)])
def test_conv_on_any_worker_count_matches_the_serial_loop(monkeypatch, workers, batch, n_in, input_grad, param_grads):
    monkeypatch.setattr(blocks, "cpu_count", lambda: workers)
    layer = Conv1DLayer.create(32, 128, batch + n_in)
    layer.bias = np.random.default_rng(1).standard_normal(32)
    x = np.random.default_rng(2).standard_normal((batch, n_in))
    out, cache = layer.forward(x)
    assert_same_bytes(out, serial_conv_forward(layer, x))
    grad_out = np.random.default_rng(3).standard_normal(out.shape)
    grad_x, grads = layer.backward(cache, grad_out, input_grad=input_grad, param_grads=param_grads)
    want_x, want_grads = serial_conv_backward(layer, x, grad_out, input_grad, param_grads)
    assert_same_bytes(grad_x, want_x)
    assert len(grads) == len(want_grads)
    for got, want in zip(grads, want_grads):
        assert_same_bytes(got, want)


# --- dense row blocks on several workers -----------------------------------------


def _dense_blocks(x, fan_out):
    """The row blocks DenseLayer cuts: as many leading rows as fit in BLOCK_BYTES,
    counting the larger of an input and an output row."""
    row = max(x[0].size, x[0].size // x.shape[-1] * fan_out)
    step = max(1, BLOCK_BYTES // (8 * row))
    return [slice(start, start + step) for start in range(0, x.shape[0], step)]


_ACTIVATIONS = {"identity": lambda z: z, "tanh": np.tanh, "relu": lambda z: np.maximum(z, 0.0), "softmax": softmax}


def serial_dense_forward(layer, x):
    """The single-thread block loop, out of place; any worker count must match it bit for bit."""
    act = _ACTIVATIONS[layer.activation]
    return np.concatenate([act(x[rows] @ layer.weights.T + layer.bias) for rows in _dense_blocks(x, layer.fan_out)])


def _dense_grad_z(layer, out, grad_out):
    if layer.activation == "tanh":
        return grad_out * (1.0 - out**2)
    if layer.activation == "relu":
        return grad_out * (out > 0.0)
    if layer.activation == "softmax":
        return out * (grad_out - np.sum(grad_out * out, axis=-1, keepdims=True))
    return grad_out  # identity


def serial_dense_backward(layer, x, out, grad_out, input_grad, param_grads):
    grad_z = _dense_grad_z(layer, out, grad_out)
    grad_x = None
    if input_grad:
        grad_x = np.concatenate([grad_z[rows] @ layer.weights for rows in _dense_blocks(x, layer.fan_out)])
    if not param_grads:
        return grad_x, []
    z2, x2 = grad_z.reshape(-1, layer.fan_out), x.reshape(-1, layer.fan_in)
    return grad_x, [z2.T @ x2 + 2.0 * layer.weight_decay_lambda * layer.weights, z2.sum(axis=0)]


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "shape, fan_out, activation",
    [
        ((3 * 63 + 2, 32, 129), 32, "relu"),  # desk conv output: 63 rows a block, a ragged last one
        ((9, 32, 1921), 32, "relu"),  # published conv output: 4 rows a block
        ((300, 2048), 128, "tanh"),  # the generator's input layer at published scale: 128 rows a block
        ((300, 128), 2048, "tanh"),  # its output layer
        ((600, 1024), 32, "identity"),  # the discriminator after the flatten: 256 rows a block
        ((130, 4096), 2, "softmax"),  # 64 rows a block
    ],
)
@pytest.mark.parametrize("input_grad, param_grads", [(True, True), (True, False), (False, True), (False, False)])
def test_dense_on_any_worker_count_matches_the_serial_loop(
    monkeypatch, workers, shape, fan_out, activation, input_grad, param_grads
):
    monkeypatch.setattr(blocks, "cpu_count", lambda: workers)
    layer = DenseLayer.create(shape[-1], fan_out, activation, 4, weight_decay_lambda=0.01)
    layer.bias = np.random.default_rng(1).standard_normal(fan_out)
    x = np.random.default_rng(2).standard_normal(shape)
    assert len(_dense_blocks(x, fan_out)) >= 3
    out, cache = layer.forward(x)
    want = serial_dense_forward(layer, x)
    assert_same_bytes(out, want)
    grad_out = np.random.default_rng(3).standard_normal(out.shape)
    grad_x, grads = layer.backward(cache, grad_out, input_grad=input_grad, param_grads=param_grads)
    want_x, want_grads = serial_dense_backward(layer, x, out, grad_out, input_grad, param_grads)
    assert_same_bytes(grad_x, want_x)
    assert len(grads) == len(want_grads)
    for got, expect in zip(grads, want_grads):
        assert_same_bytes(got, expect)
    if x.ndim == 3:
        # numpy's per-slice GEMMs: the same bits as the one-call product
        assert_same_bytes(out, _ACTIVATIONS[activation](x @ layer.weights.T + layer.bias))
        if input_grad:
            assert_same_bytes(grad_x, _dense_grad_z(layer, out, grad_out) @ layer.weights)


def test_dense_refuses_an_input_without_a_batch_axis():
    with pytest.raises(ValueError, match="expected"):
        DenseLayer.create(4, 3, "tanh", 0).forward(np.ones(4))


# --- skipping gradients ---------------------------------------------------------


def _layer_cases():
    rng = np.random.default_rng(5)
    x2 = rng.standard_normal((4, 12))
    x3 = rng.standard_normal((4, 3, 6))
    drop = DropoutLayer(rate=0.5)
    return [
        (DenseLayer.create(12, 5, "tanh", 0, weight_decay_lambda=0.01), x2, {}),
        (DenseLayer.create(6, 2, "softmax", 1), x3, {}),
        (Conv1DLayer.create(3, 5, 2), x2, {}),
        (drop, x2, {"train": True, "rng": substream(6, "drop")}),
        (drop, x2, {}),
        (FlattenLayer(), x3, {}),
    ]


@pytest.mark.parametrize("case", range(len(_layer_cases())))
def test_backward_skips_match_full_call(case):
    layer, x, kwargs = _layer_cases()[case]
    out, cache = layer.forward(x, **kwargs)
    grad_out = np.random.default_rng(7).standard_normal(out.shape)
    full_x, full_params = layer.backward(cache, grad_out)
    assert len(full_params) == len(layer.params())

    no_input, params = layer.backward(cache, grad_out, input_grad=False)
    assert no_input is None
    assert len(params) == len(full_params)
    assert all(np.array_equal(a, b) for a, b in zip(params, full_params))

    grad_x, no_params = layer.backward(cache, grad_out, param_grads=False)
    assert no_params == []
    assert np.array_equal(grad_x, full_x)


def test_net_backward_skips_match_full_call():
    layers = [
        Conv1DLayer.create(2, 3, 0),
        DenseLayer.create(6, 4, "relu", 1),
        DropoutLayer(rate=0.5),
        FlattenLayer(),
        DenseLayer.create(8, 2, "softmax", 2),
    ]
    x = np.random.default_rng(8).standard_normal((3, 8))
    out, caches = net_forward(layers, x, train=True, rng=substream(9, "drop"))
    grad_out = np.random.default_rng(10).standard_normal(out.shape)
    # net_backward consumes its list, so each call gets its own copy.
    full_x, full_params = net_backward(layers, list(caches), grad_out)

    no_input, params = net_backward(layers, list(caches), grad_out, input_grad=False)
    assert no_input is None
    assert len(params) == len(full_params) == len(net_params(layers))
    assert all(np.array_equal(a, b) for a, b in zip(params, full_params))

    grad_x, no_params = net_backward(layers, list(caches), grad_out, param_grads=False)
    assert no_params == []
    assert np.array_equal(grad_x, full_x)


def test_net_backward_consumes_caches():
    layers = [DenseLayer.create(4, 3, "tanh", 0), DenseLayer.create(3, 2, "softmax", 1)]
    x = np.random.default_rng(0).standard_normal((5, 4))
    out, caches = net_forward(layers, x)
    net_backward(layers, caches, np.ones_like(out))
    assert caches == []
    with pytest.raises(ValueError, match="cache/layer mismatch"):
        net_backward(layers, caches, np.ones_like(out))


@pytest.mark.parametrize("activation", ["identity", "tanh", "relu", "softmax"])
def test_dense_backward_on_held_cache_repeats(activation):
    """A cache its caller still holds keeps its arrays, unwritten: a dense
    layer's cached input may be a lower layer's cached output."""
    layer = DenseLayer.create(6, 4, activation, 0, weight_decay_lambda=0.01)
    x = np.random.default_rng(1).standard_normal((3, 2, 6))
    out, cache = layer.forward(x)
    held = [a.copy() for a in cache[1:]]
    grad_out = np.random.default_rng(2).standard_normal(out.shape)
    first_x, first_params = layer.backward(cache, grad_out)
    again_x, again_params = layer.backward(cache, grad_out)
    assert all(np.array_equal(a, b) for a, b in zip(cache[1:], held))
    assert np.array_equal(first_x, again_x)
    assert all(np.array_equal(a, b) for a, b in zip(first_params, again_params))


@pytest.mark.parametrize("mode", [{"input_grad": False}, {"param_grads": False}], ids=["d_step", "g_step"])
def test_net_backward_frees_the_conv_output_before_its_gradient(mode):
    """A published-width discriminator's backward pass must not hold the conv
    output (dense layer 1's cached input) while it allocates that layer's input
    gradient of the same size: its peak above its start stays under half the
    conv output's bytes, where holding both reads above one whole conv output."""
    discriminator = build_discriminator(2048, 0)
    x = substream(4, "packets").standard_normal((64, 2048))
    tracemalloc.start()
    try:
        probs, caches = net_forward(discriminator.layers, x, train=True, rng=substream(5, "drop"))
        conv_bytes = caches[1][1].nbytes
        grad = np.full_like(probs, 0.25)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        net_backward(discriminator.layers, caches, grad, **mode)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert conv_bytes == 64 * 32 * 1921 * 4
    assert peak < 0.5 * conv_bytes, f"backward peak {peak / conv_bytes:.2f}x the conv output"


def test_dropout_rate_zero_and_inference_are_identity():
    layer = DropoutLayer(rate=0.0)
    x = np.random.default_rng(0).standard_normal((4, 8))
    out, _ = layer.forward(x, train=True, rng=np.random.default_rng(1))
    assert np.array_equal(out, x)
    layer = DropoutLayer(rate=0.7)
    out, _ = layer.forward(x, train=False)
    assert np.array_equal(out, x)


def test_dropout_mask_statistics_and_scaling():
    layer = DropoutLayer(rate=0.25)
    x = np.ones((200, 200))
    out, _ = layer.forward(x, train=True, rng=np.random.default_rng(42))
    kept = out != 0.0
    assert kept.mean() == pytest.approx(0.75, abs=0.01)
    # inverted dropout: survivors are scaled so the expectation is preserved
    assert np.allclose(out[kept], 1.0 / 0.75)
    assert out.mean() == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.3, 0.5, 0.9])
def test_dropout_forward_and_backward_apply_the_same_factor(dtype, rate):
    layer = DropoutLayer(rate=rate)
    x = np.random.default_rng(3).standard_normal(65536).astype(dtype)
    out, cache = layer.forward(x, train=True, rng=np.random.default_rng(4))
    factor, _ = layer.backward(cache, np.ones_like(x))
    assert out.dtype == factor.dtype == dtype
    assert np.array_equal(out, x * factor)


def test_dropout_determinism_and_missing_rng():
    layer = DropoutLayer(rate=0.5)
    x = np.ones((8, 8))
    a, _ = layer.forward(x, train=True, rng=substream(9, "drop"))
    b, _ = layer.forward(x, train=True, rng=substream(9, "drop"))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        layer.forward(x, train=True)


def test_flatten_round_trip_gradient():
    layer = FlattenLayer()
    x = np.arange(24, dtype=float).reshape(2, 3, 4)
    out, cache = layer.forward(x)
    assert out.shape == (2, 12)
    grad_x, grads = layer.backward(cache, out)
    assert grads == []
    assert np.array_equal(grad_x, x)


def test_softmax_backward_zero_sum():
    # softmax rows sum to 1, so gradients must be orthogonal to (1,...,1)
    layer = DenseLayer.create(4, 3, "softmax", 0)
    x = np.random.default_rng(2).standard_normal((5, 4))
    out, cache = layer.forward(x)
    grad = np.random.default_rng(3).standard_normal(out.shape)
    grad_x, _ = layer.backward(cache, grad)
    assert np.all(np.isfinite(grad_x))


def test_zero_upstream_gives_zero_grads():
    layer = DenseLayer.create(6, 4, "tanh", 1)
    x = np.random.default_rng(4).standard_normal((3, 6))
    out, cache = layer.forward(x)
    grad_x, grads = layer.backward(cache, np.zeros_like(out))
    assert np.allclose(grad_x, 0.0)
    assert all(np.allclose(g, 0.0) for g in grads)


def test_weight_decay_adds_gradient_term():
    lam = 0.01
    plain = DenseLayer.create(5, 5, "identity", 7)
    decayed = DenseLayer(
        weights=plain.weights.copy(),
        bias=plain.bias.copy(),
        activation="identity",
        weight_decay_lambda=lam,
    )
    x = np.random.default_rng(8).standard_normal((4, 5))
    grad = np.random.default_rng(9).standard_normal((4, 5))
    _, cache_p = plain.forward(x)
    _, cache_d = decayed.forward(x)
    _, grads_p = plain.backward(cache_p, grad)
    _, grads_d = decayed.backward(cache_d, grad)
    assert np.allclose(grads_d[0] - grads_p[0], 2.0 * lam * plain.weights, atol=1e-12)
    assert np.allclose(grads_d[1], grads_p[1])


def test_decay_penalty_value():
    layer = DenseLayer(
        weights=np.array([[1.0, 2.0], [3.0, 4.0]]),
        bias=np.zeros(2),
        activation="identity",
        weight_decay_lambda=0.1,
    )
    assert decay_penalty([layer, FlattenLayer()]) == pytest.approx(0.1 * 30.0)
    assert decay_penalty([FlattenLayer()]) == 0.0


def test_stale_cache_rejected():
    a = DenseLayer.create(4, 4, "tanh", 0)
    b = Conv1DLayer.create(2, 3, 1)
    x = np.random.default_rng(0).standard_normal((2, 4))
    _, caches = net_forward([a], x)
    with pytest.raises(ValueError):
        net_backward([b], caches, np.zeros((2, 2, 2)))
    # Every tag is checked before any cache is consumed: a stale bottom
    # entry leaves the top one in place too.
    top = DenseLayer.create(4, 4, "tanh", 2)
    _, caches = net_forward([a, top], x)
    with pytest.raises(ValueError, match="stale activation cache"):
        net_backward([b, top], caches, np.zeros((2, 4)))
    assert len(caches) == 2
    with pytest.raises(ValueError):
        net_backward([a], [], np.zeros((2, 4)))


def test_set_net_params_round_trip_and_length_check():
    # layers without parameters are skipped
    layers = [DenseLayer.create(4, 3, "relu", 0), DropoutLayer(0.5), FlattenLayer(), DenseLayer.create(3, 2, "softmax", 1)]
    flat = net_params(layers)
    assert len(flat) == 4
    doubled = [p * 2.0 for p in flat]
    set_net_params(layers, doubled)
    assert np.array_equal(layers[0].weights, flat[0] * 2.0)
    with pytest.raises(ValueError):
        set_net_params(layers, flat[:-1])


# --- finite differences ------------------------------------------------------


def numeric_grad(f, arr, h=1e-4):
    g = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = f()
        flat[i] = keep - h
        fm = f()
        flat[i] = keep
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / denom


def check_layer_grads(make_layers, x_shape, seed, dropout_seed=None):
    """Compare analytic grads to central differences for loss = sum(out * c)."""
    rng = np.random.default_rng(seed)
    layers = make_layers()
    x = rng.standard_normal(x_shape)

    def run():
        drop_rng = substream(dropout_seed, "fd") if dropout_seed is not None else None
        out, _ = net_forward(layers, x, train=dropout_seed is not None, rng=drop_rng)
        return out

    c = np.random.default_rng(seed + 1).standard_normal(run().shape)

    def loss():
        return float(np.sum(run() * c)) + decay_penalty(layers)

    drop_rng = substream(dropout_seed, "fd") if dropout_seed is not None else None
    out, caches = net_forward(layers, x, train=dropout_seed is not None, rng=drop_rng)
    grad_x, grads = net_backward(layers, caches, c)

    errs = [rel_err(numeric_grad(loss, x), grad_x)]
    for p, g in zip(net_params(layers), grads):
        errs.append(rel_err(numeric_grad(loss, p), g))
    return max(errs)


@pytest.mark.parametrize("seed", range(6))
def test_fd_dense_tanh(seed):
    assert check_layer_grads(lambda: [DenseLayer.create(6, 5, "tanh", seed)], (3, 6), seed) < 1e-4


@pytest.mark.parametrize("seed", range(6))
def test_fd_dense_relu(seed):
    # kinks at exactly 0 pre-activation would break the numeric derivative,
    # but random gaussian pre-activations land within h of 0 with ~0 probability
    assert check_layer_grads(lambda: [DenseLayer.create(6, 5, "relu", seed)], (3, 6), seed) < 1e-4


@pytest.mark.parametrize("seed", range(6))
def test_fd_softmax_head(seed):
    assert check_layer_grads(lambda: [DenseLayer.create(5, 3, "softmax", seed)], (4, 5), seed) < 1e-4


@pytest.mark.parametrize("seed", range(6))
def test_fd_conv1d(seed):
    assert check_layer_grads(lambda: [Conv1DLayer.create(3, 4, seed)], (2, 12), seed) < 1e-4


@pytest.mark.parametrize("seed", range(6))
def test_fd_dropout_fixed_mask(seed):
    make = lambda: [DenseLayer.create(6, 6, "tanh", seed), DropoutLayer(rate=0.5)]
    assert check_layer_grads(make, (3, 6), seed, dropout_seed=seed + 100) < 1e-4


@pytest.mark.parametrize("seed", range(6))
def test_fd_weight_decay(seed):
    make = lambda: [DenseLayer.create(5, 4, "tanh", seed, weight_decay_lambda=0.01)]
    assert check_layer_grads(make, (3, 5), seed) < 1e-4


@pytest.mark.parametrize("seed", range(4))
def test_fd_full_stack(seed):
    def make():
        return [
            Conv1DLayer.create(2, 3, seed),
            DenseLayer.create(6, 4, "relu", seed + 1),
            DropoutLayer(rate=0.5),
            FlattenLayer(),
            DenseLayer.create(8, 4, "tanh", seed + 2, weight_decay_lambda=1e-3),
            DenseLayer.create(4, 2, "softmax", seed + 3),
        ]

    assert check_layer_grads(make, (2, 8), seed, dropout_seed=seed + 50) < 1e-4
