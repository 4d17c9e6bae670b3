"""float32 nets: every layer, Adam and both training steps keep the parameters'
dtype, and no backward pass receives or returns a subnormal gradient."""

import numpy as np
import pytest

from radiogan import gan
from radiogan.gan import (
    _class_targets,
    _generator_minibatch,
    _supervised_minibatch,
    build_discriminator,
    build_generator,
    load_gan,
    save_gan,
)
from radiogan.net import layers
from radiogan.net.adam import AdamState, adam_step
from radiogan.net.layers import (
    Conv1DLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    flush_subnormal,
    net_backward,
    net_forward,
    net_params,
    set_net_params,
)
from radiogan.seeding import substream

DTYPES = [np.float32, np.float64]


def _cast(stack, dtype):
    set_net_params(stack, [p.astype(dtype) for p in net_params(stack)])
    return stack


def _subnormals(a) -> int:
    a = np.asarray(a)
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)))


def _arrays(cache):
    return [item for item in cache if isinstance(item, np.ndarray)]


# (layer, input shape, train mode) for every layer type and activation
def _layer_cases():
    return [
        (DenseLayer.create(6, 5, "tanh", 1), (3, 6), False),
        (DenseLayer.create(6, 5, "relu", 2), (3, 4, 6), False),
        (DenseLayer.create(6, 5, "identity", 3, weight_decay_lambda=0.1), (3, 6), False),
        (DenseLayer.create(5, 2, "softmax", 4), (3, 5), False),
        (Conv1DLayer.create(3, 4, 5), (2, 12), False),
        (DropoutLayer(0.5), (3, 6), True),
        (DropoutLayer(0.5), (3, 6), False),
        (FlattenLayer(), (3, 2, 4), False),
    ]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", range(len(_layer_cases())))
def test_every_layer_keeps_its_dtype_whatever_the_caller_passes(dtype, case):
    layer, shape, train = _layer_cases()[case]
    _cast([layer], dtype)
    assert all(p.dtype == dtype for p in layer.params())
    # parameterless layers follow their input; the others cast a float64 input
    x = substream(case, "x").standard_normal(shape)
    x = x.astype(dtype) if not layer.params() else x
    out, cache = net_forward([layer], x, train=train, rng=substream(case, "drop"))
    assert out.dtype == dtype
    assert all(a.dtype == dtype for a in _arrays(cache[0]))
    grad_out = substream(case, "g").standard_normal(out.shape)  # float64, as a loss gives it
    grad_x, grads = layer.backward(cache[0], grad_out)
    assert grad_x.dtype == dtype
    assert len(grads) == len(layer.params())
    assert all(g.dtype == dtype for g in grads)


@pytest.mark.parametrize("dtype", DTYPES)
def test_adam_keeps_the_parameter_dtype(dtype):
    params = [np.array([[1.0, -2.0]], dtype=dtype), np.array([0.5], dtype=dtype)]
    state = AdamState.for_params(params, learning_rate=0.1)
    # numpy float64 scalars as hyperparameters must not upcast either
    state.learning_rate, state.beta1 = np.float64(0.1), np.float64(0.9)
    grads = [np.array([[0.25, -1.0]], dtype=dtype), np.array([2.0], dtype=dtype)]
    adam_step(params, grads, state)
    for arrays in (params, state.first_moment, state.second_moment):
        assert all(a.dtype == dtype for a in arrays)


def test_built_and_loaded_nets_are_float32(tmp_path):
    model = gan.GanModel(build_generator(256, 1), build_discriminator(256, 2), None, None, gan.TrainConfig())
    for net in (model.generator, model.discriminator):
        assert all(p.dtype == np.float32 for p in net.params())
    save_gan(tmp_path / "m.psg", model)
    back = load_gan(tmp_path / "m.psg")
    for net, net_back in ((model.generator, back.generator), (model.discriminator, back.discriminator)):
        for p, q in zip(net.params(), net_back.params()):
            assert q.dtype == np.float32 and q.tobytes() == p.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_both_training_steps_keep_the_parameter_dtype(dtype):
    g = build_generator(256, 31, width=16)
    d = build_discriminator(256, 32, n_kernels=4, kernel_len=16, width=8)
    _cast(g.layers, dtype)
    _cast(d.layers, dtype)
    d_opt = AdamState.for_params(d.params(), 1e-3)
    g_opt = AdamState.for_params(g.params(), 1e-3)
    x = substream(33, "x").standard_normal((8, 256))  # float64 packets, as the DSP gives them
    _supervised_minibatch(d, d_opt, x, _class_targets(4, 4, 0.2), substream(34, "drop"))
    _generator_minibatch(g, d, g_opt, x, substream(35, "drop"))
    for net, opt in ((d, d_opt), (g, g_opt)):
        assert opt.step_count == 1
        for arrays in (net.params(), opt.first_moment, opt.second_moment):
            assert all(a.dtype == dtype for a in arrays)


@pytest.mark.parametrize("dtype", DTYPES)
def test_flush_zeroes_exactly_the_entries_below_tiny(dtype):
    tiny = np.finfo(dtype).tiny
    values = np.array([tiny, -tiny, tiny / 2, -tiny / 4, tiny * 2**-20, 0.0, 1.0, -3.0, 1e-3], dtype=dtype)
    a = values.copy()
    assert flush_subnormal(a) is a
    expect = values.copy()
    expect[2:5] = 0.0
    assert a.tobytes() == expect.tobytes()


def _saturating_stack(dtype):
    """A small discriminator whose softmax saturates on most of a batch:
    P(fake) spans about 1e-44 to 1e-31, so in float32 some rows' gradients
    are subnormal at the head and others turn subnormal further down."""
    rng = substream(1, "saturating")
    stack = [
        Conv1DLayer.create(4, 8, rng),
        DenseLayer.create(57, 8, "relu", rng),
        DropoutLayer(0.5),
        FlattenLayer(),
        DenseLayer.create(32, 8, "identity", rng),
        DropoutLayer(0.5),
        DenseLayer.create(8, 2, "softmax", rng),
    ]
    x = substream(2, "x").standard_normal((16, 64))
    _, caches = net_forward(stack, x, train=True, rng=substream(3, "drop"))
    head_in, head = caches[-1][1], stack[-1]
    base = head_in @ (head.weights[0] - head.weights[1])
    scale = 8.0 / base.std()
    bias = np.array([88.0 - scale * base.mean(), 0.0])  # logit gaps of about 88 +- 8
    head.set_params([head.weights * scale, bias])
    return _cast(stack, dtype), x


def _backward_record(dtype):
    """``(layer name, received gradient, returned gradients...)`` for each
    layer in one full backward pass of the saturating stack, top first."""
    record = []
    with pytest.MonkeyPatch.context() as mp:
        for cls in (Conv1DLayer, DenseLayer, DropoutLayer, FlattenLayer):

            def spy(self, cache, grad_out, original=cls.backward, **kwargs):
                grad_x, grads = original(self, cache, grad_out, **kwargs)
                record.append((type(self).__name__, grad_out, grad_x, *grads))
                return grad_x, grads

            mp.setattr(cls, "backward", spy)
        stack, x = _saturating_stack(dtype)
        probs, caches = net_forward(stack, x, train=True, rng=substream(3, "drop"))
        grad = -(_class_targets(8, 8, 0.2) / np.clip(probs, 1e-7, 1.0)) / x.shape[0]
        net_backward(stack, caches, grad)
    assert len(record) == len(stack)
    return record


def test_no_backward_pass_receives_or_returns_a_subnormal():
    found = [(name, [_subnormals(a) for a in arrays]) for name, *arrays in _backward_record(np.float32)]
    assert all(count == 0 for _, counts in found for count in counts), found


def test_without_the_flush_the_saturating_case_has_subnormals(monkeypatch):
    # the case above exercises the flush: with it off, subnormals reach the conv layer
    monkeypatch.setattr(layers, "flush_subnormal", lambda a: a)
    conv_received = _backward_record(np.float32)[-1][1]
    assert _subnormals(conv_received) > 0


def test_a_float64_net_gets_the_same_bytes_with_and_without_the_flush(monkeypatch):
    with_flush = _backward_record(np.float64)
    monkeypatch.setattr(layers, "flush_subnormal", lambda a: a)
    without = _backward_record(np.float64)
    for got, want in zip(with_flush, without):
        assert [a.tobytes() for a in got[1:]] == [a.tobytes() for a in want[1:]]


TRACED = ((DenseLayer, "forward"), (DenseLayer, "backward"), (Conv1DLayer, "forward"),
          (Conv1DLayer, "backward"), (DropoutLayer, "forward"), (DropoutLayer, "backward"),
          (gan, "net_forward"), (gan, "adam_step"), (gan, "sample_latent"))


def _counted_steps():
    """Traced-name call counts and the dropout stream's final state over one
    discriminator and one generator step."""
    calls = {}
    with pytest.MonkeyPatch.context() as mp:
        for owner, name in TRACED:

            def counted(*args, original=getattr(owner, name), key=f"{owner.__name__}.{name}", **kwargs):
                calls[key] = calls.get(key, 0) + 1
                return original(*args, **kwargs)

            mp.setattr(owner, name, counted)
        g = build_generator(256, 41, width=16)
        d = build_discriminator(256, 42, n_kernels=4, kernel_len=16, width=8)
        x = substream(44, "x").standard_normal((8, 256))
        rng = substream(43, "drop")
        _supervised_minibatch(d, AdamState.for_params(d.params(), 1e-3), x, _class_targets(4, 4, 0.2), rng)
        _generator_minibatch(g, d, AdamState.for_params(g.params(), 1e-3), x, rng)
    return calls, rng.bit_generator.state


def test_the_flush_draws_no_random_number_and_calls_no_traced_name(monkeypatch):
    flushed = _counted_steps()
    monkeypatch.setattr(layers, "flush_subnormal", lambda a: a)
    assert _counted_steps() == flushed
