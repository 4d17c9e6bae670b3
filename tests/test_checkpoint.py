"""Binary checkpoint container: bit-exact round trips and corruption handling."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiogan.net.adam import AdamState
from radiogan.net.checkpoint import CheckpointError, load_stacks, save_stacks
from radiogan.net.layers import Conv1DLayer, DenseLayer, DropoutLayer, FlattenLayer, net_params


def _stack(seed):
    return [
        Conv1DLayer.create(4, 8, seed),
        DenseLayer.create(16, 8, "relu", seed + 1),
        DropoutLayer(rate=0.5),
        FlattenLayer(),
        DenseLayer.create(32, 2, "softmax", seed + 2, weight_decay_lambda=1e-4),
    ]


def test_save_load_save_is_byte_identical(tmp_path):
    stacks = [_stack(0), _stack(5)]
    opts = [AdamState.for_params(net_params(s), learning_rate=0.01) for s in stacks]
    opts[1] = None  # untrained stack
    cfg = "n_epoch=3\nseed=9\n"
    p1, p2 = tmp_path / "a.psg", tmp_path / "b.psg"
    save_stacks(p1, stacks, opts, cfg)
    stacks2, opts2, cfg2 = load_stacks(p1)
    save_stacks(p2, stacks2, opts2, cfg2)
    assert p1.read_bytes() == p2.read_bytes()
    assert cfg2 == cfg
    assert opts2[1] is None


def test_loaded_values_match_float32_of_originals(tmp_path):
    stack = _stack(3)
    path = tmp_path / "m.psg"
    save_stacks(path, [stack], [None], "")
    (loaded,), _, _ = load_stacks(path)
    for orig, back in zip(net_params(stack), net_params(loaded)):
        assert np.array_equal(back, orig.astype(np.float32).astype(np.float64))


def test_layer_structure_survives(tmp_path):
    stack = _stack(1)
    path = tmp_path / "m.psg"
    save_stacks(path, [stack], [None], "x=1\n")
    (loaded,), _, _ = load_stacks(path)
    assert [type(l).__name__ for l in loaded] == [type(l).__name__ for l in stack]
    assert loaded[1].activation == "relu"
    assert loaded[4].weight_decay_lambda == pytest.approx(1e-4)
    assert loaded[2].rate == pytest.approx(0.5)


@pytest.mark.parametrize("activation,code", [("identity", 0), ("tanh", 1), ("relu", 2), ("softmax", 3)])
def test_dense_activation_byte_is_the_documented_code(tmp_path, activation, code):
    # magic 4, version u16, n_stacks u32, n_layers u32, then the dense kind byte at 14
    path = tmp_path / "m.psg"
    save_stacks(path, [[DenseLayer.create(3, 2, activation, 0)]], [None], "")
    data = path.read_bytes()
    assert data[14] == 1  # dense
    assert data[15] == code
    (loaded,), _, _ = load_stacks(path)
    assert loaded[0].activation == activation


def test_optimizer_state_survives(tmp_path):
    stack = _stack(2)
    opt = AdamState.for_params(net_params(stack), learning_rate=0.011)
    opt = AdamState(
        first_moment=[m + 0.25 for m in opt.first_moment],
        second_moment=[v + 0.5 for v in opt.second_moment],
        step_count=17,
        learning_rate=opt.learning_rate,
    )
    path = tmp_path / "m.psg"
    save_stacks(path, [stack], [opt], "")
    _, (opt2,), _ = load_stacks(path)
    assert opt2.step_count == 17
    assert opt2.learning_rate == pytest.approx(0.011)
    assert np.allclose(opt2.first_moment[0], 0.25, atol=1e-7)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.psg"
    save_stacks(path, [_stack(0)], [None], "")
    data = bytearray(path.read_bytes())
    data[0] = ord("X")
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        load_stacks(path)


def test_truncation_rejected(tmp_path):
    path = tmp_path / "m.psg"
    save_stacks(path, [_stack(0)], [None], "")
    data = path.read_bytes()
    for cut in (4, len(data) // 2, len(data) - 3):
        path.write_bytes(data[:cut])
        with pytest.raises(CheckpointError):
            load_stacks(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "m.psg"
    save_stacks(path, [_stack(0)], [None], "")
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(CheckpointError):
        load_stacks(path)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "m.psg"
    save_stacks(path, [_stack(0)], [None], "")
    data = bytearray(path.read_bytes())
    data[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        load_stacks(path)


# --- refusing what a training run could not have written ---------------------

NAN, INF = float("nan"), float("inf")
SENTINEL = 0.6171875  # a valid value for every field below, exact in float32


def _stack_with_adam():
    stack = _stack(4)
    return [stack], [AdamState.for_params(net_params(stack), learning_rate=0.01)]


def write_with_field(path, stacks, opts, text, put, fmt, value):
    """Write a checkpoint whose field ``put`` reaches holds ``value``, even one
    that save_stacks refuses: a valid sentinel is saved in its place and its
    bytes (``fmt``, a numpy dtype) are then patched."""
    put(stacks, opts, SENTINEL)  # attribute writes skip the constructors' checks
    save_stacks(path, stacks, opts, text)
    data = path.read_bytes()
    sentinel = np.array(SENTINEL, dtype=fmt).tobytes()
    assert data.count(sentinel) == 1
    with np.errstate(over="ignore"):  # beyond float32 is stored as inf
        path.write_bytes(data.replace(sentinel, np.array(value, dtype=fmt).tobytes()))


# name: (put the value in place, the field's numpy dtype in the file, the value)
REFUSED = {
    "nan_kernel": (lambda s, o, v: s[0][0].kernels.__setitem__((1, 0, 2), v), "<f4", NAN),
    "inf_weight": (lambda s, o, v: s[0][1].weights.__setitem__((0, 0), v), "<f4", -INF),
    "nan_bias": (lambda s, o, v: s[0][4].bias.__setitem__(1, v), "<f4", NAN),
    "inf_first_moment": (lambda s, o, v: o[0].first_moment[2].__setitem__((0, 0), v), "<f4", INF),
    "nan_second_moment": (lambda s, o, v: o[0].second_moment[0].__setitem__((0, 0, 0), v), "<f4", NAN),
    "finite_beyond_float32": (lambda s, o, v: s[0][1].weights.__setitem__((0, 1), v), "<f4", 1e39),
    "nan_decay": (lambda s, o, v: setattr(s[0][4], "weight_decay_lambda", v), "<f8", NAN),
    "inf_decay": (lambda s, o, v: setattr(s[0][4], "weight_decay_lambda", v), "<f8", INF),
    "negative_decay": (lambda s, o, v: setattr(s[0][4], "weight_decay_lambda", v), "<f8", -1e-4),
    "nan_dropout_rate": (lambda s, o, v: setattr(s[0][2], "rate", v), "<f8", NAN),
    "dropout_rate_one": (lambda s, o, v: setattr(s[0][2], "rate", v), "<f8", 1.0),
    "inf_learning_rate": (lambda s, o, v: setattr(o[0], "learning_rate", v), "<f8", INF),
    "zero_learning_rate": (lambda s, o, v: setattr(o[0], "learning_rate", v), "<f8", 0.0),
    "nan_beta1": (lambda s, o, v: setattr(o[0], "beta1", v), "<f8", NAN),
    "beta2_one": (lambda s, o, v: setattr(o[0], "beta2", v), "<f8", 1.0),
    "nan_epsilon": (lambda s, o, v: setattr(o[0], "epsilon", v), "<f8", NAN),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_non_finite_or_refused_values_raise_checkpoint_error(tmp_path, name):
    path = tmp_path / "m.psg"
    write_with_field(path, *_stack_with_adam(), "", *REFUSED[name])
    with pytest.raises(CheckpointError):
        load_stacks(path)


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_save_refuses_what_load_refuses_before_writing(tmp_path, name):
    stacks, opts = _stack_with_adam()
    put, _, value = REFUSED[name]
    put(stacks, opts, value)
    fresh, kept = tmp_path / "fresh.psg", tmp_path / "kept.psg"
    save_stacks(kept, *_stack_with_adam(), "")
    before = kept.read_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused with an error, not an overflow warning
        for path in (fresh, kept):
            with pytest.raises(ValueError, match="refusing to write"):
                save_stacks(path, stacks, opts, "")
    assert not fresh.exists()
    assert kept.read_bytes() == before


def test_write_with_field_patches_only_the_sentinel(tmp_path):
    """The patched file differs from a plain save in the field's bytes alone."""
    plain, patched = tmp_path / "plain.psg", tmp_path / "patched.psg"
    put, fmt, _ = REFUSED["nan_decay"]
    stacks, opts = _stack_with_adam()
    put(stacks, opts, 0.25)
    save_stacks(plain, stacks, opts, "")
    write_with_field(patched, *_stack_with_adam(), "", put, fmt, 0.25)
    assert plain.read_bytes() == patched.read_bytes()


def test_config_text_that_is_not_utf8_raises_checkpoint_error(tmp_path):
    path = tmp_path / "m.psg"
    save_stacks(path, [_stack(0)], [None], "ab")
    path.write_bytes(path.read_bytes()[:-2] + b"\xff\xfe")
    with pytest.raises(CheckpointError):
        load_stacks(path)


def test_huge_layer_header_is_truncation_not_overflow(tmp_path):
    # fan_out * fan_in overflows int64; the reader must still see a short file
    path = tmp_path / "m.psg"
    save_stacks(path, [[DenseLayer.create(2, 2, "identity", 0)]], [None], "")
    data = bytearray(path.read_bytes())
    header = 4 + 6 + 4 + 1 + 1 + 8  # magic, version+stacks, n_layers, kind, act, decay
    data[header : header + 8] = (2**32 - 1).to_bytes(4, "little") * 2
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="truncated"):
        load_stacks(path)


# --- properties ---------------------------------------------------------------

_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_dim = st.integers(1, 3)


@st.composite
def _layers(draw):
    layers = []
    for kind in draw(st.lists(st.sampled_from("cdpf"), min_size=0, max_size=4)):
        if kind == "c":
            n_kernels, kernel_len = draw(_dim), draw(_dim)
            kernels = draw(st.lists(_f32, min_size=n_kernels * kernel_len, max_size=n_kernels * kernel_len))
            bias = draw(st.lists(_f32, min_size=n_kernels, max_size=n_kernels))
            layers.append(Conv1DLayer(np.reshape(kernels, (n_kernels, 1, kernel_len)), bias))
        elif kind == "d":
            fan_out, fan_in = draw(_dim), draw(_dim)
            weights = draw(st.lists(_f32, min_size=fan_out * fan_in, max_size=fan_out * fan_in))
            bias = draw(st.lists(_f32, min_size=fan_out, max_size=fan_out))
            layers.append(
                DenseLayer(
                    np.reshape(weights, (fan_out, fan_in)),
                    bias,
                    activation=draw(st.sampled_from(["identity", "tanh", "relu", "softmax"])),
                    weight_decay_lambda=draw(st.floats(0.0, 1e3)),
                )
            )
        elif kind == "p":
            layers.append(DropoutLayer(draw(st.floats(0.0, 1.0, exclude_max=True))))
        else:
            layers.append(FlattenLayer())
    return layers


@st.composite
def _adam(draw, layers):
    if not draw(st.booleans()):
        return None
    shapes = [p.shape for p in net_params(layers)]
    moments = [
        [np.reshape(draw(st.lists(_f32, min_size=int(np.prod(s)), max_size=int(np.prod(s)))), s) for s in shapes]
        for _ in range(2)
    ]
    return AdamState(
        first_moment=moments[0],
        second_moment=moments[1],
        step_count=draw(st.integers(0, 2**64 - 1)),
        learning_rate=draw(st.floats(1e-300, 1e3)),
        beta1=draw(st.floats(0.0, 1.0, exclude_max=True)),
        beta2=draw(st.floats(0.0, 1.0, exclude_max=True)),
        epsilon=draw(st.floats(0.0, 1.0)),
    )


@st.composite
def _checkpoints(draw):
    stacks = draw(st.lists(_layers(), min_size=0, max_size=3))
    opts = [draw(_adam(layers)) for layers in stacks]
    return stacks, opts, draw(st.text(max_size=40))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_checkpoints())
def test_save_load_save_is_byte_identical_for_any_checkpoint(tmp_path_factory, checkpoint):
    stacks, opts, text = checkpoint
    tmp = tmp_path_factory.mktemp("psg")
    save_stacks(tmp / "a.psg", stacks, opts, text)
    stacks2, opts2, text2 = load_stacks(tmp / "a.psg")
    save_stacks(tmp / "b.psg", stacks2, opts2, text2)
    assert (tmp / "a.psg").read_bytes() == (tmp / "b.psg").read_bytes()
    assert text2 == text
    for layers, back in zip(stacks, stacks2):
        for orig, got in zip(net_params(layers), net_params(back)):
            assert got.dtype == np.float32
            assert got.tobytes() == orig.astype(np.float32).tobytes()  # the stored values, exact


def _header_fields(stacks, opts):
    """(object, attribute) of every float header field."""
    fields = []
    for layers in stacks:
        fields += [(l, "weight_decay_lambda") for l in layers if isinstance(l, DenseLayer)]
        fields += [(l, "rate") for l in layers if isinstance(l, DropoutLayer)]
    for opt in filter(None, opts):
        fields += [(opt, name) for name in ("learning_rate", "beta1", "beta2", "epsilon")]
    return fields


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_checkpoints(), st.data())
def test_save_raises_before_writing_or_the_file_loads_back_unchanged(tmp_path_factory, checkpoint, data):
    stacks, opts, text = checkpoint
    arrays = [p for layers in stacks for p in net_params(layers)]
    arrays += [m for opt in filter(None, opts) for m in opt.first_moment + opt.second_moment]
    headers = _header_fields(stacks, opts)
    poisons = data.draw(st.integers(0, 3))
    for _ in range(poisons):  # attribute and element writes skip the constructors' checks
        value = data.draw(st.sampled_from([NAN, INF, -INF, 1e39, -3.5e38, 3.4028235e38, -1.0, 1.0]) | st.floats())
        if arrays and (not headers or data.draw(st.booleans())):
            arr = data.draw(st.sampled_from(arrays))
            arr.flat[data.draw(st.integers(0, arr.size - 1))] = value
        elif headers:
            obj, name = data.draw(st.sampled_from(headers))
            setattr(obj, name, value)
    path = tmp_path_factory.mktemp("psg") / "m.psg"
    try:
        save_stacks(path, stacks, opts, text)
    except ValueError:
        assert poisons > 0
        assert not path.exists()
        return
    stacks2, opts2, text2 = load_stacks(path)
    assert text2 == text
    for layers, back in zip(stacks, stacks2):
        assert [type(l) for l in layers] == [type(l) for l in back]
        for orig, got in zip(net_params(layers), net_params(back)):
            assert got.dtype == np.float32
            assert got.tobytes() == orig.astype(np.float32).tobytes()
    for (obj, name), (obj2, name2) in zip(headers, _header_fields(stacks2, opts2)):
        assert name == name2 and getattr(obj, name) == getattr(obj2, name2)
    for opt, opt2 in zip(opts, opts2):
        assert (opt is None) == (opt2 is None)
        if opt is not None:
            assert opt.step_count == opt2.step_count
            for orig, got in zip(opt.first_moment + opt.second_moment, opt2.first_moment + opt2.second_moment):
                assert got.dtype == np.float32
                assert got.tobytes() == orig.astype(np.float32).tobytes()


def _all_finite(stacks, opts):
    values = [p for layers in stacks for p in net_params(layers)]
    for layers in stacks:
        values += [[l.weight_decay_lambda] for l in layers if isinstance(l, DenseLayer)]
        values += [[l.rate] for l in layers if isinstance(l, DropoutLayer)]
    for opt in filter(None, opts):
        values += opt.first_moment + opt.second_moment
        values.append([opt.learning_rate, opt.beta1, opt.beta2, opt.epsilon])
    return all(np.isfinite(np.asarray(v, dtype=np.float64)).all() for v in values)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.data())
def test_corrupted_checkpoint_is_refused_or_loads_finite(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "m.psg"
    stack = _stack(8)
    save_stacks(path, [stack, _stack(9)], [AdamState.for_params(net_params(stack), 0.01), None], "seed=1\n")
    raw = bytearray(path.read_bytes())
    for _ in range(data.draw(st.integers(1, 6))):
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    raw = raw[: data.draw(st.integers(0, len(raw)))] if data.draw(st.booleans()) else raw
    path.write_bytes(bytes(raw))
    try:
        stacks, opts, _ = load_stacks(path)
    except CheckpointError:
        return
    assert _all_finite(stacks, opts)
