"""Versioned binary model container.

Layout (all integers little-endian, parameter payloads little-endian
float32 in layer order):

    magic           4 bytes  b"PSG1"
    format_version  u16      currently 1
    n_stacks        u32      layer stacks (generator first, discriminator second)
    per stack:
      n_layers      u32
      per layer, a kind byte then a kind-specific header and payload:
        dense   = 1: activation u8 (0 identity, 1 tanh, 2 relu, 3 softmax),
                     weight_decay_lambda f64, fan_out u32, fan_in u32,
                     weights f32[fan_out*fan_in] (row-major), bias f32[fan_out]
        conv1d  = 2: n_kernels u32, kernel_len u32,
                     kernels f32[n_kernels*1*kernel_len], bias f32[n_kernels]
        dropout = 3: rate f64
        flatten = 4: (no header)
    per stack (same order), optimizer state:
      present       u8       0 = absent, 1 = present
      if present:   learning_rate f64, beta1 f64, beta2 f64, epsilon f64,
                    step_count u64, n_arrays u32, then per parameter array
                    (shapes implied by the layer headers, same order as the
                    stack's parameters): first_moment f32[...], second_moment f32[...]
    config_len      u32
    config          UTF-8 text, config_len bytes (key=value lines)

Loading gives float32 layers and moments holding the stored values, so
loading then saving reproduces the file byte-for-byte. The loader refuses
non-finite floats, in a header or a payload, and header values the layer or
optimizer constructors reject, with ``CheckpointError``, and the writer
refuses to write them.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .adam import AdamState
from .layers import ACTIVATIONS, Conv1DLayer, DenseLayer, DropoutLayer, FlattenLayer, net_params

CHECKPOINT_MAGIC = b"PSG1"
FORMAT_VERSION = 1

_F32 = np.dtype("<f4")
_KIND_DENSE, _KIND_CONV, _KIND_DROPOUT, _KIND_FLATTEN = 1, 2, 3, 4


class CheckpointError(ValueError):
    """Raised for unreadable or corrupt model containers."""


def _pack_array(buf: bytearray, arr: np.ndarray) -> None:
    with np.errstate(over="ignore"):  # beyond float32 casts to inf, which the read-back refuses
        buf += np.ascontiguousarray(arr, dtype=_F32).tobytes()


def _pack_layer(buf: bytearray, layer) -> None:
    if isinstance(layer, DenseLayer):
        buf += struct.pack(
            "<BBdII",
            _KIND_DENSE,
            ACTIVATIONS.index(layer.activation),
            layer.weight_decay_lambda,
            layer.fan_out,
            layer.fan_in,
        )
        _pack_array(buf, layer.weights)
        _pack_array(buf, layer.bias)
    elif isinstance(layer, Conv1DLayer):
        buf += struct.pack("<BII", _KIND_CONV, layer.n_kernels, layer.kernel_len)
        _pack_array(buf, layer.kernels)
        _pack_array(buf, layer.bias)
    elif isinstance(layer, DropoutLayer):
        buf += struct.pack("<Bd", _KIND_DROPOUT, layer.rate)
    elif isinstance(layer, FlattenLayer):
        buf += struct.pack("<B", _KIND_FLATTEN)
    else:
        raise CheckpointError(f"cannot serialize layer type {type(layer).__name__}")


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise CheckpointError("container truncated")
        values = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise CheckpointError(f"non-finite float in a layer or optimizer header: {values}")
        return values

    def array(self, shape) -> np.ndarray:
        count = math.prod(shape)
        size = count * _F32.itemsize
        if self.pos + size > len(self.data):
            raise CheckpointError("container truncated")
        arr = np.frombuffer(self.data, dtype=_F32, count=count, offset=self.pos)
        self.pos += size
        if not np.isfinite(arr).all():
            raise CheckpointError("non-finite parameter or moment value")
        return arr.astype(np.float32).reshape(shape)  # native float32, a copy of the bytes


def _unpack_layer(reader: _Reader):
    (kind,) = reader.unpack("<B")
    if kind == _KIND_DENSE:
        act, decay, fan_out, fan_in = reader.unpack("<BdII")
        if act >= len(ACTIVATIONS):
            raise CheckpointError(f"unknown activation code {act}")
        weights = reader.array((fan_out, fan_in))
        bias = reader.array((fan_out,))
        return DenseLayer(weights, bias, activation=ACTIVATIONS[act], weight_decay_lambda=decay)
    if kind == _KIND_CONV:
        n_kernels, kernel_len = reader.unpack("<II")
        kernels = reader.array((n_kernels, 1, kernel_len))
        bias = reader.array((n_kernels,))
        return Conv1DLayer(kernels, bias)
    if kind == _KIND_DROPOUT:
        (rate,) = reader.unpack("<d")
        return DropoutLayer(rate)
    if kind == _KIND_FLATTEN:
        return FlattenLayer()
    raise CheckpointError(f"unknown layer kind {kind}")


def save_stacks(path, stacks, opt_states, config_text: str) -> None:
    """Write layer stacks plus optimizer states and a config text section.

    The bytes are parsed as ``load_stacks`` parses them before any is written:
    a value the loader would refuse raises ``ValueError`` and leaves ``path``
    as it was.
    """
    if len(stacks) != len(opt_states):
        raise ValueError("one optimizer state slot per stack required")
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<HI", FORMAT_VERSION, len(stacks))
    for layers in stacks:
        buf += struct.pack("<I", len(layers))
        for layer in layers:
            _pack_layer(buf, layer)
    for layers, state in zip(stacks, opt_states):
        if state is None:
            buf += struct.pack("<B", 0)
            continue
        buf += struct.pack("<B", 1)
        buf += struct.pack(
            "<ddddQI",
            state.learning_rate,
            state.beta1,
            state.beta2,
            state.epsilon,
            state.step_count,
            len(state.first_moment),
        )
        if len(state.first_moment) != len(net_params(layers)):
            raise CheckpointError("optimizer state does not match stack parameters")
        for m, v in zip(state.first_moment, state.second_moment):
            _pack_array(buf, m)
            _pack_array(buf, v)
    config_bytes = config_text.encode("utf-8")
    buf += struct.pack("<I", len(config_bytes))
    buf += config_bytes
    data = bytes(buf)
    try:
        _parse_stacks(path, data)
    except ValueError as exc:
        raise ValueError(f"refusing to write {path}, which the loader would refuse: {exc}") from exc
    Path(path).write_bytes(data)


def load_stacks(path):
    """Read a container back; returns ``(stacks, opt_states, config_text)``."""
    data = Path(path).read_bytes()
    try:
        return _parse_stacks(path, data)
    except CheckpointError:
        raise
    except ValueError as exc:  # a constructor's refusal, or config text that is not UTF-8
        raise CheckpointError(f"{path}: {exc}") from exc


def _parse_stacks(path, data: bytes):
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a model container")
    reader = _Reader(data)
    reader.pos = 4
    version, n_stacks = reader.unpack("<HI")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    stacks = []
    for _ in range(n_stacks):
        (n_layers,) = reader.unpack("<I")
        stacks.append([_unpack_layer(reader) for _ in range(n_layers)])
    opt_states = []
    for layers in stacks:
        (present,) = reader.unpack("<B")
        if not present:
            opt_states.append(None)
            continue
        lr, b1, b2, eps, step_count, n_arrays = reader.unpack("<ddddQI")
        shapes = [p.shape for p in net_params(layers)]
        if n_arrays != len(shapes):
            raise CheckpointError(f"{path}: optimizer arrays do not match parameters")
        first, second = [], []
        for shape in shapes:
            first.append(reader.array(shape))
            second.append(reader.array(shape))
        opt_states.append(
            AdamState(
                first_moment=first,
                second_moment=second,
                step_count=step_count,
                learning_rate=lr,
                beta1=b1,
                beta2=b2,
                epsilon=eps,
            )
        )
    (config_len,) = reader.unpack("<I")
    if reader.pos + config_len != len(data):
        raise CheckpointError(f"{path}: trailing or missing bytes")
    config_text = data[reader.pos :].decode("utf-8")
    return stacks, opt_states, config_text
