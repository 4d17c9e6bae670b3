"""Layers with explicit forward caches and hand-derived backward passes.

Conventions: a layer's ``forward`` returns ``(output, cache)``; ``backward``
takes the cache and the upstream gradient and returns ``(input_gradient,
[parameter gradients...])`` in the same order as ``params()``. Its keywords
``input_grad=False`` and ``param_grads=False`` skip the work of either part,
which then comes back as ``None`` or ``[]``. A ``backward`` call leaves its
cache as it found it; ``net_backward`` empties its ``caches`` list as it goes,
so a stack's activations are freed during the backward pass. Weight-decay
terms (``lambda * ||W||^2`` added to the loss) contribute ``2 * lambda * W``
to the weight gradient inside the owning layer's backward.

A layer computes in the dtype of its parameters: float32 parameters make a
float32 layer, and anything else is stored as float64. Inputs and upstream
gradients are cast to that dtype on entry, so a float64 caller cannot upcast
a float32 net. Every gradient a backward pass returns, and each activation
gradient before it enters a product, has its subnormal entries set to zero
(``flush_subnormal``).
"""

from __future__ import annotations

import math

import numpy as np

from ..blocks import row_blocks, run_blocks
from ..seeding import as_generator

# A dense layer's activation code in a checkpoint is its index here.
ACTIVATIONS = ("identity", "tanh", "relu", "softmax")

# Size of each per-block temporary of Conv1DLayer (im2col columns, input-
# gradient taps) and of each row block of a DenseLayer product: the batch is
# processed in as many rows as fit, at least one. Rows are counted at 8 bytes
# a value whatever the dtype, so a float32 net keeps the float64 row counts:
# counting float32's 4 bytes doubled the rows per block and made desk-scale
# training about 12% slower.
BLOCK_BYTES = 2 * 1024 * 1024


def xavier_init(fan_in: int, fan_out: int, seed) -> np.ndarray:
    """Uniform Glorot/Xavier weights of shape [fan_out, fan_in].

    Entries are drawn from ``U(-b, b)`` with ``b = sqrt(6 / (fan_in + fan_out))``;
    the same seed always yields the same matrix.
    """
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fans must be >= 1, got fan_in={fan_in}, fan_out={fan_out}")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    rng = as_generator(seed)
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def float_dtype(values) -> type:
    """float32 for float32 values; float64 for anything else."""
    return np.float32 if np.asarray(values).dtype == np.float32 else np.float64


def flush_subnormal(a: np.ndarray) -> np.ndarray:
    """Set the entries of ``a`` smaller in magnitude than ``np.finfo(a.dtype).tiny``
    to zero, in place; returns ``a``.

    BLAS and numpy's loops run several times slower on subnormal floats. A
    saturated softmax sends a whole packet's gradient down through values that
    turn subnormal in float32, so each backward pass flushes them before the
    next product. No float64 gradient here comes near float64's tiny, so a
    float64 net's values do not change.
    """
    tiny = np.finfo(a.dtype).tiny
    small = np.less(a, tiny)
    small &= np.greater(a, -tiny)
    if small.any():
        np.copyto(a, 0, where=small)
    return a


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (max subtraction)."""
    return _activate("softmax", np.array(logits, dtype=np.float64))


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    """Apply the activation to the float array ``z`` in place; returns ``z``."""
    if name == "tanh":
        np.tanh(z, out=z)
    elif name == "relu":
        np.maximum(z, 0.0, out=z)
    elif name == "softmax":
        z -= z.max(axis=-1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=-1, keepdims=True)
    elif name != "identity":
        raise ValueError(f"unknown activation {name!r}")
    return z


def _activate_backward(name: str, out: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. pre-activation, expressed through the activation output.

    tanh and softmax scale by factors that can be near zero, so their result
    is flushed; identity and relu pass values through or zero them.
    """
    if name == "identity":
        return grad_out
    if name == "tanh":
        return flush_subnormal(grad_out * (1.0 - out**2))
    if name == "relu":
        return grad_out * (out > 0.0)
    if name == "softmax":
        inner = np.sum(grad_out * out, axis=-1, keepdims=True)
        return flush_subnormal(out * (grad_out - inner))
    raise ValueError(f"unknown activation {name!r}")


def _matmul_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray, finish) -> np.ndarray:
    """``np.matmul(a, b, out=out)`` in row blocks of the leading axis, on the CPU pool.

    Each block is as many leading rows as fit in ``BLOCK_BYTES`` and goes
    through the same matmul as the whole array. The blocks are cut the same
    way for any worker count, so the bits do not depend on it. A 3-D ``a``
    keeps numpy's per-slice GEMMs, so its bits are those of the one-call
    product; a 2-D one's are those of its row-block GEMMs, which BLAS may
    round differently from one GEMM over every row. ``finish(block)`` then
    works on each block of ``out`` in place, so the workers allocate nothing
    large.
    """
    step = max(1, BLOCK_BYTES // (8 * max(math.prod(a.shape[1:]), math.prod(out.shape[1:]), 1)))
    run_blocks(lambda rows, _: finish(np.matmul(a[rows], b, out=out[rows])), row_blocks(a.shape[0], step))
    return out


class DenseLayer:
    """Fully connected layer ``act(x @ W.T + b)`` over the last input axis.

    Leading axes are preserved, so a [B, C, fan_in] input maps each length-
    ``fan_in`` row independently (the shared per-channel dense used after the
    convolution). The forward product and the input gradient run in row
    blocks of the batch axis on the CPU pool; the weight gradient, a sum over
    the whole batch, stays one product, as splitting it would change its bits.
    The bias takes the dtype of the weights.
    """

    def __init__(self, weights, bias, activation="identity", weight_decay_lambda=0.0):
        dtype = float_dtype(weights)
        self.weights = np.asarray(weights, dtype=dtype)
        self.bias = np.asarray(bias, dtype=dtype)
        if self.weights.ndim != 2:
            raise ValueError("weights must be 2-D [fan_out, fan_in]")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError("bias shape must match fan_out")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if weight_decay_lambda < 0.0:
            raise ValueError("weight_decay_lambda must be >= 0")
        self.activation = activation
        self.weight_decay_lambda = float(weight_decay_lambda)

    @classmethod
    def create(cls, fan_in, fan_out, activation, seed, weight_decay_lambda=0.0):
        return cls(
            weights=xavier_init(fan_in, fan_out, seed),
            bias=np.zeros(fan_out),
            activation=activation,
            weight_decay_lambda=weight_decay_lambda,
        )

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[0]

    def params(self):
        return [self.weights, self.bias]

    def set_params(self, params):
        weights, bias = params
        if weights.shape != self.weights.shape or bias.shape != self.bias.shape:
            raise ValueError("parameter shape mismatch")
        self.weights, self.bias = weights, bias

    def forward(self, x):
        x = np.asarray(x, dtype=self.weights.dtype)
        if x.ndim < 2 or x.shape[-1] != self.fan_in:
            raise ValueError(f"expected [batch, ..., {self.fan_in}] input, got shape {x.shape}")

        def finish(z):
            z += self.bias
            _activate(self.activation, z)

        out = np.empty(x.shape[:-1] + (self.fan_out,), dtype=x.dtype)
        out = _matmul_rows(x, self.weights.T, out, finish)
        return out, ("dense", x, out)

    def backward(self, cache, grad_out, input_grad=True, param_grads=True):
        # Each cached array is dropped after its last use, so a cache no
        # caller holds (as in ``net_backward``) frees the input before
        # ``grad_x``, the input's size, is allocated.
        tag, x, out = cache
        del cache
        grad_out = np.asarray(grad_out, dtype=x.dtype)
        grad_z = _activate_backward(self.activation, out, grad_out)
        del out
        param_list = []
        if param_grads:
            z2 = grad_z.reshape(-1, self.fan_out)
            grad_w = z2.T @ x.reshape(-1, self.fan_in)
            if self.weight_decay_lambda > 0.0:
                grad_w += 2.0 * self.weight_decay_lambda * self.weights
            param_list = [flush_subnormal(grad_w), flush_subnormal(z2.sum(axis=0))]
        shape, dtype = x.shape, x.dtype
        del x
        grad_x = None
        if input_grad:
            grad_x = _matmul_rows(grad_z, self.weights, np.empty(shape, dtype=dtype), flush_subnormal)
        return grad_x, param_list


def conv_block_rows(n_in: int, kernel_len: int) -> int:
    """Batch rows per Conv1DLayer block for an input of length ``n_in``.

    Each block builds its im2col columns and input-gradient taps in its
    worker's buffers, so neither spans the whole batch. The largest per-row
    temporary is the tap buffer of ``kernel_len * (n_in + 1)`` values, counted
    at 8 bytes each (see ``BLOCK_BYTES``); the im2col columns are smaller.
    """
    return max(1, BLOCK_BYTES // (8 * kernel_len * (n_in + 1)))


class Conv1DLayer:
    """Valid 1-D convolution of a single-channel input with a kernel bank.

    Input [B, n_in] maps to [B, n_kernels, n_in - kernel_len + 1]. Kernels are
    stored [n_kernels, 1, kernel_len] (explicit input-channel axis); the bias
    takes the dtype of the kernels.
    """

    def __init__(self, kernels, bias):
        dtype = float_dtype(kernels)
        self.kernels = np.asarray(kernels, dtype=dtype)
        self.bias = np.asarray(bias, dtype=dtype)
        if self.kernels.ndim != 3 or self.kernels.shape[1] != 1:
            raise ValueError("kernels must be 3-D [n_kernels, 1, kernel_len]")
        if self.bias.shape != (self.kernels.shape[0],):
            raise ValueError("bias shape must match n_kernels")

    @classmethod
    def create(cls, n_kernels, kernel_len, seed):
        # Glorot fans for a conv bank: fan_in = in_channels * kernel_len,
        # fan_out = n_kernels * kernel_len.
        bound = np.sqrt(6.0 / (kernel_len + n_kernels * kernel_len))
        rng = as_generator(seed)
        kernels = rng.uniform(-bound, bound, size=(n_kernels, 1, kernel_len))
        return cls(kernels=kernels, bias=np.zeros(n_kernels))

    @property
    def n_kernels(self) -> int:
        return self.kernels.shape[0]

    @property
    def kernel_len(self) -> int:
        return self.kernels.shape[2]

    def params(self):
        return [self.kernels, self.bias]

    def set_params(self, params):
        kernels, bias = params
        if kernels.shape != self.kernels.shape or bias.shape != self.bias.shape:
            raise ValueError("parameter shape mismatch")
        self.kernels, self.bias = kernels, bias

    def forward(self, x):
        x = np.asarray(x, dtype=self.kernels.dtype)
        if x.ndim != 2:
            raise ValueError(f"expected [batch, n_in] input, got shape {x.shape}")
        if x.shape[1] < self.kernel_len:
            raise ValueError(f"input length {x.shape[1]} shorter than kernel {self.kernel_len}")
        kern = self.kernels[:, 0, :]
        out = np.empty((x.shape[0], self.n_kernels, x.shape[1] - self.kernel_len + 1), dtype=x.dtype)
        windows = np.lib.stride_tricks.sliding_window_view(x, self.kernel_len, axis=1)
        blocks = row_blocks(x.shape[0], conv_block_rows(x.shape[1], self.kernel_len))

        def work(rows, cols_buffer):
            cols = cols_buffer[: rows.stop - rows.start]
            np.copyto(cols, windows[rows])
            block = np.matmul(kern, cols.transpose(0, 2, 1), out=out[rows])
            block += self.bias[:, None]

        cols_shape = (blocks[0].stop, *windows.shape[1:])
        run_blocks(work, blocks, lambda: np.empty(cols_shape, dtype=x.dtype))
        return out, ("conv1d", x, None)

    def backward(self, cache, grad_out, input_grad=True, param_grads=True):
        tag, x, _ = cache
        grad_out = np.asarray(grad_out, dtype=x.dtype)
        batch, n_in = x.shape
        n_out = n_in - self.kernel_len + 1
        kern_t = self.kernels[:, 0, :].T
        grad_x = np.empty((batch, n_in), dtype=x.dtype) if input_grad else None
        windows = np.lib.stride_tricks.sliding_window_view(x, self.kernel_len, axis=1)
        blocks = row_blocks(batch, conv_block_rows(n_in, self.kernel_len))

        def scratch():
            rows = blocks[0].stop
            return (
                np.empty((rows, *windows.shape[1:]), dtype=x.dtype) if param_grads else None,
                np.empty((rows, self.n_kernels, self.kernel_len), dtype=x.dtype) if param_grads else None,
                np.empty((rows, self.kernel_len, n_in + 1), dtype=x.dtype) if input_grad else None,
            )

        def work(rows, buffers):
            cols_buffer, products_buffer, taps_buffer = buffers
            g = grad_out[rows]
            if input_grad:
                # taps[b, s, l] = sum_k kern[k, s] * g[b, k, l] lands on input l + s.
                # Rows of taps padded to n_in + 1 and re-read n_in at a time put
                # tap s, output l at column s + l, so the shift-add is one sum.
                taps = taps_buffer[: g.shape[0]]
                np.matmul(kern_t, g, out=taps[:, :, :n_out])
                taps[:, :, n_out:] = 0.0
                flat = taps.reshape(g.shape[0], -1)[:, : self.kernel_len * n_in]
                np.sum(flat.reshape(g.shape[0], self.kernel_len, n_in), axis=1, out=grad_x[rows])
                flush_subnormal(grad_x[rows])
            if param_grads:
                cols = cols_buffer[: g.shape[0]]
                np.copyto(cols, windows[rows])
                return np.matmul(g, cols, out=products_buffer[: g.shape[0]]).sum(axis=0)

        partials = run_blocks(work, blocks, scratch)
        if not param_grads:
            return grad_x, []
        grad_k = np.zeros((self.n_kernels, self.kernel_len), dtype=x.dtype)
        for partial in partials:  # block order, whatever the worker count
            grad_k += partial
        return grad_x, [flush_subnormal(grad_k[:, None, :]), flush_subnormal(grad_out.sum(axis=(0, 2)))]


def fold_pays(rows: int, conv: Conv1DLayer, dense: DenseLayer, param_grads: bool) -> bool:
    """Whether ``rows`` rows through one ``FoldedFront`` of ``conv`` and ``dense``
    save at least twice the FLOPs it costs to build, against the layer pair.

    With ``param_grads`` the rows run forward and back to both layers' weights
    (the fold's fixed cost is then its reversed conv forward and backward);
    without, they run forward only. The margin of two leaves the pair where
    the saving is slim: a desk-scale 128-row discriminator step would save
    1.2 times the fold's cost, which bought no measurable time and raised
    peak memory by the reversed conv's scratch.
    """
    k, taps, m = conv.n_kernels, conv.kernel_len, dense.fan_out
    n_out = dense.fan_in
    n_in = n_out + taps - 1
    if param_grads:
        pair, fold, fixed = 2 * k * n_out * (2 * taps + 3 * m), 4 * n_in * k * m, 6 * m * k * taps * n_in
    else:
        pair, fold, fixed = 2 * k * n_out * (taps + m), 2 * n_in * k * m, 2 * m * k * taps * n_in
    return rows * (pair - fold) >= 2 * fixed


class FoldedFront:
    """A conv1d layer and the dense layer after it, run as one linear map.

    The conv has no activation, so ``dense(conv(x))`` is ``act(x @ E + c)``
    over the ``n_in`` input samples, with ``E[t, k, m] = sum_s kern[k, s] *
    W[m, t - s]`` and ``c[k, m] = b[m] + conv_bias[k] * sum_l W[m, l]``; the
    output is the pair's ``[B, n_kernels, fan_out]``. ``E`` is built on
    construction from the layers' current parameters, by a conv of ``W``,
    zero-padded by ``kernel_len - 1`` on each side, with the kernels reversed
    along their taps. That reversed conv's backward also turns the gradient of
    ``E`` into the gradients of ``W`` and the kernels. The input gradient is
    the pair's: the dense layer's product with ``W``, then the conv's backward.

    The fold holds no parameters of its own: ``params()`` are the conv's and
    the dense layer's, in stack order, so a stack with the fold in place of
    the pair has the same ``net_params`` and gradient list. Its rounding
    differs from the pair's; ``fold_pays`` says when it is worth building.
    """

    def __init__(self, conv: Conv1DLayer, dense: DenseLayer):
        self.conv, self.dense = conv, dense
        dtype, pad = conv.kernels.dtype, conv.kernel_len - 1
        k, m, n_out = conv.n_kernels, dense.fan_out, dense.fan_in
        self.padded = np.zeros((m, n_out + 2 * pad), dtype=dtype)
        self.padded[:, pad : pad + n_out] = dense.weights
        self.reversed = Conv1DLayer(np.ascontiguousarray(conv.kernels[:, :, ::-1]), np.zeros(k, dtype=dtype))
        spread = self.reversed.forward(self.padded)[0]  # [m, k, n_in]
        # rows in the output's (k, m) order
        self.map = spread.transpose(1, 0, 2).reshape(k * m, spread.shape[2])
        self.row_sums = dense.weights.sum(axis=1)
        self.offset = (dense.bias + conv.bias[:, None] * self.row_sums).reshape(-1)

    @property
    def n_in(self) -> int:
        return self.map.shape[1]

    def params(self):
        return self.conv.params() + self.dense.params()

    def forward(self, x):
        x = np.asarray(x, dtype=self.map.dtype)
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ValueError(f"expected [batch, {self.n_in}] input, got shape {x.shape}")
        units = (self.conv.n_kernels, self.dense.fan_out)

        def finish(z):
            z += self.offset
            # a softmax runs over each kernel's units, as in the pair
            _activate(self.dense.activation, z.reshape(-1, *units))

        out = _matmul_rows(x, self.map.T, np.empty((x.shape[0], self.map.shape[0]), dtype=x.dtype), finish)
        out = out.reshape(x.shape[0], *units)
        return out, ("fold", x, out)

    def backward(self, cache, grad_out, input_grad=True, param_grads=True):
        tag, x, out = cache
        del cache
        grad_z = _activate_backward(self.dense.activation, out, np.asarray(grad_out, dtype=x.dtype))
        del out
        batch, k, m = grad_z.shape
        param_list = []
        if param_grads:
            # grad_E in the reversed conv's [m, k, n_in] output layout
            by_unit = grad_z.transpose(0, 2, 1).reshape(batch, m * k)
            grad_map = _matmul_rows(by_unit.T, x, np.empty((m * k, self.n_in), dtype=x.dtype), flush_subnormal)
            pad, n_out = self.conv.kernel_len - 1, self.dense.fan_in
            grad_padded, (grad_reversed, _) = self.reversed.backward(
                ("conv1d", self.padded, None), grad_map.reshape(m, k, self.n_in)
            )
            del grad_map
            per_unit = grad_z.sum(axis=0)  # [k, m]
            grad_w = grad_padded[:, pad : pad + n_out] + (self.conv.bias @ per_unit)[:, None]
            if self.dense.weight_decay_lambda > 0.0:
                grad_w += 2.0 * self.dense.weight_decay_lambda * self.dense.weights
            param_list = [
                np.ascontiguousarray(grad_reversed[:, :, ::-1]),
                flush_subnormal(per_unit @ self.row_sums),
                flush_subnormal(grad_w),
                flush_subnormal(per_unit.sum(axis=0)),
            ]
        grad_x = None
        if input_grad:
            shape = (batch, k, self.dense.fan_in)
            grad_conv = _matmul_rows(grad_z, self.dense.weights, np.empty(shape, dtype=x.dtype), flush_subnormal)
            del grad_z
            grad_x = self.conv.backward(("conv1d", x, None), grad_conv, param_grads=False)[0]
        return grad_x, param_list


class DropoutLayer:
    """Inverted dropout: keep with probability 1-rate, scale kept units."""

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {rate}")
        self.rate = float(rate)

    def params(self):
        return []

    def forward(self, x, train=False, rng=None):
        """Return ``(output, cache)``. In training mode each unit is kept with
        probability ``1 - rate`` (one draw of ``rng`` per unit) and scaled by
        ``1 / (1 - rate)``; otherwise ``x`` passes through. The output keeps
        the dtype of a float32 or float64 input."""
        x = np.asarray(x, dtype=float_dtype(x))
        if not train or self.rate == 0.0:
            return x, ("dropout", None, x.dtype)
        if rng is None:
            raise ValueError("training-mode dropout requires an rng")
        mask = rng.random(x.shape) >= self.rate
        multiplier = (mask / (1.0 - self.rate)).astype(x.dtype)
        return x * multiplier, ("dropout", multiplier, x.dtype)

    def backward(self, cache, grad_out, input_grad=True, param_grads=True):
        tag, multiplier, dtype = cache
        if not input_grad:
            return None, []
        grad_out = np.asarray(grad_out, dtype=dtype)
        return (grad_out if multiplier is None else grad_out * multiplier), []


class FlattenLayer:
    """Collapse all axes after the batch axis."""

    def params(self):
        return []

    def forward(self, x):
        x = np.asarray(x, dtype=float_dtype(x))
        return x.reshape(x.shape[0], -1), ("flatten", x.shape, x.dtype)

    def backward(self, cache, grad_out, input_grad=True, param_grads=True):
        tag, shape, dtype = cache
        return (np.asarray(grad_out, dtype=dtype).reshape(shape) if input_grad else None), []


_TAGS = {
    DenseLayer: "dense",
    Conv1DLayer: "conv1d",
    FoldedFront: "fold",
    DropoutLayer: "dropout",
    FlattenLayer: "flatten",
}


def net_forward(layers, x, train=False, rng=None):
    """Run a layer stack; returns ``(output, caches)`` for the backward pass."""
    caches = []
    out = x
    for layer in layers:
        if isinstance(layer, DropoutLayer):
            out, cache = layer.forward(out, train=train, rng=rng)
        else:
            out, cache = layer.forward(out)
        caches.append(cache)
    return out, caches


def net_backward(layers, caches, grad_out, input_grad=True, param_grads=True):
    """Backpropagate through a stack; returns ``(input grad, parameter grads)``.

    The parameter gradients come back as one flat list aligned with
    ``net_params(layers)``. The caches must be the ones produced by the
    matching ``net_forward`` call. ``input_grad=False`` skips the stack's
    input gradient (returned as ``None``); ``param_grads=False`` skips every
    parameter gradient (returned as ``[]``), as for a frozen stack.

    The call consumes ``caches``, top layer first, and leaves the list empty,
    so each cached activation is freed once its layer is done with it: a
    published-scale step through the layer pair holds one conv output at a
    time, not two, and one through a ``FoldedFront`` holds none. Calling
    again on the same list fails with a ``cache/layer mismatch``; pass
    ``list(caches)`` to keep them for another call.
    """
    if len(caches) != len(layers):
        raise ValueError(f"cache/layer mismatch: {len(caches)} caches for {len(layers)} layers")
    tags = [cache[0] if isinstance(cache, tuple) else None for cache in caches]
    for layer, tag in zip(layers, tags):
        if tag != _TAGS[type(layer)]:
            raise ValueError(f"stale activation cache: expected {_TAGS[type(layer)]!r} entry")
    per_layer = []
    grad = grad_out
    for depth, layer in enumerate(reversed(layers)):
        # Layers above the bottom one always pass a gradient down.
        needs_input = input_grad or depth < len(layers) - 1
        # Popped straight into the call, so the cache's arrays are freed as
        # soon as the layer drops them (see ``DenseLayer.backward``).
        grad, layer_grads = layer.backward(caches.pop(), grad, input_grad=needs_input, param_grads=param_grads)
        per_layer.append(layer_grads)
    flat = [g for layer_grads in reversed(per_layer) for g in layer_grads]
    return grad, flat


def net_params(layers):
    return [p for layer in layers for p in layer.params()]


def set_net_params(layers, params):
    """Assign a flat parameter list (as produced by ``net_params``) back,
    skipping the layers that hold no parameters."""
    params = list(params)
    pos = 0
    for layer in layers:
        count = len(layer.params())
        if count:
            layer.set_params(params[pos : pos + count])
        pos += count
    if pos != len(params):
        raise ValueError(f"expected {pos} parameter arrays, got {len(params)}")


def decay_penalty(layers) -> float:
    """Total weight-decay term of the loss: sum of lambda * ||W||^2."""
    total = 0.0
    for layer in layers:
        if isinstance(layer, DenseLayer) and layer.weight_decay_lambda > 0.0:
            total += layer.weight_decay_lambda * float(np.sum(np.square(layer.weights, dtype=np.float64)))
    return total
