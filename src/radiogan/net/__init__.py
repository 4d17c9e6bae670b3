"""Hand-written neural-net engine: layers, backprop, Adam, checkpoints."""

from .layers import (
    Conv1DLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    decay_penalty,
    net_backward,
    net_forward,
    net_params,
    set_net_params,
    softmax,
    xavier_init,
)
from .adam import AdamState, adam_step
from .checkpoint import CHECKPOINT_MAGIC, load_stacks, save_stacks
