"""Bias-corrected Adam over flat lists of parameter arrays.

Moments take the dtype of their parameters (``float_dtype``), and the update
mixes them only with Python scalars, so a float32 parameter list stays float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import float_dtype


@dataclass
class AdamState:
    """Optimizer moments and step counter for one parameter list."""

    first_moment: list
    second_moment: list
    step_count: int
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.step_count < 0:
            raise ValueError("step_count must be >= 0")

    @classmethod
    def for_params(cls, params, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
        return cls(
            first_moment=[np.zeros_like(p, dtype=float_dtype(p)) for p in params],
            second_moment=[np.zeros_like(p, dtype=float_dtype(p)) for p in params],
            step_count=0,
            learning_rate=learning_rate,
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
        )


def adam_step(params, grads, state: AdamState):
    """One Adam update; returns ``(new params, new state)``.

    Moments are bias-corrected with the incremented step count:
    ``p -= lr * m_hat / (sqrt(v_hat) + eps)``.
    """
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ValueError(
            f"size mismatch: {len(params)} params, {len(grads)} grads, "
            f"{len(state.first_moment)} moment arrays"
        )
    for p, g, m in zip(params, grads, state.first_moment):
        if p.shape != g.shape or p.shape != m.shape:
            raise ValueError(f"shape mismatch: param {p.shape}, grad {g.shape}, moment {m.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient")

    t = state.step_count + 1
    # Python floats, which numpy's arrays do not upcast
    b1, b2 = float(state.beta1), float(state.beta2)
    lr, eps = float(state.learning_rate), float(state.epsilon)
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g**2
        m_hat = m / corr1
        v_hat = v / corr2
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    new_state = AdamState(
        first_moment=new_m,
        second_moment=new_v,
        step_count=t,
        learning_rate=state.learning_rate,
        beta1=state.beta1,
        beta2=state.beta2,
        epsilon=state.epsilon,
    )
    return new_params, new_state
