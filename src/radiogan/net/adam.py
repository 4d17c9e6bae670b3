"""Bias-corrected Adam over flat lists of parameter arrays, updated in place.

Moments take the dtype of their parameters (``float_dtype``), and the update
mixes them only with Python scalars, so a float32 parameter list stays float32.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    def for_params(cls, params, learning_rate):
        """Zero moments for ``params`` at step 0, with the default betas and epsilon."""
        zeros = [np.zeros_like(p, dtype=float_dtype(p)) for p in params]
        return cls(zeros, [z.copy() for z in zeros], 0, learning_rate)


def adam_step(params, grads, state: AdamState) -> None:
    """One Adam update of ``params`` and ``state``'s moments, in place.

    Moments are bias-corrected with the incremented step count:
    ``p -= lr * m_hat / (sqrt(v_hat) + eps)``. Every check runs before
    anything is written, so a refused step leaves the parameters and the
    state as they were.
    """
    sizes = {len(params), len(grads), len(state.first_moment), len(state.second_moment)}
    if len(sizes) != 1:
        raise ValueError(
            f"size mismatch: {len(params)} params, {len(grads)} grads, "
            f"{len(state.first_moment)}/{len(state.second_moment)} moment arrays"
        )
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if not p.shape == g.shape == m.shape == v.shape:
            raise ValueError(f"shape mismatch: param {p.shape}, grad {g.shape}, moments {m.shape}/{v.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient")

    t = state.step_count + 1
    # Python floats, which numpy's arrays do not upcast
    b1, b2 = float(state.beta1), float(state.beta2)
    lr, eps = float(state.learning_rate), float(state.epsilon)
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g**2
        p -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
    state.step_count = t
