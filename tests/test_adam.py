"""Adam optimizer fixtures, convergence behavior and the in-place contract."""

import numpy as np
import pytest

from radiogan.net.adam import AdamState, adam_step


def test_zero_gradient_zero_moments_is_identity():
    params = [np.array([[1.0, -2.0]]), np.array([0.5])]
    before = [p.copy() for p in params]
    state = AdamState.for_params(params, learning_rate=0.1)
    assert adam_step(params, [np.zeros((1, 2)), np.zeros(1)], state) is None
    for p, q in zip(params, before):
        assert np.array_equal(p, q)
    assert state.step_count == 1


def test_first_step_hand_value():
    # m̂ = g, v̂ = g² after bias correction, so the first update is ~η·sign(g)
    params = [np.array([1.0])]
    state = AdamState.for_params(params, learning_rate=0.1)
    adam_step(params, [np.array([1.0])], state)
    expect = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8)
    assert params[0][0] == pytest.approx(expect, abs=1e-3)
    assert params[0][0] == pytest.approx(0.9, abs=1e-3)


def test_constant_gradient_update_magnitude_converges_to_lr():
    params = [np.array([0.0])]
    state = AdamState.for_params(params, learning_rate=0.01)
    g = [np.array([0.37])]
    for _ in range(500):
        adam_step(params, g, state)
    last = params[0][0]
    adam_step(params, g, state)
    assert last - params[0][0] == pytest.approx(0.01, rel=1e-3)


def test_update_is_per_parameter():
    params = [np.array([1.0, 1.0])]
    state = AdamState.for_params(params, learning_rate=0.1)
    adam_step(params, [np.array([1.0, -1.0])], state)
    assert params[0][0] == pytest.approx(0.9, abs=1e-3)
    assert params[0][1] == pytest.approx(1.1, abs=1e-3)


def test_step_updates_the_given_arrays_and_moments_in_place():
    params = [np.array([[1.0, -2.0]]), np.array([0.5])]
    state = AdamState.for_params(params, learning_rate=0.1)
    held = (list(params), list(state.first_moment), list(state.second_moment))
    adam_step(params, [np.array([[0.25, -1.0]]), np.array([2.0])], state)
    for now, then in zip((params, state.first_moment, state.second_moment), held):
        assert all(a is b for a, b in zip(now, then))
    assert params[0][0, 0] < 1.0 and params[1][0] < 0.5
    assert all(np.all(m != 0.0) for m in state.first_moment)


def _stepped_state():
    params = [np.array([[1.0, -2.0], [0.5, 3.0]]), np.array([0.5, -0.25])]
    state = AdamState.for_params(params, learning_rate=0.1)
    for k in range(3):
        adam_step(params, [np.full((2, 2), 0.5 + k), np.array([-1.0, 2.0 * k])], state)
    return params, state


@pytest.mark.parametrize(
    "grads",
    [
        [np.ones((2, 2)), np.array([1.0, np.nan])],  # non-finite gradient, last array
        [np.ones((2, 2)), np.array([np.inf, 1.0])],
        [np.ones((2, 2)), np.ones(3)],  # shape mismatch, last array
        [np.ones((2, 2))],  # wrong list length
        [np.ones((2, 2)), np.ones(2), np.ones(2)],
    ],
    ids=["nan", "inf", "shape", "short", "long"],
)
def test_a_refused_step_writes_nothing(grads):
    params, state = _stepped_state()
    snapshot = [a.tobytes() for a in params + state.first_moment + state.second_moment]
    with pytest.raises(ValueError):
        adam_step(params, grads, state)
    assert [a.tobytes() for a in params + state.first_moment + state.second_moment] == snapshot
    assert state.step_count == 3


def test_moment_lists_that_do_not_match_the_params_are_refused_before_writing():
    params, state = _stepped_state()
    snapshot = [a.tobytes() for a in params + state.first_moment]
    state.second_moment = state.second_moment[:1]
    with pytest.raises(ValueError, match="size mismatch"):
        adam_step(params, [np.ones((2, 2)), np.ones(2)], state)
    assert [a.tobytes() for a in params + state.first_moment] == snapshot
    assert state.step_count == 3


def test_state_validation():
    with pytest.raises(ValueError):
        AdamState.for_params([np.ones(2)], learning_rate=0.0)
    with pytest.raises(ValueError):
        AdamState([np.zeros(2)], [np.zeros(2)], step_count=0, learning_rate=0.1, beta1=1.0)
    with pytest.raises(ValueError):
        AdamState([np.zeros(2)], [np.zeros(2)], step_count=-1, learning_rate=0.1)


def test_for_params_uses_the_dataclass_defaults():
    state = AdamState.for_params([np.ones((2, 3)), np.ones(2)], learning_rate=0.1)
    assert (state.beta1, state.beta2, state.epsilon, state.step_count) == (0.9, 0.999, 1e-8, 0)
    assert [m.shape for m in state.first_moment] == [v.shape for v in state.second_moment] == [(2, 3), (2,)]
    assert state.first_moment[0] is not state.second_moment[0]


def test_converges_on_quadratic():
    # minimize (p-3)^2; Adam should land near 3 quickly
    params = [np.array([0.0])]
    state = AdamState.for_params(params, learning_rate=0.05)
    for _ in range(2000):
        adam_step(params, [2.0 * (params[0] - 3.0)], state)
    assert params[0][0] == pytest.approx(3.0, abs=1e-3)
