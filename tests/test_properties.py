"""Flow invariants as properties over random maps.

For f(x) = A x the Newton flow is x(t) = x* + e^{-t} (x0 - x*) with
x* = A^{-1} y*, whatever A is, so every recorded state has a closed form.
The flow is affine covariant: Q f and f(. + c) have f's field, moved by c.
"""

import dataclasses
import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from newtonflow.flow import (
    FlowFailure,
    FlowOptions,
    FlowStatus,
    decay_drift,
    direction_deviation,
    integrate,
    solve_inverse,
)
from newtonflow.maps import C1Map, builtin

# a run caught by the decay-oracle floor stall (the strict xfail
# test_ill_conditioned_linear_map_converges) ends within this budget
_MAX_STEPS = 2000


@st.composite
def linear_problems(draw):
    """(A, x0, y*): n in {1, 2, 3}, cond(A) log-uniform in [1, 1e3]."""
    n = draw(st.sampled_from((1, 2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cond = 10.0 ** rng.uniform(0.0, 3.0)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = u @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ v.T
    coords = st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)
    return a, np.array(draw(coords)), np.array(draw(coords))


@given(linear_problems())
def test_linear_flow_follows_its_closed_form(problem):
    a, x0, target = problem
    traj = integrate(builtin("linear", a=a), x0, target, FlowOptions(max_steps=_MAX_STEPS))
    assert traj.status in (FlowStatus.CONVERGED, FlowStatus.STEP_FAILURE)

    # x(t_i) = x* + e^{-t_i} (x0 - x*) at every recorded state, stalled runs included
    x_star = np.linalg.solve(a, target)
    exact = x_star + np.exp(-traj.t)[:, None] * (x0 - x_star)
    scale = 1.0 + np.abs(x0 - x_star).max() + np.abs(x_star).max()
    assert np.abs(traj.states - exact).max() <= 1e-9 * scale

    assert decay_drift(traj) <= 1e-8
    # the residual keeps its direction; past 1e-3 of its initial norm it
    # comes within a few digits of its own rounding noise, so the angle is
    # bounded on the states before that
    norms = np.linalg.norm(traj.residuals, axis=1)
    head = norms >= 1e-3 * norms[0]
    assert direction_deviation(dataclasses.replace(traj, residuals=traj.residuals[head])) <= 1e-6


_ZAMP = builtin("zampieri-ex5")
# zampieri-ex5 through fn and jac only, so every stage takes numpy's path
_F = C1Map("zampieri-ex5-fn", 2, _ZAMP.fn, _ZAMP.jac)
_COORD = st.floats(-3.0, 3.0)
_POINT = st.tuples(_COORD, _COORD).map(np.array)


@given(_POINT, _POINT, _POINT, st.floats(0.0, 2.0 * math.pi))
def test_solve_inverse_is_affine_covariant(x_true, start, c, angle):
    # Q f (x) = Q y* and f(x + c) = y* have the preimages x* and x* - c of
    # f(x) = y*: f'(x)^{-1} (f(x) - y*) is the same field for Q f, and the
    # shifted map's flow from start - c is f's moved by -c
    target = _F.fn(x_true)
    try:
        x_star = solve_inverse(_F, target, start)
    except FlowFailure:
        assume(False)
    q = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    rotated = C1Map("rotated", 2, lambda x: q @ _F.fn(x), lambda x: q @ _F.jac(x))
    shifted = C1Map("shifted", 2, lambda x: _F.fn(x + c), lambda x: _F.jac(x + c))
    bound = 1e-8 * (1.0 + np.linalg.norm(x_star))
    assert np.linalg.norm(solve_inverse(rotated, q @ target, start) - x_star) <= bound
    assert np.linalg.norm(solve_inverse(shifted, target, start - c) - (x_star - c)) <= bound
