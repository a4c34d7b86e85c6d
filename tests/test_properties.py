"""Flow invariants as properties over random maps.

For f(x) = A x the Newton flow is x(t) = x* + e^{-t} (x0 - x*) with
x* = A^{-1} y*, whatever A is, so every recorded state has a closed form.
The flow is affine covariant: Q f and f(. + c) have f's field, moved by c.
It is reversible: the backward flow for the same time returns to the start.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from newtonflow.flow import (
    Direction,
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


# The point-form maps, each also through fn and jac only (float_point's
# adapter), and a 3x3 linear map, which has no point form
_ROUND_TRIP_MAPS = [builtin(key) for key in ("zampieri-ex5", "rot-poly2d", "cubic1d")]
_ROUND_TRIP_MAPS += [dataclasses.replace(m, point=None) for m in _ROUND_TRIP_MAPS]
_ROUND_TRIP_MAPS.append(builtin("linear", a=[[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 4.0]]))


@st.composite
def round_trips(draw):
    """(map, x0, y*, T): x0 and a preimage of y* in [-2, 2]^n, T in [0.1, 3]."""
    m = draw(st.sampled_from(_ROUND_TRIP_MAPS))
    coords = st.lists(st.floats(-2.0, 2.0), min_size=m.dim, max_size=m.dim).map(np.array)
    return m, draw(coords), m.eval(draw(coords)), draw(st.floats(0.1, 3.0))


@given(round_trips())
def test_backward_flow_returns_to_the_start(problem):
    m, x0, target, horizon = problem
    assume((m.eval(x0) != target).any())   # else it converges at once
    opts = FlowOptions(t_max=horizon, residual_tol=1e-300)
    forward = integrate(m, x0, target, opts)
    assert forward.status is FlowStatus.HORIZON_REACHED
    back = integrate(m, forward.states[-1], target, opts, Direction.BACKWARD)
    assert back.status is FlowStatus.HORIZON_REACHED
    assert back.t[-1] == pytest.approx(-horizon, rel=1e-12)
    assert np.linalg.norm(back.states[-1] - x0) <= 1e-7 * (1.0 + np.linalg.norm(x0))


def _fold_like(a, b, with_point):
    """(x^2 + a, y + b x), det f' = 2x: a fold along x = 0, through a point
    form or through fn and jac only."""
    def point(x, y, ops=None):
        return x * x + a, y + b * x, 2.0 * x, 0.0, b, 1.0

    def fn(v):
        return np.array(point(*v)[:2])

    def jac(v):
        return np.reshape(point(*v)[2:], (2, 2))

    return C1Map("fold-like", 2, fn, jac, point=point if with_point else None)


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.booleans(), _POINT, _POINT,
       st.sampled_from((1e-4, 1e-6, 1e-10)), st.sampled_from(Direction))
def test_det_sign_is_kept_along_every_trajectory(a, b, with_point, start, target, tol,
                                                  direction):
    # det f' cannot change sign along an exact trajectory, so no sample may
    # cross the fold x = 0 from the seed's side, at any tolerance
    assume(start[0] != 0.0)
    m = _fold_like(a, b, with_point)
    traj = integrate(m, start, target, FlowOptions(tol=tol, max_steps=_MAX_STEPS),
                     direction)
    assert (np.sign(traj.states[:, 0]) == np.sign(start[0])).all()
