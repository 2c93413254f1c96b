"""Exact discrete identities between the time integral and the final state.

With ``A_w = L + diag(w)`` and the trapezoidal integral ``uT`` over every
step, summing the steps of one frozen-potential evolution gives

- Crank-Nicolson: ``A_w uT = u0 - u_K``;
- implicit Euler: ``A_w uT = (I + dt/2 A_w)(u0 - u_K)``;

exactly in exact arithmetic, whatever ``h``, ``dt`` and ``w >= 0``, and each
Crank-Nicolson step satisfies ``(I + dt/2 A_w) u_{k+1} = (I - dt/2 A_w) u_k``.  The
1D tridiagonal solve leaves only rounding; 2D CG leaves a residual of its
relative tolerance ``CG_RTOL`` per step.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from nonlocal_heat import EvolutionConfig, Field, Grid, assemble, evolve
from nonlocal_heat.laplacian import CG_RTOL, shifted_system

# Backward errors (see ``backward_error``), largest over 1500 examples per
# test: 1D 1.4e-15 (identities), 2.7e-16 (one Crank-Nicolson step) and
# 1.6e-16 (one shifted solve); 2D 8.1e-10 (identities: up to 40 CG solves,
# each to CG_RTOL, and a Crank-Nicolson step doubles its solve's residual),
# 9.5e-11 (one Crank-Nicolson step) and 4.9e-11 (one solve).  The bounds
# leave a margin of 12x or more; one 2D solve is held to CG_RTOL, which the
# CG stopping test on the true residual guarantees.
TOL_1D = 1e-13
TOL_2D_STEPS = 1e-8

GRIDS_1D = st.builds(lambda n: Grid((1.0,), (n,)), st.integers(3, 60))
GRIDS = st.one_of(
    GRIDS_1D,
    st.builds(lambda n1, n2, L2: Grid((1.0, L2), (n1, n2)),
              st.integers(3, 10), st.integers(3, 10), st.sampled_from([0.5, 1.0, 2.0])),
)


@st.composite
def problems(draw, grids=GRIDS):
    """A grid, a weight ``w >= 0`` and a datum ``u0``, both random."""
    grid = draw(grids)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w_max = draw(st.sampled_from([0.0, 1.0, 50.0, 1e3]))
    w = rng.uniform(0.0, w_max, grid.num_nodes)
    u0 = rng.standard_normal(grid.num_nodes)
    return grid, w, u0


def tolerance(grid: Grid, one_solve: bool = False) -> float:
    if grid.dim == 1:
        return TOL_1D
    return CG_RTOL if one_solve else TOL_2D_STEPS


def a_norm(grid: Grid, w: np.ndarray) -> float:
    """An upper bound of ``||A_w||_2``: the largest absolute row sum."""
    return sum(4.0 / h**2 for h in grid.h) + float(np.max(w))


def backward_error(residual: np.ndarray, *terms: float) -> float:
    """``||residual||`` relative to the sizes of the terms that cancel in it."""
    return float(np.linalg.norm(residual)) / sum(terms)


def evolve_problem(grid, w, u0, scheme, T, steps, collector):
    """``A_w``'s stencil, the trajectory, every state and ``dt * sum_k ||u_k||``,
    the size of the terms the integral sums (they cancel when ``u_k`` alternates)."""
    lap = assemble(grid)
    sink = collector(Field(grid, u0))
    traj = evolve(lap, Field(grid, w), Field(grid, u0),
                  EvolutionConfig(T=T, steps=steps, scheme=scheme), sink=sink)
    terms = T / steps * float(np.sum(np.linalg.norm(sink.states, axis=1)))
    return lap, traj, sink.states, terms


TIMES = dict(T=st.sampled_from([0.01, 0.1, 1.0]), steps=st.integers(2, 40))


@given(problem=problems(), **TIMES)
def test_crank_nicolson_identity(problem, T, steps, collector):
    grid, w, u0 = problem
    lap, traj, states, terms = evolve_problem(grid, w, u0, "crank_nicolson", T, steps,
                                              collector)
    uT, uK = traj.integral, traj.final().values
    norm = np.linalg.norm
    residual = lap.apply_array(uT) + w * uT - (u0 - uK)
    error = backward_error(residual, a_norm(grid, w) * terms, norm(u0), norm(uK))
    assert error <= tolerance(grid)
    # and every step: (I + dt/2 A_w) u_{k+1} = (I - dt/2 A_w) u_k
    half = 0.5 * T / steps
    scale = 1.0 + half * a_norm(grid, w)
    for before, after in zip(states[:-1], states[1:]):
        residual = (after + half * (lap.apply_array(after) + w * after)
                    - before + half * (lap.apply_array(before) + w * before))
        error = backward_error(residual, scale * norm(after), scale * norm(before))
        assert error <= tolerance(grid)


@given(problem=problems(), **TIMES)
def test_implicit_euler_identity(problem, T, steps, collector):
    grid, w, u0 = problem
    lap, traj, _, terms = evolve_problem(grid, w, u0, "implicit_euler", T, steps, collector)
    uT, uK = traj.integral, traj.final().values
    dt = T / steps
    drop = u0 - uK
    residual = lap.apply_array(uT) + w * uT - drop - 0.5 * dt * (lap.apply_array(drop) + w * drop)
    norm = np.linalg.norm
    ends = norm(u0) + norm(uK)
    error = backward_error(residual, a_norm(grid, w) * (terms + 0.5 * dt * ends), ends)
    assert error <= tolerance(grid)


@given(problem=problems(), tau=st.sampled_from([1e-4, 1e-2, 1.0]))
def test_shifted_system_inverts_identity_plus_tau_a_w(problem, tau):
    # the operator both schemes step with is I + tau * (L + diag(w))
    grid, w, b = problem
    lap = assemble(grid)
    x = shifted_system(lap, w, tau).solve(b)
    residual = x + tau * (lap.apply_array(x) + w * x) - b
    norm = np.linalg.norm
    error = backward_error(residual, (1.0 + tau * a_norm(grid, w)) * norm(x), norm(b))
    assert error <= tolerance(grid, one_solve=True)


@given(problem=problems(GRIDS_1D), **TIMES)
def test_implicit_euler_bounds_hold_on_every_step(problem, T, steps):
    # positivity and non-expansivity, on the bounds evolve measures; 1D only,
    # since 2D CG may undershoot by O(CG_RTOL)
    grid, w, u0 = problem
    u0 = np.abs(u0)
    traj = evolve(assemble(grid), Field(grid, w), Field(grid, u0),
                  EvolutionConfig(T=T, steps=steps))
    scale = float(np.max(u0))
    assert traj.bounds.min_value >= -1e-14 * scale
    assert traj.bounds.max_abs <= scale * (1.0 + 1e-14)
    assert math.isclose(traj.bounds.max_row_norm**2, float(np.sum(u0 * u0)), rel_tol=1e-14)
