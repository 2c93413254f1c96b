import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nonlocal_heat import (
    EvolutionConfig,
    Field,
    Grid,
    SolverFailure,
    assemble,
    catalog,
    dirichlet_lambda1_discrete,
    evolve,
    norm_lp,
    phi_map,
)
from nonlocal_heat import evolution
from nonlocal_heat.evolution import CRANK_NICOLSON, SCHEMES, StateBounds
from nonlocal_heat.laplacian import shifted_system
from nonlocal_heat.io import read_trajectory_bin, trajectory_stream
from conftest import trapezoid_time_integral


def sine_datum(grid, amplitude=1.0):
    return Field.from_function(
        grid, lambda *xs: amplitude * np.prod(
            [np.sin(math.pi * x / L) for x, L in zip(xs, grid.lengths)], axis=0
        )
    )


def written(tmp_path, lap, w, u0, cfg):
    """``evolve`` streaming to a trajectory binary: (trajectory, times, states)."""
    path = tmp_path / "trajectory.bin"
    with trajectory_stream(path, u0, cfg) as sink:
        traj = evolve(lap, w, u0, cfg, sink=sink)
    times, states, _ = read_trajectory_bin(path)
    return traj, times, states


# ------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(T=0.0, steps=10)
    with pytest.raises(ValueError):
        EvolutionConfig(T=1.0, steps=1)
    # float64 holds every step count up to 2**53, and not 2**53 + 1
    assert EvolutionConfig(T=1.0, steps=2**53).steps == 2**53
    for steps in (2**53 + 1, 10**300, 1e300):
        with pytest.raises(ValueError, match=r"^steps must be at most 2\*\*53, got "):
            EvolutionConfig(T=1.0, steps=steps)
    with pytest.raises(ValueError):
        EvolutionConfig(T=1.0, steps=10, scheme="leapfrog")
    with pytest.raises(ValueError):
        EvolutionConfig(T=1.0, steps=10, store_every=3)
    with pytest.raises(ValueError):
        EvolutionConfig(T=1.0, steps=10, store_every=0)
    # one spelling per scheme: the hyphenated name is not an alias
    with pytest.raises(ValueError, match=f"scheme must be one of {re.escape(str(SCHEMES))}"):
        EvolutionConfig(T=1.0, steps=10, scheme="crank-nicolson")
    cfg = EvolutionConfig(T=1.0, steps=10, scheme="crank_nicolson", store_every=5)
    assert cfg.scheme == "crank_nicolson"
    assert cfg.dt == 0.1


def test_state_bounds_row_norm_survives_overflowing_squares():
    assert StateBounds.of(np.array([[3.0, 4.0]])).max_row_norm == 5.0
    bounds = StateBounds.of(np.array([[1e200, -1e200], [3.0, 4.0]]))
    assert bounds.max_row_norm == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert (bounds.max_abs, bounds.min_value) == (1e200, -1e200)


def test_trajectory_times_derive_from_the_spacing(tmp_path):
    # the written samples are uniform from t=0 by construction; their times
    # are the numbers the writer formed as dt * store_every * arange, and
    # T is dt * steps, which that product's rounding may miss by an ulp
    g = Grid((1.0,), (3,))
    cfg = EvolutionConfig(T=0.1, steps=21, store_every=7)
    traj, times, states = written(tmp_path, assemble(g), Field.zeros(g),
                                  Field.constant(g, 1.0), cfg)
    assert states.shape[0] == 4
    assert np.array_equal(times, cfg.dt * 7 * np.arange(4))
    assert times[0] == 0.0 and traj.T == cfg.dt * 21 == pytest.approx(times[-1], rel=1e-15)
    assert not traj.states.flags.writeable and not traj.integral.flags.writeable


# ------------------------------------------------------------ evolve

def test_evolve_zero_datum(collector):
    g = Grid((1.0,), (15,))
    L = assemble(g)
    sink = collector(Field.zeros(g))
    evolve(L, Field.zeros(g), Field.zeros(g), EvolutionConfig(T=0.1, steps=20), sink=sink)
    assert np.all(sink.states == 0.0)


def test_evolve_keeps_initial_state_exactly():
    rng = np.random.default_rng(4)
    g = Grid((1.0,), (15,))
    u0 = Field(g, rng.standard_normal(15))
    traj = evolve(assemble(g), Field.zeros(g), u0, EvolutionConfig(T=0.1, steps=10))
    assert np.array_equal(traj.states[0], u0.values)


@pytest.mark.parametrize("c", [0.0, 3.0])
def test_implicit_euler_eigen_recursion(c, collector):
    g = Grid((1.0,), (199,))
    L = assemble(g)
    u0 = sine_datum(g)
    cfg = EvolutionConfig(T=0.1, steps=100)
    sink = collector(u0)
    evolve(L, Field.constant(g, c), u0, cfg, sink=sink)
    lam = dirichlet_lambda1_discrete(g) + c
    for k in (1, 10, 100):
        expected = (1.0 + cfg.dt * lam) ** (-k) * u0
        err = norm_lp(Field(g, sink.states[k]) - expected, 2) / norm_lp(expected, 2)
        assert err <= 1e-9


def test_crank_nicolson_eigen_recursion(collector):
    g = Grid((1.0,), (99,))
    L = assemble(g)
    u0 = sine_datum(g)
    cfg = EvolutionConfig(T=0.1, steps=100, scheme="crank_nicolson")
    sink = collector(u0)
    evolve(L, Field.zeros(g), u0, cfg, sink=sink)
    lam = dirichlet_lambda1_discrete(g)
    r = (1.0 - 0.5 * cfg.dt * lam) / (1.0 + 0.5 * cfg.dt * lam)
    for k in (1, 50, 100):
        expected = r**k * u0
        err = norm_lp(Field(g, sink.states[k]) - expected, 2) / norm_lp(expected, 2)
        assert err <= 1e-9


@pytest.mark.parametrize("grid", [Grid((1.0,), (49,)), Grid((1.0, 1.0), (11, 11))])
def test_implicit_euler_is_contractive(grid, collector):
    rng = np.random.default_rng(13)
    L = assemble(grid)
    w = Field(grid, rng.uniform(0.0, 4.0, grid.num_nodes))
    u0 = Field(grid, rng.standard_normal(grid.num_nodes))
    sink = collector(u0)
    evolve(L, w, u0, EvolutionConfig(T=0.2, steps=40), sink=sink)
    for p in (2.0, math.inf):
        base = norm_lp(u0, p)
        for state in sink.states:
            assert norm_lp(Field(grid, state), p) <= base * (1 + 1e-10)


@pytest.mark.parametrize("grid", [Grid((1.0,), (49,)), Grid((1.0, 1.0), (11, 11))])
def test_implicit_euler_preserves_positivity(grid):
    rng = np.random.default_rng(14)
    L = assemble(grid)
    w = Field(grid, rng.uniform(0.0, 4.0, grid.num_nodes))
    u0 = Field(grid, rng.uniform(0.0, 1.0, grid.num_nodes))
    traj = evolve(L, w, u0, EvolutionConfig(T=0.2, steps=40))
    assert traj.bounds.min_value >= -1e-12


def test_semigroup_consistency_exact():
    rng = np.random.default_rng(15)
    g = Grid((1.0,), (31,))
    L = assemble(g)
    w = Field(g, rng.uniform(0.0, 2.0, 31))
    u0 = Field(g, rng.standard_normal(31))
    full = evolve(L, w, u0, EvolutionConfig(T=0.4, steps=40))
    first = evolve(L, w, u0, EvolutionConfig(T=0.15, steps=15))
    second = evolve(L, w, first.final(), EvolutionConfig(T=0.25, steps=25))
    assert np.array_equal(full.final().values, second.final().values)


def test_store_every_thins_but_matches_full_run(tmp_path, collector):
    rng = np.random.default_rng(16)
    g = Grid((1.0,), (21,))
    L = assemble(g)
    w = Field(g, rng.uniform(0.0, 1.0, 21))
    u0 = Field(g, rng.standard_normal(21))
    full = collector(u0)
    cfg = EvolutionConfig(T=0.1, steps=20)
    evolve(L, w, u0, cfg, sink=full)
    _, thin_times, thin_states = written(tmp_path, L, w, u0, replace(cfg, store_every=4))
    assert thin_states.shape[0] == 6
    assert np.allclose(thin_times, (cfg.dt * np.arange(21))[::4])
    assert np.array_equal(thin_states, full.states[::4])


@pytest.mark.parametrize("every", [1, 4, 20000])
def test_evolve_memory_is_one_block_whatever_store_every(every):
    # n=199, K=20,000: storing every state would take 32 MB; evolve keeps
    # u0, u_K and one reduction block of at most BLOCK_BYTES
    g = Grid((1.0,), (199,))
    L = assemble(g)
    u0 = sine_datum(g)
    cfg = EvolutionConfig(T=0.1, steps=20000, store_every=every)
    tracemalloc.start()
    try:
        traj = evolve(L, Field.zeros(g), u0, cfg, sink=lambda start, block: None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.states.shape == (2, g.num_nodes)
    assert peak <= 2 * 2**20


def stepped_with_plain_solves(lap, w, u0, cfg, rows):
    """The states ``u_1 .. u_K`` of ``evolve``'s schemes, with the
    Crank-Nicolson factor 2 applied outside the solve
    (``y = (I + dt/2*A)^{-1} u; u = 2.0 * y - u``), reduced in blocks of
    ``rows`` states as ``evolve`` reduces them: (blocks, integral, bounds)."""
    dt, reflect = cfg.dt, cfg.scheme == CRANK_NICOLSON
    system = shifted_system(lap, w.values, 0.5 * dt if reflect else dt)
    u, states = u0.values, []
    for _ in range(cfg.steps):
        y = system.solve(u)
        u = 2.0 * y - u if reflect else y
        states.append(u)
    blocks = [np.array(states[start:start + rows]) for start in range(0, cfg.steps, rows)]
    integral = (0.5 * dt) * u0.values
    bounds = StateBounds.of(u0.values[None])
    for block in blocks:
        weights = np.full(len(block), dt)
        if block is blocks[-1]:
            weights[-1] = 0.5 * dt
        integral += weights @ block
        bounds = bounds.merge(StateBounds.of(block))
    return blocks, integral, bounds


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("grid, steps", [
    (Grid((1.0,), (199,)), 1000),
    pytest.param(Grid((1.0, 1.0), (31, 31)), 200, id="31x31-200"),
])
def test_evolve_steps_bitwise_as_plain_solves(monkeypatch, scheme, rows, grid, steps):
    # the Crank-Nicolson system returns twice its solution, a power-of-two
    # scaling, so each state is bit for bit 2.0 * y - u; blocks of 1 row, and
    # of 3 with a remainder (1000 = 3*333 + 1, 200 = 3*66 + 2)
    monkeypatch.setattr(evolution, "BLOCK_BYTES", rows * 8 * grid.num_nodes)
    lap = assemble(grid)
    w = Field(grid, 36.0 * sine_datum(grid).values ** 2)
    u0 = sine_datum(grid)
    cfg = EvolutionConfig(T=0.1, steps=steps, scheme=scheme)
    sunk = []
    traj = evolve(lap, w, u0, cfg, sink=lambda start, block: sunk.append((start, block.copy())))
    blocks, integral, bounds = stepped_with_plain_solves(lap, w, u0, cfg, rows)
    assert [start for start, _ in sunk] == list(range(0, steps, rows))
    assert len(sunk) == len(blocks)
    for (_, block), expected in zip(sunk, blocks):
        assert block.tobytes() == expected.tobytes()
    assert traj.states.tobytes() == np.stack((u0.values, blocks[-1][-1])).tobytes()
    assert traj.integral.tobytes() == integral.tobytes()
    assert traj.bounds == bounds


def test_evolve_grid_mismatch():
    g = Grid((1.0,), (5,))
    other = Grid((1.0,), (6,))
    with pytest.raises(ValueError):
        evolve(assemble(g), Field.zeros(other), Field.zeros(g), EvolutionConfig(T=0.1, steps=4))


def test_time_stepping_orders():
    # error vs the exact semigroup of the *discrete* operator isolates the
    # time discretization; implicit Euler is first order, CN second
    g = Grid((1.0,), (31,))
    L = assemble(g)
    u0 = sine_datum(g)
    lam = dirichlet_lambda1_discrete(g)
    T = 0.1
    exact = math.exp(-lam * T) * u0

    def final_error(scheme, steps):
        traj = evolve(L, Field.zeros(g), u0, EvolutionConfig(T=T, steps=steps, scheme=scheme))
        return norm_lp(traj.final() - exact, 2)

    for scheme, min_order in (("implicit_euler", 0.9), ("crank_nicolson", 1.8)):
        errors = [final_error(scheme, steps) for steps in (50, 100, 200)]
        orders = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
        assert all(o >= min_order for o in orders), (scheme, orders)


# ------------------------------------------------------------ phi map

def test_phi_map_zero_datum(collector):
    g = Grid((1.0,), (15,))
    L = assemble(g)
    rng = np.random.default_rng(17)
    v = Field(g, rng.standard_normal(15))
    sink = collector(Field.zeros(g))
    uT, _ = phi_map(L, catalog("quadratic"), Field.zeros(g), v, EvolutionConfig(T=0.1, steps=10),
                    sink=sink)
    assert np.all(uT.values == 0.0)
    assert np.all(sink.states == 0.0)


@pytest.mark.parametrize("c", [0.0, 1.0])
def test_phi_map_constant_potential_closed_form(c):
    g = Grid((1.0,), (199,))
    L = assemble(g)
    u0 = sine_datum(g)
    T = 0.1
    uT, _ = phi_map(
        L, catalog("constant", [c]), u0, Field.zeros(g),
        EvolutionConfig(T=T, steps=1000),
    )
    lam = math.pi**2 + c
    coeff = -math.expm1(-lam * T) / lam
    exact = coeff * u0
    assert norm_lp(uT - exact, 2) / norm_lp(exact, 2) <= 2e-3


SPECTRAL_GRIDS = [Grid((1.0,), (1,)), Grid((1.0,), (2,)), Grid((1.0,), (49,)),
                  Grid((1.0,), (799,)), Grid((1.0, 1.0), (15, 15)), Grid((1.0, 2.0), (31, 17))]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("grid", SPECTRAL_GRIDS, ids=lambda g: "x".join(map(str, g.n)))
@pytest.mark.parametrize("c", [0.0, 2.5, 1e3])
@pytest.mark.parametrize("steps", [50, 51])
def test_constant_potential_map_in_the_sine_basis_matches_stepping(scheme, grid, c, steps):
    # dt near 0.002: Crank-Nicolson's dt*lambda_max/2 is 2.0 at 15x15, 10 at
    # n = 49 and 2.6e3 at n = 799, so r < 0 there, with odd and even K
    rng = np.random.default_rng(grid.num_nodes)
    L = assemble(grid)
    u0 = Field(grid, rng.standard_normal(grid.num_nodes))
    v = Field(grid, rng.standard_normal(grid.num_nodes))
    cfg = EvolutionConfig(T=0.1, steps=steps, scheme=scheme)
    closed, none = phi_map(L, catalog("constant", [c]), u0, v, cfg, spectral=True)
    stepped, trajectory = phi_map(L, catalog("constant", [c]), u0, v, cfg)
    assert none is None and trajectory is not None
    scale = np.max(np.abs(stepped.values))
    assert np.max(np.abs(closed.values - stepped.values)) <= 1e-11 * scale


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sweep_multipliers_of_a_subnormal_step_are_the_final_time(scheme):
    # dt*lambda at 0 or subnormal, as on a domain of length 1e154: the sums
    # are ratios of log1p/expm1 forms, so no 1/(dt*lambda) overflows
    cfg = EvolutionConfig(T=0.3, steps=7, scheme=scheme)
    mu = np.array([0.0, 5e-324, 1e-310, 1e-300])
    assert np.allclose(evolution.sweep_multipliers(mu, cfg), cfg.T, rtol=1e-15, atol=0.0)


def lanczos_operands(n, kind):
    """A datum and a nonnegative non-constant potential on ``n`` nodes:
    ``random_rough`` (normal datum, uniform ``w`` in [0, 10]), ``spike_smooth``
    (a unit spike, ``w = 50 sin^2(pi x)``) or ``gaussian_huge`` (a Gaussian,
    uniform ``w`` in [0, 1e8])."""
    rng = np.random.default_rng(n)
    x = Grid((1.0,), (n,)).axis_coordinates(0)
    if kind == "random_rough":
        return rng.standard_normal(n), rng.uniform(0.0, 10.0, n)
    if kind == "spike_smooth":
        return np.eye(n)[n // 3], 50.0 * np.sin(math.pi * x) ** 2
    return np.exp(-((x - 0.4) / 0.1) ** 2), 1e8 * rng.uniform(0.0, 1.0, n)


@pytest.mark.parametrize("n, steps, scheme, kind", [
    (99, 2000, "implicit_euler", "random_rough"),
    (99, 2000, "implicit_euler", "spike_smooth"),
    (99, 2000, "implicit_euler", "gaussian_huge"),
    (199, 1000, "crank_nicolson", "random_rough"),
    (199, 2000, "crank_nicolson", "spike_smooth"),
    (1023, 2000, "implicit_euler", "random_rough"),
    (1023, 2000, "implicit_euler", "gaussian_huge"),
    (4095, 2000, "implicit_euler", "random_rough"),
    (4095, 2000, "implicit_euler", "spike_smooth"),
    (799, 16000, "crank_nicolson", "random_rough"),
    (799, 16000, "crank_nicolson", "spike_smooth"),
    (799, 16000, "crank_nicolson", "gaussian_huge"),
])
def test_lanczos_map_matches_stepping(n, steps, scheme, kind):
    # a non-constant potential on a 1D grid is evaluated by shift-and-invert
    # Lanczos; worst seen 2.1e-12 (n = 4095, random_rough)
    grid = Grid((1.0,), (n,))
    L = assemble(grid)
    u0, w = lanczos_operands(n, kind)
    cfg = EvolutionConfig(T=0.1, steps=steps, scheme=scheme)
    closed = evolution._spectral_integral(L, w, u0, cfg)
    stepped = evolve(L, Field(grid, w), Field(grid, u0), cfg).integral
    assert closed is not None
    assert np.linalg.norm(closed - stepped) <= 1e-11 * np.linalg.norm(stepped)


def test_spectral_map_steps_where_no_closed_form_applies(collector):
    g = Grid((1.0,), (49,))
    L = assemble(g)
    u0, v = sine_datum(g), 0.5 * sine_datum(g)
    cfg = EvolutionConfig(T=0.1, steps=2000)
    # closed-form: a nonnegative constant potential (sine basis) and a
    # non-constant one on a 1D grid (Lanczos); the sink sees no state
    for phi in (catalog("constant", [2.5]), catalog("quadratic")):
        sink = collector(u0)
        _, trajectory = phi_map(L, phi, u0, v, cfg, sink=sink, spectral=True)
        assert trajectory is None and len(sink.rows) == 1
    # stepped: a negative potential, and a sweep of 40 steps, whose one
    # Lanczos vector (40 // 40) cannot meet the stopping test
    for phi, steps in ((catalog("constant", [-1.0]), 2000), (catalog("quadratic"), 40)):
        sink = collector(u0)
        _, trajectory = phi_map(L, phi, u0, v, replace(cfg, steps=steps), sink=sink,
                                spectral=True)
        assert trajectory is not None and len(sink.rows) == steps + 1
    with pytest.raises(SolverFailure, match="not positive definite"):
        phi_map(L, catalog("constant", [-2000.0]), u0, v, replace(cfg, steps=40), spectral=True)

    # stepped: a non-constant potential on a 2D grid
    g2 = Grid((1.0, 1.0), (9, 7))
    L2 = assemble(g2)
    _, trajectory = phi_map(L2, catalog("quadratic"), sine_datum(g2), 0.5 * sine_datum(g2),
                            cfg, spectral=True)
    assert trajectory is not None


def test_lanczos_fallbacks_return_none():
    grid = Grid((1.0,), (4095,))
    L = assemble(grid)
    u0, w = lanczos_operands(4095, "random_rough")
    ie = EvolutionConfig(T=0.1, steps=2000)
    cn = replace(ie, scheme="crank_nicolson")
    assert evolution._spectral_integral(L, w, u0, ie) is not None
    # Crank-Nicolson with dt (lambda_max + max w)/2 = 1678: |r|^K = e^-2.4 at
    # the top of the spectrum is not negligible (unguarded, Lanczos stops
    # 1.8e-6 away from stepping there)
    assert evolution._spectral_integral(L, w, u0, cn) is None
    # a negative entry anywhere
    assert evolution._spectral_integral(L, np.r_[w[:-1], -1e-300], u0, ie) is None
    # max|u0| (1 + dt (lambda_max + max w)) beyond SPECTRAL_LIMIT
    top = 2.0 * evolution.SPECTRAL_LIMIT / (1.0 + ie.dt * (L.eigenvalues.max() + w.max()))
    assert evolution._spectral_integral(L, w, top * u0 / np.abs(u0).max(), ie) is None
    # a basis too small to meet the stopping test
    assert evolution._lanczos_integral(L, w, u0 / np.abs(u0).max(), ie, 2) is None
    assert evolution._lanczos_integral(L, w, u0 / np.abs(u0).max(), ie, 64) is not None
    # a non-constant potential on a 2D grid
    g2 = Grid((1.0, 1.0), (63, 65))
    assert evolution._spectral_integral(assemble(g2), w[:g2.num_nodes], u0[:g2.num_nodes],
                                        ie) is None


def test_lanczos_basis_is_bounded_by_the_vector_cap():
    # K // 40 = 50 vectors of 4095 nodes: the basis is 51 * 4095 floats, and
    # what else the evaluation holds is a few more vectors
    grid = Grid((1.0,), (4095,))
    L = assemble(grid)
    u0, w = lanczos_operands(4095, "random_rough")
    cfg = EvolutionConfig(T=0.1, steps=2000)
    tracemalloc.start()
    try:
        assert evolution._spectral_integral(L, w, u0, cfg) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cfg.steps // 40 + 1) * 4095 * 8 <= peak <= (cfg.steps // 40 + 1 + 10) * 4095 * 8


def test_phi_map_output_bound():
    rng = np.random.default_rng(18)
    g = Grid((1.0,), (49,))
    L = assemble(g)
    u0 = Field(g, rng.standard_normal(49))
    v = Field(g, rng.standard_normal(49))
    cfg = EvolutionConfig(T=0.3, steps=60)
    uT, _ = phi_map(L, catalog("absval"), u0, v, cfg)
    assert norm_lp(uT, math.inf) <= cfg.T * norm_lp(u0, math.inf) * (1 + 1e-10)


def test_phi_map_integral_consistent_with_trajectory(collector):
    g = Grid((1.0,), (33,))
    L = assemble(g)
    u0 = sine_datum(g)
    cfg = EvolutionConfig(T=0.1, steps=50)
    sink = collector(u0)
    uT, _ = phi_map(L, catalog("quadratic"), u0, 0.5 * u0, cfg, sink=sink)
    again = trapezoid_time_integral(
        [(k * cfg.dt, Field(g, state)) for k, state in enumerate(sink.states)]
    )
    assert norm_lp(uT - again, 2) <= 1e-13 * norm_lp(again, 2)


@pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson"])
@pytest.mark.parametrize("grid, steps", [
    (Grid((1.0,), (33,)), 60),
    (Grid((1.0,), (1500,)), 300),  # several reduction blocks, the last one short
    (Grid((1.0, 1.0), (9, 7)), 24),
])
def test_phi_map_output_independent_of_store_every(scheme, grid, steps, tmp_path):
    rng = np.random.default_rng(19)
    L = assemble(grid)
    u0 = Field(grid, rng.standard_normal(grid.num_nodes))
    v = Field(grid, rng.uniform(0.0, 1.0, grid.num_nodes))
    outputs = []
    for every in (1, 4, steps):
        cfg = EvolutionConfig(T=0.1, steps=steps, scheme=scheme, store_every=every)
        with trajectory_stream(tmp_path / "trajectory.bin", u0, cfg) as sink:
            uT, traj = phi_map(L, catalog("quadratic"), u0, v, cfg, sink=sink)
        assert read_trajectory_bin(tmp_path / "trajectory.bin")[1].shape[0] == steps // every + 1
        outputs.append((uT.values, traj.bounds, traj.final().values))
    for values, bounds, final in outputs[1:]:
        assert np.array_equal(values, outputs[0][0])
        assert bounds == outputs[0][1]
        assert np.array_equal(final, outputs[0][2])


def test_bounds_cover_unstored_states(tmp_path, collector):
    g = Grid((1.0,), (21,))
    L = assemble(g)
    u0 = Field(g, np.r_[np.zeros(10), 1.0, np.zeros(10)])
    cfg = EvolutionConfig(T=0.05, steps=10, scheme="crank_nicolson")
    full = collector(u0)
    evolve(L, Field.zeros(g), u0, cfg, sink=full)
    thin, _, thin_states = written(tmp_path, L, Field.zeros(g), u0, replace(cfg, store_every=10))
    # Crank-Nicolson rings on a spike: an unwritten state dips below every
    # written one, and the thinned run still sees it
    assert full.states.min() < min(thin_states.min(), 0.0)
    assert thin.bounds.min_value == full.states.min()
    assert thin.bounds.max_row_norm == max(math.sqrt(np.sum(s * s)) for s in full.states)
    assert thin.bounds.max_abs == np.abs(full.states).max()
