import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonlocal_heat import (
    EvolutionConfig,
    Field,
    Grid,
    SolverFailure,
    assemble,
    catalog,
    dirichlet_lambda1_discrete,
    evolve,
    nemytskii,
    norm_lp,
    phi_map,
    picard_solve,
)
from nonlocal_heat import evolution, laplacian
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
    m = evolution.sweep_multipliers(np.array([0.0, 5e-324, 1e-310, 1e-300]), cfg)
    assert np.allclose(m, cfg.T, rtol=1e-15, atol=0.0)


def exact_trapezoid_sum(a, dt, steps, scheme):
    """``dt (1/2 + r + ... + r^(K-1) + r^K/2)`` in exact rational arithmetic,
    for the step factor ``r`` of ``scheme`` at ``a = dt mu``."""
    a = Fraction(a)
    r = 1 / (1 + a) if scheme == "implicit_euler" else (1 - a / 2) / (1 + a / 2)
    p, q = r.numerator, r.denominator  # r^k = p^k q^(K-k) / q^K, summed as integers
    terms = [p**k * q**(steps - k) for k in range(steps + 1)]
    return Fraction(dt) * Fraction(2 * sum(terms) - terms[0] - terms[-1], 2 * q**steps)


@pytest.mark.parametrize("exponent", [-20, -8, -3, 0, 3])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_trapezoid_multipliers_match_exact_sums(scheme, exponent):
    # dt = 2**exponent, so that a = dt*mu is exact; K from 2 to 25, odd and
    # even (Crank-Nicolson's r^K changes sign with K once r < 0).  Every
    # branch of the one body, for theta = 1 and 1/2: a <= 1; a > 1 with
    # r > 0 (implicit Euler at every such a, Crank-Nicolson at 1 < a < 2);
    # -1/2 <= r <= 0 and r < -1/2 (Crank-Nicolson at 2 <= a <= 6 and a > 6);
    # the edges a = 1, a = 2 (r = 0) and a = 6 (r = -1/2) and their
    # neighbours; a = 0 and subnormal a
    dt = math.ldexp(1.0, exponent)
    values = [0.0, 5e-324, 1e-310, 1e-300, 0.3, 1.7, 3.9, 40.0, 1e5]
    for edge in (1.0, 2.0, 6.0):
        values += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 7.0)]
    mu = [math.ldexp(a, -exponent) for a in values]
    for steps in range(2, 26):
        cfg = EvolutionConfig(T=steps * dt, steps=steps, scheme=scheme)
        assert cfg.dt == dt
        for value, m in zip(mu, evolution._trapezoid_multipliers(mu, cfg)):
            exact = exact_trapezoid_sum(dt * value, dt, steps, scheme)
            assert abs(Fraction(m) - exact) <= 4 * Fraction(math.ulp(float(exact))), (
                steps, value)


@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=150)
@given(binade=st.integers(-1074, 1023), significand=st.floats(1.0, 2.0, exclude_max=True),
       exponent=st.integers(-20, 3), steps=st.integers(2, 40))
def test_trapezoid_multipliers_match_exact_sums_at_any_magnitude(
        scheme, binade, significand, exponent, steps):
    # a = dt*mu from every binary exponent of binary64, subnormals included
    # (ldexp rounds below 2**-1022), held to the bound of the fixed grid above
    dt = math.ldexp(1.0, exponent)
    mu = math.ldexp(significand, binade) / dt
    assume(math.isfinite(mu))
    cfg = EvolutionConfig(T=steps * dt, steps=steps, scheme=scheme)
    assert cfg.dt == dt
    [m] = evolution._trapezoid_multipliers([mu], cfg)
    exact = exact_trapezoid_sum(dt * mu, dt, steps, scheme)
    assert abs(Fraction(m) - exact) <= 4 * Fraction(math.ulp(float(exact)))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("grid", [Grid((1.0,), (49,)), Grid((1.0, 1.0), (15, 15)),
                                  Grid((1.0, 2.0), (31, 17))],
                         ids=lambda g: "x".join(map(str, g.n)))
def test_sweep_multipliers_keep_the_eigenvalues_shape(scheme, grid):
    # the array entry gives each eigenvalue the list routine's value, bit for
    # bit, at that eigenvalue's index of a grid.n-shaped array
    lam = assemble(grid).eigenvalues + 2.5
    cfg = EvolutionConfig(T=0.1, steps=51, scheme=scheme)
    m = evolution.sweep_multipliers(lam, cfg)
    assert m.shape == lam.shape == grid.n
    for index in np.ndindex(grid.n):
        assert m[index] == evolution._trapezoid_multipliers([float(lam[index])], cfg)[0]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("steps", [6, 7])
def test_multipliers_where_dt_mu_overflows_are_the_limit(scheme, steps):
    # dt = 2 and mu = the largest float: a = dt*mu overflows to inf, the
    # limit r = 0 (implicit Euler; m = dt/2) or r = -1 (Crank-Nicolson; the
    # sum divided by an infinite a is 0)
    cfg = EvolutionConfig(T=2.0 * steps, steps=steps, scheme=scheme)
    m = evolution.sweep_multipliers(np.array([np.finfo(float).max]), cfg)
    assert m[0] == (1.0 if scheme == "implicit_euler" else 0.0)


def lanczos_operands(grid, kind):
    """A datum and a nonnegative non-constant potential on the ``N`` nodes of
    a unit-length grid: ``random_rough`` (normal datum, uniform ``w`` in
    [0, 10]), ``spike_smooth`` (a unit spike at node ``N // 3``,
    ``w = 50 prod_i sin^2(pi x_i)``) or ``gaussian_huge`` (a Gaussian of width
    0.1 centred at 0.4 on each axis, uniform ``w`` in [0, 1e8])."""
    n = grid.num_nodes
    rng = np.random.default_rng(n)
    xs = grid.coordinates()
    if kind == "random_rough":
        return rng.standard_normal(n), rng.uniform(0.0, 10.0, n)
    if kind == "spike_smooth":
        return np.eye(n)[n // 3], 50.0 * np.prod([np.sin(math.pi * x) ** 2 for x in xs], axis=0)
    return (np.exp(-sum(((x - 0.4) / 0.1) ** 2 for x in xs)),
            1e8 * rng.uniform(0.0, 1.0, n))


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
    u0, w = lanczos_operands(grid, kind)
    cfg = EvolutionConfig(T=0.1, steps=steps, scheme=scheme)
    closed = evolution._spectral_integral(L, w, u0, cfg)
    stepped = evolve(L, Field(grid, w), Field(grid, u0), cfg).integral
    assert closed is not None
    assert np.linalg.norm(closed - stepped) <= 1e-11 * np.linalg.norm(stepped)


@pytest.mark.parametrize("steps, scheme, kind", [
    (200, "implicit_euler", "random_rough"),
    (200, "crank_nicolson", "random_rough"),
    (200, "implicit_euler", "spike_smooth"),
    (200, "crank_nicolson", "spike_smooth"),
    (10, "implicit_euler", "gaussian_huge"),
])
def test_lanczos_map_matches_stepping_2d(monkeypatch, steps, scheme, kind):
    # on a 2D grid each Lanczos vector is a CG solve to CG_RTOL, so the map
    # is compared with stepping to 1e-14 and held to 100 CG_RTOL; worst seen
    # 1.5e-10 here (random_rough, Crank-Nicolson) and 1.3e-9 at 63x63
    # (spike_smooth, Crank-Nicolson, K = 200).
    # The basis gets LANCZOS_VECTORS whatever K, so K stays small: the cap
    # K // 40 would need K = 1000 for random_rough's 25 vectors, and a
    # gaussian_huge step takes hundreds of CG iterations
    bound = 100 * laplacian.CG_RTOL
    grid = Grid((1.0, 1.0), (31, 31))
    L = assemble(grid)
    u0, w = lanczos_operands(grid, kind)
    u0 /= np.abs(u0).max()
    cfg = EvolutionConfig(T=0.1, steps=steps, scheme=scheme)
    closed = evolution._lanczos_integral(L, w, u0, cfg, evolution.LANCZOS_VECTORS)
    monkeypatch.setattr(laplacian, "CG_RTOL", 1e-14)
    stepped = evolve(L, Field(grid, w), Field(grid, u0), cfg).integral
    assert closed is not None
    assert np.linalg.norm(closed - stepped) <= bound * np.linalg.norm(stepped)


def test_spectral_map_steps_where_no_closed_form_applies(collector):
    cfg = EvolutionConfig(T=0.1, steps=2000)
    for grid in (Grid((1.0,), (49,)), Grid((1.0, 1.0), (9, 7))):
        L = assemble(grid)
        u0, v = sine_datum(grid), 0.5 * sine_datum(grid)
        # closed-form, in either dimension: a nonnegative constant potential
        # (sine basis) and a non-constant one (Lanczos); the sink sees no state
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
            phi_map(L, catalog("constant", [-2000.0]), u0, v, replace(cfg, steps=40),
                    spectral=True)


def test_lanczos_fallbacks_return_none():
    grid = Grid((1.0,), (4095,))
    L = assemble(grid)
    u0, w = lanczos_operands(grid, "random_rough")
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

    # 2D: a non-constant potential is formed by Lanczos, and the same two
    # guards hold; a 31 x 31 grid on a 1 x 0.01 rectangle has lambda_max 4.1e7
    grid = Grid((1.0, 0.01), (31, 31))
    L = assemble(grid)
    u0, w = lanczos_operands(grid, "random_rough")
    assert evolution._spectral_integral(L, w, u0, ie) is not None
    # Crank-Nicolson with dt (lambda_max + max w)/2 = 1022: |r|^K = e^-3.9 at
    # the top of the spectrum (unguarded, the basis does not converge within
    # 64 vectors)
    assert evolution._spectral_integral(L, w, u0, cn) is None
    assert evolution._spectral_integral(L, np.r_[w[:-1], -1e-300], u0, ie) is None


@pytest.mark.parametrize("grid", [Grid((1.0,), (49,)), Grid((1.0, 1.0), (11, 11))],
                         ids=["1d", "2d"])
def test_sweep_too_short_for_a_lanczos_vector_builds_no_lanczos_system(monkeypatch, grid):
    # K = 39 gives K // 40 = 0 vectors: the sweep is stepped without first
    # building the shift-and-invert system (a factorization in 1D, a CG
    # system in 2D), so the one system built is evolve's; K = 40 gives one
    # vector, too few to converge, after which the sweep is stepped too
    L = assemble(grid)
    u0 = Field(grid, lanczos_operands(grid, "random_rough")[0])
    v = Field(grid, np.random.default_rng(1).uniform(0.5, 3.0, grid.num_nodes))
    built = []

    def counted(*args, **kwargs):
        built.append(None)
        return shifted_system(*args, **kwargs)

    monkeypatch.setattr(evolution, "shifted_system", counted)
    for steps, systems in ((39, 1), (40, 2)):
        cfg = EvolutionConfig(T=0.1, steps=steps)
        del built[:]
        closed, trajectory = phi_map(L, catalog("quadratic"), u0, v, cfg, spectral=True)
        assert len(built) == systems and trajectory is not None
        stepped, _ = phi_map(L, catalog("quadratic"), u0, v, cfg)
        assert closed.values.tobytes() == stepped.values.tobytes()


@pytest.mark.parametrize("grid", [Grid((1.0,), (49,)), Grid((1.0, 1.0), (7, 7))],
                         ids=["1d", "2d"])
def test_zero_datum_has_a_zero_integral_without_a_system(monkeypatch, grid):
    # u0 = 0 under a nonnegative non-constant w: the closed form is exactly
    # zero, with no sweep stepped and no Lanczos system built (whose basis
    # would start from a zero vector), so a start v = sin + 0.5 is mapped to
    # 0, and 0 to itself
    L = assemble(grid)
    u0 = Field.zeros(grid)
    v = sine_datum(grid) + Field.constant(grid, 0.5)
    built = []

    def counted(*args, **kwargs):
        built.append(None)
        return shifted_system(*args, **kwargs)

    monkeypatch.setattr(evolution, "shifted_system", counted)
    cfg = EvolutionConfig(T=0.1, steps=400)
    image, trajectory = phi_map(L, catalog("quadratic"), u0, v, cfg, spectral=True)
    assert trajectory is None and not built and not np.any(image.values)
    report = picard_solve(L, catalog("quadratic"), u0, cfg, start=v)
    assert report.converged and report.iterations == 2
    assert report.residual_history == [1.0, 0.0]


@pytest.mark.parametrize("kind", ["spike_smooth", "gaussian_huge"])
def test_2d_lanczos_basis_solves_each_vector_as_a_new_system(monkeypatch, kind):
    # the basis vectors are orthonormal, so an extrapolation of earlier
    # solutions is no start for the next: the map is bit for bit the one whose
    # every solve gets a newly built system, and so starts from M^{-1} b
    # (on these operands the extrapolated start cost 2-5% more products)
    grid = Grid((1.0, 1.0), (31, 31))
    L = assemble(grid)
    u0, w = lanczos_operands(grid, kind)
    u0 /= np.abs(u0).max()
    cfg = EvolutionConfig(T=0.1, steps=10)
    basis = evolution._lanczos_integral(L, w, u0, cfg, evolution.LANCZOS_VECTORS)

    def new_system_per_solve(lap, w, tau, identity=1.0, **_):
        return SimpleNamespace(solve=lambda b: shifted_system(lap, w, tau, identity).solve(b))

    monkeypatch.setattr(evolution, "shifted_system", new_system_per_solve)
    fresh = evolution._lanczos_integral(L, w, u0, cfg, evolution.LANCZOS_VECTORS)
    assert basis is not None and np.array_equal(basis, fresh)


def test_lanczos_attempt_that_a_cg_solve_fails_is_stepped(monkeypatch):
    # a SolverFailure of a CG solve in the Lanczos basis (tau = T/10) ends
    # the attempt, and stepping (tau = dt) decides the sweep
    grid = Grid((1.0, 1.0), (9, 7))
    L = assemble(grid)
    u0, v = sine_datum(grid), 0.5 * sine_datum(grid)
    cfg = EvolutionConfig(T=0.1, steps=400)
    phi = catalog("quadratic")
    assert phi_map(L, phi, u0, v, cfg, spectral=True)[1] is None
    solve = laplacian._ConjugateGradientSystem.solve

    def failing_in_the_basis(system, b):
        if system._tau == 0.1 * cfg.T:
            raise SolverFailure("CG failed in the Lanczos basis")
        return solve(system, b)

    monkeypatch.setattr(laplacian._ConjugateGradientSystem, "solve", failing_in_the_basis)
    assert evolution._lanczos_integral(L, nemytskii(phi, v).values, u0.values, cfg, 10) is None
    uT, trajectory = phi_map(L, phi, u0, v, cfg, spectral=True)
    stepped, _ = phi_map(L, phi, u0, v, cfg)
    assert trajectory is not None and np.array_equal(uT.values, stepped.values)


def test_lanczos_attempt_whose_basis_is_not_finite_is_stepped(monkeypatch):
    # on an axis of 1e-152, gamma * 2/h^2 overflows, so the tridiagonal
    # factors of B = (I + gamma A_w)^{-1} are NaN: the first solve leaves a
    # non-finite beta, which ends the attempt (without the check it would
    # spend all K // 40 = 25 vectors), and stepping decides the sweep
    grid = Grid((1e-152,), (49,))
    L = assemble(grid)
    u0 = sine_datum(grid, 1e-7)
    v = sine_datum(grid, 1e-5) + Field.constant(grid, 1e-6)
    cfg = EvolutionConfig(T=100.0, steps=1000)
    phi = catalog("quadratic")
    solves = []

    def counted(lap, w, tau, *args, **kwargs):
        system = shifted_system(lap, w, tau, *args, **kwargs)
        if tau != 0.1 * cfg.T:  # a stepping system
            return system
        return SimpleNamespace(solve=lambda b: solves.append(None) or system.solve(b))

    monkeypatch.setattr(evolution, "shifted_system", counted)
    uT, trajectory = phi_map(L, phi, u0, v, cfg, spectral=True)
    assert len(solves) == 1 and trajectory is not None
    assert np.array_equal(uT.values, evolve(L, nemytskii(phi, v), u0, cfg).integral)


def test_lanczos_basis_is_bounded_by_the_vector_cap():
    # K // 40 = 50 vectors of 4095 nodes: the basis is 51 * 4095 floats, and
    # what else the evaluation holds is a few more vectors; 16.3 in 2D, where
    # the CG system keeps its shifts and its preconditioner, and a solve its
    # iterates and the sine transform's products (17.3 while the system also
    # kept the basis's last two solutions)
    cfg = EvolutionConfig(T=0.1, steps=2000)
    basis = min(evolution.LANCZOS_VECTORS, cfg.steps // 40) + 1
    for grid, extra in ((Grid((1.0,), (4095,)), 10), (Grid((1.0, 1.0), (63, 65)), 17)):
        L = assemble(grid)
        u0, w = lanczos_operands(grid, "random_rough")
        tracemalloc.start()
        try:
            assert evolution._spectral_integral(L, w, u0, cfg) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis * grid.num_nodes * 8 <= peak <= (basis + extra) * grid.num_nodes * 8


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
