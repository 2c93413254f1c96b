import math
from dataclasses import replace

import numpy as np
import pytest

from nonlocal_heat import (
    EvolutionConfig,
    Field,
    Grid,
    assemble,
    catalog,
    dirichlet_lambda1_discrete,
    evolve,
    norm_lp,
    phi_map,
    trapezoid_time_integral,
)
from nonlocal_heat.evolution import StateBounds


def sine_datum(grid, amplitude=1.0):
    return Field.from_function(
        grid, lambda *xs: amplitude * np.prod(
            [np.sin(math.pi * x / L) for x, L in zip(xs, grid.lengths)], axis=0
        )
    )


# ------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(T=0.0, steps=10)
    with pytest.raises(ValueError):
        EvolutionConfig(T=1.0, steps=1)
    with pytest.raises(ValueError):
        EvolutionConfig(T=1.0, steps=10, scheme="leapfrog")
    with pytest.raises(ValueError):
        EvolutionConfig(T=1.0, steps=10, store_every=3)
    with pytest.raises(ValueError):
        EvolutionConfig(T=1.0, steps=10, store_every=0)
    cfg = EvolutionConfig(T=1.0, steps=10, scheme="crank-nicolson", store_every=5)
    assert cfg.scheme == "crank_nicolson"
    assert cfg.dt == 0.1


def test_state_bounds_row_norm_survives_overflowing_squares():
    assert StateBounds.of(np.array([[3.0, 4.0]])).max_row_norm == 5.0
    bounds = StateBounds.of(np.array([[1e200, -1e200], [3.0, 4.0]]))
    assert bounds.max_row_norm == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert (bounds.max_abs, bounds.min_value) == (1e200, -1e200)


def test_trajectory_times_derive_from_the_spacing():
    # the stored samples are uniform from t=0 by construction; the derived
    # times are the numbers evolve formed as dt * store_every * arange
    g = Grid((1.0,), (3,))
    cfg = EvolutionConfig(T=0.1, steps=21, store_every=7)
    traj = evolve(assemble(g), Field.zeros(g), Field.constant(g, 1.0), cfg)
    assert traj.num_samples == 4
    assert np.array_equal(traj.times, cfg.dt * 7 * np.arange(4))
    assert traj.times[0] == 0.0 and traj.T == traj.times[-1]
    assert not traj.states.flags.writeable and not traj.integral.flags.writeable


# ------------------------------------------------------------ evolve

def test_evolve_zero_datum():
    g = Grid((1.0,), (15,))
    L = assemble(g)
    traj = evolve(L, Field.zeros(g), Field.zeros(g), EvolutionConfig(T=0.1, steps=20))
    assert np.all(traj.states == 0.0)


def test_evolve_keeps_initial_state_exactly():
    rng = np.random.default_rng(4)
    g = Grid((1.0,), (15,))
    u0 = Field(g, rng.standard_normal(15))
    traj = evolve(assemble(g), Field.zeros(g), u0, EvolutionConfig(T=0.1, steps=10))
    assert np.array_equal(traj.states[0], u0.values)


@pytest.mark.parametrize("c", [0.0, 3.0])
def test_implicit_euler_eigen_recursion(c):
    g = Grid((1.0,), (199,))
    L = assemble(g)
    u0 = sine_datum(g)
    cfg = EvolutionConfig(T=0.1, steps=100)
    traj = evolve(L, Field.constant(g, c), u0, cfg)
    lam = dirichlet_lambda1_discrete(g) + c
    for k in (1, 10, 100):
        expected = (1.0 + cfg.dt * lam) ** (-k) * u0
        err = norm_lp(traj.state(k) - expected, 2) / norm_lp(expected, 2)
        assert err <= 1e-9


def test_crank_nicolson_eigen_recursion():
    g = Grid((1.0,), (99,))
    L = assemble(g)
    u0 = sine_datum(g)
    cfg = EvolutionConfig(T=0.1, steps=100, scheme="crank_nicolson")
    traj = evolve(L, Field.zeros(g), u0, cfg)
    lam = dirichlet_lambda1_discrete(g)
    r = (1.0 - 0.5 * cfg.dt * lam) / (1.0 + 0.5 * cfg.dt * lam)
    for k in (1, 50, 100):
        expected = r**k * u0
        err = norm_lp(traj.state(k) - expected, 2) / norm_lp(expected, 2)
        assert err <= 1e-9


@pytest.mark.parametrize("grid", [Grid((1.0,), (49,)), Grid((1.0, 1.0), (11, 11))])
def test_implicit_euler_is_contractive(grid):
    rng = np.random.default_rng(13)
    L = assemble(grid)
    w = Field(grid, rng.uniform(0.0, 4.0, grid.num_nodes))
    u0 = Field(grid, rng.standard_normal(grid.num_nodes))
    traj = evolve(L, w, u0, EvolutionConfig(T=0.2, steps=40))
    for p in (2.0, math.inf):
        base = norm_lp(u0, p)
        for k in range(traj.num_samples):
            assert norm_lp(traj.state(k), p) <= base * (1 + 1e-10)


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


def test_store_every_thins_but_matches_full_run():
    rng = np.random.default_rng(16)
    g = Grid((1.0,), (21,))
    L = assemble(g)
    w = Field(g, rng.uniform(0.0, 1.0, 21))
    u0 = Field(g, rng.standard_normal(21))
    full = evolve(L, w, u0, EvolutionConfig(T=0.1, steps=20))
    thin = evolve(L, w, u0, EvolutionConfig(T=0.1, steps=20, store_every=4))
    assert thin.num_samples == 6
    assert np.allclose(thin.times, full.times[::4])
    assert np.array_equal(thin.states, full.states[::4])


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

def test_phi_map_zero_datum():
    g = Grid((1.0,), (15,))
    L = assemble(g)
    rng = np.random.default_rng(17)
    v = Field(g, rng.standard_normal(15))
    uT, traj = phi_map(L, catalog("quadratic"), Field.zeros(g), v, EvolutionConfig(T=0.1, steps=10))
    assert np.all(uT.values == 0.0)
    assert np.all(traj.states == 0.0)


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


def test_phi_map_output_bound():
    rng = np.random.default_rng(18)
    g = Grid((1.0,), (49,))
    L = assemble(g)
    u0 = Field(g, rng.standard_normal(49))
    v = Field(g, rng.standard_normal(49))
    cfg = EvolutionConfig(T=0.3, steps=60)
    uT, _ = phi_map(L, catalog("absval"), u0, v, cfg)
    assert norm_lp(uT, math.inf) <= cfg.T * norm_lp(u0, math.inf) * (1 + 1e-10)


def test_phi_map_integral_consistent_with_trajectory():
    g = Grid((1.0,), (33,))
    L = assemble(g)
    u0 = sine_datum(g)
    uT, traj = phi_map(L, catalog("quadratic"), u0, 0.5 * u0, EvolutionConfig(T=0.1, steps=50))
    again = trapezoid_time_integral(
        [(t, traj.state(k)) for k, t in enumerate(traj.times)]
    )
    assert norm_lp(uT - again, 2) <= 1e-13 * norm_lp(again, 2)


@pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson"])
@pytest.mark.parametrize("grid, steps", [
    (Grid((1.0,), (33,)), 60),
    (Grid((1.0,), (1500,)), 300),  # several reduction blocks, the last one short
    (Grid((1.0, 1.0), (9, 7)), 24),
])
def test_phi_map_output_independent_of_store_every(scheme, grid, steps):
    rng = np.random.default_rng(19)
    L = assemble(grid)
    u0 = Field(grid, rng.standard_normal(grid.num_nodes))
    v = Field(grid, rng.uniform(0.0, 1.0, grid.num_nodes))
    outputs = []
    for every in (1, 4, steps):
        uT, traj = phi_map(L, catalog("quadratic"), u0, v,
                           EvolutionConfig(T=0.1, steps=steps, scheme=scheme,
                                           store_every=every))
        assert traj.num_samples == steps // every + 1
        outputs.append((uT.values, traj.bounds, traj.final().values))
    for values, bounds, final in outputs[1:]:
        assert np.array_equal(values, outputs[0][0])
        assert bounds == outputs[0][1]
        assert np.array_equal(final, outputs[0][2])


def test_bounds_cover_unstored_states():
    g = Grid((1.0,), (21,))
    L = assemble(g)
    u0 = Field(g, np.r_[np.zeros(10), 1.0, np.zeros(10)])
    cfg = EvolutionConfig(T=0.05, steps=10, scheme="crank_nicolson")
    full = evolve(L, Field.zeros(g), u0, cfg)
    thin = evolve(L, Field.zeros(g), u0, replace(cfg, store_every=10))
    # Crank-Nicolson rings on a spike: an unstored state dips below every
    # stored one, and the thinned run still sees it
    assert full.states.min() < min(thin.states.min(), 0.0)
    assert thin.bounds.min_value == full.states.min()
    assert thin.bounds.max_row_norm == max(math.sqrt(np.sum(s * s)) for s in full.states)
    assert thin.bounds.max_abs == np.abs(full.states).max()
