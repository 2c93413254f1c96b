import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from nonlocal_heat import (
    Field,
    Grid,
    assemble,
    inner_product,
    norm_lp,
    restrict,
)
from nonlocal_heat import cli
from conftest import trapezoid_time_integral


def riemann_integral(fn, a=0.0, b=1.0, samples=2_000_000):
    """Independent midpoint-rule oracle for 1D integrals."""
    x = (np.arange(samples) + 0.5) * (b - a) / samples + a
    return float(np.sum(fn(x)) * (b - a) / samples)


# ---------------------------------------------------------------- grids

def test_grid_basic_1d():
    g = Grid((1.0,), (199,))
    assert g.dim == 1
    assert g.h == (1.0 / 200.0,)
    assert g.num_nodes == 199
    assert np.allclose(g.axis_coordinates(0), np.arange(1, 200) / 200.0)
    coords = g.coordinates()
    assert isinstance(coords, tuple) and len(coords) == 1
    assert np.array_equal(coords[0], g.axis_coordinates(0))


def test_grid_caches_spacing_and_cell_measure_outside_its_fields():
    # h and cell_measure are computed once per grid; equality and hashing
    # still read lengths and n only, and replace() builds a fresh cache
    g = Grid((1.0, 2.0), (3, 7))
    assert g.h is g.h and g.h == (0.25, 0.25) and g.cell_measure == 0.0625
    twin = Grid((1, 2), [3, 7])
    assert g == twin and hash(g) == hash(twin) and {g: "g"}[twin] == "g"
    assert pickle.loads(pickle.dumps(g)) == g
    wider = replace(g, lengths=(2.0, 2.0))
    assert wider.h == (0.5, 0.25) and wider.cell_measure == 0.125
    finer = replace(g, n=(7, 15))
    assert finer.h == (0.125, 0.125) and finer.cell_measure == 0.125**2
    assert wider != g and finer != g and g.h == (0.25, 0.25)


def test_grid_basic_2d():
    g = Grid((1.0, 2.0), (3, 7))
    assert g.dim == 2
    assert g.h == (0.25, 0.25)
    assert g.num_nodes == 21
    # exact where an int64 product of the node counts wraps around to 0
    assert Grid((1.0, 1.0), (2**32, 2**32)).num_nodes == 2**64
    x, y = g.coordinates()
    assert x.shape == (21,)
    # row-major: y cycles fastest
    assert np.allclose(y[:7], np.arange(1, 8) * 0.25)
    assert np.allclose(x[:7], 0.25)


@pytest.mark.parametrize(
    "lengths,n",
    [((0.0,), (3,)), ((-1.0,), (3,)), ((1.0,), (0,)), ((1.0, 1.0, 1.0), (2, 2, 2)),
     ((1.0, 1.0), (2,)),
     # the stencil leaves the float range: 1/L**2 overflows or underflows to 0,
     # or 4*sum(1/h**2) is infinite
     ((1e300,), (49,)), ((1e-300,), (49,)), ((1.0, 1e-300), (9, 9)), ((1e-155,), (49,))],
)
def test_grid_rejects_bad_input(lengths, n):
    with pytest.raises(ValueError):
        Grid(lengths, n)


def test_grid_refine_nests():
    # one level of a space_time convergence study
    g = Grid((1.0, 2.0), (3, 5))
    cfg = {"mode": "convergence_study", "study": {"refine": "space_time"},
           "domain": {"dim": 2, "lengths": list(g.lengths), "n": list(g.n)},
           "time": {"T": 0.1, "steps": 10}, "potential": {"name": "zero"},
           "initial": {"name": "sine_mode"}}
    f = cli.parse_config(cfg).levels[1].grid
    assert f.n == (7, 11)
    assert f.h == (g.h[0] / 2, g.h[1] / 2)


# ---------------------------------------------------------------- fields

def test_field_validation():
    g = Grid((1.0,), (3,))
    with pytest.raises(ValueError):
        Field(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        Field(g, [1.0, math.nan, 2.0])
    with pytest.raises(ValueError):
        Field(g, [1.0, math.inf, 2.0])


def test_field_is_immutable():
    g = Grid((1.0,), (3,))
    f = Field(g, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_field_accepts_2d_shape():
    g = Grid((1.0, 1.0), (2, 3))
    f = Field(g, np.arange(6.0).reshape(2, 3))
    assert f.values.shape == (6,)
    assert np.array_equal(f.reshaped(), np.arange(6.0).reshape(2, 3))


def test_field_arithmetic_checks_grid():
    f = Field(Grid((1.0,), (3,)), [1, 2, 3])
    g = Field(Grid((2.0,), (3,)), [1, 2, 3])
    with pytest.raises(ValueError):
        f + g


# ---------------------------------------------------------------- norms

def test_norm_zero_field():
    g = Grid((1.0,), (10,))
    z = Field.zeros(g)
    for p in (1.0, 2.0, 3.5, math.inf):
        assert norm_lp(z, p) == 0.0


@pytest.mark.parametrize("n", [1, 7, 100])
def test_norm_constant_field(n):
    g = Grid((1.0,), (n,))
    f = Field.constant(g, 1.0)
    assert norm_lp(f, 2) == pytest.approx(math.sqrt(n / (n + 1)), rel=1e-14)


def test_norm_sine_matches_quadrature_oracle():
    # oracle: integral of sin^2(pi x) over (0,1) is 1/2
    oracle = riemann_integral(lambda x: np.sin(math.pi * x) ** 2)
    assert oracle == pytest.approx(0.5, abs=1e-12)
    g = Grid((1.0,), (199,))
    f = Field.from_function(g, lambda x: np.sin(math.pi * x))
    assert norm_lp(f, 2) == pytest.approx(math.sqrt(0.5), abs=1e-3)


def test_norm_rejects_p_below_one():
    f = Field.constant(Grid((1.0,), (4,)), 1.0)
    with pytest.raises(ValueError):
        norm_lp(f, 0.5)


def test_norm_homogeneity():
    rng = np.random.default_rng(7)
    g = Grid((1.0, 1.5), (6, 5))
    f = Field(g, rng.standard_normal(g.num_nodes))
    for p in (1.0, 2.0, 4.0, math.inf):
        for c in (-3.0, 0.25, 11.0):
            assert norm_lp(c * f, p) == pytest.approx(abs(c) * norm_lp(f, p), rel=1e-12)


def test_norm_of_huge_values_does_not_overflow():
    # |f|^p overflows at 1e200; the norm itself is finite
    g = Grid((1.0,), (9,))
    f = Field.constant(g, -1e200)
    for p in (1.0, 2.0, 3.0, math.inf):
        assert norm_lp(f, p) == pytest.approx(1e200 * 0.9 ** (1.0 / p), rel=1e-14)


def test_norm_inf_dominates_measured_p_norms():
    rng = np.random.default_rng(8)
    g = Grid((2.0,), (17,))
    f = Field(g, rng.standard_normal(17))
    measure = 2.0 * 17 / 18  # the interior nodes carry 17 of the 18 cells
    for p in (1.0, 2.0, 7.0):
        assert norm_lp(f, math.inf) >= norm_lp(f, p) / measure ** (1.0 / p) - 1e-14


# ------------------------------------------------------- H1 seminorm

def energy_form(f):
    """The squared H^1 seminorm as the energy checks form it: ``(f, L f)``."""
    return inner_product(f, Field(f.grid, assemble(f.grid).apply_array(f.values)))


def h1_edge_sum(f):
    """Independent oracle: ``(df/h_a)^2 * prod(h)`` over every edge, boundary
    edges taking the Dirichlet value 0."""
    g = f.grid
    total = 0.0
    for axis in range(g.dim):
        d = np.diff(f.reshaped(), axis=axis, prepend=0.0, append=0.0)
        total += np.sum(d * d) / g.h[axis] ** 2 * g.cell_measure
    return total


def test_h1_zero():
    assert energy_form(Field.zeros(Grid((1.0,), (5,)))) == 0.0


def test_h1_single_node_hat():
    # n=1, h=1/2: two edges with slope +-2, each contributing 4 * 1/2
    g = Grid((1.0,), (1,))
    f = Field(g, [1.0])
    assert energy_form(f) == pytest.approx(4.0, rel=1e-14)


def test_h1_sine_matches_quadrature_oracle():
    # oracle: integral of (pi cos(pi x))^2 over (0,1) is pi^2/2
    oracle = riemann_integral(lambda x: (math.pi * np.cos(math.pi * x)) ** 2)
    assert oracle == pytest.approx(math.pi**2 / 2, abs=1e-10)
    g = Grid((1.0,), (199,))
    f = Field.from_function(g, lambda x: np.sin(math.pi * x))
    assert energy_form(f) == pytest.approx(math.pi**2 / 2, abs=1e-2)


@pytest.mark.parametrize("grid", [Grid((1.0,), (23,)), Grid((1.0, 2.0), (9, 14))])
def test_h1_summation_by_parts(grid):
    # summation by parts: (f, L f) over the nodes equals the edge sum
    rng = np.random.default_rng(11)
    f = Field(grid, rng.standard_normal(grid.num_nodes))
    assert energy_form(f) == pytest.approx(h1_edge_sum(f), rel=1e-12)


# ------------------------------------------------------ inner product

def test_inner_product_zero_and_self():
    g = Grid((1.0,), (12,))
    z = Field.zeros(g)
    f = Field.from_function(g, lambda x: x * (1 - x))
    assert inner_product(z, f) == 0.0
    assert inner_product(f, f) == pytest.approx(norm_lp(f, 2) ** 2, rel=1e-14)


def test_inner_product_orthogonal_modes():
    g = Grid((1.0,), (199,))
    f = Field.from_function(g, lambda x: np.sin(math.pi * x))
    h = Field.from_function(g, lambda x: np.sin(2 * math.pi * x))
    assert abs(inner_product(f, h)) <= 1e-3


def test_quadratic_forms_finite_where_squares_overflow():
    # each square exceeds the float range, the measure-weighted sums do not
    f = Field.constant(Grid((1.0,), (99,)), 1.3e154)
    assert inner_product(f, f) == pytest.approx(0.99 * 1.3e154**2, rel=1e-14)
    hat = Field(Grid((1.0,), (1,)), [6e153])
    assert energy_form(hat) == pytest.approx(4.0 * 6e153**2, rel=1e-14)


def test_inner_product_grid_mismatch():
    f = Field.constant(Grid((1.0,), (4,)), 1.0)
    g = Field.constant(Grid((1.0,), (5,)), 1.0)
    with pytest.raises(ValueError):
        inner_product(f, g)


# -------------------------------------------------- time quadrature

def test_trapezoid_constant_trajectory_exact():
    g = Grid((1.0,), (5,))
    c = Field.constant(g, 3.0)
    samples = [(0.1 * k, c) for k in range(11)]
    out = trapezoid_time_integral(samples)
    assert np.allclose(out.values, 3.0 * 1.0, rtol=1e-14)


def test_trapezoid_linear_trajectory_exact():
    g = Grid((1.0,), (5,))
    base = Field.from_function(g, lambda x: x)
    T = 0.8
    samples = [(t, t * base) for t in np.linspace(0.0, T, 9)]
    out = trapezoid_time_integral(samples)
    assert np.allclose(out.values, (T**2 / 2) * base.values, rtol=1e-13)


def test_trapezoid_exponential_decay_closed_form():
    # oracle: integral of e^{-pi^2 t} over (0, T) = (1 - e^{-pi^2 T}) / pi^2
    T, dt = 0.1, 1e-4
    lam = math.pi**2
    coeff = -math.expm1(-lam * T) / lam
    g = Grid((1.0,), (39,))
    mode = Field.from_function(g, lambda x: np.sin(math.pi * x))
    times = np.arange(0, round(T / dt) + 1) * dt
    samples = [(t, math.exp(-lam * t) * mode) for t in times]
    out = trapezoid_time_integral(samples)
    exact = coeff * mode
    assert norm_lp(out - exact, 2) / norm_lp(exact, 2) <= 1e-4


def test_trapezoid_linearity_in_samples():
    rng = np.random.default_rng(3)
    g = Grid((1.0,), (8,))
    times = np.linspace(0.0, 1.0, 6)
    fs = [Field(g, rng.standard_normal(8)) for _ in times]
    gs = [Field(g, rng.standard_normal(8)) for _ in times]
    a, b = 2.5, -1.25
    combined = trapezoid_time_integral(
        [(t, a * f + b * h) for t, f, h in zip(times, fs, gs)]
    )
    separate = (
        a * trapezoid_time_integral(list(zip(times, fs)))
        + b * trapezoid_time_integral(list(zip(times, gs)))
    )
    assert np.allclose(combined.values, separate.values, rtol=1e-12, atol=1e-14)


def test_trapezoid_input_validation():
    g = Grid((1.0,), (4,))
    c = Field.constant(g, 1.0)
    with pytest.raises(ValueError):
        trapezoid_time_integral([(0.0, c)])
    with pytest.raises(ValueError):
        trapezoid_time_integral([(0.0, c), (0.5, c), (0.5, c)])
    with pytest.raises(ValueError):
        trapezoid_time_integral([(0.1, c), (0.2, c)])
    other = Field.constant(Grid((1.0,), (5,)), 1.0)
    with pytest.raises(ValueError):
        trapezoid_time_integral([(0.0, c), (0.5, other)])


# ---------------------------------------------------------- restrict

def test_restrict_samples_shared_nodes():
    coarse = Grid((1.0,), (9,))
    fine = Grid((1.0,), (19,))
    f = Field.from_function(fine, lambda x: np.sin(math.pi * x))
    r = restrict(f, coarse)
    expected = Field.from_function(coarse, lambda x: np.sin(math.pi * x))
    assert np.allclose(r.values, expected.values, rtol=0, atol=1e-15)


def test_restrict_2d_and_validation():
    coarse = Grid((1.0, 1.0), (3, 3))
    fine = Grid((1.0, 1.0), (7, 7))
    f = Field.from_function(fine, lambda x, y: x + 10 * y)
    r = restrict(f, coarse)
    expected = Field.from_function(coarse, lambda x, y: x + 10 * y)
    assert np.allclose(r.values, expected.values, atol=1e-14)
    with pytest.raises(ValueError):
        restrict(f, Grid((1.0, 1.0), (4, 4)))
    with pytest.raises(ValueError, match="grids cover different domains"):
        restrict(f, Grid((1.0, 2.0), (3, 3)))
    # unequal strides: 2 on axis 0, 1 on axis 1
    fine = Grid((1.0, 2.0), (7, 5))
    r = restrict(Field(fine, np.arange(35.0)), Grid((1.0, 2.0), (3, 5)))
    assert np.array_equal(r.reshaped(), np.arange(35.0).reshape(7, 5)[[1, 3, 5], :])
    # an equal grid, as on a time_only study's levels, keeps every value
    assert np.array_equal(restrict(r, r.grid).values, r.values)
