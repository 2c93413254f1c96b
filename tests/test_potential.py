import math

import numpy as np
import pytest

from nonlocal_heat import (
    EvaluationError, Field, Grid, Potential, catalog, nemytskii,
    uniqueness_threshold,
)


GRID = Grid((1.0,), (11,))


# ---------------------------------------------------------------- catalog

def test_catalog_zero():
    phi = catalog("zero")
    assert phi.nonnegative
    assert phi.lipschitz_rule(5.0) == 0.0
    assert np.all(phi(np.linspace(-3, 3, 7)) == 0.0)


@pytest.mark.parametrize("c,nonneg", [(2.0, True), (0.0, True), (-1.5, False)])
def test_catalog_constant(c, nonneg):
    phi = catalog("constant", [c])
    assert phi.nonnegative is nonneg
    assert np.all(phi(np.array([-1.0, 0.0, 7.0])) == c)
    assert phi.lipschitz_rule(10.0) == 0.0


def test_catalog_quadratic():
    phi = catalog("quadratic")
    assert phi.nonnegative
    assert np.allclose(phi(np.array([-2.0, 0.5])), [4.0, 0.25])
    assert phi.lipschitz_rule(2.0) == 4.0


def test_catalog_absval():
    phi = catalog("absval")
    assert phi.nonnegative
    assert phi.lipschitz_rule(3.0) == 1.0
    assert phi.lipschitz_rule(0.0) == 0.0


def test_catalog_bounded_sine():
    phi = catalog("bounded_sine")
    s = np.linspace(-20, 20, 401)
    assert np.all(phi(s) >= 0.0)
    assert np.max(phi(s)) <= 2.0
    assert phi.lipschitz_rule(10.0) == 1.0
    scaled = catalog("bounded_sine", [2.5])
    assert scaled.lipschitz_rule(1.0) == 2.5


def test_catalog_linear_growth():
    phi = catalog("linear_growth", [3.0])
    s = np.array([-2.0, 0.0, 4.0])
    assert np.allclose(phi(s), 1.5 * (1.0 + np.abs(s)))
    assert phi.lipschitz_rule(1.0) == 1.5
    with pytest.raises(ValueError):
        catalog("linear_growth", [-1.0])


def test_catalog_unknown_and_bad_params():
    with pytest.raises(ValueError):
        catalog("cubic")
    with pytest.raises(ValueError):
        catalog("constant", [])
    with pytest.raises(ValueError):
        catalog("quadratic", [1.0])
    with pytest.raises(ValueError, match="at most 1 parameter"):
        catalog("bounded_sine", [1.0, 2.0])
    with pytest.raises(ValueError, match="amplitude must be nonnegative"):
        catalog("bounded_sine", [-1.0])


# --------------------------------------------------------------- nemytskii

def test_nemytskii_zero_potential():
    v = Field.from_function(GRID, lambda x: x)
    out = nemytskii(catalog("zero"), v)
    assert np.all(out.values == 0.0)


def test_nemytskii_broadcasts_a_scalar_valued_potential():
    out = nemytskii(Potential(name="two", evaluator=lambda s: 2.0, nonnegative=True),
                    Field.from_function(GRID, lambda x: x))
    assert out.values.shape == (GRID.num_nodes,) and np.all(out.values == 2.0)


def test_nemytskii_pointwise_square():
    v = Field.from_function(GRID, lambda x: np.sin(math.pi * x))
    out = nemytskii(catalog("quadratic"), v)
    assert np.array_equal(out.values, v.values**2)


def test_nemytskii_absval_on_negative_constant():
    v = Field.constant(GRID, -3.0)
    out = nemytskii(catalog("absval"), v)
    assert np.all(out.values == 3.0)


def test_nemytskii_nonfinite_names_node():
    phi = Potential(name="reciprocal", evaluator=lambda s: 1.0 / s)
    values = np.ones(GRID.num_nodes)
    values[4] = 0.0
    with np.errstate(divide="ignore"):
        with pytest.raises(EvaluationError, match="node 4"):
            nemytskii(phi, Field(GRID, values))


def test_nemytskii_rejects_broken_nonnegative_certificate():
    lying = Potential(name="identity", evaluator=lambda s: s, nonnegative=True)
    v = Field.constant(GRID, -1.0)
    with pytest.raises(EvaluationError, match="nonnegative"):
        nemytskii(lying, v)


def test_nemytskii_messages_print_values_as_python_floats():
    # numpy's repr of a scalar ("np.float64(...)") would tie the message,
    # which report.json records, to numpy's major version
    v = Field.constant(GRID, 3.926829327955169e+294)
    with pytest.raises(EvaluationError) as nonfinite:
        nemytskii(catalog("quadratic"), v)
    assert "(input 3.926829327955169e+294)" in str(nonfinite.value)
    lying = Potential(name="identity", evaluator=lambda s: s, nonnegative=True)
    with pytest.raises(EvaluationError) as negative:
        nemytskii(lying, Field.constant(GRID, -1.5))
    assert "evaluated to -1.5 at node 0" in str(negative.value)
    for error in (nonfinite, negative):
        assert "np." not in str(error.value)


def test_nemytskii_nonnegative_certificate_tolerance():
    # a -1e-15 wiggle is inside the certificate slack
    phi = Potential(name="wiggle", evaluator=lambda s: np.full_like(s, -1e-15),
                    nonnegative=True)
    out = nemytskii(phi, Field.constant(GRID, 0.0))
    assert np.all(out.values >= -1e-14)


def test_nemytskii_output_nonnegative_for_certified_catalog():
    rng = np.random.default_rng(9)
    v = Field(GRID, rng.standard_normal(GRID.num_nodes) * 5)
    for name in ("zero", "quadratic", "absval", "bounded_sine"):
        out = nemytskii(catalog(name), v)
        assert np.min(out.values) >= -1e-14


# ------------------------------------------------------------- lipschitz

def test_lipschitz_without_rule_is_unknown():
    # sampled difference quotients bound the constant from below, so a
    # potential without a rule gets no constant at all
    phi = Potential(name="sine", evaluator=np.sin)
    assert phi.lipschitz_rule is None
    for u0 in (Field.constant(GRID, 0.5), Field.zeros(GRID)):  # S0 = 10, then 0
        assert uniqueness_threshold(phi, u0, 20.0).lipschitz is None


def test_lipschitz_rejects_negative_interval():
    with pytest.raises(ValueError):
        uniqueness_threshold(catalog("zero"), Field.constant(GRID, 1.0), -1.0)


def test_lipschitz_monotone_in_interval_for_catalog():
    for name, params in [("quadratic", []), ("absval", []), ("bounded_sine", []),
                         ("linear_growth", [2.0]), ("constant", [3.0])]:
        phi = catalog(name, params)
        values = [phi.lipschitz_rule(s0) for s0 in (0.0, 0.5, 1.0, 4.0, 16.0)]
        assert all(a <= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("name,params", [
    ("zero", []), ("constant", [2.0]), ("constant", [-1.5]), ("quadratic", []),
    ("absval", []), ("bounded_sine", [1.0]), ("bounded_sine", [2.5]),
    ("linear_growth", [3.0]),
])
@pytest.mark.parametrize("s0", [0.5, 1.0, 4.0, 16.0])
def test_lipschitz_rule_bounds_sampled_quotients(name, params, s0):
    # the largest adjacent difference quotient on a fine sample is a lower
    # bound on the Lipschitz constant, so the rule must not fall below it
    phi = catalog(name, params)
    s = np.linspace(-s0, s0, 100_001)
    sampled = np.max(np.abs(np.diff(phi(s))) / np.diff(s))
    assert phi.lipschitz_rule(s0) >= sampled * (1.0 - 1e-9)


def test_lipschitz_exact_flag():
    # the report's flag records whether the constant came from a rule
    u0 = Field(GRID, np.full(GRID.num_nodes, 0.5))
    for phi, exact in [(catalog("quadratic"), True),
                       (Potential(name="f", evaluator=np.sin), False)]:
        assert uniqueness_threshold(phi, u0, 0.1).to_dict()["lipschitz_exact"] is exact
