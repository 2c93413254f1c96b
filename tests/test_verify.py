import json
import math

import numpy as np
import pytest

from nonlocal_heat import (
    EvolutionConfig,
    Field,
    Grid,
    Potential,
    assemble,
    catalog,
    check_elliptic,
    check_energy,
    check_solution_bounds,
    dirichlet_lambda1_discrete,
    norm_lp,
    picard_solve,
    verify_all,
)


def solve_on(n, steps, phi, datum, T=0.1, lengths=(1.0,)):
    grid = Grid(lengths, (n,) if isinstance(n, int) else n)
    lap = assemble(grid)
    u0 = Field.from_function(grid, datum)
    report = picard_solve(lap, phi, u0, EvolutionConfig(T=T, steps=steps))
    assert report.converged
    return grid, lap, report


def sine(x):
    return np.sin(math.pi * x)


# ------------------------------------------------------- solution bounds

def test_bounds_zero_datum_passes():
    grid = Grid((1.0,), (19,))
    lap = assemble(grid)
    report = picard_solve(lap, catalog("quadratic"), Field.zeros(grid),
                          EvolutionConfig(T=0.1, steps=10))
    check = check_solution_bounds(report)
    assert check.passed
    assert check.norm_ratios["2"] == 0.0
    assert check.positivity_min == 0.0


def test_bounds_heat_decay_ratios():
    grid, lap, report = solve_on(99, 200, catalog("zero"), sine)
    check = check_solution_bounds(report)
    assert check.passed
    # the ratio is attained at k=0 (the datum itself); later states decay
    assert check.norm_ratios["2"] == pytest.approx(1.0)
    lam = dirichlet_lambda1_discrete(grid)
    dt = report.trajectory.times[1]
    u0 = report.trajectory.initial()
    for k in (1, 50, 200):
        ratio = norm_lp(report.trajectory.state(k), 2) / norm_lp(u0, 2)
        assert ratio == pytest.approx((1 + dt * lam) ** (-k), rel=1e-8)


def test_bounds_positivity_flag():
    _, _, report = solve_on(99, 200, catalog("quadratic"), sine)
    check = check_solution_bounds(report)
    assert check.positivity_min is not None
    assert check.positivity_min >= -1e-12
    assert check.positivity_ok


def test_bounds_signed_datum_skips_positivity():
    _, _, report = solve_on(99, 200, catalog("quadratic"),
                            lambda x: np.sin(2 * math.pi * x))
    check = check_solution_bounds(report)
    assert check.positivity_min is None
    assert check.positivity_ok is None
    assert check.passed  # norm checks still bind


@pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson"])
def test_bounds_streamed_equal_per_state_recomputation(scheme):
    grid = Grid((1.0,), (49,))
    lap = assemble(grid)
    u0 = Field(grid, np.r_[np.zeros(24), 1.0, np.zeros(24)])  # CN rings below 0
    phi = catalog("quadratic")

    def solve(every):
        return picard_solve(lap, phi, u0, EvolutionConfig(T=0.1, steps=20, scheme=scheme,
                                                          store_every=every))

    stored, streamed = solve(1), solve(20)
    assert streamed.trajectory.num_samples == 2
    states = [stored.trajectory.state(k) for k in range(stored.trajectory.num_samples)]
    check = check_solution_bounds(streamed)
    for key, p in (("2", 2.0), ("inf", math.inf)):
        expected = max(norm_lp(s, p) for s in states) / norm_lp(u0, p)
        assert check.norm_ratios[key] == pytest.approx(expected, rel=1e-14, abs=0.0)
    expected_min = min(float(np.min(s.values)) for s in states)
    assert check.positivity_min == pytest.approx(expected_min, rel=1e-14, abs=0.0)
    if scheme == "crank_nicolson":
        # the dip lies strictly between the two states the streamed run keeps
        assert expected_min < min(float(np.min(s.values)) for s in (states[0], states[-1]))


# ---------------------------------------------------------------- energy

def test_energy_zero_datum():
    grid = Grid((1.0,), (19,))
    lap = assemble(grid)
    report = picard_solve(lap, catalog("zero"), Field.zeros(grid),
                          EvolutionConfig(T=0.1, steps=10))
    check = check_energy(report, catalog("zero"))
    assert check.lhs == 0.0 and check.rhs == 0.0
    assert check.passed


def test_energy_heat_closed_form():
    # oracle: with the eigen datum both sides equal a * (1 - e^{-pi^2 T}) / 2,
    # a = (1 - e^{-pi^2 T}) / pi^2
    T = 0.1
    decay = -math.expm1(-math.pi**2 * T)
    a = decay / math.pi**2
    lhs_exact = a**2 * math.pi**2 / 2
    assert lhs_exact == pytest.approx(a * decay / 2, rel=1e-15)
    assert lhs_exact == pytest.approx(0.019935, abs=1e-6)

    _, _, report = solve_on(199, 1000, catalog("zero"), sine, T=T)
    check = check_energy(report, catalog("zero"))
    assert check.relative_mismatch <= 5e-3
    assert check.lhs == pytest.approx(lhs_exact, rel=2e-2)
    # bound 2 T ||u0||_2^2 = 0.1 for the unit-amplitude sine
    assert check.bound == pytest.approx(2 * T * 0.5, rel=1e-2)
    assert check.bound_ok
    assert check.final_norm_ok and check.integral_norm_ok


def test_energy_mismatch_decreases_under_joint_refinement():
    phi = catalog("quadratic")
    mismatches = []
    for n, steps in ((49, 125), (99, 500), (199, 2000)):
        _, _, report = solve_on(n, steps, phi, lambda x: 0.5 * np.sin(math.pi * x))
        mismatches.append(check_energy(report, phi).relative_mismatch)
    # each refinement should shrink the mismatch (20% slack on monotonicity)
    assert mismatches[1] <= mismatches[0] * 1.2
    assert mismatches[2] <= mismatches[1] * 1.2
    assert mismatches[2] < mismatches[0]


def test_energy_inequalities_hold_at_every_resolution():
    phi = catalog("absval")
    for n, steps in ((25, 50), (51, 100), (103, 200)):
        _, _, report = solve_on(n, steps, phi, sine)
        check = check_energy(report, phi)
        assert check.bound_ok
        assert check.final_norm_ratio <= 1 + 1e-8
        assert check.integral_norm_ratio <= 1 + 1e-8


# -------------------------------------------------------------- elliptic

def test_energy_bound_of_a_datum_whose_squared_norm_overflows():
    # ||u0||_2 ~ 7e159 is finite but its square is not; T is short enough
    # that the energy terms stay finite, so the bound is inf and holds
    _, _, report = solve_on(49, 100, catalog("zero"), lambda x: 1e160 * sine(x), T=1e-10)
    check = check_energy(report, catalog("zero"))
    assert check.bound == math.inf and check.bound_ok
    assert check.final_norm_ok and check.integral_norm_ok


def test_elliptic_zero_datum():
    grid = Grid((1.0,), (19,))
    lap = assemble(grid)
    report = picard_solve(lap, catalog("zero"), Field.zeros(grid),
                          EvolutionConfig(T=0.1, steps=10))
    check = check_elliptic(report, catalog("zero"), lap)
    assert check.relative_residual == 0.0


def test_elliptic_residual_is_time_quadrature_error():
    # for implicit Euler the all-discrete residual is (dt/2) * L (u0 - uK)
    # exactly, i.e. (dt/2) * lambda1_h on the eigen datum
    grid, lap, report = solve_on(199, 1000, catalog("zero"), sine)
    check = check_elliptic(report, catalog("zero"), lap)
    dt = 0.1 / 1000
    predicted = 0.5 * dt * dirichlet_lambda1_discrete(grid)
    assert check.relative_residual <= 1e-2
    assert check.relative_residual == pytest.approx(predicted, rel=1e-6)


def test_elliptic_residual_vanishes_under_joint_refinement():
    for phi in (catalog("zero"), catalog("quadratic"), catalog("absval")):
        residuals = []
        for n, steps in ((49, 125), (99, 500), (199, 2000)):
            grid, lap, report = solve_on(n, steps, phi,
                                         lambda x: 0.5 * np.sin(math.pi * x))
            residuals.append(check_elliptic(report, phi, lap).relative_residual)
        # dt scales by 1/4 per level, so the residual must contract ~4x
        assert residuals[1] <= residuals[0] / 4 * 1.2
        assert residuals[2] <= residuals[1] / 4 * 1.2


# -------------------------------------------------------------- combined

# the exact report.json schema: a new dataclass field must show up here first
BOUNDS_KEYS = {"norm_ratios", "norm_ok", "positivity_min", "positivity_ok",
               "norm_tolerance", "positivity_tolerance", "passed"}
ENERGY_KEYS = {"lhs", "rhs", "relative_mismatch", "bound", "bound_ok",
               "final_norm_ratio", "final_norm_ok", "integral_norm_ratio",
               "integral_norm_ok", "bound_tolerance", "passed"}
THRESHOLD_KEYS = {"applicable", "s0", "lipschitz", "lipschitz_exact", "c_omega",
                  "product", "met", "lambda1_continuous", "lambda1_discrete"}


def test_verify_all_bundles_and_serializes():
    grid, lap, report = solve_on(99, 200, catalog("quadratic"),
                                 lambda x: 0.5 * np.sin(math.pi * x))
    out = verify_all(report, catalog("quadratic"), lap)
    assert out.passed
    d = out.to_dict()
    assert set(d) == {"solution_bounds", "energy", "elliptic", "passed"}
    assert d["solution_bounds"]["norm_ok"] == {"2": True, "inf": True}
    assert isinstance(d["energy"]["relative_mismatch"], float)
    assert isinstance(d["elliptic"]["relative_residual"], float)

    flat = Potential("flat", lambda s: np.zeros_like(s), nonnegative=True,
                     lipschitz_estimable=False)
    for phi in (catalog("quadratic"), flat):
        grid, lap, report = solve_on(19, 20, phi, lambda x: 0.5 * np.sin(math.pi * x))
        d = verify_all(report, phi, lap).to_dict()
        assert set(d["solution_bounds"]) == BOUNDS_KEYS
        assert set(d["solution_bounds"]["norm_ratios"]) == {"2", "inf"}
        assert set(d["energy"]) == ENERGY_KEYS
        assert set(d["elliptic"]) == {"relative_residual"}
        threshold = report.threshold.to_dict()
        assert set(threshold) == THRESHOLD_KEYS
        if phi is flat:
            assert threshold["applicable"] is threshold["lipschitz_exact"] is False
            assert threshold["lipschitz"] is threshold["product"] is threshold["met"] is None
        else:
            assert threshold["applicable"] is threshold["lipschitz_exact"] is True
            assert threshold["met"] is (threshold["product"] < 1.0)
        json.dumps([d, threshold], allow_nan=False)  # serializable as stored
