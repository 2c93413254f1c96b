import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from nonlocal_heat import (
    EvaluationError,
    EvolutionConfig,
    Field,
    Grid,
    PicardConfig,
    Potential,
    assemble,
    catalog,
    norm_lp,
    phi_map,
    picard_solve,
    trapezoid_time_integral,
    uniqueness_probe,
    uniqueness_threshold,
)

GRID = Grid((1.0,), (99,))
LAP = assemble(GRID)
ECFG = EvolutionConfig(T=0.1, steps=250)


def sine_datum(amplitude=1.0):
    return Field.from_function(GRID, lambda x: amplitude * np.sin(math.pi * x))


# --------------------------------------------------------------- picard

def test_picard_config_validation():
    with pytest.raises(ValueError):
        PicardConfig(tol=0.0)
    with pytest.raises(ValueError):
        PicardConfig(max_iter=0)
    with pytest.raises(ValueError):
        PicardConfig(damping=0.0)
    with pytest.raises(ValueError):
        PicardConfig(damping=1.5)
    with pytest.raises(ValueError):
        PicardConfig(initial_guess="nonsense")


def test_zero_datum_converges_in_one_iteration():
    report = picard_solve(LAP, catalog("quadratic"), Field.zeros(GRID), ECFG)
    assert report.converged
    assert report.iterations == 1
    assert np.all(report.uT.values == 0.0)
    assert report.residual_history == [0.0]


def test_constant_potential_converges_in_exactly_two_iterations():
    # the map ignores its argument, so the second update is zero
    report = picard_solve(LAP, catalog("constant", [1.0]), sine_datum(), ECFG)
    assert report.converged
    assert report.iterations == 2
    assert report.residual_history[-1] <= 1e-14
    assert report.contraction_estimates == [0.0]  # the map's Lipschitz quotient

    rng = np.random.default_rng(23)
    guess = Field(GRID, rng.uniform(-0.1, 0.1, GRID.num_nodes))
    report2 = picard_solve(
        LAP, catalog("constant", [1.0]), sine_datum(), ECFG,
        PicardConfig(initial_guess=guess),
    )
    assert report2.converged and report2.iterations == 2
    assert np.allclose(report.uT.values, report2.uT.values, rtol=0, atol=1e-15)


def test_first_sweep_is_the_damped_step():
    # no history yet: v1 = v0 + damping * (Phi(v0) - v0); the residual
    # ||Phi(v0) - v0|| / ||v0|| does not depend on the damping
    phi, u0 = catalog("quadratic"), sine_datum(0.5)
    pcfg = PicardConfig(initial_guess="scaled_datum", max_iter=1)
    v0 = ECFG.T * u0
    g0, _ = phi_map(LAP, phi, u0, v0, ECFG)
    for damping in (1.0, 0.5):
        report = picard_solve(LAP, phi, u0, ECFG, replace(pcfg, damping=damping))
        step = v0.values + damping * (g0.values - v0.values)
        assert report.iterate_max_norms[1] == pytest.approx(np.abs(step).max(), rel=1e-15)
        assert report.residual_history == [norm_lp(g0 - v0, 2) / norm_lp(v0, 2)]


def test_limit_matches_scipy_anderson_oracle():
    # an independent Anderson implementation on F(v) = Phi(v) - v
    grid = Grid((1.0,), (31,))
    lap = assemble(grid)
    u0 = Field.from_function(grid, lambda x: 20.0 * np.sin(math.pi * x))
    ecfg = EvolutionConfig(T=1.0, steps=100)
    phi = catalog("quadratic")

    def residual(v):
        image, _ = phi_map(lap, phi, u0, Field(grid, v), ecfg)
        return image.values - v

    oracle = scipy.optimize.anderson(residual, np.zeros(grid.num_nodes), M=5, f_tol=1e-13)
    report = picard_solve(lap, phi, u0, ecfg)
    assert report.converged
    assert np.linalg.norm(report.uT.values - oracle) <= 1e-8 * np.linalg.norm(oracle)


def test_hard_probe_map_evaluation_budget():
    # shaped like the benchmark's probe_hard_1d: plain Picard took 1,144
    # map evaluations over the five starts, Anderson mixing takes 57
    grid = Grid((1.0,), (99,))
    u0 = Field.from_function(grid, lambda x: 60.0 * np.sin(math.pi * x))
    ecfg = EvolutionConfig(T=1.0, steps=400, store_every=400)
    probe = uniqueness_probe(assemble(grid), catalog("quadratic"), u0, ecfg,
                             PicardConfig(max_iter=300), n_starts=5, seed=0)
    assert probe.all_converged
    assert probe.max_pairwise_relative <= 1e-8
    assert sum(run.iterations for run in probe.runs) <= 75


def test_mixed_iterate_overflow_is_a_numerical_failure(monkeypatch):
    # a non-finite mixing coefficient ends the run with EvaluationError (CLI
    # exit 5), not with a non-finite Field raising ValueError
    def unbounded(a, b, rcond):
        return np.full(a.shape[1], np.inf), None, None, None

    monkeypatch.setattr(np.linalg, "lstsq", unbounded)
    with pytest.raises(EvaluationError, match="mixed iterate"):
        picard_solve(LAP, catalog("quadratic"), sine_datum(0.5), ECFG)


def test_report_integral_matches_trajectory():
    report = picard_solve(LAP, catalog("quadratic"), sine_datum(0.5), ECFG)
    traj = report.trajectory
    recomputed = trapezoid_time_integral(
        [(t, traj.state(k)) for k, t in enumerate(traj.times)]
    )
    assert norm_lp(report.uT - recomputed, 2) <= 1e-13 * norm_lp(recomputed, 2)


def test_streamed_solve_matches_stored_in_constant_memory():
    # n=199, K=20000: a stored trajectory would be 32 MB; the streamed map
    # keeps u0, u_K and one reduction block of at most 1 MiB
    grid = Grid((1.0,), (199,))
    lap = assemble(grid)
    u0 = Field.from_function(grid, lambda x: 0.5 * np.sin(math.pi * x))
    stored = picard_solve(lap, catalog("quadratic"), u0,
                          EvolutionConfig(T=0.1, steps=20000))
    tracemalloc.start()
    try:
        streamed = picard_solve(lap, catalog("quadratic"), u0,
                                EvolutionConfig(T=0.1, steps=20000, store_every=20000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert streamed.converged and stored.converged
    assert streamed.trajectory.num_samples == 2
    assert np.array_equal(streamed.uT.values, stored.uT.values)
    assert streamed.residual_history == stored.residual_history
    assert peak <= 2 * 2**20


def test_quadratic_small_data_vs_tol_refined_oracle():
    u0 = sine_datum(0.5)
    report = picard_solve(LAP, catalog("quadratic"), u0, ECFG)
    assert report.converged
    oracle = picard_solve(
        LAP, catalog("quadratic"), u0, ECFG, PicardConfig(tol=1e-13)
    )
    rel = norm_lp(report.uT - oracle.uT, 2) / norm_lp(oracle.uT, 2)
    assert rel <= 1e-8
    # a 10x finer time step shifts uT only at the discretization order
    fine = picard_solve(
        LAP, catalog("quadratic"), u0, EvolutionConfig(T=0.1, steps=2500)
    )
    rel_dt = norm_lp(report.uT - fine.uT, 2) / norm_lp(fine.uT, 2)
    assert rel_dt <= 1e-3


def test_ball_invariance_of_iterates():
    u0 = sine_datum(0.8)
    report = picard_solve(LAP, catalog("quadratic"), u0, ECFG)
    s0 = ECFG.T * norm_lp(u0, math.inf)
    assert report.s0 == pytest.approx(s0)
    assert all(v <= s0 * (1 + 1e-10) for v in report.iterate_max_norms)


def test_damping_consistency():
    u0 = sine_datum(0.5)
    phi = catalog("quadratic")
    undamped = picard_solve(LAP, phi, u0, ECFG, PicardConfig(damping=1.0))
    damped = picard_solve(LAP, phi, u0, ECFG, PicardConfig(damping=0.5))
    assert undamped.converged and damped.converged
    rel = norm_lp(undamped.uT - damped.uT, 2) / norm_lp(undamped.uT, 2)
    assert rel <= 10 * 1e-10


def test_fixed_point_residual_on_reevaluation():
    u0 = sine_datum(0.5)
    phi = catalog("quadratic")
    report = picard_solve(LAP, phi, u0, ECFG)
    uT_again, _ = phi_map(LAP, phi, u0, report.uT, ECFG)
    rel = norm_lp(uT_again - report.uT, 2) / norm_lp(report.uT, 2)
    assert rel <= 2 * 1e-10


def test_contraction_tail_below_one_in_small_data_regime():
    u0 = sine_datum(0.5)
    report = picard_solve(LAP, catalog("quadratic"), u0, ECFG)
    assert report.threshold is not None and report.threshold.product < 1.0
    tail = report.contraction_estimates[-5:]
    assert tail and all(r < 1.0 for r in tail)


def test_non_convergence_is_reported_not_raised():
    report = picard_solve(
        LAP, catalog("quadratic"), sine_datum(), ECFG,
        PicardConfig(max_iter=1),
    )
    assert not report.converged
    assert report.iterations == 1
    assert report.residual_history[0] > 1e-10


def test_scaled_datum_initial_guess():
    u0 = sine_datum(0.5)
    report = picard_solve(
        LAP, catalog("quadratic"), u0, ECFG,
        PicardConfig(initial_guess="scaled_datum"),
    )
    assert report.converged
    assert report.iterate_max_norms[0] == pytest.approx(ECFG.T * norm_lp(u0, math.inf))


# ------------------------------------------------------------ threshold

def test_threshold_constant_potential_always_met():
    thr = uniqueness_threshold(catalog("constant", [5.0]), sine_datum(), GRID, 0.1)
    assert thr.applicable
    assert thr.lipschitz == 0.0
    assert thr.product == 0.0
    assert thr.met is True


def test_threshold_unit_interval_poincare_constant():
    thr = uniqueness_threshold(catalog("quadratic"), sine_datum(), GRID, 0.1)
    assert thr.c_omega == pytest.approx(1.0 / math.pi**2)
    assert thr.c_omega == pytest.approx(0.101321, abs=1e-6)
    assert thr.lambda1_discrete < thr.lambda1_continuous


def test_threshold_quadratic_arithmetic():
    u0 = sine_datum(1.0)  # sup norm 1 up to sampling
    thr = uniqueness_threshold(catalog("quadratic"), u0, GRID, 0.1)
    sup = norm_lp(u0, math.inf)
    assert thr.s0 == pytest.approx(0.1 * sup)
    assert thr.lipschitz == pytest.approx(0.2 * sup)
    assert thr.product == pytest.approx(0.1 * sup * 0.2 * sup / math.pi**2)
    assert thr.product == pytest.approx(0.002026, abs=2e-4)


def test_threshold_rectangle_eigenvalue():
    grid = Grid((1.0, 2.0), (5, 5))
    u0 = Field.constant(grid, 1.0)
    thr = uniqueness_threshold(catalog("quadratic"), u0, grid, 1.0)
    assert thr.lambda1_continuous == pytest.approx(math.pi**2 * (1.0 + 0.25))


def test_threshold_not_applicable_without_modulus():
    rough = Potential(name="rough", evaluator=np.sign, lipschitz_estimable=False)
    thr = uniqueness_threshold(rough, sine_datum(), GRID, 0.1)
    assert not thr.applicable
    assert thr.product is None and thr.lipschitz is None
    assert thr.met is None


# ---------------------------------------------------------------- probe

def test_probe_zero_datum():
    probe = uniqueness_probe(
        LAP, catalog("quadratic"), Field.zeros(GRID), ECFG, n_starts=3, seed=1
    )
    assert probe.all_converged
    assert probe.max_pairwise_distance == 0.0


def test_probe_constant_potential_identical_limits():
    probe = uniqueness_probe(
        LAP, catalog("constant", [2.0]), sine_datum(), ECFG, n_starts=4, seed=2
    )
    assert probe.all_converged
    assert probe.max_pairwise_distance <= 1e-12


def test_probe_small_data_unique_fixed_point():
    probe = uniqueness_probe(
        LAP, catalog("quadratic"), sine_datum(0.5), ECFG, n_starts=5, seed=3
    )
    assert probe.all_converged
    assert probe.max_pairwise_relative <= 1e-8
    assert probe.start_kinds == ["zero", "scaled_datum", "random_0", "random_1", "random_2"]


def test_probe_requires_two_starts():
    with pytest.raises(ValueError):
        uniqueness_probe(LAP, catalog("zero"), sine_datum(), ECFG, n_starts=1)


def test_probe_seed_reproducibility():
    a = uniqueness_probe(LAP, catalog("quadratic"), sine_datum(0.5), ECFG, n_starts=4, seed=7)
    b = uniqueness_probe(LAP, catalog("quadratic"), sine_datum(0.5), ECFG, n_starts=4, seed=7)
    for ra, rb in zip(a.runs, b.runs):
        assert np.array_equal(ra.uT.values, rb.uT.values)
    assert a.max_pairwise_distance == b.max_pairwise_distance


def test_probe_named_starts_match_picard_solve():
    phi, u0 = catalog("quadratic"), sine_datum(0.5)
    probe = uniqueness_probe(LAP, phi, u0, ECFG, n_starts=3, seed=4)
    for kind, run in zip(probe.start_kinds[:2], probe.runs):
        alone = picard_solve(LAP, phi, u0, ECFG, PicardConfig(initial_guess=kind))
        assert np.array_equal(run.uT.values, alone.uT.values)
        assert run.residual_history == alone.residual_history
