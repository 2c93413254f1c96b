import math
import random
import tracemalloc
from types import SimpleNamespace

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
    SolverFailure,
    assemble,
    catalog,
    evolve,
    norm_lp,
    phi_map,
    picard_solve,
    uniqueness_probe,
    uniqueness_threshold,
)
from nonlocal_heat import evolution, fixedpoint
from conftest import trapezoid_time_integral

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
    with pytest.raises(TypeError):  # a start is a field passed to picard_solve
        PicardConfig(initial_guess="zero")
    with pytest.raises(ValueError, match="the start lives on Grid"):
        picard_solve(LAP, catalog("zero"), sine_datum(), ECFG,
                     start=Field.zeros(Grid((1.0,), (98,))))


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
    report2 = picard_solve(LAP, catalog("constant", [1.0]), sine_datum(), ECFG, start=guess)
    assert report2.converged and report2.iterations == 2
    assert np.allclose(report.uT.values, report2.uT.values, rtol=0, atol=1e-15)


def test_reported_sweep_is_stepped_and_closed_form_sweeps_send_no_states():
    # the first sweep from the zero start freezes the constant phi(0), so it
    # is formed in the sine basis, and the later ones, whose potential is
    # not constant, by Lanczos: the sink sees only the re-step of the last
    # input, whose integral is the reported uT
    u0, phi = sine_datum(0.5), catalog("quadratic")
    starts, inputs = [], []

    def recording(lap, phi, u0, vT, cfg, sink=None, spectral=False):
        inputs.append(vT)
        return phi_map(lap, phi, u0, vT, cfg, sink=sink, spectral=spectral)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fixedpoint, "phi_map", recording)
        report = picard_solve(LAP, phi, u0, ECFG, sink=lambda start, block: starts.append(start))
    assert report.iterations >= 3 and starts.count(0) == 1
    assert len(inputs) == report.iterations + 1 and inputs[-1] is inputs[-2]
    stepped, trajectory = phi_map(LAP, phi, u0, inputs[-1], ECFG)
    assert np.array_equal(report.uT.values, stepped.values)
    assert report.trajectory.bounds == trajectory.bounds

    # a constant potential: both sweeps are closed-form, and the input of the
    # last is stepped once more for the reported uT, trajectory and states
    starts = []
    report = picard_solve(LAP, catalog("constant", [1.0]), u0, ECFG,
                          sink=lambda start, block: starts.append(start))
    assert report.iterations == 2 and starts.count(0) == 1
    stepped = evolve(LAP, Field.constant(GRID, 1.0), u0, ECFG)
    assert np.array_equal(report.uT.values, stepped.integral)
    assert np.array_equal(report.trajectory.final().values, stepped.final().values)
    assert report.trajectory.bounds == stepped.bounds

    # max_iter = 1: the one closed-form sweep's input, zero, is stepped
    report = picard_solve(LAP, phi, u0, ECFG, PicardConfig(max_iter=1))
    assert report.iterations == 1 and not report.converged
    stepped, _ = phi_map(LAP, phi, u0, Field.zeros(GRID), ECFG)
    assert np.array_equal(report.uT.values, stepped.values)


def test_2d_solve_steps_only_its_reported_sweep(monkeypatch):
    # 31 x 31, K = 200: every sweep is closed-form (the first in the sine
    # basis, the others by Lanczos within 200 // 40 = 5 vectors), so evolve
    # runs once, for the re-step of the last input, which is the reported
    # sweep; 4 map evaluations, as when the 2D Lanczos sweeps were stepped
    grid = Grid((1.0, 1.0), (31, 31))
    lap, phi, ecfg = assemble(grid), catalog("quadratic"), EvolutionConfig(T=0.1, steps=200)
    u0 = Field.from_function(grid, lambda x, y: 2.0 * np.sin(math.pi * x) * np.sin(math.pi * y))
    starts, inputs, evolved = [], [], []

    def recording(lap, phi, u0, vT, cfg, sink=None, spectral=False):
        inputs.append(vT)
        return phi_map(lap, phi, u0, vT, cfg, sink=sink, spectral=spectral)

    def counted(*args, **kwargs):
        evolved.append(args)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(fixedpoint, "phi_map", recording)
    monkeypatch.setattr(evolution, "evolve", counted)
    report = picard_solve(lap, phi, u0, ecfg, sink=lambda start, block: starts.append(start))
    assert report.converged and report.iterations == 4
    assert starts.count(0) == 1 and len(evolved) == 1
    assert len(inputs) == 5 and inputs[-1] is inputs[-2]
    stepped, trajectory = phi_map(lap, phi, u0, inputs[-1], ecfg)
    assert np.array_equal(report.uT.values, stepped.values)
    assert report.trajectory.bounds == trajectory.bounds


def test_failure_of_the_reported_sweep_names_the_last_evaluation(monkeypatch):
    def failing_stepped(*args, spectral=False, **kwargs):
        if not spectral:
            raise SolverFailure("the stepped sweep fails")
        return phi_map(*args, spectral=spectral, **kwargs)

    monkeypatch.setattr(fixedpoint, "phi_map", failing_stepped)
    with pytest.raises(SolverFailure, match="stepped") as raised:
        picard_solve(LAP, catalog("constant", [1.0]), sine_datum(), ECFG)
    assert raised.value.iteration == 2 and len(raised.value.residual_history) == 1


def test_zero_start_first_residual_is_relative_to_the_map_output():
    # ||v0|| = 0, so ||Phi(v0)|| is the denominator and the first residual
    # reads 1, not ||Phi(v0)|| divided by the floor
    report = picard_solve(LAP, catalog("quadratic"), sine_datum(0.5), ECFG)
    assert report.converged
    assert report.residual_history[0] == 1.0


def test_first_sweep_is_the_damped_step():
    # no history yet: v1 = v0 + damping * (Phi(v0) - v0); the residual
    # ||Phi(v0) - v0|| / max(||v0||, ||Phi(v0)||) does not depend on the damping
    phi, u0 = catalog("quadratic"), sine_datum(0.5)
    v0 = ECFG.T * u0
    g0, _ = phi_map(LAP, phi, u0, v0, ECFG, spectral=True)
    for damping in (1.0, 0.5):
        report = picard_solve(LAP, phi, u0, ECFG, PicardConfig(max_iter=1, damping=damping),
                              start=v0)
        step = v0.values + damping * (g0.values - v0.values)
        assert report.iterate_max_norms[1] == pytest.approx(np.abs(step).max(), rel=1e-15)
        scale = max(norm_lp(v0, 2), norm_lp(g0, 2))
        assert report.residual_history == [norm_lp(g0 - v0, 2) / scale]


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
    ecfg = EvolutionConfig(T=1.0, steps=400)
    probe = uniqueness_probe(assemble(grid), catalog("quadratic"), u0, ecfg,
                             PicardConfig(max_iter=300), n_starts=5, seed=0)
    assert probe.all_converged
    assert probe.max_pairwise_relative <= 1e-8
    assert sum(run.iterations for run in probe.runs) <= 75


def test_hard_probe_lanczos_sweeps_match_stepping(monkeypatch):
    # the same probe: every sweep but the zero start's first freezes a
    # non-constant potential and is formed by Lanczos (at most 400 // 40 = 10
    # vectors), each within 2e-13 of stepping (worst seen 8e-14); stopping at
    # the first change below LANCZOS_RTOL left one sweep 6.9e-13 away
    errors = []
    closed_form = evolution._spectral_integral

    def compared(lap, w, u0, cfg):
        integral = closed_form(lap, w, u0, cfg)
        if integral is not None and np.ptp(w) > 0.0:
            stepped = evolve(lap, Field(lap.grid, w), Field(lap.grid, u0), cfg).integral
            errors.append(np.linalg.norm(integral - stepped) / np.linalg.norm(stepped))
        return integral

    monkeypatch.setattr(evolution, "_spectral_integral", compared)
    grid = Grid((1.0,), (99,))
    u0 = Field.from_function(grid, lambda x: 60.0 * np.sin(math.pi * x))
    probe = uniqueness_probe(assemble(grid), catalog("quadratic"), u0,
                             EvolutionConfig(T=1.0, steps=400), PicardConfig(max_iter=300),
                             n_starts=5, seed=0)
    assert sum(run.iterations for run in probe.runs) == 57
    assert len(errors) == 56 and max(errors) <= 2e-13


@pytest.mark.parametrize("p", [2.0, math.inf])
@pytest.mark.parametrize("grid", [GRID, Grid((1.0, 3.0), (6, 5))], ids=["1d", "2d"])
@pytest.mark.parametrize("scale", [0.0, 1.0, 1e300, -1.7e308])
def test_picard_norms_on_raw_values_equal_norm_lp_bit_for_bit(p, grid, scale):
    # picard_solve's residual, contraction and sup norms skip the Field a
    # norm_lp call builds; they are the same numbers, also for the zero field
    # and for values whose squares overflow
    values = scale * np.random.default_rng(2).uniform(-1.0, 1.0, grid.num_nodes)
    assert fixedpoint._lp_norm(grid, values, p) == norm_lp(Field(grid, values), p)


def test_residual_overflow_is_a_numerical_failure(monkeypatch):
    # a map output and an iterate near the top of the float range with
    # opposite signs: Phi(v) - v overflows, which ends the run with
    # EvaluationError (CLI exit 5) before any norm is taken of it
    top = Field.constant(GRID, 1.5e308)
    monkeypatch.setattr(fixedpoint, "phi_map", lambda *args, **kwargs: (top, None))
    with pytest.raises(EvaluationError, match="residual") as raised:
        picard_solve(LAP, catalog("quadratic"), sine_datum(0.5), ECFG, start=-1.0 * top)
    assert raised.value.iteration == 1 and raised.value.residual_history == []


def test_mixed_iterate_overflow_is_a_numerical_failure(monkeypatch):
    # a non-finite mixing coefficient ends the run with EvaluationError (CLI
    # exit 5), not with a non-finite Field raising ValueError
    def unbounded(a, b, rcond):
        return np.full(a.shape[1], np.inf), None, None, None

    monkeypatch.setattr(np.linalg, "lstsq", unbounded)
    with pytest.raises(EvaluationError, match="mixed iterate") as raised:
        picard_solve(LAP, catalog("quadratic"), sine_datum(0.5), ECFG)
    # the first sweep has no history to mix; the second's iterate, for the
    # third evaluation, overflows
    assert raised.value.iteration == 3 and len(raised.value.residual_history) == 2


@pytest.mark.parametrize("error", [EvaluationError, SolverFailure])
def test_numerical_failure_carries_the_failing_evaluation(monkeypatch, error):
    reference = picard_solve(LAP, catalog("quadratic"), sine_datum(0.5), ECFG)
    assert reference.iterations >= 4
    calls = []

    def failing_fourth(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise error("the fourth evaluation fails")
        return phi_map(*args, **kwargs)

    monkeypatch.setattr(fixedpoint, "phi_map", failing_fourth)
    with pytest.raises(error, match="fourth") as raised:
        picard_solve(LAP, catalog("quadratic"), sine_datum(0.5), ECFG)
    assert raised.value.iteration == 4
    assert raised.value.residual_history == reference.residual_history[:3]


@pytest.mark.parametrize("grid, steps", [(GRID, 250), (Grid((1.0, 1.0), (63, 63)), 200)],
                         ids=["1d", "2d"])
def test_last_iterate_max_norm_is_the_reported_integrals(grid, steps):
    # the converged sweep was formed without stepping and its input stepped
    # again; the list ends with the max norm of that stepped, reported uT
    u0 = Field.from_function(grid, lambda *xs: 0.5 * math.prod(np.sin(math.pi * x) for x in xs))
    report = picard_solve(assemble(grid), catalog("quadratic"), u0,
                          EvolutionConfig(T=0.1, steps=steps))
    assert report.converged
    assert report.iterate_max_norms[-1] == norm_lp(report.uT, math.inf)
    assert len(report.iterate_max_norms) == report.iterations + 1


def test_report_integral_matches_trajectory(collector):
    sink = collector(sine_datum(0.5))
    report = picard_solve(LAP, catalog("quadratic"), sine_datum(0.5), ECFG, sink=sink)
    recomputed = trapezoid_time_integral(
        [(k * ECFG.dt, Field(GRID, state)) for k, state in enumerate(sink.states)]
    )
    assert norm_lp(report.uT - recomputed, 2) <= 1e-13 * norm_lp(recomputed, 2)


def test_solve_in_constant_memory():
    # n=199, K=20000: a stored trajectory would be 32 MB; the streamed map
    # keeps u0, u_K and one reduction block of at most 1 MiB
    grid = Grid((1.0,), (199,))
    lap = assemble(grid)
    u0 = Field.from_function(grid, lambda x: 0.5 * np.sin(math.pi * x))
    tracemalloc.start()
    try:
        report = picard_solve(lap, catalog("quadratic"), u0,
                              EvolutionConfig(T=0.1, steps=20000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged
    assert report.trajectory.states.shape[0] == 2
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
    s0 = uniqueness_threshold(catalog("quadratic"), u0, ECFG.T).s0
    assert s0 == pytest.approx(ECFG.T * norm_lp(u0, math.inf))
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
    assert uniqueness_threshold(catalog("quadratic"), u0, ECFG.T).product < 1.0
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
    report = picard_solve(LAP, catalog("quadratic"), u0, ECFG, start=ECFG.T * u0)
    assert report.converged
    assert report.iterate_max_norms[0] == pytest.approx(ECFG.T * norm_lp(u0, math.inf))


# ------------------------------------------------------------ threshold

def test_threshold_constant_potential_always_met():
    thr = uniqueness_threshold(catalog("constant", [5.0]), sine_datum(), 0.1)
    assert thr.applicable
    assert thr.lipschitz == 0.0
    assert thr.product == 0.0
    assert thr.met is True


def test_threshold_unit_interval_poincare_constant():
    thr = uniqueness_threshold(catalog("quadratic"), sine_datum(), 0.1)
    assert thr.c_omega == pytest.approx(1.0 / math.pi**2)
    assert thr.c_omega == pytest.approx(0.101321, abs=1e-6)
    assert thr.lambda1_discrete < thr.lambda1_continuous


def test_threshold_quadratic_arithmetic():
    u0 = sine_datum(1.0)  # sup norm 1 up to sampling
    thr = uniqueness_threshold(catalog("quadratic"), u0, 0.1)
    sup = norm_lp(u0, math.inf)
    assert thr.s0 == pytest.approx(0.1 * sup)
    assert thr.lipschitz == pytest.approx(0.2 * sup)
    assert thr.product == pytest.approx(0.1 * sup * 0.2 * sup / math.pi**2)
    assert thr.product == pytest.approx(0.002026, abs=2e-4)


def test_threshold_rectangle_eigenvalue():
    grid = Grid((1.0, 2.0), (5, 5))
    u0 = Field.constant(grid, 1.0)
    thr = uniqueness_threshold(catalog("quadratic"), u0, 1.0)
    assert thr.lambda1_continuous == pytest.approx(math.pi**2 * (1.0 + 0.25))


def test_threshold_not_applicable_without_modulus():
    rough = Potential(name="rough", evaluator=np.sign)
    thr = uniqueness_threshold(rough, sine_datum(), 0.1)
    assert not thr.applicable
    assert thr.product is None and thr.lipschitz is None
    assert thr.met is None


def test_threshold_does_not_certify_sqrt_abs():
    # sqrt|s| has no finite Lipschitz constant at 0; sampled difference
    # quotients put it at 517.6 here, a product of 0.262 that looked certified
    grid = Grid((1.0,), (49,))
    u0 = Field.from_function(grid, lambda x: 0.05 * np.sin(math.pi * x))
    phi = Potential("sqrt_abs", lambda s: np.sqrt(np.abs(s)), nonnegative=True)
    report = picard_solve(assemble(grid), phi, u0, EvolutionConfig(T=0.1, steps=100))
    assert report.converged
    thr = uniqueness_threshold(phi, u0, 0.1)
    assert thr.applicable is False and thr.to_dict()["lipschitz_exact"] is False
    assert thr.lipschitz is None and thr.product is None and thr.met is None



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


def test_probe_random_starts_are_seeded_draws_in_the_s0_box(monkeypatch):
    # the starts picard_solve receives: one seed gives the same starts bit
    # for bit, another seed others, every entry lies in [-S0, S0), and a seed
    # that is not a nonnegative integer is refused (Random(-1) is Random(1))
    starts, solve = [], fixedpoint.picard_solve

    def recorded(*args, start, **kwargs):
        starts.append(start)
        return solve(*args, start=start, **kwargs)

    monkeypatch.setattr(fixedpoint, "picard_solve", recorded)
    u0 = sine_datum(0.5)
    s0 = ECFG.T * norm_lp(u0, math.inf)

    def random_starts(seed):
        starts.clear()
        uniqueness_probe(LAP, catalog("zero"), u0, ECFG, n_starts=5, seed=seed)
        return [start.values for start in starts[2:]]

    a, b, c = random_starts(0), random_starts(0), random_starts(1)
    assert len(a) == len(c) == 3
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not any(np.array_equal(x, y) for x, y in zip(a, c))
    assert not np.array_equal(a[0], a[1])
    for x in a + c:
        assert np.all((-s0 <= x) & (x < s0)) and x.min() < -0.9 * s0 and x.max() > 0.9 * s0
    for seed in (-1, 1.0):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            uniqueness_probe(LAP, catalog("zero"), u0, ECFG, seed=seed)


def test_probe_draws_each_random_start_as_its_run_begins(monkeypatch):
    # 31 draws per random start, made only when that start's run begins, so
    # a run that fails at the scaled_datum start leaves all three undrawn
    grid = Grid((1.0,), (31,))
    lap, u0 = assemble(grid), Field.from_function(grid, lambda x: 0.5 * np.sin(math.pi * x))
    draws, drawn_at_run = [], []

    class Counted(random.Random):
        def uniform(self, a, b):
            draws.append(None)
            return super().uniform(a, b)

    monkeypatch.setattr(fixedpoint, "random", SimpleNamespace(Random=Counted))
    solve = fixedpoint.picard_solve

    def recorded(*args, **kwargs):
        drawn_at_run.append(len(draws))
        return solve(*args, **kwargs)

    monkeypatch.setattr(fixedpoint, "picard_solve", recorded)
    uniqueness_probe(lap, catalog("quadratic"), u0, ECFG, n_starts=5, seed=3)
    assert drawn_at_run == [0, 0, 31, 62, 93]

    def failing_second(*args, **kwargs):
        drawn_at_run.append(len(draws))
        if len(drawn_at_run) == 2:
            raise SolverFailure("the scaled_datum run fails")
        return solve(*args, **kwargs)

    draws.clear()
    drawn_at_run.clear()
    monkeypatch.setattr(fixedpoint, "picard_solve", failing_second)
    with pytest.raises(SolverFailure) as raised:
        uniqueness_probe(lap, catalog("quadratic"), u0, ECFG, n_starts=5, seed=3)
    assert raised.value.start == "scaled_datum" and draws == []


def test_probe_named_starts_match_picard_solve():
    phi, u0 = catalog("quadratic"), sine_datum(0.5)
    probe = uniqueness_probe(LAP, phi, u0, ECFG, n_starts=3, seed=4)
    assert probe.start_kinds[:2] == ["zero", "scaled_datum"]
    for start, run in zip((None, ECFG.T * u0), probe.runs):
        alone = picard_solve(LAP, phi, u0, ECFG, start=start)
        assert np.array_equal(run.uT.values, alone.uT.values)
        assert run.residual_history == alone.residual_history
