"""Anderson-mixed fixed-point iteration on the time integral.

The iterate is the trial time integral v; each sweep evaluates the map
once and mixes its output with the last ``ANDERSON_DEPTH`` inputs and
outputs by least squares (D. G. Anderson, J. ACM 12, 1965; Walker & Ni,
SIAM J. Numer. Anal. 49, 2011).  ``PicardConfig.damping`` is the mixing
weight; with no history (the first sweep) the update is the damped Picard
step ``v <- v + damping * (Phi(v) - v)``.  Existence comes from Schauder's
theorem, not from a contraction, so outside the small-data regime plain
Picard iteration may crawl or fail, and the start and the damping can
decide which of several fixed points a run reaches; non-convergence is a
reported outcome, never an exception.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .laplacian import (
    DirichletLaplacian, SolverFailure, dirichlet_lambda1, dirichlet_lambda1_discrete)
from .mesh import FLOOR, Field, _lp_norm, norm_lp
from .evolution import EvolutionConfig, Trajectory, phi_map
from .potential import EvaluationError, Potential

RNG_NAME = "python-mt19937"

#: Number of past map inputs and outputs the Anderson mixing combines.
ANDERSON_DEPTH = 5

#: The accelerator, as ``report.json`` records it.
ACCELERATOR = {"method": "anderson", "depth": ANDERSON_DEPTH}


@dataclass(frozen=True)
class PicardConfig:
    tol: float = 1e-10
    max_iter: int = 200
    damping: float = 1.0

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if int(self.max_iter) != self.max_iter or self.max_iter < 1:
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter}")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")


@dataclass(frozen=True)
class UniquenessThreshold:
    """Small-data uniqueness check: the product ``c(domain) * S0 * L(S0)``.

    ``c`` is the Poincare constant 1/lambda1 from the continuous first
    Dirichlet eigenvalue (slightly conservative: the discrete eigenvalue,
    reported alongside, is smaller).  ``L`` comes only from the potential's
    ``lipschitz_rule``; without one ``applicable`` is False and
    ``lipschitz``, ``product`` and ``met`` are None.  The report key
    ``lipschitz_exact`` equals ``applicable``.
    """

    s0: float
    lipschitz: float | None
    c_omega: float
    product: float | None
    applicable: bool
    lambda1_continuous: float
    lambda1_discrete: float

    @property
    def met(self) -> bool | None:
        if not self.applicable:
            return None
        return self.product < 1.0

    def to_dict(self) -> dict:
        return {**asdict(self), "lipschitz_exact": self.applicable, "met": self.met}


@dataclass
class FixedPointReport:
    """What one fixed-point run measured (converged or not); its inputs, and the
    problem's :func:`uniqueness_threshold`, stay with the caller."""

    uT: Field
    trajectory: Trajectory
    iterations: int
    residual_history: list[float]
    contraction_estimates: list[float]
    converged: bool
    iterate_max_norms: list[float]

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else math.nan

    def scalar_diagnostics(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "residual_history": self.residual_history,
            "contraction_estimates": self.contraction_estimates,
            "iterate_max_norms": self.iterate_max_norms,
            "accelerator": dict(ACCELERATOR),
        }


def _located(exc: Exception, residuals: list[float]) -> Exception:
    """``exc`` with the map evaluation it stopped and the residuals before it."""
    exc.iteration, exc.residual_history = len(residuals) + 1, list(residuals)
    return exc


def picard_solve(
    lap: DirichletLaplacian,
    phi: Potential,
    u0: Field,
    ecfg: EvolutionConfig,
    pcfg: PicardConfig | None = None,
    sink=None,
    start: Field | None = None,
) -> FixedPointReport:
    """Anderson-mixed fixed-point iteration on ``v = Phi(v)``.

    Sweep k evaluates ``g_k = Phi(v_k)`` once and forms ``f_k = g_k - v_k``.
    With ``dF``/``dG`` the last ``min(k, ANDERSON_DEPTH)`` differences of
    consecutive ``f``/``g``, ``gamma`` minimises ``||f_k - dF gamma||_2``
    (an SVD least-squares solve) and the next iterate is
    ``v_{k+1} = g_k - dG gamma - (1 - damping) (f_k - dF gamma)``.  The
    first sweep has no history, so it is the damped step
    ``v + damping * f``; with ``damping = 1`` it is ``Phi(v)`` itself.

    The iteration starts at ``start``, the zero field when None, and stops
    once ``||f_k||_2 / max(||v_k||_2, ||g_k||_2, FLOOR) <= tol`` or after
    ``max_iter`` map evaluations, so a first sweep from the zero start
    reports 1 for a nonzero map output; a start on another grid raises
    ``ValueError``.

    Each sweep is evaluated through ``phi_map``'s ``spectral``: a frozen
    potential that is a nonnegative constant, such as the first from the
    zero start, in the sine basis, and a nonnegative non-constant one by
    Lanczos, on either grid, without stepping and without passing states to
    ``sink``; the other sweeps are stepped.  Convergence is judged on the
    evaluated sweep.  The reported sweep is always stepped: if the last
    sweep was not, its input is stepped once more.  So the reported ``uT``
    is the trapezoidal integral over every step of the reported trajectory,
    the last states ``sink`` sees are that trajectory's (usually the only
    ones), and ``iterations`` counts the distinct inputs evaluated.
    Contraction estimates are the map's Lipschitz quotients along the iterates,
    ``||g_k - g_{k-1}||_2 / ||v_k - v_{k-1}||_2``, and ``iterate_max_norms``
    the max norms of the iterates ``v_k`` and then of the reported ``uT``
    (of the next iterate, when the run did not converge).  These norms are
    ``norm_lp``'s, bit for bit, taken on the raw arrays without building a
    :class:`Field` for each.  A residual ``g_k - v_k`` that overflows, and
    an iterate that mixing drives out of floating-point range, raise
    :class:`EvaluationError`.
    Such an error, or a :class:`SolverFailure`, leaves with two attributes:
    ``iteration``, the 1-based map evaluation that failed (for an overflow
    of the mixing, the one its iterate was for), and ``residual_history``,
    the residuals of the evaluations before it.
    The report holds only what the run measured, not the problem's threshold.
    """
    pcfg = pcfg or PicardConfig()
    grid = u0.grid
    if start is not None and start.grid != grid:
        raise ValueError(f"the start lives on {start.grid}, the datum on {grid}")
    v = Field.zeros(grid).values if start is None else start.values
    d_f, d_g = np.empty((2, ANDERSON_DEPTH, v.size))  # ring buffers of dF and dG

    residuals: list[float] = []
    lipschitz: list[float] = []
    sup_norms: list[float] = [_lp_norm(grid, v, math.inf)]
    converged = False
    for k in range(pcfg.max_iter):
        last = Field(grid, v)
        try:
            uT, trajectory = phi_map(lap, phi, u0, last, ecfg, sink=sink, spectral=True)
        except (EvaluationError, SolverFailure) as exc:
            raise _located(exc, residuals)
        g = uT.values
        with np.errstate(over="ignore"):  # checked below
            f = g - v
        if not np.all(np.isfinite(f)):
            raise _located(EvaluationError("the residual Phi(v) - v overflowed"), residuals)
        residuals.append(_lp_norm(grid, f) / max(_lp_norm(grid, v), _lp_norm(grid, g), FLOOR))
        if k > 0:
            slot = (k - 1) % ANDERSON_DEPTH
            np.subtract(f, f_prev, out=d_f[slot])
            np.subtract(g, g_prev, out=d_g[slot])
            lipschitz.append(_lp_norm(grid, d_g[slot]) / max(_lp_norm(grid, v - v_prev), FLOOR))
        if residuals[-1] <= pcfg.tol:
            converged = True
            break
        used = min(k, ANDERSON_DEPTH)
        # lstsq's default cutoff, eps * max(N, used), drops singular
        # directions of the history instead of amplifying them
        gamma = np.linalg.lstsq(d_f[:used].T, f, rcond=None)[0]
        v_prev, f_prev, g_prev = v, f, g
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            v = g - gamma @ d_g[:used] - (1.0 - pcfg.damping) * (f - gamma @ d_f[:used])
        if not np.all(np.isfinite(v)):
            raise _located(EvaluationError("the mixed iterate overflowed"), residuals)
        sup_norms.append(_lp_norm(grid, v, math.inf))

    if trajectory is None:  # the last sweep was not stepped: step its input
        try:
            uT, trajectory = phi_map(lap, phi, u0, last, ecfg, sink=sink)
        except (EvaluationError, SolverFailure) as exc:
            raise _located(exc, residuals[:-1])
    if converged:
        sup_norms.append(_lp_norm(grid, uT.values, math.inf))
    return FixedPointReport(
        uT=uT,
        trajectory=trajectory,
        iterations=len(residuals),
        residual_history=residuals,
        contraction_estimates=lipschitz,
        converged=converged,
        iterate_max_norms=sup_norms,
    )


def uniqueness_threshold(phi: Potential, u0: Field, T: float) -> UniquenessThreshold:
    """Evaluate ``c * S0 * L(S0)`` with ``S0 = T * max|u0|`` on ``u0``'s grid.

    A product below 1 certifies that the converged integral is the unique
    fixed point.  ``L`` is the value of the potential's exact
    ``lipschitz_rule``; a potential without one gets an inapplicable marker
    instead of a guessed constant.  ``L = 0`` gives a product of 0 even
    when ``S0`` exceeds the floating-point range.  A negative ``S0`` raises
    ``ValueError``.
    """
    s0 = T * norm_lp(u0, math.inf)
    if s0 < 0.0:
        raise ValueError(f"s0 must be nonnegative, got {s0}")
    lam1 = dirichlet_lambda1(u0.grid)
    c_omega = 1.0 / lam1
    lip = None if phi.lipschitz_rule is None else float(phi.lipschitz_rule(s0))
    product = None if lip is None else c_omega * s0 * lip
    if lip == 0.0:  # a constant map: an S0 beyond the float range must not give nan
        product = 0.0
    return UniquenessThreshold(
        s0=s0,
        lipschitz=lip,
        c_omega=c_omega,
        product=product,
        applicable=lip is not None,
        lambda1_continuous=lam1,
        lambda1_discrete=dirichlet_lambda1_discrete(u0.grid),
    )


@dataclass
class ProbeReport:
    """Multi-start agreement check on the converged integrals."""

    start_kinds: list[str]
    runs: list[FixedPointReport]
    max_pairwise_distance: float
    max_pairwise_relative: float
    all_converged: bool
    seed: int

    def scalar_diagnostics(self) -> dict:
        return {
            "seed": self.seed,
            "generator": RNG_NAME,
            "accelerator": dict(ACCELERATOR),
            "all_converged": self.all_converged,
            "max_pairwise_distance": self.max_pairwise_distance,
            "max_pairwise_relative": self.max_pairwise_relative,
            "starts": [
                {
                    "kind": kind,
                    "converged": run.converged,
                    "iterations": run.iterations,
                    "final_residual": run.final_residual,
                }
                for kind, run in zip(self.start_kinds, self.runs)
            ],
        }


def uniqueness_probe(
    lap: DirichletLaplacian,
    phi: Potential,
    u0: Field,
    ecfg: EvolutionConfig,
    pcfg: PicardConfig | None = None,
    n_starts: int = 5,
    seed: int = 0,
) -> ProbeReport:
    """Run ``picard_solve`` from several starts and compare the limits.

    The starts are the zero field, the time-scaled datum ``T * u0`` and
    random fields with entries ``S0 * U(-1, 1)``, ``S0 = T * max|u0|``, drawn
    node by node from ``random.Random(seed)``, so in ``[-S0, S0)``; a seed
    that is not a nonnegative integer raises ``ValueError``.
    A ``T * u0`` that overflows raises :class:`EvaluationError` before any
    run, and the random starts are then finite; each is drawn only as its
    run begins.  Non-convergent starts are recorded, not fatal;
    distances only compare converged runs.  A numerical failure in a run
    leaves with the attribute ``start``, the kind of its start, besides
    those ``picard_solve`` sets.
    """
    if n_starts < 2:
        raise ValueError(f"need at least 2 starts, got {n_starts}")
    if not isinstance(seed, numbers.Integral) or seed < 0:  # Random(-1) would be Random(1)
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    grid = u0.grid
    with np.errstate(over="ignore"):  # checked below
        scaled = ecfg.T * u0.values
    if not np.all(np.isfinite(scaled)):
        raise EvaluationError("the scaled datum T * u0 overflows")
    s0 = ecfg.T * norm_lp(u0, math.inf)
    rng = random.Random(int(seed))
    randoms = (Field(grid, s0 * np.array([rng.uniform(-1.0, 1.0) for _ in range(grid.num_nodes)]))
               for _ in range(n_starts - 2))

    kinds = ["zero", "scaled_datum"] + [f"random_{i}" for i in range(n_starts - 2)]
    runs = []
    for kind, start in zip(kinds, chain([Field.zeros(grid), Field(grid, scaled)], randoms)):
        try:
            runs.append(picard_solve(lap, phi, u0, ecfg, pcfg, start=start))
        except (EvaluationError, SolverFailure) as exc:
            exc.start = kind
            raise

    converged_uts = [r.uT for r in runs if r.converged]
    max_dist = 0.0
    scale = max((norm_lp(u, 2) for u in converged_uts), default=0.0)
    for i in range(len(converged_uts)):
        for j in range(i + 1, len(converged_uts)):
            max_dist = max(max_dist, norm_lp(converged_uts[i] - converged_uts[j], 2))
    return ProbeReport(
        start_kinds=kinds,
        runs=runs,
        max_pairwise_distance=max_dist,
        max_pairwise_relative=max_dist / max(scale, FLOOR) if converged_uts else 0.0,
        all_converged=all(r.converged for r in runs),
        seed=seed,
    )
