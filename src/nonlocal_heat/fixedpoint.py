"""Anderson-mixed fixed-point iteration on the time integral.

The iterate is the trial time integral v; each sweep evaluates the map
once and mixes its output with the last ``ANDERSON_DEPTH`` inputs and
outputs by least squares (D. G. Anderson, J. ACM 12, 1965; Walker & Ni,
SIAM J. Numer. Anal. 49, 2011).  ``PicardConfig.damping`` is the mixing
weight; with no history (the first sweep) the update is the damped Picard
step ``v <- v + damping * (Phi(v) - v)``.  Existence comes from Schauder's
theorem, not from a contraction, so outside the small-data regime plain
Picard iteration may crawl or fail; non-convergence is a reported outcome,
never an exception.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .laplacian import DirichletLaplacian, dirichlet_lambda1, dirichlet_lambda1_discrete
from .mesh import Field, Grid, norm_lp
from .evolution import EvolutionConfig, Trajectory, phi_map
from .potential import EvaluationError, Potential, lipschitz_on

#: Floor for the relative-residual denominator (guards the zero fixed point).
RESIDUAL_FLOOR = 1e-300

RNG_NAME = "numpy-pcg64"

#: Number of past map inputs and outputs the Anderson mixing combines.
ANDERSON_DEPTH = 5

#: The accelerator, as ``report.json`` records it.
ACCELERATOR = {"method": "anderson", "depth": ANDERSON_DEPTH}


@dataclass(frozen=True)
class PicardConfig:
    tol: float = 1e-10
    max_iter: int = 200
    damping: float = 1.0
    initial_guess: str | Field = "zero"  # "zero" | "scaled_datum" | explicit Field

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if int(self.max_iter) != self.max_iter or self.max_iter < 1:
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter}")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        if not isinstance(self.initial_guess, Field) and self.initial_guess not in (
            "zero",
            "scaled_datum",
        ):
            raise ValueError(
                f"initial_guess must be 'zero', 'scaled_datum', or a Field, "
                f"got {self.initial_guess!r}"
            )


@dataclass(frozen=True)
class UniquenessThreshold:
    """Small-data uniqueness check: the product ``c(domain) * S0 * L(S0)``.

    ``c`` is the Poincare constant 1/lambda1 from the continuous first
    Dirichlet eigenvalue (slightly conservative: the discrete eigenvalue,
    reported alongside, is smaller).  ``applicable`` is False when the
    potential declares no usable Lipschitz modulus.
    """

    s0: float
    lipschitz: float | None
    c_omega: float
    product: float | None
    applicable: bool
    lipschitz_exact: bool
    lambda1_continuous: float
    lambda1_discrete: float

    @property
    def met(self) -> bool | None:
        if not self.applicable:
            return None
        return self.product < 1.0

    def to_dict(self) -> dict:
        return {**asdict(self), "met": self.met}


@dataclass
class FixedPointReport:
    """Outcome of one fixed-point run (converged or not)."""

    uT: Field
    trajectory: Trajectory
    iterations: int
    residual_history: list[float]
    contraction_estimates: list[float]
    converged: bool
    s0: float
    s0_l2: float
    threshold: UniquenessThreshold
    iterate_max_norms: list[float]
    damping: float
    tol: float

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
            "s0": self.s0,
            "s0_l2": self.s0_l2,
            "damping": self.damping,
            "accelerator": dict(ACCELERATOR),
            "tol": self.tol,
            "threshold": self.threshold.to_dict(),
        }


def _initial_iterate(pcfg: PicardConfig, u0: Field, T: float) -> Field:
    """The field a start names: ``"zero"``, ``"scaled_datum"`` (``T * u0``)
    or an explicit ``Field`` on the datum's grid."""
    guess = pcfg.initial_guess
    if isinstance(guess, Field):
        if guess.grid != u0.grid:
            raise ValueError("initial guess lives on a different grid")
        return guess
    if guess == "scaled_datum":
        return T * u0
    return Field.zeros(u0.grid)


def _norm(grid: Grid, values: np.ndarray, p: float = 2.0) -> float:
    return norm_lp(Field(grid, values), p)


def picard_solve(
    lap: DirichletLaplacian,
    phi: Potential,
    u0: Field,
    ecfg: EvolutionConfig,
    pcfg: PicardConfig | None = None,
) -> FixedPointReport:
    """Anderson-mixed fixed-point iteration on ``v = Phi(v)``.

    Sweep k evaluates ``g_k = Phi(v_k)`` once and forms ``f_k = g_k - v_k``.
    With ``dF``/``dG`` the last ``min(k, ANDERSON_DEPTH)`` differences of
    consecutive ``f``/``g``, ``gamma`` minimises ``||f_k - dF gamma||_2``
    (an SVD least-squares solve) and the next iterate is
    ``v_{k+1} = g_k - dG gamma - (1 - damping) (f_k - dF gamma)``.  The
    first sweep has no history, so it is the damped step
    ``v + damping * f``; with ``damping = 1`` it is ``Phi(v)`` itself.

    The iteration stops once ``||f_k||_2 / max(||v_k||_2, 1e-300) <= tol``
    or after ``max_iter`` map evaluations.  The reported ``uT`` is the map
    output of the final sweep, the trapezoidal integral over every step of
    the reported trajectory, whatever its ``store_every``.  Contraction
    estimates are the map's Lipschitz quotients along the iterates,
    ``||g_k - g_{k-1}||_2 / ||v_k - v_{k-1}||_2``.  An iterate that mixing
    drives out of floating-point range raises :class:`EvaluationError`.
    """
    pcfg = pcfg or PicardConfig()
    grid = u0.grid
    v = _initial_iterate(pcfg, u0, ecfg.T).values
    d_f, d_g = np.empty((2, ANDERSON_DEPTH, v.size))  # ring buffers of dF and dG

    residuals: list[float] = []
    lipschitz: list[float] = []
    sup_norms: list[float] = [_norm(grid, v, math.inf)]
    converged = False
    trajectory: Trajectory | None = None

    for k in range(pcfg.max_iter):
        trajectory = None  # free the last sweep's states before the next are made
        uT, trajectory = phi_map(lap, phi, u0, Field(grid, v), ecfg)
        g = uT.values
        f = g - v
        residuals.append(_norm(grid, f) / max(_norm(grid, v), RESIDUAL_FLOOR))
        if k > 0:
            slot = (k - 1) % ANDERSON_DEPTH
            np.subtract(f, f_prev, out=d_f[slot])
            np.subtract(g, g_prev, out=d_g[slot])
            lipschitz.append(_norm(grid, d_g[slot]) / max(_norm(grid, v - v_prev), RESIDUAL_FLOOR))
        if residuals[-1] <= pcfg.tol:
            converged = True
            sup_norms.append(_norm(grid, g, math.inf))
            break
        used = min(k, ANDERSON_DEPTH)
        # lstsq's default cutoff, eps * max(N, used), drops singular
        # directions of the history instead of amplifying them
        gamma = np.linalg.lstsq(d_f[:used].T, f, rcond=None)[0]
        v_prev, f_prev, g_prev = v, f, g
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            v = g - gamma @ d_g[:used] - (1.0 - pcfg.damping) * (f - gamma @ d_f[:used])
        if not np.all(np.isfinite(v)):
            raise EvaluationError("the mixed iterate overflowed")
        sup_norms.append(_norm(grid, v, math.inf))

    threshold = uniqueness_threshold(phi, u0, u0.grid, ecfg.T)
    return FixedPointReport(
        uT=uT,
        trajectory=trajectory,
        iterations=len(residuals),
        residual_history=residuals,
        contraction_estimates=lipschitz,
        converged=converged,
        s0=threshold.s0,
        s0_l2=ecfg.T * norm_lp(u0, 2),
        threshold=threshold,
        iterate_max_norms=sup_norms,
        damping=pcfg.damping,
        tol=pcfg.tol,
    )


def uniqueness_threshold(
    phi: Potential, u0: Field, grid: Grid, T: float
) -> UniquenessThreshold:
    """Evaluate ``c * S0 * L(S0)`` with ``S0 = T * max|u0|``.

    A product below 1 certifies that the converged integral is the unique
    fixed point; potentials without a Lipschitz modulus get an
    inapplicable marker instead of a guessed constant.
    """
    s0 = T * norm_lp(u0, math.inf)
    lam1 = dirichlet_lambda1(grid)
    c_omega = 1.0 / lam1
    lip = lipschitz_on(phi, s0) if phi.lipschitz_estimable else None
    return UniquenessThreshold(
        s0=s0,
        lipschitz=lip,
        c_omega=c_omega,
        product=None if lip is None else c_omega * s0 * lip,
        applicable=lip is not None,
        lipschitz_exact=lip is not None and phi.lipschitz_exact,
        lambda1_continuous=lam1,
        lambda1_discrete=dirichlet_lambda1_discrete(grid),
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
    generator: str

    def scalar_diagnostics(self) -> dict:
        return {
            "seed": self.seed,
            "generator": self.generator,
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
    """Run ``picard_solve`` from several initial guesses and compare the limits.

    Guesses are the zero field, the time-scaled datum, and seeded uniform
    random fields with entries in ``[-S0, S0]``.  Non-convergent starts are
    recorded, not fatal; distances only compare converged runs.
    """
    if n_starts < 2:
        raise ValueError(f"need at least 2 starts, got {n_starts}")
    pcfg = pcfg or PicardConfig()

    def run(guess: str | Field) -> FixedPointReport:
        return picard_solve(lap, phi, u0, ecfg, replace(pcfg, initial_guess=guess))

    kinds = ["zero", "scaled_datum"]
    runs = [run(kind) for kind in kinds]
    s0 = runs[0].threshold.s0
    rng = np.random.default_rng(seed)
    for i in range(n_starts - 2):
        values = rng.uniform(-s0, s0, u0.grid.num_nodes) if s0 > 0.0 else np.zeros(
            u0.grid.num_nodes
        )
        kinds.append(f"random_{i}")
        runs.append(run(Field(u0.grid, values)))

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
        max_pairwise_relative=max_dist / max(scale, RESIDUAL_FLOOR) if converged_uts else 0.0,
        all_converged=all(r.converged for r in runs),
        seed=seed,
        generator=RNG_NAME,
    )
