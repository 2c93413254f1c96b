"""Damped Picard iteration on the time-integral fixed point.

The iterate is the trial time integral v; each sweep evaluates the map
once and blends ``v <- (1-theta) v + theta Phi(v)``.  Non-convergence is a
reported outcome, never an exception: existence does not imply the
iteration contracts outside the small-data regime.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .laplacian import DirichletLaplacian, dirichlet_lambda1, dirichlet_lambda1_discrete
from .mesh import Field, Grid, norm_lp
from .evolution import EvolutionConfig, Trajectory, phi_map
from .potential import Potential, lipschitz_on

#: Floor for the relative-residual denominator (guards the zero fixed point).
RESIDUAL_FLOOR = 1e-300

RNG_NAME = "numpy-pcg64"


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
    """Outcome of one Picard run (converged or not)."""

    uT: Field
    trajectory: Trajectory
    iterations: int
    residual_history: list[float]
    contraction_estimates: list[float]
    converged: bool
    s0: float
    s0_l2: float
    threshold: UniquenessThreshold | None
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
            "tol": self.tol,
            "threshold": self.threshold.to_dict() if self.threshold else None,
        }


def _initial_iterate(pcfg: PicardConfig, u0: Field, T: float) -> Field:
    guess = pcfg.initial_guess
    if isinstance(guess, Field):
        if guess.grid != u0.grid:
            raise ValueError("initial guess lives on a different grid")
        return guess
    if guess == "scaled_datum":
        return T * u0
    return Field.zeros(u0.grid)


def picard_solve(
    lap: DirichletLaplacian,
    phi: Potential,
    u0: Field,
    ecfg: EvolutionConfig,
    pcfg: PicardConfig | None = None,
) -> FixedPointReport:
    """Iterate ``v <- (1-theta) v + theta Phi(v)`` until the relative update
    drops below ``tol`` or ``max_iter`` sweeps have run.

    Residuals are ``||v_next - v||_2 / max(||v||_2, 1e-300)``.  The reported
    ``uT`` is the map output of the final sweep, the trapezoidal integral
    over every step of the reported trajectory, whatever its
    ``store_every``; with no damping this is the final iterate itself.
    """
    pcfg = pcfg or PicardConfig()
    theta = pcfg.damping
    v = _initial_iterate(pcfg, u0, ecfg.T)

    residuals: list[float] = []
    sup_norms: list[float] = [norm_lp(v, math.inf)]
    converged = False
    uT = v
    trajectory: Trajectory | None = None

    for _ in range(pcfg.max_iter):
        trajectory = None  # free the last sweep's states before the next are made
        uT, trajectory = phi_map(lap, phi, u0, v, ecfg)
        v_next = uT if theta == 1.0 else (1.0 - theta) * v + theta * uT
        residual = norm_lp(v_next - v, 2) / max(norm_lp(v, 2), RESIDUAL_FLOOR)
        residuals.append(residual)
        sup_norms.append(norm_lp(v_next, math.inf))
        v = v_next
        if residual <= pcfg.tol:
            converged = True
            break

    if trajectory is None:  # max_iter >= 1, so the loop always ran
        raise AssertionError("Picard loop did not execute")

    ratios = [
        residuals[k + 1] / max(residuals[k], RESIDUAL_FLOOR)
        for k in range(len(residuals) - 1)
    ]
    threshold = uniqueness_threshold(phi, u0, u0.grid, ecfg.T)
    return FixedPointReport(
        uT=uT,
        trajectory=trajectory,
        iterations=len(residuals),
        residual_history=residuals,
        contraction_estimates=ratios,
        converged=converged,
        s0=ecfg.T * norm_lp(u0, math.inf),
        s0_l2=ecfg.T * norm_lp(u0, 2),
        threshold=threshold,
        iterate_max_norms=sup_norms,
        damping=theta,
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
    """Run Picard from several initial guesses and compare the limits.

    Guesses are the zero field, the time-scaled datum, and seeded uniform
    random fields with entries in ``[-S0, S0]``.  Non-convergent starts are
    recorded, not fatal; distances only compare converged runs.
    """
    if n_starts < 2:
        raise ValueError(f"need at least 2 starts, got {n_starts}")
    pcfg = pcfg or PicardConfig()
    s0 = ecfg.T * norm_lp(u0, math.inf)
    rng = np.random.default_rng(seed)

    guesses: list[tuple[str, Field]] = [
        ("zero", Field.zeros(u0.grid)),
        ("scaled_datum", ecfg.T * u0),
    ]
    for i in range(n_starts - 2):
        values = rng.uniform(-s0, s0, u0.grid.num_nodes) if s0 > 0.0 else np.zeros(
            u0.grid.num_nodes
        )
        guesses.append((f"random_{i}", Field(u0.grid, values)))

    runs = [
        picard_solve(lap, phi, u0, ecfg, replace(pcfg, initial_guess=guess))
        for _, guess in guesses
    ]

    converged_uts = [r.uT for r in runs if r.converged]
    max_dist = 0.0
    scale = max((norm_lp(u, 2) for u in converged_uts), default=0.0)
    for i in range(len(converged_uts)):
        for j in range(i + 1, len(converged_uts)):
            max_dist = max(max_dist, norm_lp(converged_uts[i] - converged_uts[j], 2))
    return ProbeReport(
        start_kinds=[kind for kind, _ in guesses],
        runs=runs,
        max_pairwise_distance=max_dist,
        max_pairwise_relative=max_dist / max(scale, RESIDUAL_FLOOR) if converged_uts else 0.0,
        all_converged=all(r.converged for r in runs),
        seed=seed,
        generator=RNG_NAME,
    )
