"""Post-hoc checks of the provable identities on a converged run.

The norm and positivity bounds are measured by ``evolve`` on every state
as it is produced, whatever ``store_every`` keeps; the energy and
stationary checks share the stationary equation ``A uT = u0 - u(T)`` of the
converged integral, ``A = L + diag(phi(uT))``, evaluated once per check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .fixedpoint import FixedPointReport
from .laplacian import DirichletLaplacian
from .mesh import Field, inner_product, norm_lp
from .potential import Potential, nemytskii

NORM_TOL = 1e-10          # slack factor on norm non-expansivity
POSITIVITY_TOL = 1e-12    # absolute floor for trajectory positivity
BOUND_TOL = 1e-8          # slack factor on the energy/norm inequalities
EPS = 1e-300


@dataclass
class SolutionBoundsCheck:
    """Norm monotonicity and positivity over every state of the last sweep."""

    norm_ratios: dict[str, float]         # "2", "inf" -> max_k ||u_k||_p / ||u0||_p
    norm_ok: dict[str, bool]
    positivity_min: float | None          # None when u0 has negative entries
    positivity_ok: bool | None
    norm_tolerance: float = NORM_TOL
    positivity_tolerance: float = POSITIVITY_TOL

    @property
    def passed(self) -> bool:
        return all(self.norm_ok.values()) and self.positivity_ok is not False

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass
class EnergyCheck:
    """Discrete energy identity and the inequalities that bound it.

    ``lhs`` is ``<A uT, uT>`` with ``A = L + diag(phi(uT))``; ``rhs`` pairs
    the datum drop with the integral.  ``lhs - rhs`` is the stationary
    residual paired with ``uT``.  Only the relative mismatch is stored; the
    inequalities get hard flags.
    """

    lhs: float
    rhs: float
    relative_mismatch: float
    bound: float                # 2 T ||u0||_2^2
    bound_ok: bool
    final_norm_ratio: float     # ||u(T)||_2 / ||u0||_2
    final_norm_ok: bool
    integral_norm_ratio: float  # ||uT||_2 / (T ||u0||_2)
    integral_norm_ok: bool
    bound_tolerance: float = BOUND_TOL

    @property
    def passed(self) -> bool:
        return self.bound_ok and self.final_norm_ok and self.integral_norm_ok

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass
class EllipticCheck:
    """Relative residual of ``A uT = u0 - u(T)``, ``A = L + diag(phi(uT))``.

    The residual is all-discrete, so it has no h^2 part.  With
    ``A_w = L + diag(w)``, w the weight of the last sweep (``phi(uT)`` up
    to the Picard tolerance), summing every step, whatever ``store_every``
    keeps, gives ``A_w uT = u0 - uK + (dt/2) A_w (u0 - uK)`` for implicit
    Euler and ``A_w uT = u0 - uK`` for Crank-Nicolson.  The residual is therefore
    ``(dt/2)*||A_w (u0-uK)|| / ||u0-uK||`` plus O(tol) for implicit Euler,
    and O(tol) for Crank-Nicolson.  No fixed pass threshold.
    """

    relative_residual: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class VerificationReport:
    solution_bounds: SolutionBoundsCheck
    energy: EnergyCheck
    elliptic: EllipticCheck

    @property
    def passed(self) -> bool:
        return self.solution_bounds.passed and self.energy.passed

    def to_dict(self) -> dict:
        checks = {f.name: getattr(self, f.name).to_dict() for f in fields(self)}
        return {**checks, "passed": self.passed}


def check_solution_bounds(report: FixedPointReport) -> SolutionBoundsCheck:
    """Check ``max_k ||u_k||_p <= ||u0||_p`` for p = 2 and inf, and positivity.

    Reads the bounds ``evolve`` measured on every state of the last sweep;
    the results are keyed by p, ``"2"`` and ``"inf"``.
    """
    traj = report.trajectory
    bounds = traj.bounds
    u0 = traj.initial()
    worst_by_p = {
        "2": math.sqrt(u0.grid.cell_measure) * bounds.max_row_norm,
        "inf": bounds.max_abs,
    }
    ratios: dict[str, float] = {}
    for p, worst in worst_by_p.items():
        base = norm_lp(u0, float(p))
        ratios[p] = 0.0 if base == 0.0 and worst == 0.0 else worst / max(base, EPS)
    ok = {p: ratio <= 1.0 + NORM_TOL for p, ratio in ratios.items()}
    if np.all(u0.values >= 0.0):
        pos_min = bounds.min_value
        pos_ok = pos_min >= -POSITIVITY_TOL
    else:
        pos_min, pos_ok = None, None
    return SolutionBoundsCheck(ratios, ok, pos_min, pos_ok)


def _stationary_sides(
    report: FixedPointReport, phi: Potential, lap: DirichletLaplacian
) -> tuple[Field, Field, Field, float]:
    """``A uT``, ``u0 - u(T)`` and ``uT`` on the states divided by ``s``, and ``s``.

    ``s`` is the largest magnitude over ``u0``, ``u(T)`` and ``uT``, so no
    scaled state exceeds 1 and neither side of the equation overflows.
    """
    traj = report.trajectory
    states = (traj.initial(), traj.final(), report.uT)
    scale = max(max(norm_lp(field, math.inf) for field in states), EPS)
    u0, uK, uT = (field.values * (1.0 / scale) for field in states)
    w = nemytskii(phi, report.uT).values
    grid = report.uT.grid
    return (Field(grid, lap.apply_array(uT) + w * uT), Field(grid, u0 - uK),
            Field(grid, uT), scale)


def check_energy(report: FixedPointReport, phi: Potential) -> EnergyCheck:
    """Evaluate both sides of the energy identity and its upper bounds.

    Both sides pair the stationary equation's sides with ``uT`` on the
    states scaled by ``1/s`` and are compared there; the verdicts do not
    depend on ``s``.  The reported ``lhs`` and ``rhs`` are those values times
    ``s^2``, so a term beyond the floating-point range (states that grew, as
    Crank-Nicolson's may) reads as infinite.
    """
    traj = report.trajectory
    T = traj.T
    a_uT, drop, uT, scale = _stationary_sides(report, phi, DirichletLaplacian(report.uT.grid))
    lhs = inner_product(a_uT, uT)
    rhs = inner_product(drop, uT)
    mismatch = abs(lhs - rhs) / max(abs(rhs), EPS)

    # the norms and their ratios are overflow-safe unscaled
    u0_l2 = norm_lp(traj.initial(), 2)
    final_ratio = norm_lp(traj.final(), 2) / max(u0_l2, EPS)
    integral_ratio = norm_lp(report.uT, 2) / max(T * u0_l2, EPS)
    unit = u0_l2 / scale
    scaled_bound = 2.0 * T * unit * unit
    return EnergyCheck(
        lhs=scale * (scale * lhs),
        rhs=scale * (scale * rhs),
        relative_mismatch=mismatch,
        bound=2.0 * T * u0_l2 * u0_l2,
        bound_ok=lhs <= scaled_bound * (1.0 + BOUND_TOL) + EPS,
        final_norm_ratio=final_ratio,
        final_norm_ok=final_ratio <= 1.0 + BOUND_TOL,
        integral_norm_ratio=integral_ratio,
        integral_norm_ok=integral_ratio <= 1.0 + BOUND_TOL,
    )


def check_elliptic(
    report: FixedPointReport, phi: Potential, lap: DirichletLaplacian
) -> EllipticCheck:
    """Residual of the stationary equation satisfied by the time integral.

    Whatever ``store_every`` keeps, this is exactly the time-quadrature term
    ``(dt/2)*||A_w (u0-uK)|| / ||u0-uK||`` plus O(tol) for implicit Euler
    and O(tol) for Crank-Nicolson; it has no h^2 part (see EllipticCheck).
    It is taken on the scaled states, so it is finite wherever they are.
    """
    a_uT, drop, _, _ = _stationary_sides(report, phi, lap)
    rel = norm_lp(a_uT - drop, 2) / max(norm_lp(drop, 2), EPS)
    return EllipticCheck(relative_residual=rel)


def verify_all(
    report: FixedPointReport, phi: Potential, lap: DirichletLaplacian
) -> VerificationReport:
    """Run every check on a completed fixed-point report (norms 2 and inf)."""
    return VerificationReport(
        solution_bounds=check_solution_bounds(report),
        energy=check_energy(report, phi),
        elliptic=check_elliptic(report, phi, lap),
    )
