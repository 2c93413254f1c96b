"""Post-hoc checks of the provable identities on a converged run.

The norm and positivity bounds are measured by ``evolve`` on every state
as it is produced, whatever ``store_every`` keeps; the energy and
stationary checks recompute their quantities from ``u0``, ``u(T)`` and the
converged integral.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import laplacian as lap_mod
from .fixedpoint import FixedPointReport
from .laplacian import DirichletLaplacian
from .mesh import Field, h1_seminorm_sq, inner_product, norm_lp
from .potential import Potential, nemytskii

NORM_TOL = 1e-10          # slack factor on norm non-expansivity
POSITIVITY_TOL = 1e-12    # absolute floor for trajectory positivity
BOUND_TOL = 1e-8          # slack factor on the energy/norm inequalities
EPS = 1e-300


@dataclass
class SolutionBoundsCheck:
    """Norm monotonicity and positivity over every state of the last sweep."""

    norm_ratios: dict[float, float]        # p -> max_k ||u_k||_p / ||u0||_p
    norm_ok: dict[float, bool]
    positivity_min: float | None          # None when u0 has negative entries
    positivity_ok: bool | None
    norm_tolerance: float = NORM_TOL
    positivity_tolerance: float = POSITIVITY_TOL

    @property
    def passed(self) -> bool:
        return all(self.norm_ok.values()) and self.positivity_ok is not False

    def to_dict(self) -> dict:
        out = asdict(self)
        for name in ("norm_ratios", "norm_ok"):
            out[name] = {_p_key(p): v for p, v in out[name].items()}
        return {**out, "passed": self.passed}


@dataclass
class EnergyCheck:
    """Discrete energy identity and the inequalities that bound it.

    ``lhs`` is the H^1 seminorm square of the integral plus the potential
    term; ``rhs`` pairs the datum drop with the integral.  The two agree
    only in the refinement limit, so only the relative mismatch is stored;
    the inequalities get hard flags.
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
    """Relative residual of ``L uT + phi(uT) uT = u0 - u(T)``.

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


def _p_key(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:g}"


def check_solution_bounds(report: FixedPointReport) -> SolutionBoundsCheck:
    """Check ``max_k ||u_k||_p <= ||u0||_p`` for p = 2 and inf, and positivity.

    Reads the bounds ``evolve`` measured on every state of the last sweep;
    the results are keyed by p (``"2"`` and ``"inf"`` in ``to_dict``).
    """
    traj = report.trajectory
    bounds = traj.bounds
    u0 = traj.initial()
    worst_by_p = {
        2.0: math.sqrt(u0.grid.cell_measure * bounds.max_sum_sq),
        math.inf: bounds.max_abs,
    }
    ratios: dict[float, float] = {}
    for p, worst in worst_by_p.items():
        base = norm_lp(u0, p)
        ratios[p] = 0.0 if base == 0.0 and worst == 0.0 else worst / max(base, EPS)
    ok = {p: ratio <= 1.0 + NORM_TOL for p, ratio in ratios.items()}
    if np.all(u0.values >= 0.0):
        pos_min = traj.min_value()
        pos_ok = pos_min >= -POSITIVITY_TOL
    else:
        pos_min, pos_ok = None, None
    return SolutionBoundsCheck(ratios, ok, pos_min, pos_ok)


def check_energy(report: FixedPointReport, phi: Potential) -> EnergyCheck:
    """Evaluate both sides of the energy identity and its upper bounds."""
    traj = report.trajectory
    uT = report.uT
    u0 = traj.initial()
    uK = traj.final()
    T = traj.T
    meas = uT.grid.cell_measure

    phi_uT = nemytskii(phi, uT)
    lhs = h1_seminorm_sq(uT) + float(meas * np.sum(phi_uT.values * uT.values**2))
    rhs = inner_product(u0 - uK, uT)
    mismatch = abs(lhs - rhs) / max(abs(rhs), EPS)

    u0_l2 = norm_lp(u0, 2)
    bound = 2.0 * T * u0_l2 * u0_l2
    final_ratio = norm_lp(uK, 2) / max(u0_l2, EPS)
    integral_ratio = norm_lp(uT, 2) / max(T * u0_l2, EPS)
    return EnergyCheck(
        lhs=lhs,
        rhs=rhs,
        relative_mismatch=mismatch,
        bound=bound,
        bound_ok=lhs <= bound * (1.0 + BOUND_TOL) + EPS,
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
    """
    traj = report.trajectory
    uT = report.uT
    u0 = traj.initial()
    uK = traj.final()
    phi_uT = nemytskii(phi, uT)
    residual = (
        lap_mod.apply(lap, uT)
        + Field(uT.grid, phi_uT.values * uT.values)
        - (u0 - uK)
    )
    rel = norm_lp(residual, 2) / max(norm_lp(u0 - uK, 2), EPS)
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
