"""Post-hoc checks of the provable identities on a converged run.

They read only ``u0``, ``u(T)``, the integral ``uT`` and the state bounds
that ``evolve`` measured on every state as it was produced.  The energy
and stationary checks share the stationary equation ``A uT = u0 - u(T)``
of the converged integral, ``A = L + diag(phi(uT))``, which ``verify_all``
evaluates once for both.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .fixedpoint import FixedPointReport
from .laplacian import DirichletLaplacian
from .mesh import FLOOR, Field, inner_product, norm_lp
from .potential import Potential, nemytskii

NORM_TOL = 1e-10          # slack factor on norm non-expansivity
POSITIVITY_TOL = 1e-12    # absolute floor for trajectory positivity
BOUND_TOL = 1e-8          # slack factor on the energy/norm inequalities


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
    inequalities get hard flags.  Both sides are compared on the states
    scaled by ``1/s`` (see ``verify_all``), so the verdicts do not
    depend on ``s``; the stored ``lhs`` and ``rhs`` are those values times
    ``s^2``, so a term beyond the floating-point range (states that grew, as
    Crank-Nicolson's may) reads as infinite.
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
    to the Picard tolerance), summing every step gives
    ``A_w uT = u0 - uK + (dt/2) A_w (u0 - uK)`` for implicit
    Euler and ``A_w uT = u0 - uK`` for Crank-Nicolson.  The residual is therefore
    ``(dt/2)*||A_w (u0-uK)|| / ||u0-uK||`` plus O(tol) for implicit Euler,
    and O(tol) for Crank-Nicolson.  It is taken on the scaled states, so it
    is finite wherever they are.  No fixed pass threshold.
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


def verify_all(
    report: FixedPointReport, phi: Potential, lap: DirichletLaplacian
) -> VerificationReport:
    """Run every check on a completed fixed-point report.

    The solution bounds check ``max_k ||u_k||_p <= ||u0||_p`` for p = 2 and
    inf (keyed ``"2"`` and ``"inf"``) and positivity, from the bounds
    ``evolve`` measured on every state of the last sweep.  The energy and
    elliptic checks share one evaluation of the stationary sides ``A uT``
    and ``u0 - u(T)``, taken on ``u0``, ``u(T)`` and ``uT`` divided by
    ``s``, their largest magnitude, so no scaled state exceeds 1 and
    neither side of the equation overflows.
    """
    traj = report.trajectory
    T = traj.T
    bounds = traj.bounds
    u0, uK = traj.initial(), traj.final()
    worst_by_p = {
        "2": math.sqrt(u0.grid.cell_measure) * bounds.max_row_norm,
        "inf": bounds.max_abs,
    }
    ratios: dict[str, float] = {}
    for p, worst in worst_by_p.items():
        base = norm_lp(u0, float(p))
        ratios[p] = 0.0 if base == 0.0 and worst == 0.0 else worst / max(base, FLOOR)
    ok = {p: ratio <= 1.0 + NORM_TOL for p, ratio in ratios.items()}
    if np.all(u0.values >= 0.0):
        pos_min = bounds.min_value
        pos_ok = pos_min >= -POSITIVITY_TOL
    else:
        pos_min, pos_ok = None, None

    states = (u0, uK, report.uT)
    scale = max(max(norm_lp(field, math.inf) for field in states), FLOOR)
    s_u0, s_uK, s_uT = (field.values * (1.0 / scale) for field in states)
    w = nemytskii(phi, report.uT).values
    grid = report.uT.grid
    a_uT = Field(grid, lap.apply_array(s_uT) + w * s_uT)
    drop = Field(grid, s_u0 - s_uK)
    uT = Field(grid, s_uT)
    lhs = inner_product(a_uT, uT)
    rhs = inner_product(drop, uT)

    # the norms and their ratios are overflow-safe unscaled
    u0_l2 = norm_lp(u0, 2)
    final_ratio = norm_lp(uK, 2) / max(u0_l2, FLOOR)
    integral_ratio = norm_lp(report.uT, 2) / max(T * u0_l2, FLOOR)
    unit = u0_l2 / scale
    energy = EnergyCheck(
        lhs=scale * (scale * lhs),
        rhs=scale * (scale * rhs),
        relative_mismatch=abs(lhs - rhs) / max(abs(rhs), FLOOR),
        bound=2.0 * T * u0_l2 * u0_l2,
        bound_ok=lhs <= 2.0 * T * unit * unit * (1.0 + BOUND_TOL) + FLOOR,
        final_norm_ratio=final_ratio,
        final_norm_ok=final_ratio <= 1.0 + BOUND_TOL,
        integral_norm_ratio=integral_ratio,
        integral_norm_ok=integral_ratio <= 1.0 + BOUND_TOL,
    )
    rel = norm_lp(a_uT - drop, 2) / max(norm_lp(drop, 2), FLOOR)
    return VerificationReport(SolutionBoundsCheck(ratios, ok, pos_min, pos_ok), energy,
                              EllipticCheck(relative_residual=rel))
