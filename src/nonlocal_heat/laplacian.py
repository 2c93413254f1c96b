"""Discrete Dirichlet Laplacian: assembly, application, and shifted solves.

The operator is the standard 3-point (1D) / 5-point (2D) stencil for
-Laplace with zero boundary values: diagonal ``sum_i 2/h_i^2``, off-diagonal
``-1/h_i^2`` toward axis neighbours, boundary neighbours dropped.  It is a
symmetric positive definite M-matrix, so ``I + tau*(L + diag(w))`` with
``w >= 0`` has a nonnegative inverse that is non-expansive in both the max
and the Euclidean norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .mesh import Field, Grid

_pttrf, _pttrs = get_lapack_funcs(("pttrf", "pttrs"), (np.empty(0, dtype=float),))

#: Relative residual target for the 2D conjugate-gradient solve.
CG_RTOL = 1e-10


class SolverFailure(RuntimeError):
    """A linear solve broke down: indefinite operator, non-finite data or CG budget."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class DirichletLaplacian:
    """Matrix-free stencil operator for -Laplace with zero boundary data.

    The stencil is built once; it is not a field, so ``==`` compares grids.
    """

    grid: Grid

    def __post_init__(self) -> None:
        coefficients = tuple(1.0 / h**2 for h in self.grid.h)
        axes = []
        for axis, c in enumerate(coefficients):
            before = (slice(None),) * axis
            axes.append((c, before + (slice(None, -1),), before + (slice(1, None),)))
        object.__setattr__(self, "_diagonal", sum(2.0 * c for c in coefficients))
        object.__setattr__(self, "_axes", tuple(axes))

    def apply_array(self, v: np.ndarray) -> np.ndarray:
        """Stencil product on a raw value array (implicit zero boundary):
        the diagonal, then each axis's lower and upper neighbour, axis 0 first."""
        V = v.reshape(self.grid.n)
        out = self._diagonal * V
        for c, lower, upper in self._axes:
            out[upper] -= c * V[lower]
            out[lower] -= c * V[upper]
        return out.ravel()


def assemble(grid: Grid) -> DirichletLaplacian:
    """Build the stencil operator for a grid."""
    return DirichletLaplacian(grid)


def dirichlet_lambda1(grid: Grid) -> float:
    """First Dirichlet eigenvalue of -Laplace on the continuous box."""
    return math.pi**2 * sum(1.0 / L**2 for L in grid.lengths)


def dirichlet_lambda1_discrete(grid: Grid) -> float:
    """Smallest eigenvalue of the stencil: ``sum_i (4/h_i^2) sin^2(pi h_i / (2 L_i))``."""
    return sum(
        (4.0 / h**2) * math.sin(math.pi * h / (2.0 * L)) ** 2
        for h, L in zip(grid.h, grid.lengths)
    )


class _TridiagonalSystem:
    """Symmetric tridiagonal system, factored as ``L D L^T`` (LAPACK pttrf).

    The factorization exists, with ``D > 0``, exactly when the matrix is
    positive definite, which ``I + tau*(L + diag(w))`` is for ``w >= 0``;
    otherwise it raises :class:`SolverFailure`.
    """

    def __init__(self, diag: np.ndarray, off: float):
        if diag.size == 1:  # scipy's pttrf rejects n = 1
            self._d, self._e = diag, None
            info = 0 if diag[0] > 0.0 else 1
        else:
            self._d, self._e, info = _pttrf(diag, np.full(diag.size - 1, off))
        if info != 0:
            raise SolverFailure(
                "the step operator I + tau*(L + diag(w)) is not positive definite "
                f"(leading minor {info} of {diag.size}): w is too negative",
                math.nan, 0)

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self._e is None:
            return b / self._d
        return _pttrs(self._d, self._e, b)[0]


class _ConjugateGradientSystem:
    """Matrix-free CG for ``(I + tau*(L + diag(w))) x = b`` in 2D; a direction
    with ``p^T A p <= 0`` proves the operator indefinite: ``SolverFailure``."""

    def __init__(self, lap: DirichletLaplacian, w: np.ndarray, tau: float, max_iter: int):
        self._lap = lap
        self._shift = 1.0 + tau * w
        self._tau = tau
        self._max_iter = max_iter

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        return self._shift * v + self._tau * self._lap.apply_array(v)

    def solve(self, b: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            b_norm = float(np.linalg.norm(b))
        if not math.isfinite(b_norm):
            raise SolverFailure("CG right-hand side has a non-finite norm", math.nan, 0)
        if b_norm == 0.0:
            return np.zeros_like(b)
        target = CG_RTOL * b_norm
        x = b.copy()  # good start: the system is a small perturbation of I
        r = b - self._matvec(x)
        rs = float(r @ r)
        if math.sqrt(rs) <= target:
            return x
        p = r.copy()
        for k in range(1, self._max_iter + 1):
            Ap = self._matvec(p)
            curvature = float(p @ Ap)
            if curvature <= 0.0:
                raise SolverFailure(
                    "the step operator I + tau*(L + diag(w)) is not positive definite "
                    f"(CG direction {k} has p^T A p = {curvature:.3e}): w is too negative",
                    math.sqrt(rs) / b_norm, k - 1)
            alpha = rs / curvature
            x += alpha * p
            r -= alpha * Ap
            rs_new = float(r @ r)
            if math.sqrt(rs_new) <= target:
                # guard against drift of the recursive residual
                true_res = float(np.linalg.norm(b - self._matvec(x)))
                if true_res <= target:
                    return x
                r = b - self._matvec(x)
                rs_new = float(r @ r)
                p = r.copy()
                rs = rs_new
                continue
            p = r + (rs_new / rs) * p
            rs = rs_new
        residual = float(np.linalg.norm(b - self._matvec(x)) / b_norm)
        raise SolverFailure(
            f"CG did not reach rtol={CG_RTOL:g} within {self._max_iter} iterations "
            f"(relative residual {residual:.3e})",
            residual,
            self._max_iter,
        )


def shifted_system(
    lap: DirichletLaplacian,
    w: np.ndarray,
    tau: float,
    max_iter: int | None = None,
):
    """Prepare ``(I + tau*(L + diag(w)))`` for repeated solves.

    1D grids get an ``L D L^T`` tridiagonal factorization; 2D grids get
    unpreconditioned CG with relative tolerance ``CG_RTOL`` and a default
    iteration cap of ``10 * num_nodes``.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    g = lap.grid
    if w.shape != (g.num_nodes,):
        raise ValueError("shift vector does not match the grid")
    if g.dim == 1:
        inv = 1.0 / g.h[0] ** 2
        diag = 1.0 + tau * (2.0 * inv + w)
        return _TridiagonalSystem(diag, -tau * inv)
    if max_iter is None:
        max_iter = 10 * g.num_nodes
    return _ConjugateGradientSystem(lap, w, tau, max_iter)


def solve_shifted(
    lap: DirichletLaplacian,
    w: Field,
    tau: float,
    b: Field,
    max_iter: int | None = None,
) -> Field:
    """Solve ``(I + tau*(L + diag(w))) x = b`` for one right-hand side.

    Raises :class:`SolverFailure` if the 1D operator is not positive definite,
    or if 2D CG finds it is not, gets a right-hand side with a non-finite
    norm or exhausts its iteration budget (carrying the relative residual).
    """
    if w.grid != lap.grid or b.grid != lap.grid:
        raise ValueError("operands live on different grids")
    system = shifted_system(lap, w.values, tau, max_iter=max_iter)
    return Field(lap.grid, system.solve(b.values))
