"""Discrete Dirichlet Laplacian: assembly, application, and shifted solves.

The operator is the standard 3-point (1D) / 5-point (2D) stencil for
-Laplace with zero boundary values: diagonal ``sum_i 2/h_i^2``, off-diagonal
``-1/h_i^2`` toward axis neighbours, boundary neighbours dropped.  It is a
symmetric positive definite M-matrix, so ``I + tau*(L + diag(w))`` with
``w >= 0`` has a nonnegative inverse that is non-expansive in both the max
and the Euclidean norm.  Its eigenvectors are the products of sines
``prod_i sin(pi k_i x_i / L_i)`` (see ``dirichlet_eigenvalues``).

The 1D solve calls LAPACK ``dpttrf``/``dpttrs``, and ``evolution``'s
Lanczos sweep ``dstevd``: the only code taken from scipy.  scipy remains a
dependency for its compiled wrapper module
``scipy.linalg._flapack``, which is loaded from scipy's ``linalg``
directory as a file, so the ``scipy.linalg`` package is not imported: its
``__init__`` imports scipy's array-API layer, and with it ``numpy.f2py``,
``numpy.testing`` and ``numpy.ma``.  Importing ``scipy.linalg`` takes
219 ms, and ``import nonlocal_heat.cli`` 341 ms with it against 109 ms
without; this module, the load included, imports in 5 ms (medians of 11
``python -X importtime`` runs, 2-core x86-64, scipy 1.17.1).  The routines
are the float64 Fortran objects that ``get_lapack_funcs`` returns.  A scipy
without ``_flapack`` makes importing this module raise ``ImportError``,
naming the directory searched.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.fft import rfft

from .mesh import Grid


def _load_flapack():
    """``scipy.linalg._flapack``, loaded without running ``scipy/linalg/__init__.py``."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    directory = os.path.join(next(iter(scipy.submodule_search_locations)), "linalg")
    finder = importlib.machinery.FileFinder(
        directory,
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's LAPACK wrapper _flapack is not in {directory}")
    registered = spec.name in sys.modules
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not registered:  # so a later ``import scipy.linalg`` binds the module as usual
        del sys.modules[spec.name]
    return module


_flapack = _load_flapack()
_pttrf, _pttrs, _stevd = _flapack.dpttrf, _flapack.dpttrs, _flapack.dstevd

#: Relative residual target for the 2D conjugate-gradient solve.
CG_RTOL = 1e-10

#: Bound on the rounding of a 2D CG start's residual taken from the
#: splitting identity, per unit of ``(kappa + 1) ||d|| + ||b||`` (see
#: ``_ConjugateGradientSystem``).
START_ROUNDING = 2.0**-49

#: The identity gives a start's residual only where its rounding bound is at
#: most ``CG_RTOL ||b||`` divided by this.
START_MARGIN = 16.0


class SolverFailure(RuntimeError):
    """A linear solve broke down: indefinite operator, CG stagnation or CG budget."""


@dataclass(frozen=True)
class DirichletLaplacian:
    """Matrix-free stencil operator for -Laplace with zero boundary data.

    The stencil and its ``eigenvalues`` (``dirichlet_eigenvalues``), with
    their extremes ``lambda_min`` and ``lambda_max``, are built once, and on
    a 2D grid so is one orthonormal sine matrix per axis.  1D
    grids build no sine matrix: their sine transform is a real FFT (see
    ``apply_spectral``).  The operator is not a field, so ``==`` compares
    grids.
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
        # every array is allocated before the loops that fill them, so a grid
        # whose operator cannot be allocated is refused at once
        if self.grid.dim == 2:
            matrices = {m: _sine_matrix(m) for m in set(self.grid.n)}  # shared on a square grid
            object.__setattr__(self, "_basis", tuple(matrices[m] for m in self.grid.n))
        eigenvalues = np.empty(self.grid.n)
        eigenvalues[...] = dirichlet_eigenvalues(self.grid)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "lambda_min", float(np.min(eigenvalues)))
        object.__setattr__(self, "lambda_max", float(np.max(eigenvalues)))

    def apply_array(self, v: np.ndarray) -> np.ndarray:
        """Stencil product on a raw value array (implicit zero boundary):
        the diagonal, then each axis's lower and upper neighbour, axis 0 first."""
        V = v.reshape(self.grid.n)
        out = self._diagonal * V
        for c, lower, upper in self._axes:
            out[upper] -= c * V[lower]
            out[lower] -= c * V[upper]
        return out.ravel()

    def apply_spectral(self, v: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
        """``f(L) v``, for ``multipliers = f(eigenvalues)``: the orthonormal sine
        transform of ``v``, scaled entrywise, transformed back.  In 1D the
        transform is ``_sine_transform``, in O(N) memory; in 2D it is
        ``S0 V S1``, four dense products in all."""
        if self.grid.dim == 1:
            return _sine_transform(_sine_transform(v) * multipliers)
        S0, S1 = self._basis
        return (S0 @ ((S0 @ v.reshape(self.grid.n) @ S1) * multipliers) @ S1).ravel()


def _sine_transform(x: np.ndarray) -> np.ndarray:
    """``_sine_matrix(x.size) @ x``, from the real FFT of the odd extension
    ``0, x, 0, -x reversed``, whose entry ``k`` is
    ``-2i sum_j x_j sin(pi j k/(m+1))``."""
    m = x.size
    odd = np.zeros(2 * (m + 1))
    odd[1:m + 1] = x
    odd[m + 2:] = -x[::-1]
    return -math.sqrt(0.5 / (m + 1)) * rfft(odd)[1:m + 1].imag


def _sine_matrix(m: int) -> np.ndarray:
    """The orthonormal DST-I matrix ``sqrt(2/(m+1)) sin(pi j k/(m+1))``,
    ``j, k = 1..m``: symmetric, and its own inverse.  ``j*k`` is reduced
    modulo the period ``2(m+1)`` in integers to index a table of the C
    library's ``sin`` at those phases, not numpy's SIMD-dispatched ``sin``."""
    out = np.empty((m, m))  # first, so that an unallocatable matrix allocates nothing
    k = np.arange(1, m + 1)
    table = np.array([math.sin((math.pi / (m + 1)) * p) for p in range(2 * (m + 1))])
    np.take(table, np.outer(k, k) % (2 * (m + 1)), out=out)
    out *= math.sqrt(2.0 / (m + 1))
    return out


def assemble(grid: Grid) -> DirichletLaplacian:
    """Build the stencil operator for a grid."""
    return DirichletLaplacian(grid)


def dirichlet_lambda1(grid: Grid) -> float:
    """First Dirichlet eigenvalue of -Laplace on the continuous box."""
    return math.pi**2 * sum(1.0 / L**2 for L in grid.lengths)


def dirichlet_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of the stencil, an array of shape ``grid.n``.

    Entry ``(k_1 - 1, ...)`` is ``sum_i (4/h_i^2) sin^2(pi k_i h_i / (2 L_i))``,
    for the eigenvector ``prod_i sin(pi k_i x_i / L_i)``; each axis's values
    increase with ``k_i``.
    """
    out = 0.0
    for axis, (h, L, m) in enumerate(zip(grid.h, grid.lengths, grid.n)):
        # math.sin on each scalar argument: the C library's rounding, not that
        # of whichever SIMD kernel numpy's sin dispatches to on the running
        # CPU, so the eigenvalues (and report.json's lambda1_discrete) do not
        # depend on that dispatch
        axis_values = np.array([(4.0 / h**2) * math.sin(math.pi * k * h / (2.0 * L)) ** 2
                                for k in range(1, m + 1)])
        out = out + axis_values.reshape((m,) + (1,) * (grid.dim - 1 - axis))
    return out


def dirichlet_lambda1_discrete(grid: Grid) -> float:
    """Smallest eigenvalue of the stencil: ``sum_i (4/h_i^2) sin^2(pi h_i / (2 L_i))``."""
    return float(np.min(dirichlet_eigenvalues(grid)))


def _not_positive_definite(identity: float, tau: float, where: str) -> SolverFailure:
    """``identity*I + tau*(L + diag(w))``, named by its coefficients, found
    indefinite at ``where``."""
    return SolverFailure(f"the step operator {identity:g}*I + {tau:g}*(L + diag(w)) is not "
                         f"positive definite ({where}): w is too negative")


class _TridiagonalSystem:
    """``identity*I + tau*(L + diag(w))`` in 1D, factored as ``L D L^T`` (LAPACK pttrf).

    The factorization exists, with ``D > 0``, exactly when the matrix is
    positive definite, which it is for ``identity > 0`` and ``w >= 0``;
    otherwise it raises :class:`SolverFailure`.
    """

    def __init__(self, lap: DirichletLaplacian, w: np.ndarray, tau: float, identity: float):
        inv = 1.0 / lap.grid.h[0] ** 2
        diag = identity + tau * (2.0 * inv + w)
        # LAPACK reads no off-diagonal at n = 1, but scipy rejects an empty one
        self._d, self._e, info = _pttrf(diag, np.full(max(diag.size - 1, 1), -tau * inv))
        if info != 0:
            raise _not_positive_definite(identity, tau, f"leading minor {info} of {diag.size}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        return _pttrs(self._d, self._e, b)[0]


class _ConjugateGradientSystem:
    """Preconditioned CG for ``A x = b``, ``A = identity*I + tau*(L + diag(w))``, in 2D.

    The preconditioner is the exact inverse of ``M = identity*I + tau*(L + c)``,
    diagonal in the stencil's sine basis, so the iteration count does not
    grow with the grid.  The shift ``c`` is ``mean(w)``, kept within
    ``[min(w), max(w)]`` against rounding (so it is ``w`` itself for a
    constant ``w``) and clipped at 0 so that ``M`` stays positive definite.

    A system built for a ``sequence`` of right-hand sides that change
    smoothly from solve to solve, such as the steps of one evolution, keeps
    its last two solutions and starts a solve from
    ``x0 = M^{-1}(b - coupling*g)``, ``coupling = tau*(w - c)``, which
    equals ``g + M^{-1}(b - A g)``, with ``g`` the linear extrapolation
    ``2 x_{j-1} - x_{j-2}`` of those solutions (``x_{j-1}`` on the second
    solve).  Every other solve starts from ``x0 = M^{-1} b``: the first, one
    whose extrapolated start is not finite, and every solve of a system built
    without ``sequence``, which keeps no solution.  For a nonnegative
    constant ``w`` the coupling is 0, so every solve starts from
    ``M^{-1} b``, which is then the solution.

    The start's residual comes from the splitting ``A = M + diag(coupling)``
    without a stencil product: ``M x0 = b - coupling*g`` makes it
    ``b - A x0 = coupling*(g - x0)`` (``-coupling*x0`` for ``M^{-1} b``).
    The identity drops the rounding of the computed ``x0``, which ``M``
    amplifies by up to ``||M||``, and that of ``d = b - coupling*g``.  With
    ``kappa = (identity + tau*(lambda_max + c)) / (identity + tau*(lambda_min
    + c))``, the condition number ``||M|| ||M^{-1}||`` of ``M``, the two
    residuals differ by at most
    ``START_ROUNDING * ((kappa + 1) ||d|| + ||b||)``: 16 units of roundoff,
    where at most 5.2 were measured against long double on grids from
    7 x 7 to 255 x 255, growing with the grid (2.0 at 7 x 7, 3.8 at
    127 x 127; the standard worst-case bound on the four dense products
    grows like ``m^1.5`` and is far above both).
    A start takes its residual from the identity only where that bound is
    at most ``CG_RTOL ||b|| / START_MARGIN``, and is accepted as the solution
    only if that residual is below the target by the bound.  Elsewhere (a
    ``kappa`` above about 3,500, which takes ``tau*lambda_max`` large
    against ``identity + tau*(lambda_min + c)``, or a ``d`` much larger than
    ``b``) the residual is ``b - A x0``, one stencil product.  So a
    solve that converges at its start costs one preconditioner application
    and about ten vector operations, and the stagnation test below never
    compares residuals that differ by more than ``1/START_MARGIN`` of the
    target.  Those operations write in place where they can: at 127 x 127
    such a solve took 0.54 ms, against 0.72 ms with a new vector for each
    (0.41 ms of it the preconditioner; one BLAS thread).

    Each solve runs on ``b`` scaled by a power of two that brings ``max|b|``
    into ``[1/2, 1)``, which is exact, so norms and curvatures neither
    overflow nor underflow.  The iterations update the residual recursively
    and stop once ``||b - A x|| <= CG_RTOL * ||b||`` on the true residual
    (one stencil product), which guards against drift.  A direction with
    ``p^T A p <= 0`` proves the operator indefinite, and a restart whose true
    residual is not below the previous restart's (the start's, for the
    first) shows that rounding keeps the residual above the target: both
    raise ``SolverFailure``.  A ``b`` with a non-finite entry, such as an
    overflowed state, gets an all-NaN solution without a stencil product,
    as 1D ``pttrs`` returns non-finite values for it; the caller's check on
    the states (``evolution.phi_map``'s, on the time integral) reports it.
    """

    def __init__(self, lap: DirichletLaplacian, w: np.ndarray, tau: float, max_iter: int,
                 identity: float = 1.0, sequence: bool = True):
        self._lap = lap
        self._shift = identity + tau * w
        self._identity = identity
        self._tau = tau
        self._max_iter = max_iter
        # mean(w) can round outside [min(w), max(w)]
        mean_shift = max(float(np.clip(np.mean(w), w.min(), w.max())), 0.0)
        self._inverse_eigenvalues = 1.0 / (identity + tau * (lap.eigenvalues + mean_shift))
        self._coupling = tau * (w - mean_shift)  # A = M + diag(coupling)
        # ||M|| ||M^{-1}||: M's eigenvalues are identity + tau*(lambda + c)
        self._kappa = ((identity + tau * (lap.lambda_max + mean_shift))
                       / (identity + tau * (lap.lambda_min + mean_shift)))
        # the last two, oldest first; None for a system that keeps none
        self._solutions = () if sequence else None

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        return self._shift * v + self._tau * self._lap.apply_array(v)

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        return self._lap.apply_spectral(r, self._inverse_eigenvalues)

    def _guess(self, exponent: int) -> np.ndarray | None:
        """The extrapolation ``g`` of the kept solutions, scaled by
        ``2**-exponent`` as the right-hand side is, or None if none is kept."""
        if not self._solutions:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            if len(self._solutions) == 1:
                return np.ldexp(self._solutions[-1], -exponent)
            g = np.multiply(self._solutions[-1], 2.0)
            g -= self._solutions[-2]
            return np.ldexp(g, -exponent, out=g)

    def _start(self, b: np.ndarray, g: np.ndarray | None):
        """``x0 = M^{-1}(b - coupling*g)`` (``M^{-1} b`` for ``g`` None or where
        that start is not finite), its residual ``b - A x0``, and a bound on
        that residual's rounding: 0 where it is a stencil product."""
        if g is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                d = self._coupling * g
                np.subtract(b, d, out=d)
                x = self._precondition(d)
            if not np.isfinite(x).all():
                g = None
        if g is None:
            d = b
            x = self._precondition(b)
        b_norm = float(np.linalg.norm(b))
        with np.errstate(over="ignore"):
            rounding = START_ROUNDING * ((self._kappa + 1.0) * float(np.linalg.norm(d))
                                         + b_norm)
        if not rounding <= CG_RTOL * b_norm / START_MARGIN:
            return x, b - self._matvec(x), 0.0
        r = -x if g is None else g - x
        r *= self._coupling
        return x, r, rounding

    def solve(self, b: np.ndarray) -> np.ndarray:
        top = float(np.maximum(b.max(), -b.min()))
        if not math.isfinite(top):
            x = np.full_like(b, math.nan)
        elif top == 0.0:
            x = np.zeros_like(b)
        else:
            exponent = math.frexp(top)[1]
            scaled = np.ldexp(b, -exponent)
            x = self._iterate(scaled, *self._start(scaled, self._guess(exponent)))
            np.ldexp(x, exponent, out=x)
        if self._solutions is not None:
            self._solutions = (*self._solutions[-1:], x)
        return x

    def _iterate(self, b: np.ndarray, x: np.ndarray, r: np.ndarray,
                 rounding: float) -> np.ndarray:
        """CG from ``x``, whose residual is ``r`` up to ``rounding``, until the
        true residual meets the target."""
        b_norm = float(np.linalg.norm(b))
        target = CG_RTOL * b_norm
        restart_residual = float(np.linalg.norm(r))
        if restart_residual <= target - rounding:
            return x
        p = self._precondition(r)
        rz = float(r @ p)
        for k in range(1, self._max_iter + 1):
            Ap = self._matvec(p)
            curvature = float(p @ Ap)
            if curvature <= 0.0:
                raise _not_positive_definite(
                    self._identity, self._tau, f"CG direction {k} has p^T A p = {curvature:.3e}")
            alpha = rz / curvature
            x += alpha * p
            r -= alpha * Ap
            if np.linalg.norm(r) <= target:
                # guard against drift of the recursive residual
                r = b - self._matvec(x)
                residual = float(np.linalg.norm(r))
                if residual <= target:
                    return x
                if residual >= restart_residual:
                    raise SolverFailure(
                        f"CG stagnated at relative residual {residual / b_norm:.3e} "
                        f"after {k} iterations: a restart did not lower the true residual, "
                        f"so rounding keeps it above rtol={CG_RTOL:g}")
                restart_residual = residual
                p = self._precondition(r)
                rz = float(r @ p)
                continue
            z = self._precondition(r)
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        residual = float(np.linalg.norm(b - self._matvec(x)) / b_norm)
        raise SolverFailure(
            f"CG did not reach rtol={CG_RTOL:g} within {self._max_iter} iterations "
            f"(relative residual {residual:.3e})")


def shifted_system(lap: DirichletLaplacian, w: np.ndarray, tau: float,
                   identity: float = 1.0, *, sequence: bool = True):
    """Prepare ``identity*I + tau*(L + diag(w))`` for repeated solves.

    A theta scheme steps with ``identity = theta`` and ``tau = theta^2 dt``:
    ``I + dt*(L + diag(w))`` for implicit Euler (theta = 1), and
    ``I/2 + (dt/4)*(L + diag(w))`` for Crank-Nicolson (theta = 1/2), whose
    solve is twice that of ``I + (dt/2)*(L + diag(w))`` (see
    ``evolution.evolve``).

    1D grids get an ``L D L^T`` tridiagonal factorization; 2D grids get CG
    preconditioned by the exact inverse of ``identity*I + tau*(L + c)``,
    ``c`` the mean of ``w`` clipped at 0, in the sine basis, with relative
    tolerance ``CG_RTOL`` and an iteration cap of ``10 * num_nodes``.  With
    ``sequence``, a 2D system starts each solve from the extrapolation of
    its last two solutions, so one system serves one sequence of
    right-hand sides, such as the steps of one evolution.  Without it, as
    for the orthonormal vectors of one Lanczos basis
    (``evolution._lanczos_integral``), every solve starts from ``M^{-1} b``
    and the system keeps no solution.  1D solves are exact either way.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    g = lap.grid
    if w.shape != (g.num_nodes,):
        raise ValueError("shift vector does not match the grid")
    if g.dim == 1:
        return _TridiagonalSystem(lap, w, tau, identity)
    return _ConjugateGradientSystem(lap, w, tau, 10 * g.num_nodes, identity, sequence)
