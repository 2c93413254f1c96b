"""Frozen-potential linear evolution and the fixed-point map.

One outer iterate freezes the potential field ``w = phi(v)``; the inner
problem ``du/dt + (L + diag(w)) u = 0`` is then advanced by the theta
scheme that ``cfg.scheme`` names: implicit Euler (theta = 1) or
Crank-Nicolson (theta = 1/2); no routine reads more of a scheme than its
theta.  The map output is the trapezoidal time integral over every step,
accumulated while stepping.  Only the first and last states are kept; the
others reach an optional sink block by block.

The integral is ``m(L + diag w) u0`` for the closed-form trapezoid sum ``m``
of the step factors, which one routine evaluates (``_trapezoid_multipliers``;
``sweep_multipliers`` on an array), and ``phi_map`` can form it without
stepping (``_spectral_integral``), on either grid: in the stencil's
sine basis where ``w`` is a nonnegative constant, and by shift-and-invert
Lanczos where ``w`` is nonnegative and not constant.  Any other sweep, and
one whose Lanczos basis does not converge within its cap, is stepped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laplacian import DirichletLaplacian, SolverFailure, _stevd, shifted_system
from .mesh import Field, Grid
from .potential import EvaluationError, Potential, nemytskii

IMPLICIT_EULER = "implicit_euler"
CRANK_NICOLSON = "crank_nicolson"

#: Each scheme is its theta: the step ``(I + theta dt A) u_{k+1} =
#: (I - (1 - theta) dt A) u_k`` with step factor ``r(a) = (1 - (1 - theta) a)
#: / (1 + theta a)`` at ``a = dt lambda``.
_THETA = {IMPLICIT_EULER: 1.0, CRANK_NICOLSON: 0.5}
SCHEMES = tuple(_THETA)

#: Size of the block of consecutive states that ``evolve`` reduces at once.
BLOCK_BYTES = 1 << 20

#: Bound on ``max|u0| (1 + dt (lambda_max + max w))`` below which ``phi_map``
#: may form the map for a nonnegative potential ``w`` without stepping.
SPECTRAL_LIMIT = 2.0**1000

#: Most Lanczos vectors ``phi_map`` spends on a sweep with a non-constant
#: potential before it steps the sweep instead; a sweep of K steps gets at
#: most K // 40.
LANCZOS_VECTORS = 64

#: Bound on the relative change of a sweep's Lanczos estimate from one
#: vector to the next; two successive changes within it end the iteration.
LANCZOS_RTOL = 1e-14


@dataclass(frozen=True)
class EvolutionConfig:
    """Time discretization: final time T, step count, scheme, output thinning.

    ``store_every`` keeps every k-th state in a written trajectory file (it
    must divide ``steps`` so the samples stay uniform and include t=0 and
    t=T).  Only the trajectory writer reads it: stepping, the map output
    and the bounds that verification checks do not depend on it.
    """

    T: float
    steps: int
    scheme: str = IMPLICIT_EULER
    store_every: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.T < np.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if int(self.steps) != self.steps or self.steps < 2:
            raise ValueError(f"steps must be an integer >= 2, got {self.steps}")
        if self.steps > 2**53:  # float64 holds every count up to 2**53 exactly
            raise ValueError(f"steps must be at most 2**53, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got '{self.scheme}'")
        if int(self.store_every) != self.store_every or self.store_every < 1:
            raise ValueError(f"store_every must be a positive integer, got {self.store_every}")
        object.__setattr__(self, "store_every", int(self.store_every))
        if self.steps % self.store_every != 0:
            raise ValueError(
                f"store_every={self.store_every} must divide steps={self.steps}"
            )
        if self.dt < np.finfo(float).tiny:  # so dt, dt/4 and T/10 are positive
            raise ValueError(f"T must give a step T/steps of at least {np.finfo(float).tiny}, "
                             f"got {self.T}/{self.steps} = {self.dt}")

    @property
    def dt(self) -> float:
        return self.T / self.steps


@dataclass(frozen=True)
class StateBounds:
    """Extremes over a set of states: what the norm and positivity checks need."""

    max_row_norm: float  # max_k sqrt(sum_i u_k[i]^2), no cell measure
    max_abs: float       # max_k max_i |u_k[i]|
    min_value: float     # min_k min_i u_k[i]

    @classmethod
    def of(cls, states: np.ndarray) -> "StateBounds":
        """Bounds over the rows of a ``(rows, num_nodes)`` array.

        A row whose sum of squares overflows, though its entries are finite,
        is scaled by its largest magnitude and summed again; other rows get
        no extra pass.
        """
        lo, hi = float(states.min()), float(states.max())
        norms = np.sqrt(np.einsum("ij,ij->i", states, states))
        overflowed = np.isinf(norms)
        if overflowed.any():
            rows = states[overflowed]
            top = np.max(np.abs(rows), axis=1)
            scaled = rows / top[:, None]
            norms[overflowed] = top * np.sqrt(np.einsum("ij,ij->i", scaled, scaled))
        return cls(float(norms.max()), max(hi, -lo), lo)

    def merge(self, other: "StateBounds") -> "StateBounds":
        return StateBounds(
            max(self.max_row_norm, other.max_row_norm),
            max(self.max_abs, other.max_abs),
            min(self.min_value, other.min_value),
        )


@dataclass(frozen=True)
class Trajectory:
    """One linear evolution over ``[0, T]``, reduced while it was stepped.

    ``states`` holds ``u0`` and ``u_K``.  ``integral``, the trapezoidal time
    integral, and ``bounds`` (the extremes the norm and positivity checks
    read, such as ``bounds.min_value``) are measured by ``evolve`` on every
    state as it is produced.
    """

    grid: Grid
    T: float            # dt * steps
    states: np.ndarray  # shape (2, num_nodes): u0 and u_K
    integral: np.ndarray
    bounds: StateBounds

    def __post_init__(self) -> None:
        self.states.setflags(write=False)
        self.integral.setflags(write=False)

    def initial(self) -> Field:
        return Field(self.grid, self.states[0])

    def final(self) -> Field:
        return Field(self.grid, self.states[-1])


def evolve(
    lap: DirichletLaplacian,
    w: Field,
    u0: Field,
    cfg: EvolutionConfig,
    sink=None,
) -> Trajectory:
    """Advance ``u' + (L + diag(w)) u = 0`` from ``u0`` to time T.

    Each step makes one solve, with ``theta I + theta^2 dt (L+W)`` for the
    theta of ``cfg.scheme``.  That operator is ``I + theta dt (L+W)`` with
    every entry times theta, a power of two, which is exact, so its solve is
    bit for bit ``1/theta`` times that operator's.  Implicit Euler (theta =
    1) sets ``u_{k+1}`` to the solve.  Crank-Nicolson (theta = 1/2, the
    one theta < 1) subtracts ``u_k`` from it:
    ``u_{k+1} = (I/2 + dt/4*(L+W))^{-1} u_k - u_k``, which equals
    ``(I + dt/2*(L+W))^{-1} (I - dt/2*(L+W)) u_k`` without its stencil
    product.  Implicit Euler preserves positivity and is non-expansive for
    ``w >= 0``; Crank-Nicolson trades those guarantees for second-order
    accuracy.  A step is the solve and at most one subtraction, written
    into its row of the block.

    States ``u_1 .. u_K`` are reduced in blocks of ``BLOCK_BYTES`` (fewer
    when there are fewer steps) into the trapezoidal integral and the state
    bounds.  Each block is then passed to ``sink(start, block)``, if given:
    row ``r`` is ``u_{start+r+1}``, in a buffer the next block reuses.  Only
    ``u0`` and ``u_K`` are kept.
    """
    if w.grid != lap.grid or u0.grid != lap.grid:
        raise ValueError("operands live on different grids")
    dt, steps = cfg.dt, cfg.steps
    num_nodes = lap.grid.num_nodes
    u = u0.values
    theta = _THETA[cfg.scheme]
    solve = shifted_system(lap, w.values, theta * theta * dt, identity=theta).solve

    rows = max(1, min(steps, BLOCK_BYTES // (8 * num_nodes)))
    scratch = np.empty((rows, num_nodes))
    weights = np.full(rows, dt)
    integral = (0.5 * dt) * u
    bounds = StateBounds.of(u[None])

    for start in range(0, steps, rows):
        count = min(rows, steps - start)
        block = scratch[:count]
        for row in block:
            if theta < 1.0:
                np.subtract(solve(u), u, out=row)
            else:
                row[...] = solve(u)
            u = row
        if sink is not None:
            sink(start, block)
        block_weights = weights[:count]
        if start + count == steps:  # the block ends with u_K
            block_weights = block_weights.copy()
            block_weights[-1] = 0.5 * dt
        integral += block_weights @ block
        bounds = bounds.merge(StateBounds.of(block))

    return Trajectory(lap.grid, dt * steps, np.stack((u0.values, u)), integral, bounds)


def sweep_multipliers(mu: np.ndarray, cfg: EvolutionConfig) -> np.ndarray:
    """``_trapezoid_multipliers`` of the eigenvalues ``mu >= 0``, an array of
    any shape, in that shape.

    ``evolve`` with a constant ``w = c >= 0`` multiplies the sine coefficient
    of ``u0`` for the eigenvalue ``lambda`` by ``r^k`` at step k, so the map
    output is ``apply_spectral(u0, m(lambda + c))``, at a cost that does not
    depend on K.  The sine basis calls this on ``grid.n``-shaped eigenvalues;
    a Lanczos sweep calls ``_trapezoid_multipliers`` on its Ritz values.
    """
    return np.array(_trapezoid_multipliers(mu.ravel().tolist(), cfg)).reshape(mu.shape)


def _trapezoid_multipliers(mu: list[float], cfg: EvolutionConfig) -> list[float]:
    """The trapezoid sum ``m = dt (1/2 + r + ... + r^(K-1) + r^K/2)`` of the
    step factor ``r = (1 - (1 - theta) a)/(1 + theta a)``, ``a = dt mu``,
    theta of ``cfg.scheme``, for each of the eigenvalues ``mu >= 0``.

    One body serves every theta: ``m = dt (1/a + theta - 1/2) (1 - r^K)``,
    evaluated so that no ratio overflows or cancels:

    - ``a <= 1`` (so ``0 < r <= 1``): ``1 - r^K = -expm1(-x)`` with ``x =
      -K log r`` and ``-log r = log1p(theta a) - log1p(-(1 - theta) a)``,
      and ``m`` is ``dt K (1 + (theta - 1/2) a)`` times the ratios ``-log r
      / (theta a + (1 - theta) a)`` and ``-expm1(-x)/x``, each 1 at 0, so a
      subnormal ``a`` gives ``m = T`` instead of an overflowing ``1/a``,
      also where ``theta a`` underflows (for Crank-Nicolson the two
      ``log1p`` are more accurate than one of ``a/(1 - (1 - theta) a)``:
      worst 3.1 against 3.5 ulp over 20,000 random ``a <= 1``);
    - ``a > 1`` and ``0 < r < 1``: the closed form above, with ``-log r =
      log1p(a/(1 - (1 - theta) a))``, whose ``1 - (1 - theta) a`` is exact
      there (``(1 - theta) a`` is 0 or in ``[1/2, 1)``), so one ``log1p``
      is as accurate as two;
    - ``-1/2 <= r <= 0``: ``r^K`` as a power;
    - ``r < -1/2``: ``1 - |r| = 2 (1 + (theta - 1/2) a)/(1 + theta a)``, so
      ``K log|r|`` is a ``log1p`` even where ``|r|`` is near 1, and
      ``1 - r^K`` is ``-expm1(K log|r|)`` for even K and ``1 + |r|^K`` for
      odd;
    - ``a = inf``: the limit ``dt (theta - 1/2) (1 - (1 - 1/theta)^K)``
      (``dt/2`` for implicit Euler, 0 for Crank-Nicolson).

    This is the only evaluation of ``m``.  It runs on Python floats with the
    C library's ``log1p``, ``expm1``, ``exp`` and ``**``, so, like
    ``dirichlet_eigenvalues``, it does not depend on which SIMD kernels
    numpy dispatches to on the running CPU.  On a Lanczos sweep's few Ritz
    values, once per vector, this loop takes 3-4 us where numpy's ~40 ufunc
    calls on 7 entries take 25 us (2-core x86-64).
    """
    dt, K = cfg.dt, cfg.steps
    theta = _THETA[cfg.scheme]
    explicit, skew = 1.0 - theta, theta - 0.5
    out = []
    for value in mu:
        a = dt * value
        down, up = explicit * a, theta * a  # r = (1 - down)/(1 + up)
        if a <= 1.0:
            decay = math.log1p(up) - math.log1p(-down)  # -log r
            x = K * decay  # 0 only where up + down is 0, and there m = dt K
            out.append((dt * K) * (1.0 + skew * a) * (decay / (up + down))
                       * (-math.expm1(-x) / x) if x != 0.0 else dt * K)
        elif down < 1.0:  # r > 0 (an infinite a has a NaN or infinite down)
            out.append(dt * (1.0 / a + skew) * -math.expm1(-K * math.log1p(a / (1.0 - down))))
        elif down - 0.5 * up <= 1.5:  # r >= -1/2, as 1 - down >= -(1 + up)/2
            out.append(dt * (1.0 / a + skew) * (1.0 - ((1.0 - down) / (1.0 + up)) ** K))
        elif a == math.inf:
            out.append(dt * skew * (1.0 - (1.0 - 1.0 / theta) ** K))
        else:  # r < -1/2, or NaN
            y = K * math.log1p(-2.0 * (1.0 + skew * a) / (1.0 + up))  # K log|r|
            out.append(dt * (1.0 / a + skew)
                       * (-math.expm1(y) if K % 2 == 0 else 1.0 + math.exp(y)))
    return out


def _lanczos_integral(lap: DirichletLaplacian, w: np.ndarray, u0: np.ndarray,
                      cfg: EvolutionConfig, vectors: int) -> np.ndarray | None:
    """``m(A_w) u0``, ``m = _trapezoid_multipliers`` and ``A_w = L + diag(w)`` with
    ``w >= 0``, by Lanczos on ``B = (I + gamma A_w)^{-1}``, ``gamma = T/10``
    (shift-and-invert; van den Eshof & Hochbruck, SIAM J. Sci. Comput. 27,
    2006), or None if it does not converge within ``vectors`` Lanczos
    vectors (with 0 vectors, before ``B`` is built) or a solve with ``B``
    raises :class:`SolverFailure`.

    ``B`` is ``shifted_system(lap, w, gamma, sequence=False)``: one
    tridiagonal factorization in 1D, preconditioned CG to ``CG_RTOL`` in 2D,
    where each solve starts from ``M^{-1} b``, since no earlier solution
    predicts the next of an orthonormal basis.  Each vector costs one
    solve and is orthogonalised twice against the whole basis, which holds
    at most ``(vectors + 1) N`` floats.  A solve that fails ends the attempt,
    as a basis that does not converge does, so that stepping, whose own
    failure is the map's, decides the sweep.  With ``theta,
    S`` the eigenpairs of the ``j x j`` Lanczos matrix (LAPACK ``dstevd``),
    the estimate is ``|u0| V^T S (m(lambda) * S[0])`` at the Ritz values
    ``lambda = max((1/theta - 1)/gamma, 0)`` of ``A_w``.  It is accepted once
    two successive changes of the estimate are each at most ``LANCZOS_RTOL``
    relative (the basis is orthonormal, so they are measured on the
    coefficients ``S (m(lambda) * S[0])``), or when the Krylov space is
    invariant.  ``m(lambda)`` is taken on the Ritz values as Python floats,
    and each 2-norm is ``math.sqrt(x @ x)``, which is ``np.linalg.norm`` of a
    real vector without its wrapper: at n = 99 a vector's arithmetic is a few
    microseconds, so numpy's per-call overhead would be most of its cost.
    One small change is not enough: a Ritz value can settle for
    a step before the next one appears, and a sweep of the ``probe_hard_1d``
    benchmark stopped that way 6.9e-13 from stepping, against 8e-14 for the
    worst sweep under the two-step test.
    """
    if vectors == 0:
        return None
    gamma = 0.1 * cfg.T
    solve = shifted_system(lap, w, gamma, sequence=False).solve
    basis = np.empty((vectors + 1, u0.size))
    norm = math.sqrt(u0 @ u0)
    basis[0] = u0 / norm
    alpha, beta = np.empty(vectors), np.empty(vectors)
    previous, settled = None, False
    for j in range(vectors):
        try:
            z = solve(basis[j])
        except SolverFailure:  # stepping decides whether the sweep fails
            return None
        known = basis[:j + 1]
        first = known @ z
        z -= first @ known
        second = known @ z
        z -= second @ known
        alpha[j] = first[j] + second[j]
        beta[j] = math.sqrt(z @ z)
        # LAPACK reads no off-diagonal at j = 0, but scipy rejects an empty one
        theta, S, _ = _stevd(alpha[:j + 1], beta[:max(j, 1)])
        lam = np.maximum((1.0 / theta - 1.0) / gamma, 0.0)
        coefficients = S @ (np.array(_trapezoid_multipliers(lam.tolist(), cfg)) * S[0])
        if previous is None:
            close = False
        else:
            change = coefficients[:j] - previous
            close = (math.sqrt(change @ change)
                     <= LANCZOS_RTOL * math.sqrt(coefficients @ coefficients))
        if beta[j] == 0.0 or settled and close:
            return norm * (coefficients @ known)
        if not math.isfinite(beta[j]):
            return None
        previous, settled = coefficients, close
        basis[j + 1] = z / beta[j]
    return None


def _spectral_integral(lap: DirichletLaplacian, w: np.ndarray, u0: np.ndarray,
                       cfg: EvolutionConfig) -> np.ndarray | None:
    """The map output for the frozen potential ``w``, formed without stepping,
    or None, so that the sweep is stepped, where that does not apply.

    It applies when ``min w >= 0`` and ``max|u0| (1 + dt (lambda_max +
    max w))`` is below ``SPECTRAL_LIMIT``.  That product times ``sqrt(N)``
    bounds ``(I + dt (L + diag w)) u`` over the states ``u`` of a stepped
    sweep, which are no larger than ``u0`` in the 2-norm, so below the limit
    stepping stays finite on any grid of fewer than ``2**48`` nodes.  Beyond
    it stepping may overflow, so it is left to decide, and the map fails as
    it does.  Then:

    - a constant ``w = c`` is formed in the sine basis (see
      ``sweep_multipliers``), on either grid;
    - a non-constant ``w`` is formed by ``_lanczos_integral``, on either
      grid, with at most ``min(LANCZOS_VECTORS, K // 40)`` vectors (a sweep
      of fewer than 40 steps is stepped before any Lanczos system is
      built), so its
      basis holds at most ``(min(LANCZOS_VECTORS, K // 40) + 1) N`` floats
      (8.4 MB at 127 x 127, 34 MB at 255 x 255) and an attempt that does
      not converge costs at most about the stepped sweep that follows it
      (0.31 against 0.31 ms at n=49, K=400; 6.1 against 79 ms at n=799,
      K=16000; 2-core x86-64).  In 2D each vector is a CG solve: a sweep of
      the ``solve_2d_127`` benchmark takes 5 vectors of 2 stencil products
      each, 9-11 ms against 130-150 ms stepped (one BLAS thread).
      A sweep is left to stepping where the step factor ``r`` at ``a = dt
      (lambda_max + max w)`` is negative, ``(1 - theta) a > 1``, and
      ``|r|^K``, with ``1 - |r| = 2 (1 + (theta - 1/2) a)/(1 + theta a)``,
      exceeds ``e^-40``: ``r`` near -1 at the top of the spectrum is not a
      function that a few Lanczos vectors resolve.  Only Crank-Nicolson
      (theta = 1/2, ``a > 2``) has a negative ``r``.

    ``u0`` is scaled by the power of two that brings ``max|u0|`` into
    ``[1/2, 1)``, which is exact, so the transform's and the Lanczos
    estimate's sums do not overflow.
    """
    theta = _THETA[cfg.scheme]
    low, high = float(np.min(w)), float(np.max(w))
    top = float(np.max(np.abs(u0)))
    rate = cfg.dt * (lap.lambda_max + high)  # dt (lambda_max + max w)
    if not (low >= 0.0 and top * (1.0 + rate) < SPECTRAL_LIMIT):
        return None
    exponent = math.frexp(top)[1]
    scaled = np.ldexp(u0, -exponent)
    if low == high:
        integral = lap.apply_spectral(scaled, sweep_multipliers(lap.eigenvalues + low, cfg))
    elif ((1.0 - theta) * rate > 1.0  # r(rate) < 0, and |r|^K > e^-40
          and cfg.steps * math.log1p(-2.0 * (1.0 + (theta - 0.5) * rate)
                                     / (1.0 + theta * rate)) > -40.0):
        return None
    elif top == 0.0:
        return np.zeros_like(u0)
    else:
        integral = _lanczos_integral(lap, w, scaled, cfg, min(LANCZOS_VECTORS, cfg.steps // 40))
        if integral is None:
            return None
    return np.ldexp(integral, exponent)


def phi_map(
    lap: DirichletLaplacian,
    phi: Potential,
    u0: Field,
    vT: Field,
    cfg: EvolutionConfig,
    sink=None,
    spectral: bool = False,
) -> tuple[Field, Trajectory | None]:
    """One evaluation of the fixed-point map.

    Freezes the potential at the trial integral ``vT``, evolves ``u0`` under
    it, passing its states to ``sink`` (see ``evolve``), and returns the
    trapezoidal time integral over every step together with the trajectory.
    With ``spectral``, the sweep is not stepped where ``_spectral_integral``
    applies, on either grid: for a nonnegative constant frozen potential
    (sine basis) and for a nonnegative non-constant one whose Lanczos basis
    converges within its cap.  Then the integral equals the stepped one up
    to rounding, the trajectory is None and ``sink`` gets no state.
    Otherwise (a negative potential, a Crank-Nicolson sweep with a
    non-negligible ``|r|^K`` at the top of the spectrum, states near
    overflow, an unconverged basis or a failed solve in it) it is stepped.
    Raises :class:`EvaluationError` if the states overflow, which leaves the
    integral non-finite.
    """
    w = nemytskii(phi, vT)
    trajectory = None
    with np.errstate(over="ignore", invalid="ignore"):  # the integral is checked below
        integral = _spectral_integral(lap, w.values, u0.values, cfg) if spectral else None
        if integral is None:
            trajectory = evolve(lap, w, u0, cfg, sink=sink)
            integral = trajectory.integral
    if not np.all(np.isfinite(integral)):
        raise EvaluationError(
            "the map returned a non-finite time integral: the states overflowed")
    return Field(lap.grid, integral), trajectory
