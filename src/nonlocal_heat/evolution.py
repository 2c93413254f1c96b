"""Frozen-potential linear evolution and the fixed-point map.

One outer iterate freezes the potential field ``w = phi(v)``; the inner
problem ``du/dt + (L + diag(w)) u = 0`` is then advanced by implicit Euler
or Crank-Nicolson.  The map output is the trapezoidal time integral over
every step, accumulated while stepping.  Only the first and last states
are kept; the others reach an optional sink block by block.

The integral is ``m(L + diag w) u0`` for the closed-form trapezoid sum ``m``
of the step factors (``sweep_multipliers``), and ``phi_map`` can form it
without stepping (``_spectral_integral``): in the stencil's sine basis where
``w`` is a nonnegative constant, and by shift-and-invert Lanczos where ``w``
is nonnegative, not constant and on a 1D grid.  Any other sweep, and one
whose Lanczos basis does not converge within its cap, is stepped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laplacian import DirichletLaplacian, _stevd, shifted_system
from .mesh import Field, Grid
from .potential import EvaluationError, Potential, nemytskii

IMPLICIT_EULER = "implicit_euler"
CRANK_NICOLSON = "crank_nicolson"
SCHEMES = (IMPLICIT_EULER, CRANK_NICOLSON)

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

    Each step makes one solve: implicit Euler sets
    ``u_{k+1} = (I + dt*(L+W))^{-1} u_k`` and Crank-Nicolson sets
    ``u_{k+1} = (I/2 + dt/4*(L+W))^{-1} u_k - u_k``, which equals
    ``(I + dt/2*(L+W))^{-1} (I - dt/2*(L+W)) u_k`` without its stencil product.
    Implicit Euler preserves positivity and is non-expansive for ``w >= 0``;
    Crank-Nicolson trades those guarantees for second-order accuracy.
    The Crank-Nicolson operator is ``I + dt/2*(L+W)`` with every entry
    halved, which is exact, so its solve is bit for bit ``2.0 *`` that
    operator's; a step is that solve and one subtraction, written into its
    row of the block.

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
    reflect = cfg.scheme == CRANK_NICOLSON
    solve = (shifted_system(lap, w.values, 0.25 * dt, identity=0.5) if reflect
             else shifted_system(lap, w.values, dt)).solve

    rows = max(1, min(steps, BLOCK_BYTES // (8 * num_nodes)))
    scratch = np.empty((rows, num_nodes))
    weights = np.full(rows, dt)
    integral = (0.5 * dt) * u
    bounds = StateBounds.of(u[None])

    for start in range(0, steps, rows):
        count = min(rows, steps - start)
        block = scratch[:count]
        for row in block:
            if reflect:
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


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``, and 1 where ``den`` is 0 (the limit of each caller's ratio)."""
    out = np.ones_like(den)
    nonzero = den != 0.0
    out[nonzero] = num[nonzero] / den[nonzero]
    return out


def sweep_multipliers(mu: np.ndarray, cfg: EvolutionConfig) -> np.ndarray:
    """The trapezoid sum ``m = dt (1/2 + r + ... + r^(K-1) + r^K/2)`` of the
    step factor ``r = r(dt mu)`` of ``cfg.scheme``, for eigenvalues ``mu >= 0``.

    ``evolve`` with a constant ``w = c >= 0`` multiplies the sine coefficient
    of ``u0`` for the eigenvalue ``lambda`` by ``r^k`` at step k, so the map
    output is ``apply_spectral(u0, m(lambda + c))``, at a cost that does not
    depend on K.  With ``a = dt mu``, implicit Euler has ``r = 1/(1 + a)`` and
    ``m = dt (1/a + 1/2) (1 - r^K)``; Crank-Nicolson has
    ``r = (1 - a/2)/(1 + a/2)`` and ``m = dt (1 - r^K)/a``.

    No ratio is formed that overflows or cancels, and each branch is computed
    only on its own entries:

    - ``r`` near 1 (``a <= 1``, or ``a/2 < 1`` for Crank-Nicolson):
      ``1 - r^K = -expm1(-x)`` with ``x = -K log r`` from ``log1p``, and ``m``
      is ``dt K`` times the ratios ``log1p(a)/a`` (or ``-log1p(-q)/q`` for
      ``q = 1 - r``) and ``-expm1(-x)/x``, each 1 at 0, so a subnormal ``a``
      gives ``m = T`` instead of an overflowing ``1/a``;
    - implicit Euler with ``a > 1``: the closed form above;
    - Crank-Nicolson with ``1 <= a/2 <= 3`` (``-1/2 <= r <= 0``): ``r^K`` as
      a power;
    - Crank-Nicolson with ``a/2 > 3``: ``|r| = 1 - 2/(1 + a/2)``, near 1, and
      ``1 - r^K`` is ``-expm1(K log|r|)`` for even K and ``1 + |r|^K`` for odd.
    """
    dt, K = cfg.dt, cfg.steps
    with np.errstate(over="ignore"):  # an infinite a gives the limit r = 0 (or -1)
        a = dt * mu
    m = np.empty_like(a)
    if cfg.scheme == IMPLICIT_EULER:
        near = a <= 1.0
        s = a[near]
        log_r = np.log1p(s)
        x = K * log_r
        m[near] = (dt * K) * (1.0 + 0.5 * s) * _quotient(log_r, s) * _quotient(-np.expm1(-x), x)
        s = a[~near]
        m[~near] = dt * (1.0 / s + 0.5) * -np.expm1(-K * np.log1p(s))
        return m
    b = 0.5 * a
    near = b < 1.0
    s = b[near]
    q = 2.0 * s / (1.0 + s)  # 1 - r
    log_r = np.log1p(-q)
    x = -K * log_r
    m[near] = (dt * K) * _quotient(-log_r, q) * _quotient(-np.expm1(-x), x) / (1.0 + s)
    middle = (b >= 1.0) & (b <= 3.0)
    s = b[middle]
    m[middle] = dt * (1.0 - (2.0 / (1.0 + s) - 1.0) ** K) / (2.0 * s)
    far = b > 3.0
    s = b[far]
    y = K * np.log1p(-2.0 / (1.0 + s))  # K log|r|
    m[far] = dt * (-np.expm1(y) if K % 2 == 0 else 1.0 + np.exp(y)) / (2.0 * s)
    return m


def _lanczos_integral(lap: DirichletLaplacian, w: np.ndarray, u0: np.ndarray,
                      cfg: EvolutionConfig, vectors: int) -> np.ndarray | None:
    """``m(A_w) u0``, ``m = sweep_multipliers`` and ``A_w = L + diag(w)`` with
    ``w >= 0`` on a 1D grid, by Lanczos on ``B = (I + gamma A_w)^{-1}``,
    ``gamma = T/10`` (shift-and-invert; van den Eshof & Hochbruck, SIAM J. Sci.
    Comput. 27, 2006), or None if it does not converge within ``vectors``
    Lanczos vectors.

    ``B`` is one tridiagonal factorization, so each vector costs one solve,
    and each is orthogonalised twice against the whole basis.  With ``theta,
    S`` the eigenpairs of the ``j x j`` Lanczos matrix (LAPACK ``dstevd``),
    the estimate is ``|u0| V^T S (m(lambda) * S[0])`` at the Ritz values
    ``lambda = max((1/theta - 1)/gamma, 0)`` of ``A_w``.  It is accepted once
    two successive changes of the estimate are each at most ``LANCZOS_RTOL``
    relative (the basis is orthonormal, so they are measured on the
    coefficients ``S (m(lambda) * S[0])``), or when the Krylov space is
    invariant.  One small change is not enough: a Ritz value can settle for
    a step before the next one appears, and a sweep of the ``probe_hard_1d``
    benchmark stopped that way 6.9e-13 from stepping, against 8e-14 for the
    worst sweep under the two-step test.
    """
    gamma = 0.1 * cfg.T
    solve = shifted_system(lap, w, gamma).solve
    basis = np.empty((vectors + 1, u0.size))
    norm = float(np.linalg.norm(u0))
    basis[0] = u0 / norm
    alpha, beta = np.empty(vectors), np.empty(vectors)
    previous, settled = None, False
    for j in range(vectors):
        z = solve(basis[j])
        known = basis[:j + 1]
        first = known @ z
        z -= first @ known
        second = known @ z
        z -= second @ known
        alpha[j] = first[j] + second[j]
        beta[j] = float(np.linalg.norm(z))
        # LAPACK reads no off-diagonal at j = 0, but scipy rejects an empty one
        theta, S, _ = _stevd(alpha[:j + 1], beta[:max(j, 1)])
        lam = np.maximum((1.0 / theta - 1.0) / gamma, 0.0)
        coefficients = S @ (sweep_multipliers(lam, cfg) * S[0])
        close = previous is not None and (np.linalg.norm(coefficients[:j] - previous)
                                          <= LANCZOS_RTOL * np.linalg.norm(coefficients))
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
    - a non-constant ``w`` on a 1D grid is formed by ``_lanczos_integral``
      with at most ``min(LANCZOS_VECTORS, K // 40)`` vectors, so an attempt
      that does not converge costs at most about the stepped sweep that
      follows it (0.31 against 0.31 ms at n=49, K=400; 6.1 against 79 ms
      at n=799, K=16000; 2-core x86-64).
      Crank-Nicolson is left to stepping where ``b = dt (lambda_max + max w)/2
      > 1`` and ``|r|^K = (1 - 2/(1 + b))^K`` exceeds ``e^-40``: its step
      factor ``r`` near -1 at the top of the spectrum is not a function that
      a few Lanczos vectors resolve;
    - a non-constant ``w`` on a 2D grid is stepped.

    ``u0`` is scaled by the power of two that brings ``max|u0|`` into
    ``[1/2, 1)``, which is exact, so the transform's and the Lanczos
    estimate's sums do not overflow.
    """
    low, high = float(np.min(w)), float(np.max(w))
    top = float(np.max(np.abs(u0)))
    rate = cfg.dt * (float(np.max(lap.eigenvalues)) + high)  # dt (lambda_max + max w)
    if not (low >= 0.0 and top * (1.0 + rate) < SPECTRAL_LIMIT):
        return None
    exponent = math.frexp(top)[1]
    scaled = np.ldexp(u0, -exponent)
    if low == high:
        integral = lap.apply_spectral(scaled, sweep_multipliers(lap.eigenvalues + low, cfg))
    elif lap.grid.dim == 2 or (cfg.scheme == CRANK_NICOLSON and 0.5 * rate > 1.0
                               and cfg.steps * math.log1p(-2.0 / (1.0 + 0.5 * rate)) > -40.0):
        return None
    elif top == 0.0:
        return np.zeros_like(u0)
    else:
        integral = _lanczos_integral(lap, w, scaled, cfg,
                                     min(LANCZOS_VECTORS, cfg.steps // 40))
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
    applies: for a nonnegative constant frozen potential (sine basis) and,
    on a 1D grid, for a nonnegative non-constant one whose Lanczos basis
    converges within its cap.  Then the integral equals the stepped one up
    to rounding, the trajectory is None and ``sink`` gets no state.
    Otherwise (a negative potential, a 2D non-constant one, a
    Crank-Nicolson sweep with a non-negligible ``|r|^K`` at the top of the
    spectrum, states near overflow, an unconverged basis) it is stepped.
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
