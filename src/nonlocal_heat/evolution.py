"""Frozen-potential linear evolution and the fixed-point map.

One outer iterate freezes the potential field ``w = phi(v)``; the inner
problem ``du/dt + (L + diag(w)) u = 0`` is then advanced by implicit Euler
or Crank-Nicolson.  The map output is the trapezoidal time integral over
every step, accumulated while stepping; states are kept only for output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laplacian import DirichletLaplacian, shifted_system
from .mesh import Field, Grid
from .potential import EvaluationError, Potential, nemytskii

IMPLICIT_EULER = "implicit_euler"
CRANK_NICOLSON = "crank_nicolson"
SCHEMES = (IMPLICIT_EULER, CRANK_NICOLSON)

#: Size of the block of consecutive states that ``evolve`` reduces at once.
BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class EvolutionConfig:
    """Time discretization: final time T, step count, scheme, output thinning.

    ``store_every`` keeps every k-th state for output (it must divide
    ``steps`` so the stored samples stay uniform and include t=0 and t=T).
    It changes nothing else: the map output and the bounds that
    verification checks are taken over every step.
    """

    T: float
    steps: int
    scheme: str = IMPLICIT_EULER
    store_every: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", str(self.scheme).replace("-", "_"))
        if not 0.0 < self.T < np.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if int(self.steps) != self.steps or self.steps < 2:
            raise ValueError(f"steps must be an integer >= 2, got {self.steps}")
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

    max_sum_sq: float  # max_k sum_i u_k[i]^2
    max_abs: float     # max_k max_i |u_k[i]|
    min_value: float   # min_k min_i u_k[i]

    @classmethod
    def of(cls, states: np.ndarray) -> "StateBounds":
        """Bounds over the rows of a ``(rows, num_nodes)`` array."""
        lo, hi = float(states.min()), float(states.max())
        sum_sq = np.einsum("ij,ij->i", states, states)
        return cls(float(sum_sq.max()), max(hi, -lo), lo)

    def merge(self, other: "StateBounds") -> "StateBounds":
        return StateBounds(
            max(self.max_sum_sq, other.max_sum_sq),
            max(self.max_abs, other.max_abs),
            min(self.min_value, other.min_value),
        )


@dataclass(frozen=True)
class Trajectory:
    """One linear evolution on a uniform time partition.

    ``states`` holds every ``store_every``-th state.  ``integral``, the
    trapezoidal time integral, and ``bounds`` are measured by ``evolve`` on
    every state as it is produced, stored or not.
    """

    grid: Grid
    times: np.ndarray
    states: np.ndarray  # shape (num_samples, num_nodes), row k is u(t_k)
    scheme: str
    integral: np.ndarray
    bounds: StateBounds

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("a trajectory needs at least two time samples")
        if states.shape != (times.size, self.grid.num_nodes):
            raise ValueError(
                f"states shape {states.shape} does not match "
                f"{times.size} samples on {self.grid.num_nodes} nodes"
            )
        if times[0] != 0.0:
            raise ValueError("trajectory must start at t=0")
        dt = np.diff(times)
        if np.any(dt <= 0.0) or np.max(np.abs(dt - dt[0])) > 1e-12 * times[-1]:
            raise ValueError("trajectory times must be uniform and increasing")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        self.integral.setflags(write=False)

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def num_samples(self) -> int:
        return int(self.times.size)

    def state(self, k: int) -> Field:
        return Field(self.grid, self.states[k])

    def initial(self) -> Field:
        return self.state(0)

    def final(self) -> Field:
        return self.state(self.num_samples - 1)

    def min_value(self) -> float:
        return self.bounds.min_value


def evolve(
    lap: DirichletLaplacian,
    w: Field,
    u0: Field,
    cfg: EvolutionConfig,
) -> Trajectory:
    """Advance ``u' + (L + diag(w)) u = 0`` from ``u0`` to time T.

    Each step makes one solve: implicit Euler sets
    ``u_{k+1} = (I + dt*(L+W))^{-1} u_k`` and Crank-Nicolson sets
    ``u_{k+1} = 2 (I + dt/2*(L+W))^{-1} u_k - u_k``, which equals
    ``(I + dt/2*(L+W))^{-1} (I - dt/2*(L+W)) u_k`` without its stencil product.
    Implicit Euler preserves positivity and is non-expansive for ``w >= 0``;
    Crank-Nicolson trades those guarantees for second-order accuracy.

    States ``u_1 .. u_K`` are reduced in blocks of ``BLOCK_BYTES`` (fewer
    when there are fewer steps) into the trapezoidal integral and the state
    bounds.  The blocks do not depend on ``store_every``, so neither do
    those results, bit for bit.
    """
    if w.grid != lap.grid or u0.grid != lap.grid:
        raise ValueError("operands live on different grids")
    dt = cfg.dt
    steps, every = cfg.steps, cfg.store_every
    num_nodes = lap.grid.num_nodes
    stored = np.empty((steps // every + 1, num_nodes))
    stored[0] = u0.values
    u = u0.values
    reflect = cfg.scheme == CRANK_NICOLSON
    system = shifted_system(lap, w.values, 0.5 * dt if reflect else dt)

    rows = max(1, min(steps, BLOCK_BYTES // (8 * num_nodes)))
    # with every state stored, the blocks are windows of the stored array
    scratch = stored[1:] if every == 1 else np.empty((rows, num_nodes))
    weights = np.full(rows, dt)
    integral = (0.5 * dt) * u0.values
    bounds = StateBounds.of(stored[:1])

    for start in range(0, steps, rows):
        count = min(rows, steps - start)
        block = scratch[start:start + count] if every == 1 else scratch[:count]
        for r in range(count):
            y = system.solve(u)
            u = 2.0 * y - u if reflect else y
            block[r] = u
        if every > 1:  # block row r holds u_{start+r+1}
            first = -(start + 1) % every
            kept = block[first::every]
            k0 = (start + first + 1) // every
            stored[k0:k0 + kept.shape[0]] = kept
        block_weights = weights[:count]
        if start + count == steps:  # the block ends with u_K
            block_weights = block_weights.copy()
            block_weights[-1] = 0.5 * dt
        integral += block_weights @ block
        bounds = bounds.merge(StateBounds.of(block))

    times = dt * every * np.arange(stored.shape[0])
    return Trajectory(lap.grid, times, stored, cfg.scheme, integral, bounds)


def phi_map(
    lap: DirichletLaplacian,
    phi: Potential,
    u0: Field,
    vT: Field,
    cfg: EvolutionConfig,
) -> tuple[Field, Trajectory]:
    """One evaluation of the fixed-point map.

    Freezes the potential at the trial integral ``vT``, evolves ``u0`` under
    it, and returns the trapezoidal time integral over every step together
    with the trajectory, whose stored samples ``store_every`` thins without
    changing the integral.  Raises :class:`EvaluationError` if the states
    overflow, which leaves the integral non-finite.
    """
    w = nemytskii(phi, vT)
    with np.errstate(over="ignore", invalid="ignore"):  # the integral is checked below
        trajectory = evolve(lap, w, u0, cfg)
    if not np.all(np.isfinite(trajectory.integral)):
        raise EvaluationError(
            "the map returned a non-finite time integral: the states overflowed")
    return Field(lap.grid, trajectory.integral), trajectory
