"""Frozen-potential linear evolution and the fixed-point map.

One outer iterate freezes the potential field ``w = phi(v)``; the inner
problem ``du/dt + (L + diag(w)) u = 0`` is then advanced by implicit Euler
or Crank-Nicolson.  The map output is the trapezoidal time integral of the
resulting trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laplacian import DirichletLaplacian, shifted_system
from .mesh import Field, Grid, _trapezoid_weights
from .potential import Potential, nemytskii

IMPLICIT_EULER = "implicit_euler"
CRANK_NICOLSON = "crank_nicolson"
SCHEMES = (IMPLICIT_EULER, CRANK_NICOLSON)


@dataclass(frozen=True)
class EvolutionConfig:
    """Time discretization: final time T, step count, scheme, sample thinning.

    ``store_every`` keeps every k-th state (it must divide ``steps`` so the
    stored samples stay uniform and include t=0 and t=T).  The quadrature
    for the map output runs on the stored samples, so verification runs
    must use ``store_every=1``.
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
class Trajectory:
    """Stored states of one linear evolution on a uniform time partition."""

    grid: Grid
    times: np.ndarray
    states: np.ndarray  # shape (num_samples, num_nodes), row k is u(t_k)
    scheme: str

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

    def time_integral(self) -> Field:
        """Pointwise trapezoidal rule over the stored samples."""
        return Field(self.grid, _trapezoid_weights(self.times) @ self.states)

    def min_value(self) -> float:
        return float(np.min(self.states))


def evolve(
    lap: DirichletLaplacian,
    w: Field,
    u0: Field,
    cfg: EvolutionConfig,
) -> Trajectory:
    """Advance ``u' + (L + diag(w)) u = 0`` from ``u0`` to time T.

    Implicit Euler solves ``(I + dt*(L+W)) u_{k+1} = u_k`` each step;
    Crank-Nicolson solves ``(I + dt/2*(L+W)) u_{k+1} = (I - dt/2*(L+W)) u_k``.
    Implicit Euler preserves positivity and is non-expansive for ``w >= 0``;
    Crank-Nicolson trades those guarantees for second-order accuracy.
    """
    if w.grid != lap.grid or u0.grid != lap.grid:
        raise ValueError("operands live on different grids")
    dt = cfg.dt
    n_stored = cfg.steps // cfg.store_every
    stored = np.empty((n_stored + 1, lap.grid.num_nodes))
    stored[0] = u0.values
    u = u0.values.copy()
    w_vals = w.values

    if cfg.scheme == IMPLICIT_EULER:
        system = shifted_system(lap, w_vals, dt)
        half = None
    else:
        system = shifted_system(lap, w_vals, 0.5 * dt)
        half = 0.5 * dt

    for k in range(1, cfg.steps + 1):
        if half is None:
            u = system.solve(u)
        else:
            rhs = u - half * (lap.apply_array(u) + w_vals * u)
            u = system.solve(rhs)
        if k % cfg.store_every == 0:
            stored[k // cfg.store_every] = u

    times = dt * cfg.store_every * np.arange(n_stored + 1)
    return Trajectory(lap.grid, times, stored, cfg.scheme)


def phi_map(
    lap: DirichletLaplacian,
    phi: Potential,
    u0: Field,
    vT: Field,
    cfg: EvolutionConfig,
) -> tuple[Field, Trajectory]:
    """One evaluation of the fixed-point map.

    Freezes the potential at the trial integral ``vT``, evolves ``u0`` under
    it, and returns the trapezoidal time integral of the trajectory together
    with the trajectory itself.
    """
    w = nemytskii(phi, vT)
    trajectory = evolve(lap, w, u0, cfg)
    return trajectory.time_integral(), trajectory
