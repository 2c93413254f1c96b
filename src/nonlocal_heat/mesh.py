"""Uniform Cartesian grids, grid functions, and discrete norms/quadrature.

Only interior nodes are stored; boundary nodes carry the homogeneous
Dirichlet value 0 and weight 0 in every quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform grid of interior nodes on (0, L1) in 1D or (0, L1) x (0, L2) in 2D.

    ``n`` counts interior nodes per axis, so the spacing is
    ``h[i] = lengths[i] / (n[i] + 1)``.
    """

    lengths: tuple[float, ...]
    n: tuple[int, ...]

    def __post_init__(self) -> None:
        lengths = tuple(float(v) for v in self.lengths)
        n = tuple(int(v) for v in self.n)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "n", n)
        if len(lengths) not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {len(lengths)}")
        if len(n) != len(lengths):
            raise ValueError("lengths and n must have one entry per axis")
        if not all(v > 0.0 for v in lengths):
            raise ValueError(f"lengths must be positive, got {lengths}")
        if any(v < 1 for v in n):
            raise ValueError(f"n must be >= 1 on every axis, got {n}")

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def h(self) -> tuple[float, ...]:
        return tuple(L / (m + 1) for L, m in zip(self.lengths, self.n))

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.n))

    @property
    def cell_measure(self) -> float:
        """Quadrature weight of one interior node (product of spacings)."""
        return float(np.prod(self.h))

    @property
    def interior_measure(self) -> float:
        """Total measure carried by the interior nodes."""
        return self.num_nodes * self.cell_measure

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Interior node coordinates along one axis."""
        return np.arange(1, self.n[axis] + 1) * self.h[axis]

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Per-axis coordinates of every interior node, row-major in 2D."""
        axes = (self.axis_coordinates(a) for a in range(self.dim))
        return tuple(X.ravel() for X in np.meshgrid(*axes, indexing="ij"))

    def refine(self) -> "Grid":
        """Halve the spacing; the old interior nodes embed in the new grid."""
        return Grid(self.lengths, tuple(2 * m + 1 for m in self.n))


@dataclass(frozen=True)
class Field:
    """Immutable grid function: one value per interior node, row-major in 2D."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float).ravel()
        if v.size != self.grid.num_nodes:
            raise ValueError(
                f"field has {v.size} values but grid has {self.grid.num_nodes} nodes"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.num_nodes))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.num_nodes, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable[..., np.ndarray]) -> "Field":
        """Sample ``fn(x)`` (1D) or ``fn(x, y)`` (2D) at the interior nodes."""
        return cls(grid, np.asarray(fn(*grid.coordinates()), dtype=float))

    def reshaped(self) -> np.ndarray:
        """Values as an (n1,) or (n1, n2) array view."""
        return self.values.reshape(self.grid.n)

    def _check_same_grid(self, other: "Field") -> None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


def norm_lp(f: Field, p: float) -> float:
    """Discrete L^p norm: ``(prod(h) * sum |f_i|^p)^(1/p)``, max norm for p=inf.

    The values are scaled by their largest magnitude before the power, so a
    finite norm is computed without overflow.
    """
    p = float(p)
    if not (math.isinf(p) or p >= 1.0):
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    a = np.abs(f.values)
    top = float(np.max(a))
    if math.isinf(p) or top == 0.0:
        return top
    return top * float((f.grid.cell_measure * np.sum((a / top) ** p)) ** (1.0 / p))


def inner_product(f: Field, g: Field) -> float:
    """Discrete L^2 pairing ``prod(h) * sum f_i g_i``.

    Each field is scaled by its largest magnitude before the products, so a
    pairing that is finite is computed without overflow.
    """
    f._check_same_grid(g)
    a, b = norm_lp(f, math.inf), norm_lp(g, math.inf)
    if a == 0.0 or b == 0.0:
        return 0.0
    unit = float(f.grid.cell_measure * np.dot(f.values / a, g.values / b))
    return a * (b * unit)


def h1_seminorm_sq(f: Field) -> float:
    """Squared discrete H^1 seminorm summed over all edges, boundary included.

    Each edge in axis ``a`` contributes ``(df/h_a)^2 * prod(h)``; edges that
    touch the boundary use the Dirichlet value 0 there.  By summation by
    parts this equals ``inner_product(f, apply(L, f))`` for the stencil
    Laplacian, exactly up to rounding.  The differences are scaled by the
    largest magnitude of ``f`` before squaring, as in ``norm_lp``.
    """
    g = f.grid
    top = norm_lp(f, math.inf)
    if top == 0.0:
        return 0.0
    meas = g.cell_measure
    V = f.reshaped() / top
    total = 0.0
    for axis in range(g.dim):
        d = np.diff(V, axis=axis, prepend=0.0, append=0.0)
        total += np.sum(d * d) / g.h[axis] ** 2 * meas
    return top * (top * float(total))


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    dt = np.diff(times)
    w = np.zeros(times.size)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def trapezoid_time_integral(samples: Sequence[tuple[float, Field]]) -> Field:
    """Pointwise trapezoidal rule over time samples ``(t_k, u_k)``.

    Requires at least two samples on a shared grid, strictly increasing
    times starting at 0.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError("need at least two time samples")
    times = np.array([t for t, _ in samples], dtype=float)
    if times[0] != 0.0:
        raise ValueError(f"first sample time must be 0, got {times[0]}")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    grid = samples[0][1].grid
    for _, field in samples[1:]:
        if field.grid != grid:
            raise ValueError("all samples must share one grid")
    stacked = np.stack([field.values for _, field in samples])
    return Field(grid, _trapezoid_weights(times) @ stacked)


def restrict(fine: Field, coarse: Grid) -> Field:
    """Sample a field from a nested refinement back onto a coarser grid.

    The grids must cover the same domain with ``n_f + 1`` an integer
    multiple of ``n_c + 1`` per axis, as produced by ``Grid.refine``.
    """
    fg = fine.grid
    if fg.dim != coarse.dim or fg.lengths != coarse.lengths:
        raise ValueError("grids cover different domains")
    strides = []
    for nf, nc in zip(fg.n, coarse.n):
        if (nf + 1) % (nc + 1) != 0:
            raise ValueError(f"grid with n={nf} does not nest over n={nc}")
        strides.append((nf + 1) // (nc + 1))
    index = [s * np.arange(1, nc + 1) - 1 for s, nc in zip(strides, coarse.n)]
    return Field(coarse, fine.reshaped()[np.ix_(*index)].ravel())
