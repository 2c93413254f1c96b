"""Uniform Cartesian grids, grid functions, and discrete norms.

Only interior nodes are stored; boundary nodes carry the homogeneous
Dirichlet value 0 and weight 0 in every quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Floor for the denominator of every relative quantity (guards the zero field).
FLOOR = 1e-300


@dataclass(frozen=True)
class Grid:
    """Uniform grid of interior nodes on (0, L1) in 1D or (0, L1) x (0, L2) in 2D.

    ``n`` counts interior nodes per axis, so the spacing is
    ``h[i] = lengths[i] / (n[i] + 1)``.  ``h`` and ``cell_measure`` are
    computed once, when the grid is built; they are not fields, so grids
    compare and hash by ``lengths`` and ``n`` alone.
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
        object.__setattr__(self, "_h", tuple(L / (m + 1) for L, m in zip(lengths, n)))
        # 1/L**2 is positive where L*L is finite; 4*sum(1/h**2) bounds the
        # stencil's values on a field of magnitude 1 (float products give inf
        # or 0.0 where ** would raise)
        if not (all(L * L < math.inf for L in lengths) and all(h * h > 0.0 for h in self.h)
                and 4.0 * sum(1.0 / (h * h) for h in self.h) < math.inf):
            raise ValueError(f"lengths must keep every 1/L**2 positive and 4*sum(1/h**2) "
                             f"finite, got {lengths} with n = {n}")
        object.__setattr__(self, "_cell_measure", float(np.prod(self.h)))

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def h(self) -> tuple[float, ...]:
        return self._h

    @property
    def num_nodes(self) -> int:
        return math.prod(self.n)

    @property
    def cell_measure(self) -> float:
        """Quadrature weight of one interior node (product of spacings)."""
        return self._cell_measure

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Interior node coordinates along one axis."""
        return np.arange(1, self.n[axis] + 1) * self.h[axis]

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Per-axis coordinates of every interior node, row-major in 2D."""
        axes = (self.axis_coordinates(a) for a in range(self.dim))
        return tuple(X.ravel() for X in np.meshgrid(*axes, indexing="ij"))


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
    return _lp_norm(f.grid, f.values, p)


def _lp_norm(grid: Grid, values: np.ndarray, p: float = 2.0) -> float:
    """``norm_lp`` of the grid function ``values``, for a float ``p >= 1`` or
    inf, without building a :class:`Field` (no copy, no finiteness scan)."""
    a = np.abs(values)
    top = float(np.max(a))
    if math.isinf(p) or top == 0.0:
        return top
    return top * float((grid.cell_measure * np.sum((a / top) ** p)) ** (1.0 / p))


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


def restrict(fine: Field, coarse: Grid) -> Field:
    """Sample a field from a nested refinement back onto a coarser grid.

    The grids must cover the same domain with ``n_f + 1`` an integer
    multiple of ``n_c + 1`` per axis, as a study's levels are (equal grids
    under ``time_only``, where the sample is the field itself).
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
