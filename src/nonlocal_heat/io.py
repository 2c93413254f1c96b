"""File formats: CSV and JSON for fields, CSV and raw binary for trajectories.

Field CSV rows are ``x[,y],value`` per interior node.  Field JSON carries
the grid header next to a flat value array and round-trips exactly.  The
trajectory binary layout is little-endian: int64 header ``dim, K, n_1
[, n_2]``, then ``K+1`` float64 sample times, then the ``(K+1) x N`` state
matrix row-major as float64.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .evolution import Trajectory
from .mesh import Field, Grid

_I8 = np.dtype("<i8")
_F8 = np.dtype("<f8")


#: Names of the coordinate columns of a field CSV, one per axis.
_AXES = ("x", "y")


def write_field_csv(field: Field, path: str | Path) -> None:
    columns = (*field.grid.coordinates(), field.values)
    header = ",".join((*_AXES[:field.grid.dim], "value"))
    np.savetxt(path, np.column_stack(columns), delimiter=",", header=header,
               comments="", fmt="%.17g")


def _infer_axis(coords: np.ndarray, axis_name: str) -> tuple[float, int]:
    """Recover (length, n) from uniform interior coordinates h, 2h, ..., nh."""
    n = coords.size
    h = coords[0]
    if h <= 0.0:
        raise ValueError(f"{axis_name}-coordinates must start at one spacing, got {h}")
    expected = h * np.arange(1, n + 1)
    if not np.allclose(coords, expected, rtol=1e-9, atol=1e-12 * max(h, 1.0)):
        raise ValueError(f"{axis_name}-coordinates are not a uniform interior grid")
    return h * (n + 1), n


def read_field_csv(path: str | Path) -> Field:
    """Read a field CSV, inferring the uniform grid from the coordinates.

    Columns are one coordinate per axis, then the value; rows list the nodes
    row-major, as ``write_field_csv`` writes them.  Each axis is inferred
    from its column's unique values, then every row must match its node.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    dim = data.shape[1] - 1
    if dim not in (1, 2):
        raise ValueError(f"expected 2 or 3 columns, got {data.shape[1]}")
    lengths, n = zip(*(_infer_axis(np.unique(data[:, a]), _AXES[a]) for a in range(dim)))
    grid = Grid(lengths, n)
    if data.shape[0] != grid.num_nodes or not all(
        np.allclose(data[:, a], expected, rtol=1e-9)
        for a, expected in enumerate(grid.coordinates())
    ):
        raise ValueError("coordinates are not a row-major uniform interior grid")
    return Field(grid, data[:, dim])


def write_field_json(field: Field, path: str | Path) -> None:
    payload = {
        "grid": {
            "dim": field.grid.dim,
            "lengths": list(field.grid.lengths),
            "n": list(field.grid.n),
        },
        "values": field.values.tolist(),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def read_field_json(path: str | Path) -> Field:
    payload = json.loads(Path(path).read_text())
    grid = Grid(tuple(payload["grid"]["lengths"]), tuple(payload["grid"]["n"]))
    return Field(grid, np.asarray(payload["values"], dtype=float))


def read_field(path: str | Path) -> Field:
    """Dispatch on extension: .json or .csv."""
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        return read_field_json(path)
    if suffix == ".csv":
        return read_field_csv(path)
    raise ValueError(f"cannot read field from '{path}': unknown extension")


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Rows ``t,node,value`` for every stored sample and node."""
    K1, N = traj.states.shape
    t = np.repeat(traj.times, N)
    node = np.tile(np.arange(N), K1)
    np.savetxt(
        path,
        np.column_stack((t, node, traj.states.ravel())),
        delimiter=",",
        header="t,node,value",
        comments="",
        fmt=("%.17g", "%d", "%.17g"),
    )


def write_trajectory_bin(traj: Trajectory, path: str | Path) -> None:
    header = np.array([traj.grid.dim, traj.num_samples - 1, *traj.grid.n], dtype=_I8)
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(np.ascontiguousarray(traj.times, dtype=_F8).tobytes())
        fh.write(memoryview(np.ascontiguousarray(traj.states, dtype=_F8)))  # no copy


def read_trajectory_bin(path: str | Path) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Return (times, states, n); geometry beyond node counts is not stored."""
    raw = Path(path).read_bytes()
    dim = int(np.frombuffer(raw, dtype=_I8, count=1)[0])
    if dim not in (1, 2):
        raise ValueError(f"corrupt trajectory header: dim={dim}")
    ints = np.frombuffer(raw, dtype=_I8, count=2 + dim)
    K = int(ints[1])
    n = tuple(int(v) for v in ints[2:])
    num_nodes = int(np.prod(n))
    offset = (2 + dim) * _I8.itemsize
    times = np.frombuffer(raw, dtype=_F8, count=K + 1, offset=offset)
    offset += (K + 1) * _F8.itemsize
    states = np.frombuffer(raw, dtype=_F8, count=(K + 1) * num_nodes, offset=offset)
    return times.copy(), states.reshape(K + 1, num_nodes).copy(), n
