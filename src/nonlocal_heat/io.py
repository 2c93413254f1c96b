"""File formats: CSV and JSON for fields, CSV and raw binary for trajectories.

Field CSV rows are ``x[,y],value`` per interior node.  Field JSON carries
the grid header next to a flat value array and round-trips exactly.  The
trajectory binary layout is little-endian: int64 header ``dim, K, n_1
[, n_2]``, then ``K+1`` float64 sample times, then the ``(K+1) x N`` state
matrix row-major as float64, row k the state at step ``k * store_every``.
A trajectory is streamed into that layout while it is stepped, and its
CSV is formatted from the binary.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .evolution import EvolutionConfig
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


@contextmanager
def trajectory_stream(path: str | Path, u0: Field, cfg: EvolutionConfig):
    """Open ``path`` in the binary layout and yield a sink for ``evolve``.

    The header, the sample times and ``u0`` are written at once.  The sink
    writes the states of each block that ``cfg.store_every`` keeps at their
    offsets with ``seek``/``write``, so every sweep rewrites the same region
    and the file ends up holding the last sweep's states.
    """
    grid, every = u0.grid, cfg.store_every
    K = cfg.steps // every
    row_bytes = grid.num_nodes * _F8.itemsize
    with open(path, "wb") as fh:
        fh.write(np.array([grid.dim, K, *grid.n], dtype=_I8).tobytes())
        fh.write(((cfg.dt * every) * np.arange(K + 1)).astype(_F8).tobytes())
        states_at = fh.tell()
        fh.write(np.ascontiguousarray(u0.values, dtype=_F8))

        def sink(start: int, block: np.ndarray) -> None:
            first = -(start + 1) % every  # the block row of the first kept state
            fh.seek(states_at + (start + first + 1) // every * row_bytes)
            fh.write(np.ascontiguousarray(block[first::every], dtype=_F8))

        yield sink


def write_trajectory_csv(streamed: str | Path, path: str | Path) -> None:
    """Rows ``t,node,value`` for every sample and node of the binary ``streamed``."""
    times, states, _ = read_trajectory_bin(streamed)
    K1, N = states.shape
    columns = (np.repeat(times, N), np.tile(np.arange(N), K1), states.ravel())
    np.savetxt(path, np.column_stack(columns), delimiter=",", header="t,node,value",
               comments="", fmt=("%.17g", "%d", "%.17g"))


def write_trajectory_bin(streamed: str | Path, path: str | Path) -> None:
    """Move the binary ``streamed`` (see ``trajectory_stream``) to ``path``."""
    os.replace(streamed, path)


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
