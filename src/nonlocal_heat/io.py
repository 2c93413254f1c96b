"""File formats, and the JSON type checks that configs and field JSON share.

Field JSON carries the grid header next to a flat value array, is read with
those checks and round-trips exactly.  The trajectory binary is little-endian: int64
header ``dim, K, n_1 [, n_2]``, then ``K+1`` float64 sample times, then the
``(K+1) x N`` state matrix row-major as float64, row k the state at step
``k * store_every``.  A trajectory is streamed into that layout while it is
stepped.

Both CSVs print every float with ``%.17g`` (17 significant digits, so each
value reads back exactly) and end lines in a bare line feed.  Field CSV
rows are ``x[,y],value``, one per interior node; trajectory CSV rows are
``t,node,value``, node the row-major node index.  A field file is read
against the run's grid; a CSV coordinate may be off its node by a relative
1e-9.  The trajectory CSV is formatted from the binary ``BLOCK_BYTES`` of
states at a time, so its memory does not grow with ``K``; a binary whose
size differs from the one its header implies raises ``ValueError`` before
any CSV byte is written.

The blocks are split into ``W`` contiguous shares, ``W`` the least of the
cores this process may run on, the number of blocks and the values over
``MIN_VALUES_PER_WORKER`` (1 where the platform cannot fork): this process
formats share 0 straight into the CSV, and each forked worker formats its
share into an anonymous temporary file beside the binary, which this
process then appends in share order.  So the file holds the bytes one
process would write, and each process holds at most one block of text.  A
worker that fails raises ``OSError``; no worker outlives the call, and no
partial CSV is left.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .evolution import EvolutionConfig
from .mesh import Field, Grid

_I8 = np.dtype("<i8")
_F8 = np.dtype("<f8")


_REQUIRED = object()
_CONTAINERS = {"object": dict, "list": list, "string": str, "boolean": bool}
_KINDS = {"object": "an object", "list": "a list", "string": "a string", "boolean": "a boolean",
          "number": "a number in the float range", "integer": "an integer in the float range"}


class ConfigError(ValueError):
    """Invalid run configuration; the message starts with the offending field."""


def _fail(field: str, message: str):
    raise ConfigError(f"{field} {message}")


def _build(section: str, make, *args, **kwargs):
    """Construct a validating object whose ``ValueError`` starts with the field name."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from None


def _typed(value, field: str, kind: str):
    """``value`` checked against a JSON type, one of ``_KINDS``.

    Numbers must lie in the float range: ``json`` accepts NaN, Infinity and
    integers of any length.  Booleans are not numbers; an integer may be
    written as an integral float.
    """
    if kind in _CONTAINERS:
        ok = isinstance(value, _CONTAINERS[kind])
    else:
        ok = (not isinstance(value, bool) and isinstance(value, (int, float))
              and abs(value) <= sys.float_info.max and (kind == "number" or int(value) == value))
    if not ok:
        _fail(field, f"must be {_KINDS[kind]}, got {value!r}")
    return int(value) if kind == "integer" else value


def _get(section: dict, field: str, kind: str, default=_REQUIRED):
    """The value of ``field`` (a dotted path ending in the key) in ``section``."""
    key = field.rsplit(".", 1)[-1]
    if key not in section:
        if default is _REQUIRED:
            _fail(field, "is required")
        return default
    return _typed(section[key], field, kind)


def _get_list(section: dict, field: str, kind: str, default=_REQUIRED, length=None) -> list:
    """A list of ``kind`` values, of ``length`` entries when given."""
    values = _get(section, field, "list", default)
    if length is not None and len(values) != length:
        _fail(field, f"must have {length} entries, got {values!r}")
    return [_typed(v, field, kind) for v in values]


def _read_grid(section: dict, name: str) -> Grid:
    """The ``Grid`` of section ``name``: ``dim``, then ``dim`` ``lengths`` and ``n``."""
    dim = _get(section, f"{name}.dim", "integer")
    lengths = _get_list(section, f"{name}.lengths", "number", length=dim)
    return _build(name, Grid, lengths, _get_list(section, f"{name}.n", "integer", length=dim))


#: Names of the coordinate columns of a field CSV, one per axis.
_AXES = ("x", "y")

#: Format of every float in a CSV: enough digits to read back exactly.
_FLOAT = "%.17g"

#: Bytes of binary states the trajectory CSV writer reads per block.
BLOCK_BYTES = 1 << 16

#: Fewest values a trajectory CSV worker process is forked for: about 25 ms
#: of ``%.17g`` formatting, against about 2 ms to fork and reap one.
MIN_VALUES_PER_WORKER = 50_000


def _csv_rows(lead: str, tails: list[str], values: np.ndarray) -> str:
    """CSV rows ``lead + tails[i]``, each tail a row's end with one ``%.17g``
    field, filled with ``values[i]`` by a single ``%`` call."""
    return (lead + lead.join(tails)) % tuple(values.tolist())


def write_field_csv(field: Field, path: str | Path) -> None:
    coordinates = zip(*(c.tolist() for c in field.grid.coordinates()))
    tails = ["".join(_FLOAT % c + "," for c in node) + _FLOAT + "\n" for node in coordinates]
    header = ",".join((*_AXES[:field.grid.dim], "value"))
    with open(path, "w", encoding="ascii", newline="\n") as out:
        out.write(header + "\n" + _csv_rows("", tails, field.values))


def read_field_csv(path: str | Path, grid: Grid) -> Field:
    """Read a field CSV whose rows list ``grid``'s nodes as ``write_field_csv``
    writes them; a file of another shape, or a coordinate off its node by
    more than a relative 1e-9, raises ``ValueError``."""
    with warnings.catch_warnings():  # a header-only file is rejected below, not warned about
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (grid.num_nodes, grid.dim + 1) or not all(
        np.allclose(data[:, a], expected, rtol=1e-9, atol=0.0)
        for a, expected in enumerate(grid.coordinates())
    ):
        raise ValueError(f"'{path}' holds {data.shape[0]} rows of {data.shape[1]} columns "
                         f"that are not the nodes of the run's {grid}")
    return Field(grid, data[:, grid.dim])


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
    """Read a field JSON, its ``grid`` read as a config's ``domain`` is; a key
    that is missing or of another JSON type raises ``ConfigError`` naming it."""
    payload = json.loads(Path(path).read_text())
    for key in ("grid", "values"):  # the file's own keys, not config keys: not read by _get
        if not isinstance(payload, dict) or key not in payload:
            _fail(key, "is required")
    grid = _read_grid(_typed(payload["grid"], "grid", "object"), "grid")
    values = _typed(payload["values"], "values", "list")
    return Field(grid, [_typed(v, "values", "number") for v in values])


def read_field(path: str | Path, grid: Grid) -> Field:
    """Read a .json or .csv field file written on ``grid``; a file on
    another grid raises ``ValueError``."""
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        field = read_field_json(path)
        if field.grid != grid:
            raise ValueError(f"'{path}' holds a field on {field.grid}, not on the run's {grid}")
        return field
    if suffix == ".csv":
        return read_field_csv(path, grid)
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


def _read_header(fh) -> tuple[np.ndarray, tuple[int, ...]]:
    """Read the header and sample times of the trajectory binary open at its
    start in ``fh``, leaving ``fh`` at the first state; return (times, n).

    Raises ``ValueError`` unless ``dim`` is 1 or 2 and the file is exactly as
    long as the ``K+1`` times and ``(K+1) x N`` states its header names.
    """
    size = os.fstat(fh.fileno()).st_size
    head = np.fromfile(fh, dtype=_I8, count=1).tolist()
    dim = head[0] if head else None
    if dim not in (1, 2):
        raise ValueError(f"corrupt trajectory header: dim={dim}")
    head = np.fromfile(fh, dtype=_I8, count=1 + dim).tolist()
    if len(head) < 1 + dim or head[0] < 0 or min(head[1:]) < 1:
        raise ValueError(f"corrupt trajectory header: K, n = {head}")
    K, n = head[0], tuple(head[1:])
    expected = (2 + dim + (K + 1) * (1 + math.prod(n))) * _F8.itemsize
    if size != expected:
        raise ValueError(f"corrupt trajectory: {size} bytes where its header "
                         f"(K={K}, n={n}) implies {expected}")
    return np.fromfile(fh, dtype=_F8, count=K + 1), n


def _worker_count(num_blocks: int, num_values: int) -> int:
    """Processes that format a trajectory CSV of ``num_values`` values in
    ``num_blocks`` blocks: one per core this process may run on, but no more
    than there are blocks or ``MIN_VALUES_PER_WORKER`` values each, and 1
    where the platform cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), num_blocks,
                      num_values // MIN_VALUES_PER_WORKER))


def _block_text(src, states_at: int, first: int, times: list[float], tails: list[str]) -> bytes:
    """The CSV rows of samples ``first, first + 1, ...`` at ``times``, their
    states read from ``src``, whose first state starts at byte ``states_at``."""
    N = len(tails)
    src.seek(states_at + first * N * _F8.itemsize)
    block = np.fromfile(src, dtype=_F8, count=len(times) * N)
    return "".join(_csv_rows(_FLOAT % t, tails, state)
                   for t, state in zip(times, block.reshape(-1, N))).encode("ascii")


def _format_share(spool, streamed: str | Path, blocks: range, text) -> None:
    """The body of a forked worker: write ``text(own, b)`` for each of
    ``blocks`` to ``spool``, ``own`` its own handle on ``streamed`` (an
    inherited one shares the caller's offset), flush, and leave through
    ``os._exit``, with status 0 only if every block went, so it never returns
    into the caller or flushes the caller's buffers."""
    status = 1
    try:
        with open(streamed, "rb") as own:
            for b in blocks:
                spool.write(text(own, b))
        spool.flush()
        status = 0
    finally:
        os._exit(status)


def write_trajectory_csv(streamed: str | Path, path: str | Path) -> None:
    """Rows ``t,node,value`` for every sample and node of the binary ``streamed``,
    formatted ``BLOCK_BYTES`` of states at a time in ``W = _worker_count(...)``
    contiguous shares of the blocks: this process writes share 0 to ``path``,
    each forked worker its own share to an anonymous file beside ``streamed``,
    and this process appends those files in share order.

    ``OSError`` if a worker fails; every worker is reaped and every spool
    file closed before this returns or raises, and a failure removes the
    partial file at ``path``.
    """
    with open(streamed, "rb") as src:
        times, n = _read_header(src)
        states_at = src.tell()
        N = math.prod(n)
        tails = [f",{j},{_FLOAT}\n" for j in range(N)]
        per_block = max(1, BLOCK_BYTES // (N * _F8.itemsize))
        firsts = range(0, times.size, per_block)
        workers = _worker_count(len(firsts), times.size * N)
        shares = [range(len(firsts) * p // workers, len(firsts) * (p + 1) // workers)
                  for p in range(workers)]

        def text(fh, b: int) -> bytes:
            first = firsts[b]
            return _block_text(fh, states_at, first, times[first:first + per_block].tolist(),
                               tails)

        spools, pids, written = [], [], False
        try:
            with open(path, "wb") as out:
                try:
                    for share in shares[1:]:
                        spools.append(tempfile.TemporaryFile(dir=Path(streamed).parent))
                        with warnings.catch_warnings():
                            # Python 3.12+ warns of a fork beside BLAS threads; workers call no BLAS
                            warnings.simplefilter("ignore", DeprecationWarning)
                            pid = os.fork()
                        if pid == 0:
                            _format_share(spools[-1], streamed, share, text)
                        pids.append(pid)
                    out.write(b"t,node,value\n")
                    for b in shares[0]:
                        out.write(text(src, b))
                finally:
                    failed = [pid for pid in pids if os.waitpid(pid, 0)[1]]
                if failed:
                    raise OSError(f"trajectory CSV workers {failed} exited with an error")
                for spool in spools:
                    spool.seek(0)
                    shutil.copyfileobj(spool, out)
            written = True
        finally:
            for spool in spools:
                spool.close()
            if not written and os.path.isfile(path):  # never a device
                os.unlink(path)


def write_trajectory_bin(streamed: str | Path, path: str | Path) -> None:
    """Move the binary ``streamed`` (see ``trajectory_stream``) to ``path``."""
    os.replace(streamed, path)


def read_trajectory_bin(path: str | Path) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Return (times, states, n); geometry beyond node counts is not stored."""
    with open(path, "rb") as fh:
        times, n = _read_header(fh)
        states = np.fromfile(fh, dtype=_F8).reshape(times.size, math.prod(n))
    return times, states, n
