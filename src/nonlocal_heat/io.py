"""File formats, and the JSON type checks that configs and field JSON share.

Field JSON carries the grid header next to a flat value array, is read with
those checks and round-trips exactly.  The trajectory binary is little-endian: int64
header ``dim, K, n_1 [, n_2]``, then ``K+1`` float64 sample times, then the
``(K+1) x N`` state matrix row-major as float64, row k the state at step
``k * store_every``.  A trajectory is streamed into that layout while it is
stepped.

Both CSVs print every float as ``%.17g`` does (17 significant digits, so
each value reads back exactly) and end lines in a bare line feed.  Field
CSV rows are ``x[,y],value``, one per interior node; trajectory CSV rows
are ``t,node,value``, node the row-major node index.

Those bytes come from ``_float_chars``, which formats a whole array at once
with float64 arithmetic.  For ``|v|`` in ``[1e-6, 1e17)`` with ``e`` its
decimal exponent as ``floor(log10)`` estimates it, the 17 digits are
``q = |v| * 10**(16 - e)`` rounded half to even, as ``%`` rounds.  Dekker's
exact product (Veltkamp halves, no fused multiply-add) gives it as
``y + err``; the value is taken only if that exact sum is at least
``10**16`` (``y > 1e16``, or ``y == 1e16`` and ``err >= 0``: the rounded
``y`` or ``q`` would pass ``nextafter(1e-6, 0)``, whose product
``1e16 - 0.5`` rounds up) and ``q`` is below ``10**17``.  Then ``y`` is an
even integer and ``|err|`` at most half its ulp, so ``q = y + rint(err)``
exactly, and an estimate of ``e`` that is one off is refused, whichever
``log10`` kernel numpy runs.  Zeros, subnormals, ``nan``, ``inf``, values
outside ``[1e-6, 1e17)`` and refused ones go through ``%`` one by one.

A field file is read against the run's grid; a CSV coordinate may be off
its node by a relative 1e-9.  The trajectory CSV is formatted from the
binary ``BLOCK_BYTES`` of states at a time, so its memory does not grow
with ``K``; a binary whose size differs from the one its header implies
raises ``ValueError`` before any CSV byte is written.

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

#: Format of every float in a CSV: enough digits to read back exactly.  The
#: CSV writers apply it by ``_float_chars``, which leaves to ``%`` only the
#: values outside its exact fast path.
_FLOAT = b"%.17g"

#: Bytes of binary states the trajectory CSV writer reads per block, and
#: values per block of the field CSV writer.
BLOCK_BYTES = 1 << 16

#: Fewest values a trajectory CSV worker process is forked for: about 12 ms
#: of formatting at about 250 ns a value (``_float_chars`` and the row
#: text), against about 1.5 ms to fork and reap one.  On a shared 2-core
#: x86-64, the README-sized writer (199,199 values) took a median of
#: 50-76 ms on 1 process and 42-70 ms on 2, in five alternating sets of 15
#: writes: 2 processes were faster in 3 sets and slower in 2, as the second
#: core came and went.  That does not favour another value.
MIN_VALUES_PER_WORKER = 50_000

#: Veltkamp's splitting constant: ``_split`` halves a float64 into two of
#: at most 26 significant bits, whose products are exact.
_SPLIT = 2.0 ** 27 + 1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of ``a``: ``(hi, lo)`` with ``hi + lo == a`` exactly."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


#: ``10**p`` for ``p`` in 0..22, each exact in float64, and its split.
_POW10 = np.array([float(10 ** p) for p in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)

#: A ``_float_chars`` row is built in 32 bytes: the sign in byte 1, the
#: ``0.`` and zeros of a fixed form below 1 in bytes 2-6, the 17 digits in
#: bytes 7-23, and the exponent of a scientific form in bytes 25-28; a
#: point inside the digits moves those after it one byte on.  Bytes 1-28
#: are the row.
_DIGITS = slice(7, 24)
_ROW = slice(1, 29)
_WIDTH = _ROW.stop - _ROW.start
_COLUMNS = np.arange(17)

#: Bytes 4-23 of a row are 5 words of 4 digits, each word looked up by the
#: 4 digits' value; word 1, whose first 3 bytes belong to the sign and the
#: ``0.000``, by ``10_000`` plus its one digit.
_DIGIT_WORDS = np.zeros((10_010, 4), np.uint8)
_DIGIT_WORDS[:10_000] = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")
_DIGIT_WORDS[10_000:, 3] = np.arange(ord("0"), ord("9") + 1)
_DIGIT_WORDS = _DIGIT_WORDS.view(np.uint32).ravel()

#: Row ``u``: the order of the digits and the byte after them once a point
#: (placed in that byte) follows digit ``u``.
_POINTED = np.array([[*range(u + 1), 17, *range(u + 1, 17)] for u in range(16)])

#: Per decimal exponent ``e`` in -6..16 (row ``e + 6``): the row of constant
#: characters, and the units digit, which a point follows (-1: none, the
#: ``0.`` of a fixed form below 1).  ``%.17g`` writes ``e`` from -4 on in
#: fixed form, -6 and -5 in scientific form.
_FRAMES = np.zeros((23, 32), np.uint8)
_UNITS = np.zeros(23, np.intp)
for _e in range(-6, 17):
    if _e < -4:
        _FRAMES[_e + 6, 25:29] = list(b"e%+03d" % _e)
    elif _e < 0:
        _prefix = b"0." + b"0" * (-_e - 1)
        _FRAMES[_e + 6, 7 - len(_prefix):7] = list(_prefix)
        _UNITS[_e + 6] = -1
    else:
        _UNITS[_e + 6] = _e
_FRAMES = _FRAMES.view(np.uint64)
del _e, _prefix

_COMMA = np.frombuffer(b",", np.uint8)
_NEWLINE = np.frombuffer(b"\n", np.uint8)


def _float_chars(x: np.ndarray) -> np.ndarray:
    """The characters of ``_FLOAT % v`` for each ``v`` of ``x``: row ``i`` of
    the ``(x.size, _WIDTH)`` uint8 result holds those of ``x[i]`` in order,
    with NUL bytes between and after them.

    The fast path and its exactness are set out in the module docstring.
    It takes no ``q`` of ``10**17``: no float64 rounds up to the next power
    of ten at 17 digits (the gap below ``10**k`` is at least
    ``2**-53 * 10**k``, over twice the 17th digit's half unit), so only an
    estimate of ``e`` one too low makes one, and ``%`` formats that value.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    fast = np.flatnonzero((e >= -6) & (e <= 16))
    a, e = a[fast], e[fast].astype(np.intp)
    p = 16 - e
    y = a * _POW10[p]
    ah, al = _split(a)
    err = al * _POW10_LO[p] - (((y - ah * _POW10_HI[p]) - al * _POW10_HI[p]) - ah * _POW10_LO[p])
    q = y.astype(np.int64) + np.rint(err).astype(np.int64)
    ok = ((y > 1e16) | ((y == 1e16) & (err >= 0))) & (q < 10 ** 17)
    fast, q, e = fast[ok], q[ok], e[ok]

    quads = np.empty((q.size, 5), np.intp)
    for k in range(4, 0, -1):
        rest = q // 10_000
        quads[:, k] = q - rest * 10_000
        q = rest
    quads[:, 0] = q + 10_000
    words = _FRAMES.take(e + 6, axis=0)
    words.view(np.uint32)[:, 1:6] |= _DIGIT_WORDS.take(quads)
    chars = words.view(np.uint8)
    chars[np.signbit(x[fast]), 1] = ord("-")
    units, last = _UNITS[e + 6], np.full(q.size, 16)  # last: the last nonzero digit
    zeros = np.flatnonzero(chars[:, _DIGITS.stop - 1] == ord("0"))
    if zeros.size:
        digits = chars[zeros, _DIGITS]
        last[zeros] = 16 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
        kept = _COLUMNS <= np.maximum(last[zeros], units[zeros])[:, None]
        chars[zeros, _DIGITS] = np.where(kept, digits, 0)
    points = np.flatnonzero((units >= 0) & (last > units))
    if points.size:
        u = units[points]
        chars[points, 7:25] = np.take_along_axis(chars[points, 7:25], _POINTED[u], axis=1)
        chars[points, 8 + u] = ord(".")
    if fast.size == x.size:
        return chars[:, _ROW]

    out = np.zeros((x.size, _WIDTH), np.uint8)
    out[fast] = chars[:, _ROW]
    slow = np.ones(x.size, bool)
    slow[fast] = False
    slow = np.flatnonzero(slow)
    # one % call per distinct bit pattern: a block of zeros costs one call
    _, first, inverse = np.unique(x[slow].view(np.int64), return_index=True,
                                  return_inverse=True)
    texts = np.zeros((first.size, _WIDTH), np.uint8)
    for k, v in enumerate(x[slow[first]].tolist()):
        text = _FLOAT % v
        texts[k, :len(text)] = list(text)
    out[slow] = texts[inverse]
    return out


def _text(shape: tuple[int, ...], *pieces: np.ndarray) -> bytes:
    """``pieces``, uint8 character matrices with NUL bytes for gaps, each
    broadcast to ``shape`` rows and laid side by side, NUL bytes deleted."""
    return np.concatenate([np.broadcast_to(p, (*shape, p.shape[-1])) for p in pieces],
                          axis=-1).tobytes().translate(None, b"\0")


def write_field_csv(field: Field, path: str | Path) -> None:
    columns = (*field.grid.coordinates(), field.values)
    per_block = BLOCK_BYTES // _F8.itemsize
    with open(path, "wb") as out:
        out.write(",".join((*_AXES[:field.grid.dim], "value")).encode("ascii") + b"\n")
        for start in range(0, field.grid.num_nodes, per_block):
            pieces = [p for c in columns for p in (_float_chars(c[start:start + per_block]),
                                                   _COMMA)]
            pieces[-1] = _NEWLINE
            out.write(_text(pieces[0].shape[:1], *pieces))


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


def _block_text(src, states_at: int, first: int, times: np.ndarray, nodes: np.ndarray) -> bytes:
    """The CSV rows of samples ``first, first + 1, ...`` at ``times``, their
    states read from ``src``, whose first state starts at byte ``states_at``;
    row ``j`` of ``nodes`` holds the characters of ``,j,``."""
    N = nodes.shape[0]
    src.seek(states_at + first * N * _F8.itemsize)
    block = np.fromfile(src, dtype=_F8, count=times.size * N)
    stamps = _float_chars(times)
    stamps = stamps[:, stamps.any(axis=0)]  # columns NUL in every row only add bytes to delete
    return _text((times.size, N), stamps[:, None], nodes,
                 _float_chars(block).reshape(times.size, N, _WIDTH), _NEWLINE)


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
        nodes = np.array([b",%d," % j for j in range(N)]).view(np.uint8).reshape(N, -1)
        per_block = max(1, BLOCK_BYTES // (N * _F8.itemsize))
        firsts = range(0, times.size, per_block)
        workers = _worker_count(len(firsts), times.size * N)
        shares = [range(len(firsts) * p // workers, len(firsts) * (p + 1) // workers)
                  for p in range(workers)]

        def text(fh, b: int) -> bytes:
            first = firsts[b]
            return _block_text(fh, states_at, first, times[first:first + per_block], nodes)

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
