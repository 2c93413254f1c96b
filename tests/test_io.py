import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonlocal_heat import EvolutionConfig, Field, Grid, assemble, evolve
from nonlocal_heat import io as nio
from nonlocal_heat.io import (
    read_field,
    read_field_csv,
    read_field_json,
    read_trajectory_bin,
    trajectory_stream,
    write_field_csv,
    write_field_json,
    write_trajectory_bin,
    write_trajectory_csv,
)
from conftest import deadline, fail_in_workers, savetxt_trajectory_csv, trajectory_binary

#: Values whose ``%.17g`` text is easy to get wrong: signed zero, the least
#: subnormal, the least normal, extremes of either sign, and non-finite ones.
EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
               math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0]


def make_trajectory(tmp_path, collector):
    """A streamed trajectory binary, its grid and config, and every state."""
    rng = np.random.default_rng(31)
    g = Grid((1.0,), (7,))
    u0 = Field(g, rng.standard_normal(7))
    cfg = EvolutionConfig(T=0.2, steps=8)
    every_state = collector(u0)
    streamed = tmp_path / "streamed.bin"
    with trajectory_stream(streamed, u0, cfg) as sink:
        evolve(assemble(g), Field.zeros(g), u0, cfg,
               sink=lambda start, block: (sink(start, block), every_state(start, block)))
    return streamed, g, cfg, every_state.states


def test_field_csv_roundtrip_1d(tmp_path):
    # the grid is the run's, not inferred from the file's coordinates: at
    # length 0.9 and n = 9 those put h * (n + 1) at 0.8999999999999999
    path = tmp_path / "f.csv"
    for length in (0.3, 0.7, 0.9, 1.0, 1.1, 2.0, 2.9, 3.3, 6.1, 10.0):
        for n in (2, 6, 9, 19, 49, 99, 199):
            g = Grid((length,), (n,))
            f = Field.from_function(g, lambda x: np.sin(math.pi * x / length))
            write_field_csv(f, path)
            assert path.read_text().splitlines()[0] == "x,value"
            assert np.array_equal(read_field_csv(path, g).values, f.values)


def test_field_csv_roundtrip_2d(tmp_path):
    for g in (Grid((1.0, 2.0), (4, 6)), Grid((1.0, 2.0), (1, 5))):
        f = Field.from_function(g, lambda x, y: x * y + 1.0)
        path = tmp_path / "f.csv"
        write_field_csv(f, path)
        assert path.read_text().splitlines()[0] == "x,y,value"
        back = read_field_csv(path, g)
        assert np.allclose(back.values, f.values, rtol=0, atol=1e-15)


def test_field_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0.1,1.0\n0.25,2.0\n0.3,3.0\n")
    with pytest.raises(ValueError, match="not the nodes of the run's Grid"):
        read_field_csv(path, Grid((0.4,), (3,)))


def _column_major(rows):
    return sorted(rows, key=lambda row: tuple(map(float, row.split(",")))[1::-1])


@pytest.mark.parametrize("edit, message", [
    (_column_major, "24 rows of 3 columns"),
    (lambda rows: [row + ",0.0" for row in rows], "24 rows of 4 columns"),
    (lambda rows: rows[:5] + rows[6:], "23 rows of 3 columns"),
], ids=["column_major", "four_columns", "missing_row"])
def test_field_csv_rejects_malformed_2d(tmp_path, edit, message):
    path = tmp_path / "f.csv"
    g = Grid((1.0, 2.0), (4, 6))
    write_field_csv(Field.from_function(g, lambda x, y: x + y), path)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *edit(rows)]) + "\n")
    with pytest.raises(ValueError, match=f"{message} that are not the nodes of the run's Grid"):
        read_field_csv(path, g)


def test_field_json_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(32)
    g = Grid((1.0, 1.5), (3, 5))
    f = Field(g, rng.standard_normal(15))
    path = tmp_path / "f.json"
    write_field_json(f, path)
    back = read_field_json(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)  # bit-exact via repr round-trip


@pytest.mark.parametrize("payload", ["[0.5, 1.5]", "5", '"grid"'], ids=["list", "number", "string"])
def test_field_json_that_is_not_an_object_names_its_missing_grid(tmp_path, payload):
    # a short message, not the repr of the file's contents
    path = tmp_path / "f.json"
    path.write_text(payload)
    with pytest.raises(ValueError, match="^grid is required$"):
        read_field_json(path)


def test_read_field_dispatch(tmp_path):
    g = Grid((1.0,), (3,))
    f = Field(g, [1.0, 2.0, 3.0])
    write_field_json(f, tmp_path / "f.json")
    write_field_csv(f, tmp_path / "f.csv")
    assert np.allclose(read_field(tmp_path / "f.json", g).values, f.values)
    assert np.allclose(read_field(tmp_path / "f.csv", g).values, f.values)
    with pytest.raises(ValueError):
        read_field(tmp_path / "f.txt", g)
    other = Grid((1.0,), (4,))  # the CLI's cases cover a length and a dim too
    with pytest.raises(ValueError, match=re.escape(f"on {g}, not on the run's {other}")):
        read_field(tmp_path / "f.json", other)
    with pytest.raises(ValueError, match=re.escape(f"3 rows of 2 columns that are not the "
                                                   f"nodes of the run's {other}")):
        read_field(tmp_path / "f.csv", other)


@contextmanager
def forced_cores(cores, min_values=1):
    """Make the trajectory CSV writer see ``cores`` cores and fork a worker
    for as few as ``min_values`` values; yield the list each fork appends to."""
    forks = []
    fork = os.fork
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nio, "MIN_VALUES_PER_WORKER", min_values)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        mp.setattr(os, "fork", lambda: forks.append(1) or fork())
        yield forks


#: Cores the writer is given: one process, as many as blocks or fewer, and
#: more cores than the 3 blocks the tests' trajectories have (still 3 processes).
CORES = (1, 2, 3, 5)


def test_trajectory_csv_layout(tmp_path, collector, monkeypatch):
    streamed, _, cfg, states = make_trajectory(tmp_path, collector)
    times = cfg.dt * np.arange(cfg.steps + 1)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(streamed, path)
    assert path.read_bytes() == savetxt_trajectory_csv(times, states)
    monkeypatch.setattr(nio, "BLOCK_BYTES", 3 * 7 * 8)  # 9 samples in 3 blocks
    for cores in CORES:
        with forced_cores(cores) as forks:
            write_trajectory_csv(streamed, path)
        assert path.read_bytes() == savetxt_trajectory_csv(times, states)
        assert len(forks) == min(cores, 3) - 1
    # the last write ran on 3 processes, whose spool files had no name
    assert {p.name for p in tmp_path.iterdir()} == {"streamed.bin", "traj.csv"}
    # a platform without fork writes in one process
    with forced_cores(3) as forks, pytest.MonkeyPatch.context() as mp:
        mp.delattr(os, "fork")
        write_trajectory_csv(streamed, path)
    assert path.read_bytes() == savetxt_trajectory_csv(times, states)
    assert forks == []


@pytest.mark.parametrize("n, num_samples", [
    ((12,), 1),      # K = 0
    ((12,), 2),      # fewer samples than a block holds
    ((3, 4), 3),     # exactly one block, dim-2 header
    ((3, 4), 4),     # one block and one more state
    ((12,), 7),      # two full blocks and a partial one
])
def test_trajectory_csv_bytes_match_savetxt(tmp_path, monkeypatch, n, num_samples):
    # a hand-written binary holds what a Field rejects (nan, inf), in the
    # times as well as the states; blocks of 3 states, each worker count
    monkeypatch.setattr(nio, "BLOCK_BYTES", 3 * 12 * 8 + 7)
    values = np.array(EDGE_VALUES)
    states = np.resize(np.roll(values, 1), (num_samples, math.prod(n)))
    times = np.resize(values, num_samples)
    streamed = tmp_path / "streamed.bin"
    streamed.write_bytes(trajectory_binary(n, times, states))
    for cores in CORES:
        with forced_cores(cores) as forks:
            write_trajectory_csv(streamed, tmp_path / "traj.csv")
        assert (tmp_path / "traj.csv").read_bytes() == savetxt_trajectory_csv(times, states)
        assert len(forks) == min(cores, -(-num_samples // 3)) - 1


def readme_sized_binary(path, K=1000, seed=34):
    """A trajectory binary of the README solve's size: n=199, ``K`` steps."""
    rng = np.random.default_rng(seed)
    path.write_bytes(trajectory_binary(
        (199,), 1e-4 * np.arange(K + 1), rng.standard_normal((K + 1, 199))))
    return path


def test_readme_sized_trajectory_csv_is_the_same_on_one_and_two_cores(tmp_path):
    min_values = nio.MIN_VALUES_PER_WORKER
    assert 199 * 1001 // min_values >= 2
    streamed = readme_sized_binary(tmp_path / "streamed.bin")
    texts = []
    for cores in (1, 2):
        with forced_cores(cores, min_values) as forks:
            write_trajectory_csv(streamed, tmp_path / "traj.csv")
        assert len(forks) == cores - 1
        texts.append((tmp_path / "traj.csv").read_bytes())
    assert texts[0] == texts[1]
    assert texts[0].count(b"\n") == 1 + 1001 * 199


def _exit_3_in_workers(monkeypatch):
    parent, exit_ = os.getpid(), os._exit
    monkeypatch.setattr(os, "_exit", lambda status: exit_(3 if os.getpid() != parent else status))


@pytest.mark.parametrize("fault, message", [
    (fail_in_workers, r"workers \[\d+, \d+\] exited with an error"),
    (_exit_3_in_workers, r"workers \[\d+, \d+\] exited with an error"),
    (None, "No space left on device"),
], ids=["worker_raises", "worker_exits_nonzero", "parent_write_fails"])
def test_trajectory_csv_failure_raises_oserror_and_reaps_every_worker(
        tmp_path, monkeypatch, fault, message):
    # 5 blocks of 41 README-sized states in shares of 1, 2 and 2 blocks on 3
    # processes.  Without a fault the parent's own write fails: a block's
    # text (~200 KB) outgrows the output buffer, so writing it to a full
    # device fails at once, while the workers format their shares
    target = tmp_path / "traj.csv" if fault else Path("/dev/full")
    if not fault and not target.exists():
        pytest.skip("no full device to write to")
    streamed = readme_sized_binary(tmp_path / "streamed.bin", K=200)
    if fault:
        fault(monkeypatch)
    with forced_cores(3) as forks, deadline(30), pytest.raises(OSError, match=message):
        write_trajectory_csv(streamed, target)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # a failed write leaves no partial CSV behind
    assert {p.name for p in tmp_path.iterdir()} == {"streamed.bin"}


def _savetxt_field_csv(field):
    out = io.BytesIO()
    header = ",".join(("x", "y")[:field.grid.dim] + ("value",))
    np.savetxt(out, np.column_stack((*field.grid.coordinates(), field.values)),
               delimiter=",", header=header, comments="", fmt="%.17g")
    return out.getvalue()


@pytest.mark.parametrize("g", [Grid((1.0,), (11,)), Grid((1.0, 2.0), (7, 5))],
                         ids=["1d", "2d"])
def test_field_csv_bytes_match_savetxt(tmp_path, g):
    finite = [v for v in EDGE_VALUES if math.isfinite(v)]  # a Field holds no others
    f = Field(g, np.resize(finite, g.num_nodes))
    write_field_csv(f, tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_bytes() == _savetxt_field_csv(f)


def _formatted(values):
    """``nio._float_chars`` of ``values``, one bytes object per value."""
    chars = nio._float_chars(np.array(values, dtype=float))
    return [row.tobytes().translate(None, b"\0") for row in chars]


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_float_chars_are_the_bytes_of_percent_17g(values):
    assert _formatted(values) == [b"%.17g" % v for v in values]


def _decade_neighbours():
    """Each power of ten from 1e-7 to 1e17 and the 64 floats on either side
    of it, of both signs."""
    values = []
    for k in range(-7, 18):
        below = above = 10.0 ** k
        values.append(below)
        for _ in range(64):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            values += [below, above]
    return values + [-v for v in values]


def _exact_ties():
    """Floats ``m / 2**(p + 1)``, ``m`` odd, with ``e = 16 - p`` in -6..15:
    each times ``10**p`` lies halfway between two 17-digit integers."""
    ties = []
    for p in range(1, 23):
        least = -(-2 ** (p + 1) * 10 ** 16 // 10 ** p) | 1  # the least odd m with e = 16 - p
        ties += [m / 2 ** (p + 1) for m in range(least, least + 40, 2)]
    return ties + [-v for v in ties]


def test_float_chars_on_decade_edges_and_ties(monkeypatch):
    # nextafter(1e-6, 0) times 1e22 is 1e16 - 0.5, which rounds to 1e16: a
    # value the exact product, not its rounding, must refuse
    values = _decade_neighbours()
    assert math.nextafter(1e-6, 0.0) in values
    assert _formatted(values) == [b"%.17g" % v for v in values]
    # no float rounds up into the next decade at 17 digits: the gap below
    # 10**k, at least 2**-53 * 10**k, is over twice the 17th digit's half unit
    assert all((b"%.17g" % math.nextafter(10.0 ** k, 0.0)).lstrip(b"0.").startswith(b"9")
               for k in range(-7, 18))
    # a tie on the fallback path, rounded half to even by % itself
    assert _formatted([2.0 ** -25]) == [b"2.9802322387695312e-08"]
    # ties rounded half to even with no value left to %: .75 rounds up
    # either way, .25 only half to even keeps its 2
    monkeypatch.setattr(nio, "_FLOAT", None)
    assert _formatted([1234567890123456.75, 1234567890123456.25, -1234567890123456.25]) == [
        b"1234567890123456.8", b"1234567890123456.2", b"-1234567890123456.2"]
    ties = _exact_ties()
    assert _formatted(ties) == [b"%.17g" % v for v in ties]


def _valid_binary():
    return trajectory_binary((11,), np.arange(3.0), np.ones((3, 11)))


def _with_dim(dim):
    return np.array([dim], dtype="<i8").tobytes() + _valid_binary()[8:]


@pytest.mark.parametrize("raw", [
    _valid_binary()[:-11 * 8],
    _valid_binary()[:-1],
    _valid_binary() + b"\0",
    _with_dim(0),
    _with_dim(3),
    _with_dim(2),
    _valid_binary()[:12],
    b"",
], ids=["one_row_short", "one_byte_short", "one_byte_long", "dim_0", "dim_3",
        "dim_2_of_a_dim_1_file", "header_cut", "empty"])
def test_corrupt_trajectory_binary_raises_before_any_csv_byte(tmp_path, raw):
    streamed = tmp_path / "streamed.bin"
    streamed.write_bytes(raw)
    with pytest.raises(ValueError, match="corrupt trajectory"):
        write_trajectory_csv(streamed, tmp_path / "traj.csv")
    assert not (tmp_path / "traj.csv").exists()
    with pytest.raises(ValueError, match="corrupt trajectory"):
        read_trajectory_bin(streamed)


#: Writes a trajectory CSV on 2 processes in a fresh interpreter and prints
#: the largest resident set of its reaped children, in KiB.
WORKER_RSS_SCRIPT = """
import os, resource, sys
from nonlocal_heat import io as nio
nio.MIN_VALUES_PER_WORKER = 1
os.sched_getaffinity = lambda pid: {0, 1}
nio.write_trajectory_csv(sys.argv[1], sys.argv[2])
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_trajectory_csv_writer_memory_does_not_grow_with_steps(tmp_path):
    src = str(Path(nio.__file__).resolve().parents[1])
    peaks, worker_rss = [], []
    for K in (1000, 4000):
        streamed = readme_sized_binary(tmp_path / f"K{K}.bin", K=K, seed=33)
        tracemalloc.start()
        try:
            with forced_cores(2) as forks:
                write_trajectory_csv(streamed, tmp_path / "traj.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(forks) == 1
        proc = subprocess.run([sys.executable, "-c", WORKER_RSS_SCRIPT, str(streamed),
                               str(tmp_path / "traj.csv")],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        worker_rss.append(int(proc.stdout))
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0]
    assert 0 < worker_rss[0] and abs(worker_rss[1] - worker_rss[0]) < 0.1 * worker_rss[0]


def test_trajectory_bin_roundtrip(tmp_path, collector):
    streamed, g, cfg, expected = make_trajectory(tmp_path, collector)
    path = tmp_path / "traj.bin"
    write_trajectory_bin(streamed, path)
    times, states, n = read_trajectory_bin(path)
    assert n == g.n
    assert np.array_equal(times, cfg.dt * np.arange(cfg.steps + 1))
    assert np.array_equal(states, expected)


def test_trajectory_bin_is_little_endian(tmp_path, collector):
    streamed, g, _, states = make_trajectory(tmp_path, collector)
    path = tmp_path / "traj.bin"
    write_trajectory_bin(streamed, path)
    raw = path.read_bytes()
    num_samples = states.shape[0]
    header = np.frombuffer(raw, dtype="<i8", count=3)
    assert header[0] == 1                      # dim
    assert header[1] == num_samples - 1        # K
    assert header[2] == g.n[0]
    expected_size = 3 * 8 + num_samples * 8 + num_samples * g.num_nodes * 8
    assert len(raw) == expected_size
