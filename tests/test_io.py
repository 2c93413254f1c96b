import math

import numpy as np
import pytest

from nonlocal_heat import EvolutionConfig, Field, Grid, assemble, evolve
from nonlocal_heat.io import (
    read_field,
    read_field_csv,
    read_field_json,
    read_trajectory_bin,
    write_field_csv,
    write_field_json,
    write_trajectory_bin,
    write_trajectory_csv,
)


def make_trajectory():
    rng = np.random.default_rng(31)
    g = Grid((1.0,), (7,))
    u0 = Field(g, rng.standard_normal(7))
    return evolve(assemble(g), Field.zeros(g), u0, EvolutionConfig(T=0.2, steps=8))


def test_field_csv_roundtrip_1d(tmp_path):
    g = Grid((2.0,), (9,))
    f = Field.from_function(g, lambda x: np.sin(math.pi * x / 2.0))
    path = tmp_path / "f.csv"
    write_field_csv(f, path)
    header = path.read_text().splitlines()[0]
    assert header == "x,value"
    back = read_field_csv(path)
    assert back.grid == g
    assert np.allclose(back.values, f.values, rtol=0, atol=1e-15)


def test_field_csv_roundtrip_2d(tmp_path):
    for g in (Grid((1.0, 2.0), (4, 6)), Grid((1.0, 2.0), (1, 5))):
        f = Field.from_function(g, lambda x, y: x * y + 1.0)
        path = tmp_path / "f.csv"
        write_field_csv(f, path)
        assert path.read_text().splitlines()[0] == "x,y,value"
        back = read_field_csv(path)
        assert back.grid == g
        assert np.allclose(back.values, f.values, rtol=0, atol=1e-15)


def test_field_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0.1,1.0\n0.25,2.0\n0.3,3.0\n")
    with pytest.raises(ValueError):
        read_field_csv(path)


def _column_major(rows):
    return sorted(rows, key=lambda row: tuple(map(float, row.split(",")))[1::-1])


@pytest.mark.parametrize("edit, message", [
    (_column_major, "row-major"),
    (lambda rows: [row + ",0.0" for row in rows], "expected 2 or 3 columns, got 4"),
    (lambda rows: rows[:5] + rows[6:], "row-major"),
], ids=["column_major", "four_columns", "missing_row"])
def test_field_csv_rejects_malformed_2d(tmp_path, edit, message):
    path = tmp_path / "f.csv"
    write_field_csv(Field.from_function(Grid((1.0, 2.0), (4, 6)), lambda x, y: x + y), path)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *edit(rows)]) + "\n")
    with pytest.raises(ValueError, match=message):
        read_field_csv(path)


def test_field_json_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(32)
    g = Grid((1.0, 1.5), (3, 5))
    f = Field(g, rng.standard_normal(15))
    path = tmp_path / "f.json"
    write_field_json(f, path)
    back = read_field_json(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)  # bit-exact via repr round-trip


def test_read_field_dispatch(tmp_path):
    g = Grid((1.0,), (3,))
    f = Field(g, [1.0, 2.0, 3.0])
    write_field_json(f, tmp_path / "f.json")
    write_field_csv(f, tmp_path / "f.csv")
    assert np.allclose(read_field(tmp_path / "f.json").values, f.values)
    assert np.allclose(read_field(tmp_path / "f.csv").values, f.values)
    with pytest.raises(ValueError):
        read_field(tmp_path / "f.txt")


def test_trajectory_csv_layout(tmp_path):
    traj = make_trajectory()
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,node,value"
    assert len(lines) == 1 + traj.num_samples * traj.grid.num_nodes
    t, node, value = lines[1].split(",")
    assert float(t) == 0.0 and int(node) == 0
    assert float(value) == traj.states[0, 0]


def test_trajectory_bin_roundtrip(tmp_path):
    traj = make_trajectory()
    path = tmp_path / "traj.bin"
    write_trajectory_bin(traj, path)
    times, states, n = read_trajectory_bin(path)
    assert n == traj.grid.n
    assert np.array_equal(times, traj.times)
    assert np.array_equal(states, traj.states)


def test_trajectory_bin_is_little_endian(tmp_path):
    traj = make_trajectory()
    path = tmp_path / "traj.bin"
    write_trajectory_bin(traj, path)
    raw = path.read_bytes()
    header = np.frombuffer(raw, dtype="<i8", count=3)
    assert header[0] == 1                      # dim
    assert header[1] == traj.num_samples - 1   # K
    assert header[2] == traj.grid.n[0]
    expected_size = 3 * 8 + traj.num_samples * 8 + traj.num_samples * traj.grid.num_nodes * 8
    assert len(raw) == expected_size
