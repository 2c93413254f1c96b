import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nonlocal_heat import (DirichletLaplacian, Field, Grid, assemble, cli, evolve, laplacian,
                           picard_solve, uniqueness_threshold)
from nonlocal_heat import evolution, fixedpoint
from nonlocal_heat import io as nio
from nonlocal_heat.io import read_field_json
from conftest import deadline, fail_in_workers, savetxt_trajectory_csv, trajectory_binary


def base_config(out_dir, **overrides):
    cfg = {
        "domain": {"dim": 1, "lengths": [1.0], "n": [49]},
        "time": {"T": 0.1, "steps": 100, "scheme": "implicit_euler"},
        "potential": {"name": "quadratic", "params": []},
        "initial": {"name": "sine_mode", "params": {"k": 1, "amplitude": 0.5}},
        "fixedpoint": {"tol": 1e-10, "max_iter": 200, "damping": 1.0},
        "output": {"dir": str(out_dir), "formats": ["csv", "json"]},
        "mode": "solve",
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


def readme_config(out_dir):
    """The README's example config, writing to ``out_dir``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = json.loads(readme.split("Example config:\n\n```json\n", 1)[1].split("```", 1)[0])
    cfg["output"]["dir"] = str(out_dir)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_solve_zero_datum(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["initial"] = {"name": "constant", "params": {"value": 0.0}}
    code = cli.run(write_config(tmp_path, cfg), quiet=True)
    assert code == 0
    ut = read_field_json(out / "ut.json")
    assert np.all(ut.values == 0.0)
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["iterations"] == 1
    assert (out / "config.json").exists()
    assert (out / "ut.csv").exists()
    assert (out / "trajectory.csv").exists()


def test_solve_heat_closed_form(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["domain"]["n"] = [199]
    cfg["time"]["steps"] = 1000
    cfg["potential"] = {"name": "zero", "params": []}
    cfg["initial"]["params"]["amplitude"] = 1.0
    code = cli.run(write_config(tmp_path, cfg))
    assert code == 0
    summary = capsys.readouterr().out.strip()
    assert "converged=True" in summary and "elliptic_residual=" in summary
    ut = read_field_json(out / "ut.json")
    coeff = -math.expm1(-math.pi**2 * 0.1) / math.pi**2
    assert np.max(ut.values) == pytest.approx(coeff, rel=1e-3)
    report = json.loads((out / "report.json").read_text())
    assert report["verification"]["solution_bounds"]["passed"] is True
    assert report["verification"]["energy"]["bound_ok"] is True


def test_readme_example_config(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Example config:\n\n```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block)
    assert cli.run(path, out=tmp_path / "out", quiet=True) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verification"]["passed"] is True


def test_parse_config_reads_only_keys_the_readme_names(tmp_path, monkeypatch):
    # every key parse_config asks for, in any mode and for any datum, is a key
    # of the README's example config or a backticked word of its CLI section
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = json.loads(readme.split("Example config:\n\n```json\n", 1)[1].split("```", 1)[0])
    cli_text = re.sub(r"```.*?```", "", readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0],
                      flags=re.S)

    def keys(obj):
        return set(obj) | {k for v in obj.values() if isinstance(v, dict) for k in keys(v)}

    named = keys(example) | {word for span in re.findall(r"`([^`]+)`", cli_text)
                             for word in re.findall(r"\w+", span)}
    read = set()
    # the domain's keys are read by the grid reader in io, through io's getters
    for owner, name in ((cli, "_get"), (cli, "_get_list"), (cli, "_per_axis"),
                        (nio, "_get"), (nio, "_get_list")):
        def recording(section, field, *args, _original=getattr(owner, name), **kwargs):
            read.add(field.rsplit(".", 1)[-1])
            return _original(section, field, *args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
    datum = tmp_path / "datum.json"
    nio.write_field_json(Field.zeros(Grid((1.0,), (49,))), datum)
    data = [sine(0.5), {"name": "gaussian", "params": {"width": 0.1}},
            {"name": "constant", "params": {"value": 1.0}},
            {"name": "from_file", "params": {"path": str(datum)}}]
    for mode in cli.MODES:
        for initial in data:
            cli.parse_config(base_config(tmp_path / "out", mode=mode, initial=initial,
                                         study={"refine": "time_only"},
                                         sweep={"axis": "T", "values": [0.1]}))
    assert {"refine", "axis", "path", "dim", "lengths", "n"} <= read
    assert read - named == set()


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("True ") and lines[1].startswith("True ")


def test_invalid_steps_names_field(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["time"]["steps"] = 1
    code = cli.run(write_config(tmp_path, cfg), quiet=True)
    assert code == 3
    assert "time.steps must be an integer >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c["domain"].update(dim=3),
        lambda c: c["domain"].update(n=[0]),
        lambda c: c["time"].update(T=-1.0),
        lambda c: c["potential"].update(name="mystery"),
        lambda c: c["initial"].update(name="spike"),
        lambda c: c["fixedpoint"].update(damping=2.0),
        lambda c: c["output"].update(formats=["xml"]),
        lambda c: c.update(mode="meditate"),
        lambda c: c.update(seed="zero"),
        lambda c: c["time"].update(T=math.nan),
        lambda c: c["time"].update(T=math.inf),
        lambda c: c["initial"]["params"].update(amplitude=math.nan),
        lambda c: c["fixedpoint"].update(tol=math.nan),
        lambda c: c.update(mode="sweep", sweep={"axis": "T", "values": [math.nan, 0.1]}),
        lambda c: c["output"].update(dir=5),
        lambda c: c["fixedpoint"].update(initial_guess=[1, 2]),
        lambda c: c["domain"].update(n=[True]),
        lambda c: c["initial"]["params"].update(k=True),
        lambda c: c.update(initial={"name": "gaussian", "params": {"width": 1e-300}}),
        lambda c: c["initial"].update(sign_check="no"),
        lambda c: c["time"].update(scheme="crank-nicolson"),  # one spelling per scheme
        lambda c: c.pop("time"),  # a required section
        lambda c: c.update(initial={"name": "gaussian",
                                    "params": {"width": 0.1, "center": [0.5, 0.5]}}),
        lambda c: c["initial"]["params"].update(k=0),
        lambda c: c.update(mode="convergence_study", study={"refine": "space"}),
        lambda c: c.update(mode="sweep", sweep={"axis": "dt", "values": [0.1]}),
        lambda c: "{not json",
        lambda c: json.dumps([c]),  # a list at the top level
    ],
)
def test_invalid_configs_exit_3(tmp_path, capsys, mutate):
    # a mutation edits the config in place or returns the file's whole text
    out = tmp_path / "out"
    cfg = base_config(out)
    text = mutate(cfg)
    path = tmp_path / "config.json"
    path.write_text(text if isinstance(text, str) else json.dumps(cfg))
    assert cli.run(path, quiet=True) == 3
    assert capsys.readouterr().err.startswith("invalid config: ")
    assert not out.exists()


@pytest.mark.parametrize("n", [[10**16], [1, 10**16], [1, 10**6], [1, 10**8]],
                         ids=["1d", "2d", "2d_operator", "2d_datum"])
def test_unallocatable_grid_exits_3_with_one_line(tmp_path, capsys, monkeypatch, n):
    # the operator is built before the datum, and allocates each array
    # before the loop that fills it: 10**16 nodes take 71 PiB, beyond any
    # address space, so the operator's first array fails to allocate and
    # nothing is allocated; 10**6 and 10**8 nodes give an 8 MB and an 800 MB
    # datum, but the operator's sine matrix of that axis (7.28 TiB, 71 PiB)
    # is refused at once, before the eigenvalues' loop over the nodes of
    # each axis runs and before the datum is built
    eigenvalue_calls, datum_calls = [], []
    eigenvalues, initial_datum = laplacian.dirichlet_eigenvalues, cli._initial_datum
    monkeypatch.setattr(laplacian, "dirichlet_eigenvalues",
                        lambda grid: eigenvalue_calls.append(grid) or eigenvalues(grid))
    monkeypatch.setattr(cli, "_initial_datum",
                        lambda *args: datum_calls.append(args) or initial_datum(*args))
    out = tmp_path / "out"
    cfg = base_config(out, domain={"dim": len(n), "lengths": [1.0] * len(n), "n": n})
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 3
    assert eigenvalue_calls == [] and datum_calls == []
    err = capsys.readouterr().err
    assert err.startswith(f"invalid config: domain.n must give a grid that can be allocated, "
                          f"got {n}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_invalid_mode_settings_exit_3_before_any_write(tmp_path):
    first = tmp_path / "first"
    assert cli.run(write_config(tmp_path, base_config(first), "c0.json"), quiet=True) == 0
    from_file = {"name": "from_file", "params": {"path": str(first / "ut.json")}}
    out = tmp_path / "out"
    probe = base_config(out, mode="probe")
    probe["fixedpoint"]["starts"] = 1
    short_study = base_config(out, mode="convergence_study", study={"levels": 1})
    # a file holds one grid, so a from_file datum cannot be refined in space
    file_study = base_config(out, mode="convergence_study", initial=from_file,
                             study={"levels": 2, "refine": "space_time"})
    for i, cfg in enumerate([probe, short_study, file_study], start=1):
        assert cli.run(write_config(tmp_path, cfg, f"c{i}.json"), quiet=True) == 3
        assert not out.exists()
    file_study["study"]["refine"] = "time_only"
    assert cli.run(write_config(tmp_path, file_study), quiet=True) == 0


def test_study_reads_a_from_file_datum_once(tmp_path, monkeypatch):
    # level 0 is the study's own problem, built by the one parse of its
    # config; a time_only level replaces only its time discretization, so
    # every level shares the datum and the operator
    first = tmp_path / "first"
    assert cli.run(write_config(tmp_path, base_config(first), "c0.json"), quiet=True) == 0
    reads = []
    read_field = nio.read_field

    def counted(path, grid):
        reads.append(path)
        return read_field(path, grid)

    monkeypatch.setattr(nio, "read_field", counted)
    from_file = {"name": "from_file", "params": {"path": str(first / "ut.json")}}
    cfg = base_config(tmp_path / "out", mode="convergence_study", initial=from_file,
                      study={"levels": 2, "refine": "time_only"})
    job = cli.parse_config(cfg)
    assert len(reads) == 1
    assert [level.mode for level in job.levels] == ["solve", "solve"]
    assert [level.ecfg.steps for level in job.levels] == [100, 200]
    assert all(level.u0 is job.u0 and level.lap is job.lap for level in job.levels)
    assert job.levels[0].threshold == job.threshold
    assert job.levels[0].levels is None


def test_jobs_build_one_operator_per_grid(tmp_path, monkeypatch):
    # sweep rows share the sweep's grid and a time_only study's levels the
    # study's, so each builds one stencil operator, and such a study reads a
    # from_file datum once; a space_time study builds one operator per level
    builds, reads = [], []
    post_init, read_field = DirichletLaplacian.__post_init__, nio.read_field
    monkeypatch.setattr(DirichletLaplacian, "__post_init__",
                        lambda lap: builds.append(lap.grid.n) or post_init(lap))
    monkeypatch.setattr(nio, "read_field", lambda path, grid: reads.append(path)
                        or read_field(path, grid))
    path = tmp_path / "datum.json"
    nio.write_field_json(Field.from_function(Grid((1.0,), (9,)), lambda x: x * (1 - x)), path)
    from_file = {"name": "from_file", "params": {"path": str(path)}}
    cases = [
        (dict(mode="sweep", sweep={"axis": "T", "values": [0.05, 0.1, 0.2]}), [(9,)], 0),
        (dict(mode="sweep", sweep={"axis": "amplitude", "values": [0.5, 1.0, 2.0]}), [(9,)], 0),
        (dict(mode="convergence_study", initial=from_file,
              study={"levels": 3, "refine": "time_only"}), [(9,)], 1),
        (dict(mode="convergence_study", study={"levels": 3, "refine": "space_time"}),
         [(9,), (19,), (39,)], 0),
    ]
    for i, (overrides, built, read) in enumerate(cases):
        builds.clear()
        reads.clear()
        cfg = base_config(tmp_path / f"out{i}", **overrides)
        cfg["domain"]["n"] = [9]
        cfg["time"]["steps"] = 20
        assert cli.run(write_config(tmp_path, cfg, f"c{i}.json"), quiet=True) == 0
        assert (builds, len(reads)) == (built, read)


def test_negative_seed_exits_3_before_any_write(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out, mode="probe", seed=-1))
    assert cli.run(path, quiet=True) == 3
    assert "invalid config: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()
    path = write_config(tmp_path, base_config(out, mode="probe"))
    assert cli.main([str(path), "--seed", "-5", "--quiet"]) == 3
    assert "invalid config: seed must be >= 0, got -5" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_3(tmp_path):
    assert cli.run(tmp_path / "nope.json", quiet=True) == 3


def test_sign_check_rejects_signed_datum(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["initial"] = {"name": "sine_mode", "params": {"k": 2}, "sign_check": True}
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 3
    assert "it has negative entries" in capsys.readouterr().err
    # a truthy string is not a boolean: it is rejected for its type
    cfg["initial"]["sign_check"] = "no"
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 3
    assert "initial.sign_check must be a boolean, got 'no'" in capsys.readouterr().err
    cfg["initial"]["sign_check"] = False
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0


def test_nonconvergence_exits_2_with_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["fixedpoint"]["max_iter"] = 1
    cfg["initial"]["params"]["amplitude"] = 1.0
    code = cli.run(write_config(tmp_path, cfg), quiet=True)
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert len(report["residual_history"]) == 1
    assert (out / "ut.json").exists()


@pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson"])
def test_verification_holds_above_1e154(tmp_path, scheme):
    # squares of states this large overflow; every check scales first, so a
    # finite, non-expanding run verifies (the suite fails on RuntimeWarning)
    out = tmp_path / "out"
    cfg = base_config(out, potential={"name": "zero", "params": []})
    cfg["time"]["scheme"] = scheme
    cfg["initial"]["params"]["amplitude"] = 1e160
    cfg["output"]["formats"] = ["json"]
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0
    verification = json.loads((out / "report.json").read_text())["verification"]
    assert all(verification["solution_bounds"]["norm_ok"].values())
    assert verification["energy"]["bound_ok"] is True
    assert verification["passed"] is True
    assert 0.99 < verification["solution_bounds"]["norm_ratios"]["2"] <= 1.0 + 1e-10


def test_growth_beyond_float_range_fails_verification_without_error(tmp_path):
    # constant(-2000) makes each Crank-Nicolson step multiply the state by
    # about 399, so u(T) / max|u0| is about 1e312 though every state is finite
    out = tmp_path / "out"
    cfg = base_config(out, potential={"name": "constant", "params": [-2000.0]})
    cfg["time"] = {"T": 0.12, "steps": 120, "scheme": "crank_nicolson"}
    cfg["initial"]["params"]["amplitude"] = 1e-10
    cfg["output"]["formats"] = ["json"]
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0
    verification = json.loads((out / "report.json").read_text())["verification"]
    energy = verification["energy"]
    assert energy["final_norm_ok"] is False and energy["integral_norm_ok"] is False
    assert energy["final_norm_ratio"] is None  # inf, written as null
    # phi < -pi^2 makes both sides of the identity negative (-inf, null), so
    # the upper bound holds; they still agree to rounding
    assert energy["lhs"] is None and energy["rhs"] is None
    assert energy["bound_ok"] is True
    assert energy["relative_mismatch"] < 1e-12
    assert math.isclose(energy["bound"], 1.2e-21, rel_tol=1e-12)
    assert verification["passed"] is False


def test_elliptic_residual_is_finite_where_its_unscaled_terms_overflow(tmp_path, capsys):
    # at amplitude 1e306, L uT exceeds the floating-point range; the
    # residual is taken on the scaled states, and it is scale-invariant
    residuals = {}
    for amplitude in (1e300, 1e306):
        out = tmp_path / f"a{amplitude:g}"
        cfg = base_config(out, potential={"name": "zero", "params": []})
        cfg["initial"]["params"]["amplitude"] = amplitude
        cfg["output"]["formats"] = ["json"]
        assert cli.run(write_config(tmp_path, cfg, f"{out.name}.json")) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.count("\n") == 1
        verification = json.loads((out / "report.json").read_text())["verification"]
        assert verification["passed"] is True
        residuals[amplitude] = verification["elliptic"]["relative_residual"]
    assert math.isclose(residuals[1e306], residuals[1e300], rel_tol=1e-12)


def test_probe_of_a_huge_potential_runs_without_warning(tmp_path, capsys):
    # the scaled_datum start makes v ~ 1e9 and bounded_sine(1e300) is ~1e300
    # there; the probe converges from every start and prints no warning
    out = tmp_path / "out"
    cfg = base_config(out, mode="probe",
                      potential={"name": "bounded_sine", "params": [1e300]})
    cfg["initial"]["params"]["amplitude"] = 1e10
    cfg["output"]["formats"] = ["json"]
    assert cli.run(write_config(tmp_path, cfg)) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "report.json").read_text())["probe"]["all_converged"] is True


def test_report_is_strict_json_with_null_for_overflow(tmp_path):
    # the energy terms of this run lie beyond the floating-point range
    out = tmp_path / "out"
    cfg = base_config(out, potential={"name": "bounded_sine", "params": [1e300]})
    cfg["initial"]["params"]["amplitude"] = 1e10
    cfg["output"]["formats"] = ["json"]
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["verification"]["energy"]["lhs"] is None
    assert report["accelerator"] == {"method": "anderson", "depth": 5}


def test_reports_are_reproducible(tmp_path):
    cfg1 = base_config(tmp_path / "a")
    cfg2 = base_config(tmp_path / "b")
    assert cli.run(write_config(tmp_path, cfg1, "c1.json"), quiet=True) == 0
    assert cli.run(write_config(tmp_path, cfg2, "c2.json"), quiet=True) == 0
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    # the output dir is the only difference between the configs
    assert json.loads(a)["files"] == json.loads(b)["files"]
    ja, jb = json.loads(a), json.loads(b)
    assert ja == jb


def test_probe_mode(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, mode="probe")
    cfg["fixedpoint"]["starts"] = 4
    code = cli.run(write_config(tmp_path, cfg), quiet=True)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["probe"]["all_converged"] is True
    assert report["probe"]["max_pairwise_relative"] <= 1e-8
    assert len(report["probe"]["starts"]) == 4
    assert report["probe"]["generator"] == "python-mt19937"
    assert report["threshold"]["applicable"] is True
    job = cli.parse_config(cfg)
    expected = uniqueness_threshold(job.phi, job.u0, job.ecfg.T).to_dict()
    assert report["threshold"] == json.loads(json.dumps(expected))
    assert (out / "ut.json").exists()


@pytest.mark.parametrize("formats", [[], ["bin"], ["json"]])
def test_probe_names_the_start_of_a_ut_file_only_when_one_is_written(tmp_path, formats):
    # bin has no field writer, so only json writes ut, from the first
    # converged start
    out = tmp_path / "out"
    cfg = base_config(out, mode="probe", output={"dir": str(out), "formats": formats})
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0
    report = json.loads((out / "report.json").read_text())
    if formats == ["json"]:
        first = next(s["kind"] for s in report["probe"]["starts"] if s["converged"])
        assert report["probe"]["ut_from_start"] == first
        assert report["files"]["ut_json"] == "ut.json" and (out / "ut.json").exists()
    else:
        assert "ut_from_start" not in report["probe"]
        assert report["files"] == {"config": "config.json", "report": "report.json"}
        assert sorted(p.name for p in out.iterdir()) == ["config.json", "report.json"]


def test_probe_reproducible_with_seed(tmp_path):
    cfg1 = base_config(tmp_path / "a", mode="probe")
    cfg2 = base_config(tmp_path / "b", mode="probe")
    assert cli.run(write_config(tmp_path, cfg1, "c1.json"), seed=11, quiet=True) == 0
    assert cli.run(write_config(tmp_path, cfg2, "c2.json"), seed=11, quiet=True) == 0
    a = json.loads((tmp_path / "a" / "report.json").read_text())
    b = json.loads((tmp_path / "b" / "report.json").read_text())
    assert a == b


def test_unconverged_probe_exits_2_with_its_report(tmp_path):
    # one map evaluation converges no start; the report is still written
    out = tmp_path / "out"
    cfg = base_config(out, mode="probe")
    cfg["fixedpoint"]["max_iter"] = 1
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["probe"]["all_converged"] is False
    assert [start["converged"] for start in report["probe"]["starts"]] == [False] * 5


def test_convergence_study_spatial(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, mode="convergence_study")
    cfg["potential"] = {"name": "zero", "params": []}
    cfg["domain"]["n"] = [49]
    cfg["time"]["steps"] = 100
    cfg["study"] = {"levels": 3, "refine": "space_time"}
    code = cli.run(write_config(tmp_path, cfg), quiet=True)
    assert code == 0
    lines = (out / "study.csv").read_text().splitlines()
    assert lines[0] == (
        "level,n,h,dt,uT_error_vs_finest,elliptic_residual,energy_mismatch,observed_order"
    )
    assert len(lines) == 4
    order = float(lines[3].split(",")[-1])
    assert 1.8 <= order <= 2.2
    # errors vs finest decrease, finest row is zero
    errs = [float(line.split(",")[4]) for line in lines[1:]]
    assert errs[0] > errs[1] > errs[2] == 0.0


def test_convergence_study_zero_datum_reports_na(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config(out, mode="convergence_study")
    cfg["initial"] = {"name": "constant", "params": {"value": 0.0}}
    cfg["study"] = {"levels": 2}
    assert cli.run(write_config(tmp_path, cfg)) == 0
    text = (out / "study.csv").read_text()
    assert capsys.readouterr().out == text  # echoed unless --quiet
    assert all(line.endswith("n/a") for line in text.splitlines()[1:])


def test_nonconverged_study_exits_2_with_its_table(tmp_path):
    # every level stops after one map evaluation; the table is still written,
    # and its observed order is computed from iterates that did not converge
    out = tmp_path / "out"
    cfg = base_config(out, mode="convergence_study", study={"levels": 3})
    cfg["domain"]["n"] = [9]
    cfg["time"]["steps"] = 20
    cfg["fixedpoint"]["max_iter"] = 1
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 2
    lines = (out / "study.csv").read_text().splitlines()
    assert len(lines) == 4
    assert [line.split(",")[1] for line in lines[1:]] == ["9", "19", "39"]
    assert lines[3].endswith(",1.9825")
    cfg["fixedpoint"]["max_iter"] = 200
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0


def test_sweep_records_failed_rows(tmp_path):
    # a rejected value fills only the error column, whose commas become
    # semicolons, and a numerical failure also the iterations column with the
    # map evaluation that failed; the other rows still run, and a failed row
    # counts as a run that did not converge
    out = tmp_path / "out"
    cfg = base_config(out, mode="sweep")
    cfg["domain"]["n"] = [9]
    cfg["time"]["steps"] = 20
    cfg["sweep"] = {"axis": "T", "values": [0.1, -1, 1e-321, 1e308]}
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 2
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1] == "-1,,,,,time.T must be positive and finite; got -1.0"
    assert lines[2] == ("9.980126046e-322,,,,,time.T must give a step T/steps of at least "
                        "2.2250738585072014e-308; got 1e-321/20 = 5e-323")
    assert lines[3].startswith("0.1,True,4,") and lines[3].endswith(",")
    assert lines[4] == ("1e+308,,1,,,the map returned a non-finite time integral: "
                        "the states overflowed")


def test_sweep_failed_row_records_the_failing_map_evaluation(tmp_path):
    # the README solve at amplitude 1e200: the first map evaluation succeeds
    # and the potential of its output overflows in the second, the number
    # report.json's error.iteration records for the same failure
    out = tmp_path / "out"
    cfg = readme_config(out)
    cfg.update(mode="sweep", sweep={"axis": "amplitude", "values": [1, 1e200]})
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 2
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("1,True,")
    assert lines[2].startswith("1e+200,,2,,,potential 'quadratic' returned a non-finite value")
    cfg["mode"] = "solve"
    cfg["initial"]["params"]["amplitude"] = 1e200
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 5
    assert json.loads((out / "report.json").read_text())["error"]["iteration"] == 2


@pytest.mark.parametrize("initial, axis, values", [
    ({"name": "sine_mode", "params": {"k": 1, "amplitude": 0.5}}, "amplitude", [0.25, 2.0]),
    ({"name": "gaussian", "params": {"width": 0.1}}, "amplitude", [0.5, 3.0]),
    ({"name": "constant", "params": {"value": 1.0}}, "amplitude", [0.5, 3.0]),
    ({"name": "from_file", "params": {"scale": 2.0}}, "amplitude", [0.5, 3.0]),
    ({"name": "sine_mode", "params": {"k": 2, "amplitude": 2.0}}, "T", [0.05, 0.3]),
], ids=["sine_mode", "gaussian", "constant", "from_file", "T"])
def test_sweep_rows_match_solves_at_their_values(tmp_path, initial, axis, values):
    # a row is the solve of the config with the swept entry set to the row's
    # value: time.T, or the datum's amplitude, which is the value of a
    # constant datum and the scale of a from_file one
    initial = copy.deepcopy(initial)
    if initial["name"] == "from_file":
        path = tmp_path / "datum.json"
        nio.write_field_json(Field.from_function(Grid((1.0,), (49,)), lambda x: x * (1 - x)), path)
        initial["params"]["path"] = str(path)
    cfg = base_config(tmp_path / "sweep", mode="sweep", initial=initial,
                      sweep={"axis": axis, "values": values})
    assert cli.run(write_config(tmp_path, cfg, "sweep.json"), quiet=True) == 0
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    key = {"constant": "value", "from_file": "scale"}.get(initial["name"], "amplitude")
    for i, (value, row) in enumerate(zip(values, rows)):
        solve = copy.deepcopy(cfg)
        solve.update(mode="solve", output={"dir": str(tmp_path / f"solve{i}")})
        if axis == "T":
            solve["time"]["T"] = value
        else:
            solve["initial"]["params"][key] = value
        assert cli.run(write_config(tmp_path, solve, f"solve{i}.json"), quiet=True) == 0
        report = json.loads((tmp_path / f"solve{i}" / "report.json").read_text())
        assert row.split(",") == [f"{value:.10g}", "True", str(report["iterations"]),
                                  f"{report['threshold']['product']:.10e}",
                                  f"{report['final_residual']:.10e}", ""]


def test_sweep_records_a_row_rejected_by_sign_check(tmp_path):
    out = tmp_path / "out"
    initial = {"name": "gaussian", "params": {"width": 0.1}, "sign_check": True}
    cfg = base_config(out, mode="sweep", initial=initial,
                      sweep={"axis": "amplitude", "values": [1.0, -1.0]})
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 2
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1] == "-1,,,,,initial.sign_check rejects the datum: it has negative entries"
    assert lines[2].startswith("1,True,")


@pytest.mark.parametrize("values", [[2.0], [0.5, 1.0, 2.0], [-1.0, 0.5, 1.0, 1e308, 2.0]],
                         ids=["1row", "3rows", "5rows"])
def test_from_file_amplitude_sweep_reads_its_file_once(tmp_path, monkeypatch, values):
    # by the parse of the config; each row scales the parsed field and
    # checks it as the parse does: sign_check rejects -1, and 1e308 times
    # the datum's maximum, 1.98, is not finite
    path = tmp_path / "datum.json"
    nio.write_field_json(Field.from_function(Grid((1.0,), (49,)), lambda x: 1.0 + x), path)
    initial = {"name": "from_file", "params": {"path": str(path)}, "sign_check": True}
    cfg = base_config(tmp_path / "out", mode="sweep", initial=initial,
                      sweep={"axis": "amplitude", "values": values})
    reads = []
    read_field = nio.read_field
    monkeypatch.setattr(nio, "read_field", lambda path, grid: reads.append(path)
                        or read_field(path, grid))
    cli.run(write_config(tmp_path, cfg), quiet=True)
    assert len(reads) == 1
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    errors = {float(row.split(",")[0]): row.split(",", 5)[5] for row in rows}
    expected = {-1.0: "initial.sign_check rejects the datum: it has negative entries",
                1e308: "initial gives no valid datum: field values must be finite"}
    assert errors == {v: expected.get(v, "") for v in values}


@pytest.mark.parametrize("initial", [
    {"name": "sine_mode", "params": {"k": 2}},
    {"name": "gaussian", "params": {"width": 0.1, "amplitude": 3.0}},
    {"name": "constant", "params": {"value": 0.2}},
], ids=["sine_mode", "gaussian", "constant"])
def test_amplitude_sweep_builds_its_datum_once(tmp_path, monkeypatch, initial):
    # by the parse; each row is that datum scaled to the row's amplitude
    calls, initial_datum = [], cli._initial_datum
    monkeypatch.setattr(cli, "_initial_datum",
                        lambda *args: calls.append(args) or initial_datum(*args))
    solved, solve = [], cli._solve
    monkeypatch.setattr(cli, "_solve", lambda job, sink=None: solved.append(job) or solve(job))
    cfg = base_config(tmp_path / "out", mode="sweep", initial=initial,
                      sweep={"axis": "amplitude", "values": [0.5, 0.25, 1.0]})
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0
    assert len(calls) == 1
    unit = solved[0].datum(1.0)
    for job, value in zip(solved, [0.25, 0.5, 1.0]):
        assert np.array_equal(job.u0.values, value * unit.values)


@pytest.mark.parametrize("overrides, sizes", [
    ({}, [49]),
    ({"mode": "convergence_study", "study": {"levels": 3, "refine": "space_time"}},
     [49, 99, 199]),
    ({"mode": "convergence_study", "study": {"levels": 3, "refine": "time_only"}},
     [49, 49, 49]),
    ({"mode": "sweep", "sweep": {"axis": "T", "values": [0.05, 0.1]}}, [49, 49]),
    ({"mode": "sweep", "sweep": {"axis": "amplitude", "values": [0.25, 0.5]}}, [49, 49]),
], ids=["solve", "space_time", "time_only", "T_sweep", "amplitude_sweep"])
def test_every_job_a_run_solves_has_its_datum_on_its_operators_grid(
        tmp_path, monkeypatch, overrides, sizes):
    # a job's one grid is lap.grid: the parse, each study level and each
    # sweep row put u0 on it
    solved, solve = [], cli._solve
    monkeypatch.setattr(cli, "_solve",
                        lambda job, sink=None: solved.append(job) or solve(job, sink))
    cfg = base_config(tmp_path / "out", **overrides)
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0
    assert [job.lap.grid.n[0] for job in solved] == sizes
    for job in solved:
        assert job.u0.grid == job.lap.grid


def test_from_file_sweep_rows_run_on_the_parsed_datum_after_the_file_is_gone(tmp_path):
    # the rows scale the field the parse read, so the file is not needed
    # again: each row's run matches a solve of the scaled datum
    grid = Grid((1.0,), (49,))
    path = tmp_path / "datum.json"
    field = Field.from_function(grid, lambda x: x * (1 - x))
    nio.write_field_json(field, path)
    initial = {"name": "from_file", "params": {"path": str(path)}}
    cfg = base_config(tmp_path / "out", mode="sweep", initial=initial,
                      sweep={"axis": "amplitude", "values": [1.0, 2.0]})
    job = cli.parse_config(cfg)
    path.unlink()
    job.out_dir.mkdir()
    assert cli.run_sweep(cfg, job, quiet=True)
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    for row, value in zip(rows, [1.0, 2.0]):
        u0 = value * field
        report = picard_solve(job.lap, job.phi, u0, job.ecfg, job.pcfg)
        product = uniqueness_threshold(job.phi, u0, job.ecfg.T).product
        assert row == (f"{value:.10g},True,{report.iterations},{product:.10e},"
                       f"{report.final_residual:.10e},")


def test_sweep_row_lets_an_undocumented_error_propagate(tmp_path, monkeypatch):
    # a row records only invalid values and numerical failures; any other
    # exception is a fault of the program, not a row outcome
    def broken(job, sink=None):
        raise KeyError("a programming error")

    monkeypatch.setattr(cli, "_solve", broken)
    cfg = base_config(tmp_path / "out", mode="sweep")
    cfg["sweep"] = {"axis": "T", "values": [0.1]}
    with pytest.raises(KeyError, match="a programming error"):
        cli.run(write_config(tmp_path, cfg), quiet=True)


def test_sweep_with_an_unconverged_row_exits_2(tmp_path):
    # the zero datum converges in one map evaluation, the other row does not
    out = tmp_path / "out"
    cfg = base_config(out, mode="sweep")
    cfg["fixedpoint"]["max_iter"] = 1
    cfg["sweep"] = {"axis": "amplitude", "values": [0.5, 0.0]}
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 2
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("0,True,1,")
    assert lines[2].startswith("0.5,False,1,")


def test_sweep_amplitude_products_increase(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, mode="sweep")
    cfg["sweep"] = {"axis": "amplitude", "values": [0.5, 0.1, 1.0]}
    code = cli.run(write_config(tmp_path, cfg), quiet=True)
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "value,converged,iterations,threshold_product,final_residual,error"
    values = [float(line.split(",")[0]) for line in lines[1:]]
    assert values == sorted(values)  # rows sorted by value
    products = [float(line.split(",")[3]) for line in lines[1:]]
    assert products[0] < products[1] < products[2]
    # oracle: product = 2 T^2 A^2 / pi^2 (amplitude sampled on the grid)
    sup = math.sin(math.pi * 0.5)  # grid contains x = 1/2 for n = 49
    expected = 2 * 0.1**2 * (0.1 * sup) ** 2 / math.pi**2
    assert products[0] == pytest.approx(expected, rel=1e-12)
    assert all(line.split(",")[1] == "True" for line in lines[1:])


def test_sweep_constant_potential_zero_products(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, mode="sweep")
    cfg["potential"] = {"name": "constant", "params": [2.0]}
    cfg["sweep"] = {"axis": "T", "values": [0.05, 0.1]}
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert all(float(line.split(",")[3]) == 0.0 for line in lines[1:])
    assert all(line.split(",")[1] == "True" for line in lines[1:])


def test_sweep_empty_values_exit_3(tmp_path):
    cfg = base_config(tmp_path / "out", mode="sweep")
    cfg["sweep"] = {"axis": "T", "values": []}
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 3


def test_mode_and_out_overrides(tmp_path):
    cfg = base_config(tmp_path / "ignored", mode="sweep")
    cfg["sweep"] = {"axis": "T", "values": [0.05]}
    override_out = tmp_path / "actual"
    code = cli.run(write_config(tmp_path, cfg), mode="solve", out=override_out, quiet=True)
    assert code == 0
    assert (override_out / "report.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_from_file_initial(tmp_path):
    out1 = tmp_path / "first"
    cfg = base_config(out1)
    assert cli.run(write_config(tmp_path, cfg, "c1.json"), quiet=True) == 0
    # feed the computed integral back in as a datum
    out2 = tmp_path / "second"
    cfg2 = base_config(out2)
    cfg2["initial"] = {
        "name": "from_file",
        "params": {"path": str(out1 / "ut.json"), "scale": 2.0},
    }
    assert cli.run(write_config(tmp_path, cfg2, "c2.json"), quiet=True) == 0
    first = read_field_json(out1 / "ut.json")
    report = json.loads((out2 / "report.json").read_text())
    assert report["s0"] == pytest.approx(0.1 * 2.0 * np.max(np.abs(first.values)))
    # a JSON file that is not a field is an invalid config
    cfg2["initial"]["params"]["path"] = str(out1 / "config.json")
    assert cli.run(write_config(tmp_path, cfg2, "c3.json"), quiet=True) == 3


def test_ut_csv_reads_back_as_a_from_file_datum(tmp_path):
    # at length 0.9 and n = 9 the file's coordinates put h * (n + 1) at
    # 0.8999999999999999; the file is read against the config's grid
    out1, out2 = tmp_path / "first", tmp_path / "second"
    cfg = base_config(out1, domain={"dim": 1, "lengths": [0.9], "n": [9]})
    cfg["time"]["steps"] = 10
    assert cli.run(write_config(tmp_path, cfg, "c1.json"), quiet=True) == 0
    cfg2 = base_config(out2, domain=cfg["domain"], time=cfg["time"],
                       initial={"name": "from_file", "params": {"path": str(out1 / "ut.csv")}})
    assert cli.run(write_config(tmp_path, cfg2, "c2.json"), quiet=True) == 0
    assert np.array_equal(cli.parse_config(cfg2).u0.values,
                          read_field_json(out1 / "ut.json").values)


def test_gaussian_initial_2d(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["domain"] = {"dim": 2, "lengths": [1.0, 1.0], "n": [9, 9]}
    cfg["time"]["steps"] = 20
    cfg["initial"] = {
        "name": "gaussian",
        "params": {"center": [0.5, 0.5], "width": 0.15, "amplitude": 1.0},
        "sign_check": True,
    }
    code = cli.run(write_config(tmp_path, cfg), quiet=True)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["verification"]["solution_bounds"]["positivity_ok"] is True


def test_io_failure_exits_4(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the output directory should go")
    cfg = base_config(blocker)
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 4


def test_trajectory_csv_worker_failure_exits_4_with_one_line(tmp_path, monkeypatch, capfd):
    # 101 states of 49 nodes in 3 blocks on 3 processes; the workers'
    # formatting fails, the parent's does not
    monkeypatch.setattr(nio, "BLOCK_BYTES", 40 * 49 * 8)
    monkeypatch.setattr(nio, "MIN_VALUES_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    fail_in_workers(monkeypatch)
    out = tmp_path / "out"
    with deadline(30):
        assert cli.run(write_config(tmp_path, base_config(out)), quiet=True) == 4
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"i/o failure: trajectory CSV workers \[\d+, \d+\] exited with an error",
                        err[0])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # neither the streamed binary nor a truncated CSV is left
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "ut.csv", "ut.json"]


def test_bin_format_writes_trajectory(tmp_path):
    from nonlocal_heat.io import read_trajectory_bin

    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["output"]["formats"] = ["json", "bin"]
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0
    times, states, n = read_trajectory_bin(out / "trajectory.bin")
    assert n == (49,)
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.1)
    assert states.shape == (101, 49)
    report = json.loads((out / "report.json").read_text())
    assert report["files"]["trajectory_bin"] == "trajectory.bin"


def test_constant_potential_files_hold_one_stepped_sweep(tmp_path, collector):
    # every sweep of a constant potential is formed in the sine basis; the
    # written states and uT are those of its input stepped once more
    out = tmp_path / "out"
    cfg = base_config(out, potential={"name": "constant", "params": [2.5]})
    cfg["output"]["formats"] = ["csv", "json", "bin"]
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0
    job = cli.parse_config(cfg)
    sink = collector(job.u0)
    stepped = evolve(assemble(job.lap.grid), Field.constant(job.lap.grid, 2.5), job.u0,
                     job.ecfg, sink=sink)
    times, states, _ = nio.read_trajectory_bin(out / "trajectory.bin")
    assert np.array_equal(states, sink.states)
    assert (out / "trajectory.csv").read_bytes() == savetxt_trajectory_csv(times, sink.states)
    assert np.array_equal(read_field_json(out / "ut.json").values, stepped.integral)
    assert json.loads((out / "report.json").read_text())["iterations"] == 2


def counted_sweeps(monkeypatch):
    """Lists of the ``sink`` of every ``evolve`` call and the ``spectral``
    flag of every ``phi_map`` call that ``picard_solve`` makes."""
    sinks, flags = [], []
    stepped, evaluated = evolution.evolve, fixedpoint.phi_map

    def evolve_counted(lap, w, u0, cfg, sink=None):
        sinks.append(sink)
        return stepped(lap, w, u0, cfg, sink=sink)

    def phi_map_counted(*args, spectral=False, **kwargs):
        flags.append(spectral)
        return evaluated(*args, spectral=spectral, **kwargs)

    monkeypatch.setattr(evolution, "evolve", evolve_counted)
    monkeypatch.setattr(fixedpoint, "phi_map", phi_map_counted)
    return sinks, flags


def test_each_study_level_steps_only_its_reported_sweep(tmp_path, monkeypatch):
    # the README solve with Crank-Nicolson in a 3-level space_time study
    # (n 199 -> 799, K 1000 -> 16000): each level's first sweep is formed in
    # the sine basis and the others by Lanczos, so each level steps once, the
    # re-step of its last input
    sinks, flags = counted_sweeps(monkeypatch)
    cfg = readme_config(tmp_path / "out")
    cfg["time"]["scheme"] = "crank_nicolson"
    cfg.update(mode="convergence_study", study={"levels": 3, "refine": "space_time"})
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0
    assert flags.count(True) == 12 and flags.count(False) == 3
    assert len(sinks) == 3


def test_readme_solve_sink_sees_one_sweep(tmp_path, monkeypatch):
    # 4 map evaluations, of which only the reported one is stepped, with the
    # trajectory writers' sink
    sinks, flags = counted_sweeps(monkeypatch)
    out = tmp_path / "out"
    assert cli.run(write_config(tmp_path, readme_config(out)), quiet=True) == 0
    assert flags == [True] * 4 + [False]
    assert len(sinks) == 1 and sinks[0] is not None
    assert json.loads((out / "report.json").read_text())["iterations"] == 4


def test_readme_trajectory_csv_reads_back_as_its_binary(tmp_path):
    # the CSV's floats are formatted by float64 arithmetic on whole blocks:
    # its exactness must not rest on which SIMD kernels this CPU runs
    out = tmp_path / "out"
    cfg = readme_config(out)
    cfg["output"]["formats"] = ["csv", "json", "bin"]
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0
    times, states, _ = nio.read_trajectory_bin(out / "trajectory.bin")
    header, *rows = (out / "trajectory.csv").read_text().splitlines()
    assert header == "t,node,value" and len(rows) == states.size
    t, node, value = (np.array([float(f) for f in column]) for column in zip(
        *(row.split(",") for row in rows)))
    assert np.array_equal(t.view(np.int64), np.repeat(times, states.shape[1]).view(np.int64))
    assert np.array_equal(node, np.tile(np.arange(states.shape[1]), times.size))
    assert np.array_equal(value.view(np.int64), states.ravel().view(np.int64))


def test_main_entry_point(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config(out)
    path = write_config(tmp_path, cfg)
    assert cli.main([str(path), "--quiet"]) == 0
    assert cli.main([str(path), "--out", str(tmp_path / "o2"), "--seed", "5"]) == 0
    assert "converged=True" in capsys.readouterr().out


def sine(amplitude):
    return {"name": "sine_mode", "params": {"k": 1, "amplitude": amplitude}}


GRID_2D = {"domain": {"dim": 2, "lengths": [1.0, 1.0], "n": [31, 31]}}
CN = {"time": {"T": 0.1, "steps": 100, "scheme": "crank_nicolson"}}
# Crank-Nicolson at dt = 2e-3 solves I/2 + (dt/4)(L + diag(w)), which
# constant(-2000) makes indefinite at n = 49 and at 31x31
CN_INDEFINITE = ({"time": {"T": 0.2, "steps": 100, "scheme": "crank_nicolson"}},
                 "the step operator 0.5*I + 0.0005*(L + diag(w)) is not positive definite (")


@pytest.mark.parametrize("initial,potential,datum,overrides,error,cause,at", [
    # the potential of the iterate overflows
    (sine(1e200), "quadratic", None, {}, "EvaluationError", "non-finite", 2),
    ({"name": "from_file", "params": {"scale": 1e308}}, "quadratic", 0.01, {},
     "EvaluationError", "non-finite", 2),
    # the states overflow while stepping
    (sine(1e308), "quadratic", None, {}, "EvaluationError", "non-finite", 1),
    # constant(-2000): I + dt*(L - 2000 I) is indefinite, whatever the datum
    (sine(1e200), "constant", None, {}, "SolverFailure", "not positive definite", 1),
    ({"name": "from_file", "params": {"scale": 1e308}}, "quadratic", 1.0, {},
     "EvaluationError", "non-finite", 1),
    (sine(1.0), "constant", None, {}, "SolverFailure", "not positive definite", 1),
    # CG scales a 2D right-hand side near the float limit, so the solve
    # succeeds; the potential of the map output then overflows, as in 1D
    (sine(1e308), "quadratic", None, GRID_2D, "EvaluationError", "non-finite", 2),
    (sine(1e308), "quadratic", None, CN, "EvaluationError", "non-finite", 1),
    # the 2D operator is indefinite too: CG finds a direction with p^T A p <= 0
    (sine(1.0), "constant", None, GRID_2D, "SolverFailure", "not positive definite", 1),
    # Crank-Nicolson's 2 y - u overflows in 2D: CG returns NaN for the next
    # state, as pttrs does in 1D, and the integral check names the overflow
    (sine(1e308), "quadratic", None, {**GRID_2D, **CN}, "EvaluationError", "non-finite", 1),
    # the failure names the operator solved, with Crank-Nicolson's coefficients
    (sine(1.0), "constant", None, CN_INDEFINITE[0], "SolverFailure", CN_INDEFINITE[1], 1),
    (sine(1.0), "constant", None, {**GRID_2D, **CN_INDEFINITE[0]}, "SolverFailure",
     CN_INDEFINITE[1], 1),
], ids=[f"initial{i}" for i in range(12)])
def test_numerical_failure_exits_5_with_report(
        tmp_path, capsys, initial, potential, datum, overrides, error, cause, at):
    if datum is not None:
        path = tmp_path / "datum.json"
        grid = {"dim": 1, "lengths": [1.0], "n": [49]}
        path.write_text(json.dumps({"grid": grid, "values": [datum] * 49}))
        initial["params"]["path"] = str(path)
    out = tmp_path / "out"
    params = [-2000.0] if potential == "constant" else []
    cfg = base_config(out, initial=initial, potential={"name": potential, "params": params},
                      **overrides)
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_NUMERICAL == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"numerical failure: {error}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == error
    assert cause in report["error"]["message"]
    # the map evaluation that failed, after those from the zero start, whose
    # first residual is ||Phi(0) - 0|| / ||Phi(0)|| = 1
    assert report["error"]["iteration"] == at
    assert report["error"]["residual_history"] == [1.0] * (at - 1)
    assert set(report["error"]) == {"type", "message", "iteration", "residual_history"}
    assert report["mode"] == "solve" and report["grid"]["n"] == cfg["domain"]["n"]
    assert not (out / "ut.json").exists()
    assert not list(out.glob("trajectory.*"))


def overflowing_s0_config(out, **overrides):
    # S0 = T * max|u0| = 1000 * 1e306 lies beyond the floating-point range
    cfg = base_config(out, potential={"name": "zero", "params": []}, **overrides)
    cfg["time"]["T"] = 1000.0
    cfg["initial"]["params"]["amplitude"] = 1e306
    cfg["output"]["formats"] = ["json"]
    return cfg


def test_scaled_datum_beyond_float_range_exits_5_with_report(tmp_path, capsys):
    # the probe's second start is T * u0, which overflows after the zero start ran
    out = tmp_path / "out"
    cfg = overflowing_s0_config(out, mode="probe")
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err == "numerical failure: EvaluationError: the scaled datum T * u0 overflows\n"
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "EvaluationError" and report["mode"] == "probe"
    assert set(report["error"]) == {"type", "message"}  # no run had failed


def test_numerical_failure_in_a_probe_names_its_start(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, mode="probe", initial=sine(1e200))
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == cli.EXIT_NUMERICAL
    error = json.loads((out / "report.json").read_text())["error"]
    assert error["message"].startswith("potential 'quadratic' returned a non-finite value")
    assert (error["start"], error["iteration"], error["residual_history"]) == ("zero", 2, [1.0])
    assert "level" not in error


@pytest.mark.parametrize("failing_level", [0, 1])
def test_numerical_failure_in_a_study_names_its_level(tmp_path, monkeypatch, failing_level):
    # constant(-1e5) makes I + dt*(L + diag(w)) indefinite at every level's
    # dt; the potential of the failing level is swapped for it
    out = tmp_path / "out"
    cfg = base_config(out, mode="convergence_study", study={"levels": 2})
    indefinite = cli.catalog("constant", [-1e5])
    solve = cli.picard_solve

    def failing_at_one_level(lap, phi, u0, ecfg, pcfg, sink=None):
        level = [49, 99].index(lap.grid.n[0])
        return solve(lap, indefinite if level == failing_level else phi, u0, ecfg, pcfg, sink)

    monkeypatch.setattr(cli, "picard_solve", failing_at_one_level)
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == cli.EXIT_NUMERICAL
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "convergence_study"
    error = report["error"]
    assert error["type"] == "SolverFailure" and "not positive definite" in error["message"]
    assert (error["level"], error["iteration"], error["residual_history"]) == (
        failing_level, 1, [])
    assert "start" not in error


def test_zero_lipschitz_constant_gives_zero_product_beyond_float_range(tmp_path, capsys):
    # L = 0 makes the map constant; inf * 0 must not turn the product into nan
    out = tmp_path / "out"
    assert cli.run(write_config(tmp_path, overflowing_s0_config(out))) == 0
    assert "threshold_product=0.000e+00 " in capsys.readouterr().out
    threshold = json.loads((out / "report.json").read_text())["threshold"]
    assert threshold["s0"] is None  # inf, written as null
    assert threshold["lipschitz"] == 0.0
    assert threshold["product"] == 0.0 and threshold["met"] is True


def gaussian(width):
    return {"initial": {"name": "gaussian", "params": {"width": width}}}


def extreme_probe(cfg):
    # 2 * S0 = 2e308 exceeds the floating-point range, S0 itself does not
    cfg.update(mode="probe", potential={"name": "zero", "params": []},
               domain={"dim": 1, "lengths": [1.0], "n": [19]},
               time={"T": 10.0, "steps": 20, "scheme": "implicit_euler"},
               initial=sine(1e307))
    cfg["fixedpoint"]["starts"] = 3


HUGE = 10**400  # a JSON integer beyond the float range


def huge(field, as_list, settings):
    """An edit that sets the dotted ``field`` to ``HUGE`` over ``settings``."""
    def edit(cfg):
        cfg.update(copy.deepcopy(settings))
        *sections, key = field.split(".")
        node = cfg
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = [HUGE] if as_list else HUGE
    return edit


# field -> (whether it takes a list, the settings that make the config read it)
HUGE_FIELDS = {
    "domain.lengths": (True, {}),
    "time.steps": (False, {}),
    "time.store_every": (False, {}),
    "seed": (False, {}),
    "initial.params.k": (False, {}),
    "initial.params.amplitude": (False, {}),
    "initial.params.center": (True, {"initial": {"name": "gaussian", "params": {"width": 0.1}}}),
    "potential.params": (True, {}),
    "fixedpoint.tol": (False, {}),
    "fixedpoint.max_iter": (False, {}),
    "fixedpoint.starts": (False, {"mode": "probe"}),
    "study.levels": (False, {"mode": "convergence_study"}),
    "sweep.values": (True, {"mode": "sweep", "sweep": {"axis": "T"}}),
}


def datum_on(lengths, n, suffix, value=1.0):
    """An edit that makes the datum a constant field file written on the grid."""
    def edit(cfg):
        path = Path(cfg["output"]["dir"]).parent / f"datum{suffix}"
        write = nio.write_field_csv if suffix == ".csv" else nio.write_field_json
        write(Field.constant(Grid(lengths, n), value), path)
        cfg["initial"] = {"name": "from_file", "params": {"path": str(path)}}
    return edit


FOREIGN_DATA = [datum_on(lengths, n, suffix) for suffix in (".csv", ".json")
                for lengths, n in (((1.0,), (48,)), ((0.9,), (49,)), ((1.0, 1.0), (49, 1)))]


def header_only_csv(cfg):
    # np.loadtxt warns on a file of no rows; the CLI must only reject it
    datum_on((1.0,), (49,), ".csv")(cfg)
    Path(cfg["initial"]["params"]["path"]).write_text("x,value\n")


def json_header(payload_edit=None, **grid):
    """An edit that makes the datum a field JSON on the config's grid whose
    header then says ``grid`` instead, and whose payload ``payload_edit``
    then changes."""
    def edit(cfg):
        datum_on((1.0,), (49,), ".json")(cfg)
        path = Path(cfg["initial"]["params"]["path"])
        payload = json.loads(path.read_text())
        payload["grid"].update(grid)
        if payload_edit is not None:
            payload_edit(payload)
        path.write_text(json.dumps(payload))
    return edit


UNLOADABLE = "initial.params.path cannot be loaded as a field: ConfigError:"


def overflowing_scale(cfg):
    # scale * 10 lies beyond the float range: numpy must not warn first
    datum_on((1.0,), (49,), ".json", 10.0)(cfg)
    cfg["initial"]["params"]["scale"] = 1e308


def extreme_study(cfg):
    # level 0 (n = 49) keeps 4/h**2 finite, the finest level (n = 99) does not
    cfg.update(mode="convergence_study", study={"levels": 2, "refine": "space_time"})
    cfg["domain"]["lengths"] = [1e-152]


def steps_study(cfg):
    # level 0 takes 2**53 steps, the largest count allowed; level 1 takes 2**54
    cfg.update(mode="convergence_study", study={"levels": 2, "refine": "time_only"})
    cfg["time"]["steps"] = 2**53


@pytest.mark.parametrize("edit,code,field", [
    # every 1/L**2 and 1/h**2 of the stencil must be a finite positive float
    (lambda c: c["domain"].update(lengths=[1e300]), 3, "domain.lengths"),
    (lambda c: c["domain"].update(lengths=[1e-300]), 3, "domain.lengths"),
    (lambda c: c["domain"].update(dim=2, lengths=[1.0, 1e-300], n=[9, 9]), 3,
     "domain.lengths"),
    (lambda c: c["domain"].update(lengths=[1e-155]), 3, "domain.lengths"),  # 1/h**2 = inf
    (lambda c: c["domain"].update(lengths=[1e154]), 0, None),
    (extreme_study, 3, "domain.lengths"),  # a study's finest grid, before any write
    # 2*width**2 must be a finite positive float; a datum that is 0 off-centre is fine
    (lambda c: c.update(gaussian(1e200)), 3, "initial.params.width"),
    (lambda c: c.update(gaussian(1e-300)), 3, "initial.params.width"),
    (lambda c: c.update(gaussian(1e-160)), 0, None),
    (extreme_probe, 0, None),
    (lambda c: c["time"].update(T=1e308), 5, None),
    # a step count float64 cannot hold exactly: dt = 1e-301 would never finish
    (lambda c: c["time"].update(steps=10**300), 3, "time.steps"),
    (steps_study, 3, "time.steps"),  # a study's finest level, before any write
    # T/steps underflows to 0: no step, dt/4 or Lanczos shift T/10 may be 0
    (lambda c: c["time"].update(T=1e-321, steps=1000), 3, "time.T"),
    (lambda c: (c["domain"].update(dim=2, lengths=[1.0, 1.0], n=[7, 7]),
                c["time"].update(T=1e-321, steps=1000)), 3, "time.T"),
    (lambda c: c["time"].update(T=1e-321, steps=1000, scheme="crank_nicolson"), 3, "time.T"),
    (lambda c: c.update(potential={"name": "constant", "params": [-1e308]}), 5, None),
    *[(huge(field, *spec), 3, field) for field, spec in HUGE_FIELDS.items()],
    # a config that named a start must not silently start from zero
    (lambda c: c["fixedpoint"].update(initial_guess="scaled_datum"), 3,
     "fixedpoint.initial_guess"),
    # a field file on a grid other than the config's: n, length or dim
    *[(edit, 3, "initial.params.path") for edit in FOREIGN_DATA],
    (header_only_csv, 3, "initial.params.path"),
    # a JSON header must give whole, finite counts and the dim of its axes
    (json_header(n=[math.inf]), 3, "initial.params.path"),
    (json_header(n=[49.5]), 3, "initial.params.path"),
    (json_header(dim=2), 3, "initial.params.path"),
    # a JSON header's numbers and the values are JSON numbers, and both keys
    # are given: the message names the file's offending field
    (json_header(n=["49"]), 3, f"{UNLOADABLE} grid.n"),
    (json_header(lengths=["1.0"]), 3, f"{UNLOADABLE} grid.lengths"),
    (json_header(dim=True), 3, f"{UNLOADABLE} grid.dim"),
    (json_header(lambda p: p.update(values=[str(v) for v in p["values"]])), 3,
     f"{UNLOADABLE} values"),
    (json_header(lambda p: p.update(values=[True] * len(p["values"]))), 3,
     f"{UNLOADABLE} values"),
    (json_header(lambda p: p.pop("grid")), 3, f"{UNLOADABLE} grid"),
    (overflowing_scale, 3, "initial"),
], ids=["length1e300", "length1e-300", "axis1e-300", "length1e-155", "length1e154",
        "study1e-152",
        "width1e200", "width1e-300", "width1e-160", "probe1e307", "T1e308", "steps1e300",
        "study_steps_2pow54", "dt_underflow", "dt_underflow_7x7", "dt_underflow_cn",
        "constant-1e308", *[f"huge-{field}" for field in HUGE_FIELDS], "initial_guess",
        *[f"from_file{suffix}-{axis}" for suffix in ("csv", "json")
          for axis in ("n", "length", "dim")],
    "from_file-header_only", "from_file.json-n_inf", "from_file.json-n_fractional",
    "from_file.json-dim_mismatch", "from_file.json-n_string", "from_file.json-length_string",
    "from_file.json-dim_bool", "from_file.json-values_string", "from_file.json-values_bool",
    "from_file.json-no_grid", "from_file-scale1e308"])
def test_extreme_configs_end_in_their_exit_code(tmp_path, capsys, edit, code, field):
    # no traceback and no warning (the suite fails on one), at most one stderr
    # line; an invalid config names its field and writes nothing
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["output"]["formats"] = ["json"]
    edit(cfg)
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == code
    err = capsys.readouterr().err
    assert err.count("\n") <= 1 and "Traceback" not in err
    if field is not None:
        assert err.startswith(f"invalid config: {field} ")
        assert not out.exists()


def test_store_every_thins_trajectory_output_only(tmp_path):
    # a solve writing no trajectory keeps only u0 and u_K while stepping;
    # its integral and verification block equal those of a run storing states
    outputs = {}
    for formats in (["json"], ["json", "bin"]):
        out = tmp_path / "_".join(formats)
        cfg = base_config(out)
        cfg["time"]["store_every"] = 4
        cfg["output"]["formats"] = formats
        assert cli.run(write_config(tmp_path, cfg, f"{out.name}.json"), quiet=True) == 0
        outputs[out.name] = json.loads((out / "report.json").read_text())
        outputs[out.name]["ut"] = (out / "ut.json").read_bytes()
    lean, stored = outputs["json"], outputs["json_bin"]
    assert lean["time"]["store_every"] == stored["time"]["store_every"] == 4
    assert lean["ut"] == stored["ut"]
    assert lean["verification"] == stored["verification"]
    assert stored["files"]["trajectory_bin"] == "trajectory.bin"


def test_rebound_solvers_and_writers_are_called(tmp_path, monkeypatch):
    # tools that measure a run (the benchmark's tracer and correctness
    # capture) rebind these module attributes; the CLI must look them up
    # when it calls them, not keep the functions it saw at import time
    from nonlocal_heat import fixedpoint
    from nonlocal_heat import io as nio

    calls = {}

    def counting(owner, name):
        original = getattr(owner, name)
        key = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(cli, "picard_solve")
    counting(fixedpoint, "picard_solve")
    for name in ("write_field_csv", "write_field_json",
                 "write_trajectory_csv", "write_trajectory_bin"):
        counting(nio, name)
    solve = base_config(tmp_path / "solve")
    solve["domain"]["n"] = [9]
    solve["time"]["steps"] = 10
    solve["output"]["formats"] = ["csv", "json", "bin"]
    probe = base_config(tmp_path / "probe", mode="probe", domain=solve["domain"],
                        time=solve["time"])
    probe["fixedpoint"]["starts"] = 2
    for name, cfg in (("solve", solve), ("probe", probe)):
        assert cli.run(write_config(tmp_path, cfg, f"{name}.json"), quiet=True) == 0
    assert calls["cli.picard_solve"] == 1
    assert calls["fixedpoint.picard_solve"] == 2
    assert calls["io.write_field_csv"] == 2 and calls["io.write_field_json"] == 2
    assert calls["io.write_trajectory_csv"] == 1 and calls["io.write_trajectory_bin"] == 1


def expected_trajectory_files(cfg, collector):
    """``trajectory.bin`` and ``trajectory.csv`` bytes built without the
    streaming writer: the last sweep's states from a collecting sink, the
    header and times by hand, and ``np.savetxt`` with the CSV columns."""
    job = cli.parse_config(cfg)
    sink = collector(job.u0)
    picard_solve(assemble(job.lap.grid), job.phi, job.u0, job.ecfg, job.pcfg, sink=sink)
    every = job.ecfg.store_every
    states = sink.states[::every]
    times = job.ecfg.dt * every * np.arange(states.shape[0])
    return (trajectory_binary(job.lap.grid.n, times, states),
            savetxt_trajectory_csv(times, states))


@pytest.mark.parametrize("every", [1, 4])
@pytest.mark.parametrize("domain", [
    {"dim": 1, "lengths": [1.0], "n": [49]},
    {"dim": 2, "lengths": [1.0, 1.0], "n": [7, 5]},
])
def test_streamed_trajectory_files_match_a_collected_reference(
        tmp_path, monkeypatch, collector, domain, every):
    from nonlocal_heat import evolution

    # 10 and 14 states per reduction block: blocks start between kept states
    monkeypatch.setattr(evolution, "BLOCK_BYTES", 4096)
    out = tmp_path / "out"
    cfg = base_config(out, domain=domain)
    cfg["time"]["store_every"] = every
    cfg["output"]["formats"] = ["csv", "json", "bin"]
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0
    binary, csv = expected_trajectory_files(cfg, collector)
    assert (out / "trajectory.bin").read_bytes() == binary
    assert (out / "trajectory.csv").read_bytes() == csv
    assert sorted(p.name for p in out.iterdir()) == [
        "config.json", "report.json", "trajectory.bin", "trajectory.csv", "ut.csv", "ut.json"]


def test_trajectory_files_do_not_depend_on_the_listed_format_order(tmp_path):
    # the writers run in the order cli._write_outputs lists them, so with bin
    # listed first the CSV is still formatted before the binary is moved
    csv = {}
    for formats in (["csv", "bin"], ["bin", "csv"]):
        out = tmp_path / "_".join(formats)
        cfg = base_config(out)
        cfg["time"]["store_every"] = 4
        cfg["output"]["formats"] = formats
        assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0
        csv[formats[0]] = (out / "trajectory.csv").read_bytes()
        assert sorted(p.name for p in out.iterdir()) == [
            "config.json", "report.json", "trajectory.bin", "trajectory.csv", "ut.csv"]
    assert csv["bin"] == csv["csv"]
    times, states, n = nio.read_trajectory_bin(out / "trajectory.bin")
    table = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert n == (49,) and states.shape == (26, 49)
    assert np.array_equal(table[:, 0], np.repeat(times, 49))
    assert np.array_equal(table[:, 1], np.tile(np.arange(49), 26))
    assert np.array_equal(table[:, 2], states.ravel())


def test_csv_only_solve_leaves_no_binary(tmp_path, collector):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["time"]["store_every"] = 4
    cfg["output"]["formats"] = ["csv"]
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0
    assert (out / "trajectory.csv").read_bytes() == expected_trajectory_files(cfg, collector)[1]
    assert sorted(p.name for p in out.iterdir()) == [
        "config.json", "report.json", "trajectory.csv", "ut.csv"]


def test_nonconverged_solve_writes_the_last_sweeps_trajectory(tmp_path, collector):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["fixedpoint"]["max_iter"] = 2
    cfg["output"]["formats"] = ["csv", "json", "bin"]
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 2
    binary, csv = expected_trajectory_files(cfg, collector)
    assert (out / "trajectory.bin").read_bytes() == binary
    assert (out / "trajectory.csv").read_bytes() == csv


def test_failure_after_a_streamed_sweep_leaves_no_trajectory(tmp_path, monkeypatch):
    # the first sweep streams its states; the second overflows the potential
    from nonlocal_heat import evolution

    sweeps = []
    evolve = evolution.evolve
    monkeypatch.setattr(evolution, "evolve",
                        lambda *args, **kwargs: sweeps.append(evolve(*args, **kwargs))
                        or sweeps[-1])
    out = tmp_path / "out"
    cfg = base_config(out, initial=sine(1e308))
    cfg["output"]["formats"] = ["csv", "json", "bin"]
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == cli.EXIT_NUMERICAL
    assert len(sweeps) == 1
    assert json.loads((out / "report.json").read_text())["error"]["type"] == "EvaluationError"
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "report.json"]


IMPORT_SET_SCRIPT = """
import json, sys
from pathlib import Path
import nonlocal_heat.cli as cli
after_import = set(sys.modules)
out = Path(sys.argv[1])
for i, cfg in enumerate(json.loads(sys.argv[2])):
    cfg["output"]["dir"] = str(out / f"run{i}")
    path = out / f"config{i}.json"
    path.write_text(json.dumps(cfg))
    assert cli.run(path, quiet=True) == 0, cfg["mode"]
added_by_runs = set(sys.modules) - after_import
import os, resource
forked = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss > 0
assert forked or len(os.sched_getaffinity(0)) == 1
# scipy.linalg, imported later, binds the same LAPACK wrapper as usual
import scipy.linalg
from nonlocal_heat import laplacian
assert scipy.linalg._flapack.dpttrf is laplacian._pttrf
print(json.dumps({"after_import": sorted(after_import), "added_by_runs": sorted(added_by_runs)}))
"""


def test_cli_imports_no_scipy_linalg_and_runs_import_nothing_more(tmp_path):
    # a fresh interpreter: scipy.linalg's array-API layer pulls in numpy.f2py,
    # numpy.testing and numpy.ma; the probe draws its starts from the standard
    # library's random, so numpy.random and the OpenSSL that its secrets
    # import loads stay out of every run
    small_2d = {"domain": {"dim": 2, "lengths": [1.0, 1.0], "n": [15, 15]},
                "time": {"T": 0.1, "steps": 20, "scheme": "implicit_euler"}}
    # the README solve's 199,199-value trajectory CSV is formatted on forked workers
    configs = [base_config(None), base_config(None, mode="probe"),
               base_config(None, mode="convergence_study", study={"levels": 2}),
               base_config(None, **small_2d), readme_config(None)]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", IMPORT_SET_SCRIPT, str(tmp_path),
                           json.dumps(configs)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    after_import = set(modules["after_import"])
    assert after_import.isdisjoint({"scipy.linalg", "numpy.f2py", "numpy.testing", "numpy.ma",
                                    "multiprocessing", "concurrent.futures"})
    assert after_import.union(modules["added_by_runs"]).isdisjoint({"numpy.random", "secrets"})
    assert [m for m in modules["added_by_runs"] if not m.startswith("encodings.")] == []
