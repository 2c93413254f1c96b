import json
import math
from pathlib import Path

import numpy as np
import pytest

from nonlocal_heat import cli, uniqueness_threshold
from nonlocal_heat.io import read_field_json


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
        pytest.param(
            lambda c: c.update(initial={"name": "gaussian", "params": {"width": 1e-300}}),
            marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"),  # 1/width**2 overflows
        ),
        lambda c: c["initial"].update(sign_check="no"),
    ],
)
def test_invalid_configs_exit_3(tmp_path, mutate):
    cfg = base_config(tmp_path / "out")
    mutate(cfg)
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 3


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


def test_overflowing_growth_bound_is_met_without_warning(tmp_path, capsys):
    # the scaled_datum start makes v ~ 1e9, so the growth bound a (1 + |v|)
    # of bounded_sine(1e300) exceeds the floating-point range
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
    assert report["probe"]["generator"] == "numpy-pcg64"
    assert report["threshold"]["applicable"] is True
    job = cli.parse_config(cfg)
    expected = uniqueness_threshold(job.phi, job.u0, job.grid, job.ecfg.T).to_dict()
    assert report["threshold"] == json.loads(json.dumps(expected))
    assert (out / "ut.json").exists()


def test_probe_reproducible_with_seed(tmp_path):
    cfg1 = base_config(tmp_path / "a", mode="probe")
    cfg2 = base_config(tmp_path / "b", mode="probe")
    assert cli.run(write_config(tmp_path, cfg1, "c1.json"), seed=11, quiet=True) == 0
    assert cli.run(write_config(tmp_path, cfg2, "c2.json"), seed=11, quiet=True) == 0
    a = json.loads((tmp_path / "a" / "report.json").read_text())
    b = json.loads((tmp_path / "b" / "report.json").read_text())
    assert a == b


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


def test_convergence_study_zero_datum_reports_na(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, mode="convergence_study")
    cfg["initial"] = {"name": "constant", "params": {"value": 0.0}}
    cfg["study"] = {"levels": 2}
    assert cli.run(write_config(tmp_path, cfg), quiet=True) == 0
    lines = (out / "study.csv").read_text().splitlines()
    assert all(line.endswith("n/a") for line in lines[1:])


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


@pytest.mark.parametrize("initial,potential,datum,overrides,error,cause", [
    # the potential of the iterate overflows
    (sine(1e200), "quadratic", None, {}, "EvaluationError", "non-finite"),
    ({"name": "from_file", "params": {"scale": 1e308}}, "quadratic", 0.01, {},
     "EvaluationError", "non-finite"),
    # the states overflow while stepping
    (sine(1e308), "quadratic", None, {}, "EvaluationError", "non-finite"),
    # constant(-2000): I + dt*(L - 2000 I) is indefinite, whatever the datum
    (sine(1e200), "constant", None, {}, "SolverFailure", "not positive definite"),
    ({"name": "from_file", "params": {"scale": 1e308}}, "quadratic", 1.0, {},
     "EvaluationError", "non-finite"),
    (sine(1.0), "constant", None, {}, "SolverFailure", "not positive definite"),
    # the norm of a 2D right-hand side overflows: CG stops before iterating
    (sine(1e308), "quadratic", None, GRID_2D, "SolverFailure", "non-finite norm"),
    (sine(1e308), "quadratic", None, CN, "EvaluationError", "non-finite"),
    # the 2D operator is indefinite too: CG finds a direction with p^T A p <= 0
    (sine(1.0), "constant", None, GRID_2D, "SolverFailure", "not positive definite"),
], ids=[f"initial{i}" for i in range(9)])
def test_numerical_failure_exits_5_with_report(
        tmp_path, capsys, initial, potential, datum, overrides, error, cause):
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
    assert report["mode"] == "solve" and report["grid"]["n"] == cfg["domain"]["n"]
    assert not (out / "ut.json").exists()


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
