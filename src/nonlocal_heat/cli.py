"""Config-driven command line: single solves, probes, studies, sweeps.

Configs are JSON.  Exit codes: 0 success, 2 fixed-point non-convergence
(artifacts are still written), 3 invalid config, 4 I/O failure, 5 numerical
failure (``report.json`` names the error).  A config
is parsed once, before anything is written, into the objects its run needs.
All randomness is seeded, and reports contain no timestamps or absolute
paths, so identical config + seed reproduces byte-identical JSON artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import io as nio
from .evolution import EvolutionConfig
from .fixedpoint import (
    FixedPointReport,
    PicardConfig,
    picard_solve,
    uniqueness_probe,
)
from .laplacian import SolverFailure, assemble
from .mesh import Field, Grid, norm_lp, restrict
from .potential import EvaluationError, Potential, catalog
from .verify import verify_all

MODES = ("solve", "probe", "convergence_study", "sweep")
FORMATS = ("csv", "json", "bin")
TRAJECTORY_FORMATS = ("csv", "bin")
REFINEMENTS = ("space_time", "time_only")
SWEEP_AXES = ("T", "amplitude")

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_BAD_CONFIG = 3
EXIT_IO = 4
EXIT_NUMERICAL = 5

_REQUIRED = object()
_CONTAINERS = {"object": dict, "list": list, "string": str, "boolean": bool}
_KINDS = {"object": "an object", "list": "a list", "string": "a string", "boolean": "a boolean",
          "number": "a finite number", "integer": "an integer"}


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

    Numbers must be finite (``json`` accepts NaN and Infinity); booleans are
    not numbers; an integer may be written as an integral float.
    """
    if kind in _CONTAINERS:
        ok = isinstance(value, _CONTAINERS[kind])
    else:
        ok = (not isinstance(value, bool) and isinstance(value, (int, float))
              and math.isfinite(value) and (kind == "number" or int(value) == value))
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


def _per_axis(params: dict, field: str, kind: str, default, dim: int) -> list:
    """One value per axis, given as a list or as one value for every axis."""
    value = params.get(field.rsplit(".", 1)[-1], default)
    values = [_typed(v, field, kind)
              for v in (value if isinstance(value, list) else [value] * dim)]
    if len(values) != dim:
        _fail(field, f"must give {dim} value(s), got {value!r}")
    return values


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read '{path}': {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: '{path}' is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    return cfg


@dataclass(frozen=True)
class Job:
    """A config parsed into the objects one run needs.

    Only the active mode's own settings are read from the config: ``starts``
    (probe), ``levels`` and ``refine`` (convergence_study), ``axis`` and
    ``values`` (sweep, sorted); the other modes' settings are None.
    """

    mode: str
    seed: int
    out_dir: Path
    formats: list[str]
    grid: Grid
    phi: Potential
    u0: Field
    ecfg: EvolutionConfig
    pcfg: PicardConfig
    starts: int | None = None
    levels: int | None = None
    refine: str | None = None
    axis: str | None = None
    values: tuple[float, ...] | None = None

    @property
    def stepping(self) -> EvolutionConfig:
        """``ecfg`` as solved: only a solve that writes its trajectory stores
        more than ``u0`` and ``u_K``; the map output is the same either way."""
        if self.mode == "solve" and any(f in TRAJECTORY_FORMATS for f in self.formats):
            return self.ecfg
        return replace(self.ecfg, store_every=self.ecfg.steps)


def _initial_datum(sec: dict, grid: Grid) -> Field:
    name = _get(sec, "initial.name", "string")
    params = _get(sec, "initial.params", "object", {})
    if name == "sine_mode":
        modes = _per_axis(params, "initial.params.k", "integer", 1, grid.dim)
        if min(modes) < 1:
            _fail("initial.params.k", f"must be positive, got {modes}")
        amp = _get(params, "initial.params.amplitude", "number", 1.0)

        def fn(*coords):
            out = float(amp) * np.ones_like(coords[0])
            for axis, x in enumerate(coords):
                out = out * np.sin(modes[axis] * math.pi * x / grid.lengths[axis])
            return out

        field = Field.from_function(grid, fn)
    elif name == "gaussian":
        centers = _per_axis(params, "initial.params.center", "number",
                            [L / 2.0 for L in grid.lengths], grid.dim)
        width = _get(params, "initial.params.width", "number")
        if width <= 0:
            _fail("initial.params.width", f"must be positive, got {width}")
        amp = _get(params, "initial.params.amplitude", "number", 1.0)

        def fn(*coords):
            r2 = sum((x - float(c)) ** 2 for x, c in zip(coords, centers))
            return float(amp) * np.exp(-r2 / (2.0 * float(width) ** 2))

        field = Field.from_function(grid, fn)
    elif name == "constant":
        field = Field.constant(grid, _get(params, "initial.params.value", "number"))
    elif name == "from_file":
        path = _get(params, "initial.params.path", "string")
        try:
            field = nio.read_field(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            _fail("initial.params.path",
                  f"cannot be loaded as a field: {type(exc).__name__}: {exc}")
        if field.grid != grid:
            _fail("initial.params.path",
                  f"holds a field on grid {field.grid.n}, but domain.n is {grid.n}")
        field = float(_get(params, "initial.params.scale", "number", 1.0)) * field
    else:
        _fail("initial.name", f"is not a known initial datum: {name!r}")
    if _get(sec, "initial.sign_check", "boolean", False) and float(np.min(field.values)) < 0.0:
        _fail("initial.sign_check", "rejects the datum: it has negative entries")
    return field


def parse_config(cfg: dict) -> Job:
    """Check a whole config and build its objects; raises ``ConfigError``.

    Only JSON types are checked here; range checks belong to ``Grid``,
    ``EvolutionConfig`` and ``PicardConfig``, whose messages get the
    section prepended.
    """
    mode = _get(cfg, "mode", "string", "solve")
    if mode not in MODES:
        _fail("mode", f"must be one of {MODES}, got {mode!r}")
    seed = _get(cfg, "seed", "integer", 0)
    if seed < 0:
        _fail("seed", f"must be >= 0, got {seed}")
    out = _get(cfg, "output", "object", {})
    out_dir = Path(_get(out, "output.dir", "string", "out"))
    formats = _get_list(out, "output.formats", "string", ["json"])
    if any(f not in FORMATS for f in formats):
        _fail("output.formats", f"must be a subset of {FORMATS}, got {formats}")

    dom = _get(cfg, "domain", "object")
    dim = _get(dom, "domain.dim", "integer")
    lengths = _get_list(dom, "domain.lengths", "number", length=dim)
    n = _get_list(dom, "domain.n", "integer", length=dim)
    grid = _build("domain", Grid, tuple(float(v) for v in lengths), tuple(n))

    time = _get(cfg, "time", "object")
    ecfg = _build(
        "time", EvolutionConfig,
        T=float(_get(time, "time.T", "number")),
        steps=_get(time, "time.steps", "integer"),
        scheme=_get(time, "time.scheme", "string", "implicit_euler"),
        store_every=_get(time, "time.store_every", "integer", 1),
    )

    pot = _get(cfg, "potential", "object")
    name = _get(pot, "potential.name", "string")
    params = _get_list(pot, "potential.params", "number", [])
    try:
        phi = catalog(name, params)
    except ValueError as exc:
        _fail("potential", f"is invalid: {exc}")

    initial = _get(cfg, "initial", "object")
    try:
        u0 = _initial_datum(initial, grid)
    except ConfigError:
        raise
    except ValueError as exc:  # the datum's values are not all finite
        _fail("initial", f"gives no valid datum: {exc}")

    fp = _get(cfg, "fixedpoint", "object", {})
    pcfg = _build(
        "fixedpoint", PicardConfig,
        tol=_get(fp, "fixedpoint.tol", "number", 1e-10),
        max_iter=_get(fp, "fixedpoint.max_iter", "integer", 200),
        damping=_get(fp, "fixedpoint.damping", "number", 1.0),
        initial_guess=_get(fp, "fixedpoint.initial_guess", "string", "zero"),
    )

    settings = {}
    if mode == "probe":
        settings["starts"] = _get(fp, "fixedpoint.starts", "integer", 5)
        if settings["starts"] < 2:
            _fail("fixedpoint.starts", f"must be >= 2, got {settings['starts']}")
    elif mode == "convergence_study":
        study = _get(cfg, "study", "object", {})
        levels = _get(study, "study.levels", "integer", 3)
        refine = _get(study, "study.refine", "string", "space_time")
        if levels < 2:
            _fail("study.levels", f"must be >= 2, got {levels}")
        if refine not in REFINEMENTS:
            _fail("study.refine", f"must be one of {REFINEMENTS}, got {refine!r}")
        if refine == "space_time" and initial["name"] == "from_file":
            _fail("study.refine", "must be 'time_only' for a from_file datum, "
                                  "which holds one grid")
        settings.update(levels=levels, refine=refine)
    elif mode == "sweep":
        sweep = _get(cfg, "sweep", "object")
        axis = _get(sweep, "sweep.axis", "string")
        if axis not in SWEEP_AXES:
            _fail("sweep.axis", f"must be one of {SWEEP_AXES}, got {axis!r}")
        values = _get_list(sweep, "sweep.values", "number")
        if not values:
            _fail("sweep.values", "must not be empty")
        settings.update(axis=axis, values=tuple(sorted(float(v) for v in values)))

    return Job(mode, seed, out_dir, formats, grid, phi, u0, ecfg, pcfg, **settings)


def _finite_or_null(obj):
    """``obj`` with every non-finite float replaced by None, JSON's null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a non-finite float (an overflowed diagnostic) is written as null."""
    text = json.dumps(_finite_or_null(payload), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n")


def _write_outputs(obj, kind: str, stem: str, job: Job) -> dict:
    """Write ``obj`` with each ``nio.write_<kind>_<format>`` the job's formats
    name, looked up at call time; returns the ``files`` entries made."""
    files = {}
    for fmt in FORMATS:
        write = getattr(nio, f"write_{kind}_{fmt}", None)
        if fmt in job.formats and write is not None:
            write(obj, job.out_dir / f"{stem}.{fmt}")
            files[f"{stem}_{fmt}"] = f"{stem}.{fmt}"
    return files


def _write_table(path: Path, lines: list[str], quiet: bool) -> None:
    """Write CSV lines to ``path`` and, unless ``quiet``, echo them."""
    path.write_text("\n".join(lines) + "\n")
    if not quiet:
        for line in lines:
            print(line)


def _run_header(cfg: dict, job: Job) -> dict:
    grid, ecfg = job.grid, job.ecfg
    return {
        "mode": job.mode,
        "seed": job.seed,
        "grid": {"dim": grid.dim, "lengths": list(grid.lengths), "n": list(grid.n),
                 "h": list(grid.h)},
        "time": {"T": ecfg.T, "steps": ecfg.steps, "dt": ecfg.dt,
                 "scheme": ecfg.scheme, "store_every": ecfg.store_every},
        "potential": cfg["potential"],
    }


def _solve(job: Job):
    lap = assemble(job.grid)
    return lap, picard_solve(lap, job.phi, job.u0, job.stepping, job.pcfg)


def _summary_line(report: FixedPointReport, verification) -> str:
    thr = report.threshold
    product = f"{thr.product:.3e}" if thr.applicable else "n/a"
    return (
        f"converged={report.converged} iterations={report.iterations} "
        f"final_residual={report.final_residual:.3e} threshold_product={product} "
        f"norms_ok={all(verification.solution_bounds.norm_ok.values())} "
        f"positivity_ok={verification.solution_bounds.positivity_ok} "
        f"energy_bound_ok={verification.energy.bound_ok} "
        f"elliptic_residual={verification.elliptic.relative_residual:.3e}"
    )


def run_solve(cfg: dict, job: Job, quiet: bool) -> int:
    lap, report = _solve(job)
    verification = verify_all(report, job.phi, lap)

    payload = _run_header(cfg, job)
    payload.update(report.scalar_diagnostics())
    payload["verification"] = verification.to_dict()
    files = {"config": "config.json", "report": "report.json"}
    files.update(_write_outputs(report.uT, "field", "ut", job))
    files.update(_write_outputs(report.trajectory, "trajectory", "trajectory", job))
    payload["files"] = files
    _write_json(job.out_dir / "report.json", payload)
    if not quiet:
        print(_summary_line(report, verification))
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def run_probe(cfg: dict, job: Job, quiet: bool) -> int:
    probe = uniqueness_probe(
        assemble(job.grid), job.phi, job.u0, job.stepping, job.pcfg,
        n_starts=job.starts, seed=job.seed,
    )
    payload = _run_header(cfg, job)
    payload["probe"] = probe.scalar_diagnostics()
    payload["threshold"] = probe.runs[0].threshold.to_dict()
    files = {"config": "config.json", "report": "report.json"}
    for kind, run in zip(probe.start_kinds, probe.runs):
        if run.converged:
            files.update(_write_outputs(run.uT, "field", "ut", job))
            payload["probe"]["ut_from_start"] = kind
            break
    payload["files"] = files
    _write_json(job.out_dir / "report.json", payload)
    if not quiet:
        print(
            f"probe starts={job.starts} all_converged={probe.all_converged} "
            f"max_pairwise_relative={probe.max_pairwise_relative:.3e}"
        )
    return EXIT_OK


def _refined_config(cfg: dict, level: int, refine: str) -> dict:
    out = json.loads(json.dumps(cfg))  # deep copy
    if refine == "space_time":
        out["domain"]["n"] = [(m + 1) * 2**level - 1 for m in cfg["domain"]["n"]]
        out["time"]["steps"] = cfg["time"]["steps"] * 4**level
    else:  # time_only
        out["time"]["steps"] = cfg["time"]["steps"] * 2**level
    return out


def run_convergence_study(cfg: dict, job: Job, quiet: bool) -> int:
    levels = job.levels
    runs = []
    for level in range(levels):
        level_job = job if level == 0 else parse_config(_refined_config(cfg, level, job.refine))
        lap, report = _solve(level_job)
        verification = verify_all(report, level_job.phi, lap)
        runs.append((level_job.grid, level_job.ecfg, report, verification))

    finest_grid, _, finest_report, _ = runs[-1]

    def on_grid(field: Field, grid: Grid) -> Field:
        return field if field.grid == grid else restrict(field, grid)

    scale = max(norm_lp(finest_report.uT, 2), 1e-300)
    errors_vs_finest = [
        norm_lp(on_grid(finest_report.uT, grid) - report.uT, 2) / scale
        for grid, _, report, _ in runs[:-1]
    ] + [0.0]
    diffs = [
        norm_lp(on_grid(runs[l + 1][2].uT, runs[l][0]) - runs[l][2].uT, 2) / scale
        for l in range(levels - 1)
    ]

    lines = ["level,n,h,dt,uT_error_vs_finest,elliptic_residual,energy_mismatch,observed_order"]
    for level, (grid, ecfg, _, verification) in enumerate(runs):
        if level >= 2 and diffs[level - 1] > 0.0 and diffs[level - 2] > 0.0:
            order = f"{math.log2(diffs[level - 2] / diffs[level - 1]):.4f}"
        else:
            order = "n/a"
        lines.append(
            f"{level},{'x'.join(str(m) for m in grid.n)},{max(grid.h):.10g},{ecfg.dt:.10g},"
            f"{errors_vs_finest[level]:.10e},{verification.elliptic.relative_residual:.10e},"
            f"{verification.energy.relative_mismatch:.10e},{order}"
        )
    _write_table(job.out_dir / "study.csv", lines, quiet)
    return EXIT_OK


def run_sweep(cfg: dict, job: Job, quiet: bool) -> int:
    def config_for(value: float) -> dict:
        out = json.loads(json.dumps(cfg))
        if job.axis == "T":
            out["time"]["T"] = value
        else:
            params = out["initial"].setdefault("params", {})
            if out["initial"].get("name") == "constant":
                params["value"] = value
            elif out["initial"].get("name") == "from_file":
                params["scale"] = value
            else:
                params["amplitude"] = value
        return out

    def run_row(value: float) -> dict:
        row = {"value": value, "converged": "", "iterations": "",
               "threshold_product": "", "final_residual": "", "error": ""}
        try:
            _, report = _solve(parse_config(config_for(value)))
            thr = report.threshold
            row.update(
                converged=report.converged,
                iterations=report.iterations,
                threshold_product=f"{thr.product:.10e}" if thr.applicable else "n/a",
                final_residual=f"{report.final_residual:.10e}",
            )
        except Exception as exc:  # per-row failures are recorded, not fatal
            row["error"] = str(exc).replace(",", ";")
        return row

    rows = [run_row(v) for v in job.values]

    header = "value,converged,iterations,threshold_product,final_residual,error"
    lines = [header] + [
        f"{r['value']:.10g},{r['converged']},{r['iterations']},"
        f"{r['threshold_product']},{r['final_residual']},{r['error']}"
        for r in rows
    ]
    _write_table(job.out_dir / "sweep.csv", lines, quiet)
    return EXIT_OK


def run(
    config_path: str | Path,
    mode: str | None = None,
    out: str | Path | None = None,
    seed: int | None = None,
    quiet: bool = False,
) -> int:
    """Execute one config; returns the process exit code.

    The whole config is parsed before the output directory is created.  A
    numerical failure (a potential value, a stepping overflow or a linear
    solve that breaks down) ends in ``EXIT_NUMERICAL`` with the run header and the error in
    ``report.json``.
    """
    try:
        cfg = load_config(config_path)
        if mode is not None:
            cfg["mode"] = mode
        if out is not None:
            cfg["output"] = {**_get(cfg, "output", "object", {}), "dir": str(out)}
        if seed is not None:
            cfg["seed"] = seed
        job = parse_config(cfg)
        job.out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(job.out_dir / "config.json", cfg)
        runner = {"solve": run_solve, "probe": run_probe,
                  "convergence_study": run_convergence_study, "sweep": run_sweep}[job.mode]
        try:
            return runner(cfg, job, quiet)
        except (EvaluationError, SolverFailure) as exc:
            payload = _run_header(cfg, job)
            payload["error"] = {"type": type(exc).__name__, "message": str(exc)}
            _write_json(job.out_dir / "report.json", payload)
            print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nonlocal-heat",
        description="Fixed-point solver for the time-integral-coupled heat equation.",
    )
    parser.add_argument("config", help="path to a JSON run configuration")
    parser.add_argument("--mode", choices=MODES, help="override the config mode")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--seed", type=int, help="override the random seed")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)
    return run(args.config, mode=args.mode, out=args.out, seed=args.seed, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
