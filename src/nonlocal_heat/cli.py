"""Config-driven command line: single solves, probes, studies, sweeps.

Configs are JSON.  Exit codes: 0 success, 2 when any fixed-point run the
mode made did not converge, a failed sweep row included (artifacts are still
written), 3 invalid config, 4 I/O failure, 5 numerical failure
(``report.json`` names the error).  A config is parsed once, before anything
is written, into one solve job; a study level or sweep row replaces only the
entries it changes.  All randomness is seeded, and reports contain no
timestamps or absolute paths, so identical config + seed reproduces
byte-identical JSON artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import cached_property, partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import io as nio
from .evolution import EvolutionConfig
from .fixedpoint import (
    FixedPointReport,
    PicardConfig,
    UniquenessThreshold,
    picard_solve,
    uniqueness_probe,
    uniqueness_threshold,
)
from .io import ConfigError, _build, _fail, _get, _get_list, _read_grid, _typed
from .laplacian import DirichletLaplacian, SolverFailure
from .mesh import FLOOR, Field, Grid, norm_lp, restrict
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

#: The numerical failures that end a run in ``EXIT_NUMERICAL``.
NUMERICAL_FAILURES = (EvaluationError, SolverFailure)
#: Where a numerical failure happened, as the exception carries it into the
#: exit-5 ``report.json``: the study level (0 coarsest), the probe start's
#: kind, the 1-based map evaluation and the residuals of the evaluations
#: before it.
FAILURE_LOCATION = ("level", "start", "iteration", "residual_history")


def _per_axis(params: dict, field: str, kind: str, default, dim: int) -> list:
    """One value per axis, given as a list or as one value for every axis."""
    value = params.get(field.rsplit(".", 1)[-1], default)
    values = [_typed(v, field, kind)
              for v in (value if isinstance(value, list) else [value] * dim)]
    if len(values) != dim:
        _fail(field, f"must give {dim} value(s), got {value!r}")
    return values


def _given(section: dict, name: str, **kinds) -> dict:
    """The keys of ``kinds`` that ``section`` holds, each checked against its kind."""
    return {k: _get(section, f"{name}.{k}", kind) for k, kind in kinds.items() if k in section}


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

    ``lap``, the stencil operator on the config's grid, is built here, so a
    grid whose operator cannot be allocated is an invalid config; ``u0`` is
    on ``lap.grid``, the job's one grid.  ``datum(a)`` is the
    config's datum at amplitude ``a`` (the ``amplitude``, ``value`` or
    ``scale`` that an ``amplitude`` sweep row sets) and ``u0`` is
    ``datum`` at the config's own; ``datum`` raises ``ConfigError`` for a
    datum that is not finite or that ``sign_check`` rejects.  Only the active
    mode's own settings are read from the config: ``starts`` (probe),
    ``levels`` (convergence_study: one solve job per level, coarsest first,
    the finer ones ``replace``s of it) and ``axis`` and ``values`` (sweep,
    sorted); the other modes' settings are None.
    """

    mode: str
    seed: int
    out_dir: Path
    formats: list[str]
    lap: DirichletLaplacian
    phi: Potential
    u0: Field
    datum: Callable[[float], Field]
    ecfg: EvolutionConfig
    pcfg: PicardConfig
    starts: int | None = None
    levels: tuple[Job, ...] | None = None
    axis: str | None = None
    values: tuple[float, ...] | None = None

    @cached_property
    def threshold(self) -> UniquenessThreshold:
        """The small-data uniqueness check, evaluated on first use by each job."""
        return uniqueness_threshold(self.phi, self.u0, self.ecfg.T)


def _initial_datum(sec: dict, grid: Grid) -> tuple[Field, float]:
    """The datum of ``sec`` on ``grid`` at amplitude 1, and its amplitude:
    ``amplitude`` (``sine_mode``, ``gaussian``), ``value`` (``constant``) or
    ``scale`` (``from_file``, whose file is read here)."""
    name = _get(sec, "initial.name", "string")
    params = _get(sec, "initial.params", "object", {})
    if name == "sine_mode":
        modes = _per_axis(params, "initial.params.k", "integer", 1, grid.dim)
        if min(modes) < 1:
            _fail("initial.params.k", f"must be positive, got {modes}")
        unit = Field.from_function(grid, lambda *coords: math.prod(
            np.sin(k * math.pi * x / length) for k, x, length in zip(modes, coords, grid.lengths)))
        return unit, _get(params, "initial.params.amplitude", "number", 1.0)
    if name == "gaussian":
        centers = _per_axis(params, "initial.params.center", "number",
                            [L / 2.0 for L in grid.lengths], grid.dim)
        width = _get(params, "initial.params.width", "number")
        w = float(width)
        spread = 2.0 * (w * w)  # a float product gives inf or 0.0 where ** would raise
        if width <= 0 or not 0.0 < spread < math.inf:
            _fail("initial.params.width",
                  f"must be positive with 2*width**2 a finite positive float, got {width}")

        def fn(*coords):
            with np.errstate(over="ignore"):  # a far node's exponent is -inf: exp gives 0
                r2 = sum((x - float(c)) ** 2 for x, c in zip(coords, centers))
                return np.exp(-r2 / spread)

        unit = Field.from_function(grid, fn)
        return unit, _get(params, "initial.params.amplitude", "number", 1.0)
    if name == "constant":
        return Field.constant(grid, 1.0), _get(params, "initial.params.value", "number")
    if name == "from_file":
        path = _get(params, "initial.params.path", "string")
        try:
            unit = nio.read_field(path, grid)
        except (OSError, ValueError) as exc:
            _fail("initial.params.path",
                  f"cannot be loaded as a field: {type(exc).__name__}: {exc}")
        return unit, _get(params, "initial.params.scale", "number", 1.0)
    _fail("initial.name", f"is not a known initial datum: {name!r}")


def _datum_at(unit: Field, sign_check: bool, amplitude: float) -> Field:
    """``amplitude * unit``, refused as a config's datum when it is not
    finite or, under ``sign_check``, has a negative entry."""
    with np.errstate(over="ignore"):  # an overflow is a non-finite datum, refused here
        try:
            field = float(amplitude) * unit
        except ValueError as exc:
            _fail("initial", f"gives no valid datum: {exc}")
    if sign_check and float(np.min(field.values)) < 0.0:
        _fail("initial.sign_check", "rejects the datum: it has negative entries")
    return field


def _datum_and_operator(sec: dict, grid: Grid):
    """The stencil operator on ``grid``, the datum of ``sec`` on ``grid`` as a
    function of its amplitude (``Job.datum``) and that datum at the config's
    amplitude.  The operator is built first, so that a grid whose operator
    cannot be allocated is refused before its datum is allocated; such a
    grid, or a datum ``_datum_at`` refuses, raises ``ConfigError``."""
    try:
        try:
            lap = DirichletLaplacian(grid)
        except ValueError as exc:  # numpy's refusal of a size beyond the address space
            raise MemoryError(str(exc)) from None
        unit, amplitude = _initial_datum(sec, grid)
        datum = partial(_datum_at, unit, _get(sec, "initial.sign_check", "boolean", False))
        return lap, datum, datum(amplitude)
    except MemoryError as exc:  # the datum's num_nodes values, or a 2D axis's sine matrix
        _fail("domain.n", f"must give a grid that can be allocated, got {list(grid.n)}: {exc}")


def _study_level(job: Job, sec: dict, level: int, refine: str) -> Job:
    """Level ``level`` of a study of the solve ``job``, whose datum is ``sec``."""
    if refine == "time_only":
        return replace(job, ecfg=_build("time", replace, job.ecfg, steps=job.ecfg.steps * 2**level))
    coarse = job.lap.grid
    grid = _build("domain", Grid, coarse.lengths, [(m + 1) * 2**level - 1 for m in coarse.n])
    ecfg = _build("time", replace, job.ecfg, steps=job.ecfg.steps * 4**level)
    lap, datum, u0 = _datum_and_operator(sec, grid)
    return replace(job, lap=lap, u0=u0, datum=datum, ecfg=ecfg)


def parse_config(cfg: dict) -> Job:
    """Check a whole config and build its objects; raises ``ConfigError``.

    Only JSON types are checked here, by the checks field JSON shares; ranges
    and defaults belong to ``Grid``, ``EvolutionConfig`` and ``PicardConfig``
    (a key of theirs is passed only when given).  A study's levels are built
    here too, so every problem the run solves is checked before any write.
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

    grid = _read_grid(_get(cfg, "domain", "object"), "domain")

    time = _get(cfg, "time", "object")
    ecfg = _build(
        "time", EvolutionConfig,
        T=float(_get(time, "time.T", "number")),
        steps=_get(time, "time.steps", "integer"),
        **_given(time, "time", scheme="string", store_every="integer"),
    )

    pot = _get(cfg, "potential", "object")
    name = _get(pot, "potential.name", "string")
    params = _get_list(pot, "potential.params", "number", [])
    try:
        phi = catalog(name, params)
    except ValueError as exc:
        _fail("potential", f"is invalid: {exc}")

    initial = _get(cfg, "initial", "object")
    lap, datum, u0 = _datum_and_operator(initial, grid)

    fp = _get(cfg, "fixedpoint", "object", {})
    if "initial_guess" in fp:
        _fail("fixedpoint.initial_guess", "is not a config key: a solve starts from zero")
    pcfg = _build("fixedpoint", PicardConfig,
                  **_given(fp, "fixedpoint", tol="number", max_iter="integer", damping="number"))

    job = Job("solve", seed, out_dir, formats, lap, phi, u0, datum, ecfg, pcfg)
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
            _fail("study.refine", "must be 'time_only' for a from_file datum, which holds one grid")
        settings["levels"] = (job,) + tuple(_study_level(job, initial, level, refine)
                                            for level in range(1, levels))
    elif mode == "sweep":
        sweep = _get(cfg, "sweep", "object")
        axis = _get(sweep, "sweep.axis", "string")
        if axis not in SWEEP_AXES:
            _fail("sweep.axis", f"must be one of {SWEEP_AXES}, got {axis!r}")
        values = _get_list(sweep, "sweep.values", "number")
        if not values:
            _fail("sweep.values", "must not be empty")
        settings.update(axis=axis, values=tuple(sorted(float(v) for v in values)))

    return replace(job, mode=mode, **settings)


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


def _write_outputs(job: Job, ut: Field, streamed: Path | None = None) -> dict:
    """Write each of the job's formats of the field ``ut`` and, if given, of
    the ``streamed`` trajectory; returns the ``files`` entries made.  The
    writers run in the order listed, read from ``nio`` at call time: the
    trajectory CSV is formatted from the streamed file that the ``bin``
    writer moves into place."""
    files = {}
    for stem, fmt, write, obj in (("ut", "csv", nio.write_field_csv, ut),
                                  ("ut", "json", nio.write_field_json, ut),
                                  ("trajectory", "csv", nio.write_trajectory_csv, streamed),
                                  ("trajectory", "bin", nio.write_trajectory_bin, streamed)):
        if fmt in job.formats and obj is not None:
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
    grid, ecfg = job.lap.grid, job.ecfg
    return {
        "mode": job.mode,
        "seed": job.seed,
        "grid": {"dim": grid.dim, "lengths": list(grid.lengths), "n": list(grid.n),
                 "h": list(grid.h)},
        "time": {"T": ecfg.T, "steps": ecfg.steps, "dt": ecfg.dt,
                 "scheme": ecfg.scheme, "store_every": ecfg.store_every},
        "potential": cfg["potential"],
    }


def _solve(job: Job, sink=None) -> FixedPointReport:
    return picard_solve(job.lap, job.phi, job.u0, job.ecfg, job.pcfg, sink=sink)


def _summary_line(report: FixedPointReport, thr: UniquenessThreshold, verification) -> str:
    product = f"{thr.product:.3e}" if thr.applicable else "n/a"
    return (
        f"converged={report.converged} iterations={report.iterations} "
        f"final_residual={report.final_residual:.3e} threshold_product={product} "
        f"norms_ok={all(verification.solution_bounds.norm_ok.values())} "
        f"positivity_ok={verification.solution_bounds.positivity_ok} "
        f"energy_bound_ok={verification.energy.bound_ok} "
        f"elliptic_residual={verification.elliptic.relative_residual:.3e}"
    )


def run_solve(cfg: dict, job: Job, quiet: bool) -> bool:
    """Solve, verify and write; returns whether the run converged.  The solve
    streams a trajectory binary; the CSV is formatted from it before the
    ``bin`` writer moves it, and no exit leaves it behind."""
    streamed = job.out_dir / "trajectory.part"
    try:
        with (nio.trajectory_stream(streamed, job.u0, job.ecfg)
              if any(f in TRAJECTORY_FORMATS for f in job.formats) else nullcontext()) as sink:
            report = _solve(job, sink)
        verification = verify_all(report, job.phi, job.lap)

        payload = _run_header(cfg, job)
        payload.update(report.scalar_diagnostics())
        payload.update(s0=job.threshold.s0, s0_l2=job.ecfg.T * norm_lp(job.u0, 2),
                       damping=job.pcfg.damping, tol=job.pcfg.tol,
                       threshold=job.threshold.to_dict())
        payload["verification"] = verification.to_dict()
        files = {"config": "config.json", "report": "report.json"}
        files.update(_write_outputs(job, report.uT, streamed))
        payload["files"] = files
        _write_json(job.out_dir / "report.json", payload)
    finally:
        streamed.unlink(missing_ok=True)
    if not quiet:
        print(_summary_line(report, job.threshold, verification))
    return report.converged


def run_probe(cfg: dict, job: Job, quiet: bool) -> bool:
    probe = uniqueness_probe(
        job.lap, job.phi, job.u0, job.ecfg, job.pcfg,
        n_starts=job.starts, seed=job.seed,
    )
    payload = _run_header(cfg, job)
    payload["probe"] = probe.scalar_diagnostics()
    payload["threshold"] = job.threshold.to_dict()
    files = {"config": "config.json", "report": "report.json"}
    for kind, run in zip(probe.start_kinds, probe.runs):
        if run.converged:
            written = _write_outputs(job, run.uT)
            if written:
                files.update(written)
                payload["probe"]["ut_from_start"] = kind
            break
    payload["files"] = files
    _write_json(job.out_dir / "report.json", payload)
    if not quiet:
        print(
            f"probe starts={job.starts} all_converged={probe.all_converged} "
            f"max_pairwise_relative={probe.max_pairwise_relative:.3e}"
        )
    return probe.all_converged


def run_convergence_study(cfg: dict, job: Job, quiet: bool) -> bool:
    runs = []
    for level, level_job in enumerate(job.levels):
        try:
            report = _solve(level_job)
        except NUMERICAL_FAILURES as exc:
            exc.level = level
            raise
        verification = verify_all(report, level_job.phi, level_job.lap)
        runs.append((level_job.lap.grid, level_job.ecfg, report, verification))

    finest_report = runs[-1][2]
    scale = max(norm_lp(finest_report.uT, 2), FLOOR)
    errors_vs_finest = [
        norm_lp(restrict(finest_report.uT, grid) - report.uT, 2) / scale
        for grid, _, report, _ in runs[:-1]
    ] + [0.0]
    diffs = [
        norm_lp(restrict(runs[l + 1][2].uT, runs[l][0]) - runs[l][2].uT, 2) / scale
        for l in range(len(runs) - 1)
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
    return all(report.converged for _, _, report, _ in runs)


def run_sweep(cfg: dict, job: Job, quiet: bool) -> bool:
    """One solve per value: a ``T`` row replaces ``job.ecfg``, an ``amplitude``
    row ``job.u0`` with ``job.datum(value)``; every row shares ``job.lap``,
    and a ``from_file`` datum's file is read once, by the parse."""

    def row(value: float) -> tuple[str, bool]:
        """The CSV line of one value and whether its run converged."""
        try:
            if job.axis == "T":
                row_job = replace(job, ecfg=_build("time", replace, job.ecfg, T=value))
            else:
                row_job = replace(job, u0=job.datum(value))
            report = _solve(row_job)
            thr = row_job.threshold
            product = f"{thr.product:.10e}" if thr.applicable else "n/a"
            return (f"{value:.10g},{report.converged},{report.iterations},{product},"
                    f"{report.final_residual:.10e},", report.converged)
        except (ConfigError, *NUMERICAL_FAILURES) as exc:  # recorded, not fatal
            error = str(exc).replace(",", ";")
            return f"{value:.10g},,{getattr(exc, 'iteration', '')},,,{error}", False

    rows = [row(v) for v in job.values]
    lines = ["value,converged,iterations,threshold_product,final_residual,error"]
    _write_table(job.out_dir / "sweep.csv", lines + [line for line, _ in rows], quiet)
    return all(converged for _, converged in rows)


def run(
    config_path: str | Path,
    mode: str | None = None,
    out: str | Path | None = None,
    seed: int | None = None,
    quiet: bool = False,
) -> int:
    """Execute one config; returns the process exit code.

    Each mode's runner returns whether every fixed-point run it made
    converged, which decides between ``EXIT_OK`` and ``EXIT_NO_CONVERGENCE``.
    The whole config is parsed before the output directory is created.  A
    numerical failure (a potential value, a stepping overflow or a linear
    solve that breaks down) ends in ``EXIT_NUMERICAL`` with the run header and the error in
    ``report.json``, located by the ``FAILURE_LOCATION`` entries its exception carries.
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
            return EXIT_OK if runner(cfg, job, quiet) else EXIT_NO_CONVERGENCE
        except NUMERICAL_FAILURES as exc:
            payload = _run_header(cfg, job)
            payload["error"] = {"type": type(exc).__name__, "message": str(exc)}
            payload["error"].update((key, getattr(exc, key)) for key in FAILURE_LOCATION
                                    if hasattr(exc, key))
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
