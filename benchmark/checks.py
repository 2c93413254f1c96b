"""The correctness gate: one repeat of a workload passes or fails as a whole.

Runs in the benchmark's parent process, outside every timed region.  The
gate reads what the repeat wrote (exit code, ``report.json`` flags,
``study.csv``, ``ut.json``) and the Picard runs the worker captured, then
rechecks the fixed point with one public ``phi_map`` call.  It compares
norms of ``uT`` with reference values, never bytes or iteration counts,
so rounding-level changes and a faster iteration to the same fixed point
still pass.  Byte-identity is checked separately, between repeats.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import levels, picard_runs, reference_for

FIXED_POINT_FACTOR = 10.0  # ||Phi(uT) - uT||_2 / ||uT||_2 <= FIXED_POINT_FACTOR * tol
REFERENCE_FACTOR = 1e3  # |norm(uT) - reference| <= REFERENCE_FACTOR * tol * reference
PROBE_AGREEMENT = 1e-8  # bound on max_pairwise_relative (acceptance check A6)
STUDY_ORDER_BAND = (1.8, 2.2)  # band for the last observed order (acceptance check A8)


@dataclass
class Outcome:
    """What one repeat did and whether it passed the gate."""

    attempted: int
    converged: int = 0
    map_evals: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprint: str = ""

    @property
    def failed(self) -> int:
        return self.attempted if self.problems else 0


def inspect(name: str, cfg: dict, result: dict, recheck: bool) -> Outcome:
    """Gate one repeat; ``recheck`` adds the ``phi_map`` recheck of the fixed point."""
    out = Outcome(attempted=picard_runs(cfg))
    out_dir = Path(cfg["output"]["dir"])
    if result.get("error"):
        out.problems.append("cli.run raised: " + result["error"].strip().splitlines()[-1])
    elif result.get("rc") != 0:
        out.problems.append(f"exit code {result.get('rc')}, expected 0")
    try:
        with np.load(out_dir / "captured.npz") as captured:
            iterations = [int(v) for v in captured["iterations"]]
            uts = [captured[f"ut_{i}"] for i in range(len(iterations))]
            converged = [bool(v) for v in captured["converged"]]
    except (OSError, KeyError, ValueError) as exc:
        out.problems.append(f"no captured Picard runs: {exc}")
        return out
    out.converged = sum(converged)
    out.map_evals = sum(iterations)
    if out.problems:
        return out
    if len(iterations) != out.attempted:
        out.problems.append(f"{len(iterations)} Picard runs, expected {out.attempted}")
        return out
    if not all(converged):
        out.problems.append(f"Picard runs converged: {converged}")

    digest = hashlib.sha256()
    try:
        _check_artifacts(cfg, out_dir, iterations, out.problems, digest)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        out.problems.append(f"artifacts unreadable: {exc!r}")
        return out
    for ut in uts:
        digest.update(ut.tobytes())
    out.fingerprint = digest.hexdigest()

    tol = cfg["fixedpoint"]["tol"]
    for i, ut in enumerate(uts):
        level = i if cfg["mode"] == "convergence_study" else 0
        _check_reference(name, cfg, level, i, ut, tol, out.problems)
    if recheck:
        _check_fixed_point(cfg, out_dir, uts, tol, out.problems)
    return out


def _check_artifacts(cfg, out_dir, iterations, problems, digest) -> None:
    mode = cfg["mode"]
    if mode == "convergence_study":
        raw = (out_dir / "study.csv").read_bytes()
        digest.update(raw)
        rows = list(csv.DictReader(raw.decode().splitlines()))
        order = float(rows[-1]["observed_order"])
        lo, hi = STUDY_ORDER_BAND
        if not lo <= order <= hi:
            problems.append(f"last observed_order {order} outside [{lo}, {hi}]")
        return
    raw = (out_dir / "report.json").read_bytes()
    digest.update(raw)
    digest.update((out_dir / "ut.json").read_bytes())
    report = json.loads(raw)
    if mode == "probe":
        probe = report["probe"]
        if not probe["all_converged"]:
            problems.append("report.json: probe.all_converged is false")
        if [s["iterations"] for s in probe["starts"]] != iterations:
            problems.append("report.json: start iterations differ from the captured runs")
        if not probe["max_pairwise_relative"] <= PROBE_AGREEMENT:
            problems.append(
                f"max_pairwise_relative {probe['max_pairwise_relative']} > {PROBE_AGREEMENT}")
        return
    if report["converged"] is not True:
        problems.append("report.json: converged is not true")
    if report["verification"]["passed"] is not True:
        problems.append("report.json: verification.passed is not true")
    if report["iterations"] != iterations[0]:
        problems.append("report.json: iterations differ from the captured run")


def _problem_inputs(cfg: dict, level: int):
    """Grid, operator, potential, datum and time config of one level."""
    from nonlocal_heat import EvolutionConfig, Field, Grid, assemble, catalog

    n, steps = levels(cfg)[level]
    grid = Grid(tuple(cfg["domain"]["lengths"]), tuple(n))
    t = cfg["time"]
    ecfg = EvolutionConfig(T=t["T"], steps=steps, scheme=t["scheme"],
                           store_every=t["store_every"])
    phi = catalog(cfg["potential"]["name"], cfg["potential"]["params"])
    params = cfg["initial"]["params"]

    def sine_mode(*coords):  # the CLI's documented sine_mode datum
        out = float(params["amplitude"]) * np.ones_like(coords[0])
        for axis, x in enumerate(coords):
            out = out * np.sin(params["k"] * math.pi * x / grid.lengths[axis])
        return out

    return grid, assemble(grid), phi, Field.from_function(grid, sine_mode), ecfg


def _norms(cfg: dict, level: int, ut: np.ndarray) -> tuple[float, float]:
    """Discrete ||uT||_2 and ||uT||_inf on the level's grid."""
    from nonlocal_heat import Field, Grid, norm_lp

    grid = Grid(tuple(cfg["domain"]["lengths"]), tuple(levels(cfg)[level][0]))
    field = Field(grid, ut)
    return norm_lp(field, 2), norm_lp(field, math.inf)


def _check_reference(name, cfg, level, run, ut, tol, problems) -> None:
    measured = _norms(cfg, level, ut)
    for label, value, ref in zip(("2", "inf"), measured, reference_for(name, run)):
        if not abs(value - ref) <= REFERENCE_FACTOR * tol * ref:
            problems.append(f"run {run}: ||uT||_{label} = {value!r}, reference {ref!r}")


def _check_fixed_point(cfg, out_dir, uts, tol, problems) -> None:
    from nonlocal_heat import Field, norm_lp, phi_map
    from nonlocal_heat.io import read_field_json

    level = len(levels(cfg)) - 1
    grid, lap, phi, u0, ecfg = _problem_inputs(cfg, level)
    if cfg["mode"] == "convergence_study":
        ut = Field(grid, uts[-1])  # the study writes no ut.json
    else:
        ut = read_field_json(out_dir / "ut.json")
    image, _ = phi_map(lap, phi, u0, ut, ecfg)
    rel = norm_lp(image - ut, 2) / norm_lp(ut, 2)
    if not rel <= FIXED_POINT_FACTOR * tol:
        problems.append(f"||Phi(uT) - uT|| / ||uT|| = {rel:.3e} > {FIXED_POINT_FACTOR} * tol")
