"""The benchmark's workloads: generated configs, the reason for each, and
reference values for the correctness gate.

Every workload is one config for the public entry point
``nonlocal_heat.cli.run``.  The workload seed reaches the program only
through the config's ``seed`` field, where it drives the probe's random
starts; the fixed point itself does not depend on it.
"""

from __future__ import annotations

import copy

# The README's example config, verbatim apart from the output section.
README_CONFIG = {
    "domain": {"dim": 1, "lengths": [1.0], "n": [199]},
    "time": {"T": 0.1, "steps": 1000, "scheme": "implicit_euler", "store_every": 1},
    "potential": {"name": "quadratic", "params": []},
    "initial": {"name": "sine_mode", "params": {"k": 1, "amplitude": 0.5}, "sign_check": False},
    "fixedpoint": {"tol": 1e-10, "max_iter": 200, "damping": 1.0, "starts": 5},
    "output": {"dir": "out", "formats": ["csv", "json"]},
    "mode": "solve",
    "seed": 0,
}


def _readme_1d(cfg: dict) -> None:
    cfg["output"]["formats"] = ["csv", "json", "bin"]


def _study_cn_1d(cfg: dict) -> None:
    cfg["time"]["scheme"] = "crank_nicolson"
    cfg["mode"] = "convergence_study"
    cfg["study"] = {"levels": 3, "refine": "space_time"}


def _solve_2d_127(cfg: dict) -> None:
    cfg["domain"] = {"dim": 2, "lengths": [1.0, 1.0], "n": [127, 127]}
    cfg["time"]["steps"] = 200
    cfg["output"]["formats"] = ["json", "bin"]


def _probe_hard_1d(cfg: dict) -> None:
    cfg["domain"]["n"] = [99]
    cfg["time"]["T"] = 1.0
    cfg["time"]["steps"] = 400
    cfg["initial"]["params"]["amplitude"] = 60.0
    cfg["fixedpoint"]["max_iter"] = 300
    cfg["mode"] = "probe"
    cfg["output"]["formats"] = ["json"]


# name -> (edit of the README config, why the workload is in the benchmark)
WORKLOADS = {
    "readme_1d": (
        _readme_1d,
        "the README solve users run first; io (8 MB trajectory CSV) and "
        "verify dominate while the solver is nearly idle",
    ),
    "study_cn_1d": (
        _study_cn_1d,
        "3-level Crank-Nicolson convergence study; memory-bound on stored "
        "trajectories, evolution then verify, the only stencil-per-step path",
    ),
    "solve_2d_127": (
        _solve_2d_127,
        "2D 127x127 solve; CG and its stencil applications dominate, io "
        "writes one large binary trajectory",
    ),
    "probe_hard_1d": (
        _probe_hard_1d,
        "5-start probe at amplitude 60; ~229 Picard sweeps per start, so "
        "iteration count dominates; no verify, tiny io",
    ),
}

# ||uT||_2 and ||uT||_inf of every Picard run, recorded at the commit that
# added the benchmark (a probe's starts share one fixed point).  Compared to
# a tolerance tied to fixedpoint.tol, so rounding-level changes and a
# different iteration that reaches the same fixed point still pass.
REFERENCE_NORMS = {
    "readme_1d": [(0.022475204651080972, 0.03178465563159833)],
    "study_cn_1d": [
        (0.022470619795105163, 0.03177817164109817),
        (0.022470475484315196, 0.031777967566948395),
        (0.02247043959455314, 0.031777916814187526),
    ],
    "solve_2d_127": [(0.01094271378577123, 0.021885385981775543)],
    "probe_hard_1d": [(2.386347197655993, 3.2872187016090852)],
}


def make_config(name: str, seed: int, out_dir: str) -> dict:
    """The config of workload ``name`` for workload seed ``seed``."""
    edit, _ = WORKLOADS[name]
    cfg = copy.deepcopy(README_CONFIG)
    edit(cfg)
    cfg["seed"] = int(seed)
    cfg["output"]["dir"] = out_dir
    return cfg


def levels(cfg: dict) -> list[tuple[list[int], int]]:
    """(n, steps) of each Picard discretisation the config runs.

    A convergence study refines ``space_time`` as the README documents:
    ``h -> h/2`` and ``dt -> dt/4`` per level.
    """
    n, steps = cfg["domain"]["n"], cfg["time"]["steps"]
    if cfg["mode"] != "convergence_study":
        return [(list(n), steps)]
    return [
        ([(m + 1) * 2**level - 1 for m in n], steps * 4**level)
        for level in range(cfg["study"]["levels"])
    ]


def picard_runs(cfg: dict) -> int:
    """Picard runs one ``cli.run`` of the config makes: the operation count."""
    if cfg["mode"] == "probe":
        return cfg["fixedpoint"]["starts"]
    return len(levels(cfg))


def reference_for(name: str, run_index: int) -> tuple[float, float]:
    refs = REFERENCE_NORMS[name]
    return refs[min(run_index, len(refs) - 1)]

