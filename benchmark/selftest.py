"""Self-tests of the benchmark: python3 benchmark/selftest.py (under a minute).

1. A perturbed ``ut.json`` is counted as a failed operation.
2. Every metric the benchmark emits is declared in BENCHMARK.json with the
   same unit, and every declared metric is emitted.
3. Traced and untraced runs of tiny configs write byte-identical artifacts,
   so the tracing wrappers do not change results.

Exits 0 when all pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

import run  # sets the single-thread environment and the package path first
from checks import inspect
from workloads import make_config

TINY = {  # workload -> (n, steps): small versions of every mode and both dims
    "readme_1d": ([15], 40),
    "study_cn_1d": ([7], 10),
    "solve_2d_127": ([15, 15], 20),
    "probe_hard_1d": ([15], 40),
}


def _spawn_config(cfg: dict, tag: str, mode: str) -> dict:
    wdir = run.WORK / "selftest" / tag
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    cfg["output"]["dir"] = str((wdir / "out").relative_to(run.ROOT))
    config_path = wdir / "config.json"
    config_path.write_text(json.dumps(cfg))
    return run.spawn(config_path, wdir / "worker.json", mode)


def perturbed_ut_fails() -> list[str]:
    cfg = make_config("readme_1d", 0, "")
    result = _spawn_config(cfg, "perturbed", "0")
    clean = inspect("readme_1d", cfg, result, recheck=True)
    if clean.problems:
        return [f"unperturbed run failed the gate: {clean.problems}"]
    ut_path = run.ROOT / cfg["output"]["dir"] / "ut.json"
    payload = json.loads(ut_path.read_text())
    payload["values"] = [v * (1.0 + 1e-6) for v in payload["values"]]
    ut_path.write_text(json.dumps(payload, sort_keys=True))
    perturbed = inspect("readme_1d", cfg, result, recheck=True)
    if perturbed.failed != perturbed.attempted or not perturbed.problems:
        return ["a ut.json scaled by 1 + 1e-6 passed the gate"]
    return []


def metric_names_declared() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        line, _ = run.measure("readme_1d", 0, 1.0, bool(trace))
        emitted = {name: m["unit"] for name, m in line["metrics"].items()}
        if emitted != declared:
            problems.append(f"--trace {trace}: emitted {sorted(emitted.items())} "
                            f"but BENCHMARK.json {section} declares {sorted(declared.items())}")
        if not line["correct"]:
            problems.append(f"--trace {trace}: readme_1d run was not correct")
    return problems


def _artifacts(out: Path) -> dict[str, bytes]:
    """Output files by name; the npz by array, since zip members carry a timestamp.

    config.json names the output directory, which differs between the runs.
    """
    files = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".npz":
            with np.load(path) as arrays:
                files.update({f"{path.name}:{k}": arrays[k].tobytes() for k in arrays.files})
        elif path.name not in ("config.json", "trace.json"):
            files[path.name] = path.read_bytes()
    return files


def traced_matches_untraced() -> list[str]:
    problems = []
    for name, (n, steps) in TINY.items():
        artifacts = []
        for mode in ("0", "1"):
            cfg = make_config(name, 3, "")
            cfg["domain"]["n"] = n
            cfg["time"]["steps"] = steps
            result = _spawn_config(cfg, f"{name}-{mode}", mode)
            if result.get("error") or result.get("rc") not in (0, 2):
                problems.append(f"{name} --trace {mode}: {result}")
                break
            artifacts.append(_artifacts(run.ROOT / cfg["output"]["dir"]))
        if len(artifacts) == 2 and artifacts[0] != artifacts[1]:
            differ = [k for k in artifacts[0] if artifacts[0][k] != artifacts[1].get(k)]
            problems.append(f"{name}: traced and untraced artifacts differ: {differ}")
    return problems


def main() -> int:
    os.chdir(run.ROOT)
    failures = 0
    for test in (perturbed_ut_fails, metric_names_declared, traced_matches_untraced):
        problems = test()
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {test.__name__}")
        for problem in problems:
            print(f"    {problem}")
    shutil.rmtree(run.WORK / "selftest", ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
