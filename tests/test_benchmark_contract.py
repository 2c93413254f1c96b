"""The package calls the benchmark's worker and correctness gate make.

``benchmark/worker.py`` rebinds ``picard_solve`` to capture each run's
``iterations``, ``converged`` and ``uT.values``; ``benchmark/checks.py``
reads ``report.json``, ``study.csv`` and ``ut.json`` and rechecks the fixed
point through ``read_field_json``, ``EvolutionConfig`` and ``phi_map``.
Each workload config runs here at a tiny size, so a change to any of those
names or shapes fails this test instead of the benchmark's gate.  Only
``workloads``, ``worker`` and ``checks`` are imported: ``run`` and
``selftest`` change the process environment on import.
"""

import csv
import hashlib
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from nonlocal_heat import Field, cli, fixedpoint, phi_map
from nonlocal_heat.io import read_field_json

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"

TINY = {  # workload -> (n, steps)
    "readme_1d": ([15], 40),
    "study_cn_1d": ([7], 10),
    "solve_2d_127": ([15, 15], 20),
    "probe_hard_1d": ([15], 40),
}


@pytest.fixture(scope="module")
def bench():
    """The benchmark modules ``workloads``, ``worker`` and ``checks``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARK))
        yield {name: importlib.import_module(name) for name in ("workloads", "worker", "checks")}


@pytest.mark.parametrize("name", sorted(TINY))
def test_benchmark_workload_calls_into_the_package(tmp_path, monkeypatch, bench, name):
    workloads, worker, checks = bench["workloads"], bench["worker"], bench["checks"]
    out = tmp_path / "out"
    cfg = workloads.make_config(name, 0, str(out))
    cfg["domain"]["n"], cfg["time"]["steps"] = TINY[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))

    for owner in (cli, fixedpoint):  # restored after the test
        monkeypatch.setattr(owner, "picard_solve", owner.picard_solve)
    runs = worker._capture_picard_runs()
    assert cli.run(path, quiet=True) == 0
    assert len(runs) == workloads.picard_runs(cfg)
    iterations, converged, uts = (list(column) for column in zip(*runs))
    assert all(isinstance(k, int) and k >= 1 for k in iterations) and all(converged)
    nodes = [int(np.prod(n)) for n, _ in workloads.levels(cfg)]  # one entry unless a study
    assert [ut.shape for ut in uts] == [(nodes[min(i, len(nodes) - 1)],) for i in range(len(uts))]

    # the files and keys the gate reads
    if cfg["mode"] == "convergence_study":
        rows = list(csv.DictReader((out / "study.csv").read_text().splitlines()))
        assert len(rows) == len(runs) and float(rows[-1]["observed_order"]) > 0.0
    else:
        report = json.loads((out / "report.json").read_text())
        if cfg["mode"] == "probe":
            probe = report["probe"]
            assert probe["all_converged"] is True and probe["max_pairwise_relative"] >= 0.0
            assert [start["iterations"] for start in probe["starts"]] == iterations
        else:
            assert report["converged"] is True and report["verification"]["passed"] is True
            assert report["iterations"] == iterations[0]
        ut = read_field_json(out / "ut.json")
        assert isinstance(ut, Field) and np.array_equal(ut.values, uts[0])

    # the gate's recheck: EvolutionConfig(..., store_every=) and a (Field, _) pair
    grid, lap, phi, u0, ecfg = checks._problem_inputs(cfg, len(nodes) - 1)
    assert ecfg.store_every == cfg["time"]["store_every"]
    image, _ = phi_map(lap, phi, u0, Field(grid, uts[-1]), ecfg)
    assert isinstance(image, Field) and image.grid == grid

    problems = []
    checks._check_artifacts(cfg, out, iterations, problems, hashlib.sha256())
    checks._check_fixed_point(cfg, out, uts, cfg["fixedpoint"]["tol"], problems)
    # at this size a study's last observed order may leave the gate's band
    assert [p for p in problems if "observed_order" not in p] == []
