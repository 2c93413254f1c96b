"""Benchmark of the nonlocal-heat fixed-point solver.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all --seconds S     # one row per workload

Run from the root of a checkout; the package is imported from ``src/``.
Each repeat is one ``nonlocal_heat.cli.run`` of the workload's generated
config in a fresh single-threaded process (``ru_maxrss`` only grows), one
after another (closed loop), until the repeats have taken ``--seconds``.
The correctness gate runs between repeats, outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
plain and traced repeats and prints the per-layer metrics of the traced
ones, plus ``trace.overhead``, the ratio of their median ``run_s``.  The
last line of standard output is one JSON object; the full record (machine,
computed kernel sizes, every sample, every problem) is written to
``.bench_work/<workload>/result.json`` and the last traced repeat's spans
to ``.bench_work/<workload>/trace.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from machine import SINGLE_THREAD_ENV, kernel_sheet, llc_bytes, record

os.environ.update(SINGLE_THREAD_ENV)  # before numpy is imported

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402  needs the environment and path above
from tracing import PER_LAYER_UNITS, hottest_layer, inclusive_ranking  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

WORKER_TIMEOUT_S = 60
LOOP_CAP_S = 90  # stop adding repeats after this long, even below MIN_REPEATS
MIN_REPEATS = 3  # per kind of repeat: plain, and traced with --trace 1
MIN_SETUPS = 7

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "map_evals": "count",
    "converged_share": "ratio",
    "passed_share": "ratio",
}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("NONLOCAL_HEAT_THREADS", None)  # measure the sequential default
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(config_path: Path, result_path: Path, mode: str) -> dict:
    """Run one worker process to completion and return its result."""
    result_path.unlink(missing_ok=True)
    spawn_time = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(config_path),
           str(result_path), mode, repr(spawn_time)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s",
                "wall_s": time.monotonic() - spawn_time}
    wall_s = time.monotonic() - spawn_time
    if proc.returncode != 0 or not result_path.is_file():
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"worker exit code {proc.returncode}: {tail}", "wall_s": wall_s}
    result = json.loads(result_path.read_text())
    result["wall_s"] = wall_s
    return result


def tail(values: list[float]) -> tuple[float, float, int]:
    """The tail of ``values``, its percentile, and the sample count.

    That is the highest percentile with at least 10 samples beyond it once
    that percentile reaches 90 (100 samples or more).  With fewer samples
    such a percentile does not exist or lies near or below the median, so
    the slowest sample is reported instead (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 100:
        return ordered[n - 11], 100.0 * (n - 10) / n, n
    return ordered[-1], 100.0, n


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return the result line and the full record."""
    wdir = WORK / name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    out_dir = wdir / "out"
    cfg = make_config(name, seed, os.path.relpath(out_dir, ROOT))
    config_path = wdir / "config.json"
    config_path.write_text(json.dumps(cfg, indent=2))
    result_path = wdir / "worker.json"

    spawn(config_path, result_path, "setup")  # warm the page and bytecode caches
    samples: list[dict] = []
    outcomes: list[checks.Outcome] = []
    measured = 0.0
    begin = time.monotonic()
    while True:
        kinds = [s["traced"] for s in samples]
        enough = kinds.count(False) >= MIN_REPEATS and (
            not trace or kinds.count(True) >= MIN_REPEATS)
        if measured >= seconds and (enough or time.monotonic() - begin > LOOP_CAP_S):
            break
        traced = trace and len(samples) % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        result = spawn(config_path, result_path, "1" if traced else "0")
        measured += result["wall_s"]
        if (out_dir / "trace.json").is_file():
            (out_dir / "trace.json").replace(wdir / "trace.json")
        outcome = checks.inspect(name, cfg, result, recheck=not outcomes)
        if outcomes and not outcome.problems and outcome.fingerprint != outcomes[0].fingerprint:
            outcome.problems.append("artifacts differ from the first repeat's")
        outcomes.append(outcome)
        samples.append({
            "traced": traced,
            "setup_s": result.get("setup_s"),
            "run_s": result.get("run_s"),
            "cpu_s": result.get("cpu_s"),
            "maxrss_kb": result.get("maxrss_kb"),
            "layers": result.get("layers"),
            "problems": outcome.problems,
        })

    setups = [s["setup_s"] for s in samples if s["setup_s"] is not None]
    while len(setups) < MIN_SETUPS:
        extra = spawn(config_path, result_path, "setup")
        if extra.get("setup_s") is None:
            break
        setups.append(extra["setup_s"])

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    plain = [s for s in samples if not s["traced"] and s["run_s"] is not None]
    run_s = [s["run_s"] for s in plain]
    traced_samples = [s for s in samples if s["traced"] and s["layers"]]
    if not run_s or (trace and not traced_samples):
        raise SystemExit(f"{name}: no repeat completed; problems: "
                         f"{[s['problems'] for s in samples]}")
    rec = {
        "workload": name,
        "why": WORKLOADS[name][1],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "config": cfg,
        "machine": record(),
        "kernel_sizes": kernel_sheet(cfg, llc_bytes()),
        "setup_samples_s": setups,
        "samples": samples,
    }
    if trace:
        metrics = {key: statistics.median(s["layers"][key] for s in traced_samples)
                   for key in traced_samples[0]["layers"]}
        metrics["trace.overhead"] = (statistics.median(s["run_s"] for s in traced_samples)
                                     / statistics.median(run_s))
        rec["hottest_layer"] = hottest_layer(metrics)
        rec["inclusive_ranking"] = inclusive_ranking(metrics)
        units = PER_LAYER_UNITS
    else:
        run_tail, pct, n = tail(run_s)
        rec["run_s_tail"] = {"value": run_tail, "unit": "s", "percentile": pct, "samples": n}
        metrics = {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["maxrss_kb"] for s in plain) / 1024,
            "map_evals": statistics.median(o.map_evals for o in outcomes),
            "converged_share": sum(o.converged for o in outcomes) / attempted,
            "passed_share": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    rec["result"] = line
    (wdir / "result.json").write_text(json.dumps(rec, indent=2))
    shutil.rmtree(out_dir, ignore_errors=True)
    return line, rec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "nonlocal_heat" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'nonlocal_heat'}; run from a checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)  # configs name their output directory relative to the root
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        line, rec = measure(name, args.seed, args.seconds, bool(args.trace))
        lines[name] = line
        if args.trace:
            print(f"# {name}: hottest layer by self time: {rec['hottest_layer']}; "
                  "share of the run inside each layer: "
                  + " ".join(f"{k}={v:.3f}" for k, v in rec["inclusive_ranking"]))
        status = "correct" if line["correct"] else "FAILED"
        shown = [] if args.trace else [*line["metrics"].items(), ("run_s_tail", rec["run_s_tail"])]
        print(f"# {name}: {status} attempted={line['attempted']} failed={line['failed']} "
              f"failed_share={line['failed'] / line['attempted']:.3g} "
              + " ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in shown)
              + ("" if args.trace else f" (run_s_tail: p{rec['run_s_tail']['percentile']:.0f} "
                                       f"of {rec['run_s_tail']['samples']} repeats)"))
        for sample in rec["samples"]:
            for problem in sample["problems"]:
                print(f"# {name}: problem: {problem}", file=sys.stderr)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
