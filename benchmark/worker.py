"""One measured repeat in a fresh process: import, load the config, run it.

Usage: worker.py CONFIG RESULT_JSON TRACE SPAWN_TIME

TRACE is 0 (plain run), 1 (traced run) or ``setup`` (exit once set up).
``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there to package imported and config
loaded.  The result JSON holds the timings, ``ru_maxrss``, the exit code
of ``cli.run`` and, with TRACE=1, the per-layer metrics.  Each Picard
run's iteration count, convergence flag and ``uT`` are captured for the
correctness gate into ``captured.npz`` in the output directory; the capture
keeps no trajectory alive, so it does not move peak memory.
"""

import time  # first, so set-up time covers every other import

import json
import os
import resource
import sys
import traceback

from nonlocal_heat import cli, fixedpoint


def _capture_picard_runs() -> list:
    runs = []
    solve = fixedpoint.picard_solve

    def capturing(*args, **kwargs):
        report = solve(*args, **kwargs)
        runs.append((report.iterations, report.converged, report.uT.values.copy()))
        return report

    cli.picard_solve = fixedpoint.picard_solve = capturing
    return runs


def main(config_path: str, result_path: str, trace: str, spawn_time: float) -> None:
    cfg = cli.load_config(config_path)
    setup_s = time.monotonic() - spawn_time
    if trace == "setup":
        with open(result_path, "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return

    tracer = None
    if trace == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    runs = _capture_picard_runs()
    run = tracer.wrap(cli.run, "cli.run", "cli") if tracer else cli.run

    result = {"setup_s": setup_s, "rc": None, "error": None}
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        result["rc"] = run(config_path, quiet=True)
    except Exception:  # a traceback out of cli.run is a failed operation
        result["error"] = traceback.format_exc()
    run_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = (usage.ru_utime - usage0.ru_utime) + (usage.ru_stime - usage0.ru_stime)
    result.update(run_s=run_s, cpu_s=cpu_s, maxrss_kb=usage.ru_maxrss)

    import numpy as np

    out_dir = cfg["output"]["dir"]
    os.makedirs(out_dir, exist_ok=True)
    np.savez(
        f"{out_dir}/captured.npz",
        iterations=np.array([r[0] for r in runs], dtype=np.int64),
        converged=np.array([r[1] for r in runs], dtype=bool),
        **{f"ut_{i}": r[2] for i, r in enumerate(runs)},
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(run_s, cpu_s)
        with open(f"{out_dir}/trace.json", "w") as fh:
            json.dump(tracer.span_dump(), fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3], float(sys.argv[4]))
