"""The machine record kept with every result, and computed kernel sizes.

Kernel sizes are computed from array sizes, not measured: each array is
counted as read or written once, so cache misses and numpy temporaries are
ignored.
"""

from __future__ import annotations

import ctypes
import os
import platform

from workloads import levels

# Set for every process the benchmark starts, so the measured program is one
# plain single-threaded process (on a 2-core machine, OpenBLAS threads in the
# 2D CG dot products burned ~2.3x the wall time in CPU and ran slower).
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def llc_bytes() -> int:
    """Size of the largest CPU cache, 0 when the system does not say."""
    sizes = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        text = _read(f"{base}/{index}/size").strip()
        if text.endswith("K") and text[:-1].isdigit():
            sizes.append(int(text[:-1]) * 1024)
        elif text.endswith("M") and text[:-1].isdigit():
            sizes.append(int(text[:-1]) * 1024 * 1024)
    return max(sizes, default=0)


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    out = {}
    for line in _read("/proc/self/maps").splitlines():
        path = line.split()[-1]
        name = os.path.basename(path)
        if "openblas" not in name or name in out:
            continue
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[name] = int(fn())
                break
    return out


def record() -> dict:
    """nproc, CPU model, versions, BLAS threads and last-level cache size."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own OpenBLAS

    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in SINGLE_THREAD_ENV},
        "llc_bytes": llc_bytes(),
    }


def kernel_sheet(cfg: dict, llc: int) -> dict:
    """Computed sizes of the state, the trajectory and the per-step kernels."""
    rows = []
    for n, steps in levels(cfg):
        nodes = 1
        for m in n:
            nodes *= m
        samples = steps // cfg["time"]["store_every"] + 1
        dim = len(n)
        row = {
            "n": n,
            "steps": steps,
            "state_bytes": 8 * nodes,
            "trajectory_bytes": 8 * nodes * samples,
            "trajectory_over_llc": 8 * nodes * samples / llc if llc else None,
            # 5-point (2D) / 3-point (1D) stencil: read v, write L v
            "stencil": {"flops": (9 if dim == 2 else 5) * nodes, "bytes": 16 * nodes},
        }
        if dim == 1:
            # LAPACK gttrs on the gttrf factors: dl, d, du, du2 (8 B each),
            # 64-bit pivots, right-hand side read and solution written
            row["tridiagonal_solve"] = {"flops": 7 * nodes, "bytes": 56 * nodes}
        else:
            # one CG iteration: shifted stencil matvec, two dots, three updates
            row["cg_iteration"] = {"flops": 22 * nodes, "bytes": 120 * nodes}
        rows.append(row)
    return {"computed_not_measured": True, "llc_bytes": llc, "levels": rows}
