"""Spans and counters around the calls into each module of ``nonlocal_heat``.

Nothing in the package changes: ``install`` rebinds public functions where
their callers look them up (a module global, a class attribute, or the
``solve`` method of a freshly built linear system) to a wrapper that times
the call.  Calls made once per time step or per CG iteration (shifted
solves, stencil applications, ``Field`` construction, norms) are aggregated
as counts plus summed time on their enclosing span instead of one span
each, so the trace stays small and every span's self time stays computable.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

# Layers are the package's modules.  Writes of config.json and report.json
# by the CLI count as artifact writes, i.e. as io.
LAYERS = ("cli", "fixedpoint", "evolution", "laplacian", "mesh", "potential", "verify", "io")

IO_FORMATS = {
    "io.write_trajectory_csv": "io.trajectory_csv_bytes",
    "io.write_trajectory_bin": "io.trajectory_bin_bytes",
    "io.write_field_csv": "io.field_csv_bytes",
    "io.write_field_json": "io.field_json_bytes",
    "io.write_json": "io.report_json_bytes",
}

# Unit of every per-layer metric, in the order they are reported.
PER_LAYER_UNITS = {
    "cli.build_calls": "count",
    "cli.build_s": "s",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "fixedpoint.runs": "count",
    "fixedpoint.map_evals": "count",
    "fixedpoint.map_s": "s",
    "fixedpoint.self_s": "s",
    "fixedpoint.converged_ratio": "ratio",
    "evolution.evolve_calls": "count",
    "evolution.evolve_s": "s",
    "evolution.self_s": "s",
    "evolution.step_us": "us",
    "evolution.quadrature_s": "s",
    "evolution.trajectory_bytes_max": "B",
    "evolution.trajectory_bytes_total": "B",
    "laplacian.systems_built": "count",
    "laplacian.setup_s": "s",
    "laplacian.solves": "count",
    "laplacian.solve_s": "s",
    "laplacian.solve_us": "us",
    "laplacian.stencil_applies": "count",
    "laplacian.stencil_bytes_computed": "B",
    "laplacian.matvecs_per_solve_mean": "count",
    "laplacian.matvecs_per_solve_max": "count",
    "laplacian.solver_failures": "count",
    "mesh.field_constructions": "count",
    "mesh.field_s": "s",
    "mesh.norm_calls": "count",
    "mesh.norm_s": "s",
    "mesh.restrict_calls": "count",
    "potential.nemytskii_calls": "count",
    "potential.nemytskii_s": "s",
    "verify.calls": "count",
    "verify.states_checked": "count",
    "verify.share": "ratio",
    "verify.bounds_share": "ratio",
    "verify.energy_share": "ratio",
    "verify.elliptic_share": "ratio",
    "io.calls": "count",
    "io.s": "s",
    "io.bytes_written": "B",
    "io.MBps": "MB/s",
    **{name: "B" for name in IO_FORMATS.values()},
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    **{f"{layer}.incl_share": "ratio" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead": "ratio",
}


class Tracer:
    """In-memory spans, per-name call statistics and per-layer self time."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent id, name, start, end, {name: [calls, s]}]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, inclusive s, self s]
        self.errors = defaultdict(int)
        self.counters = defaultdict(float)
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.layer_incl = dict.fromkeys(LAYERS, 0.0)  # outermost calls into the layer
        self._depth = dict.fromkeys(LAYERS, 0)
        self._frames: list[list[float]] = []  # child time of each open call
        self._open: list[list] = []  # open spans

    def wrap(self, fn, name: str, layer: str, span: bool = True, after=None):
        """Return ``fn`` timed as ``name`` in ``layer``.

        ``after(args, result)`` runs outside the timed interval.
        """
        tracer = self
        stat = self.stats[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frames, opened, depth = tracer._frames, tracer._open, tracer._depth
            frame = [0.0]
            depth[layer] += 1
            if span:
                record = [len(tracer.spans), opened[-1][0] if opened else None, name, 0.0, 0.0, {}]
                tracer.spans.append(record)
                opened.append(record)
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                own = elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += own
                tracer.layer_self[layer] += own
                depth[layer] -= 1
                if not depth[layer]:
                    tracer.layer_incl[layer] += elapsed
                if span:
                    opened.pop()
                    record[3], record[4] = start, end
                elif opened:
                    agg = opened[-1][5].setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind the package's functions to timed wrappers."""
        from nonlocal_heat import cli, evolution, fixedpoint, laplacian, mesh, verify
        from nonlocal_heat import io as nio

        def rebind(owner, attr, name, layer, span=True, after=None):
            original = getattr(owner, attr, None)
            if original is not None:
                setattr(owner, attr, self.wrap(original, name, layer, span, after))

        for attr in ("build_grid", "build_potential", "build_initial",
                     "build_evolution_config", "build_picard_config"):
            rebind(cli, attr, "cli.build", "cli")

        solve = self.wrap(fixedpoint.picard_solve, "fixedpoint.picard_solve", "fixedpoint",
                          after=self._after_picard)
        cli.picard_solve = fixedpoint.picard_solve = solve
        rebind(cli, "uniqueness_probe", "fixedpoint.uniqueness_probe", "fixedpoint")
        rebind(fixedpoint, "phi_map", "evolution.phi_map", "evolution")

        rebind(evolution, "evolve", "evolution.evolve", "evolution", after=self._after_evolve)
        rebind(evolution.Trajectory, "time_integral", "evolution.time_integral", "evolution")
        rebind(evolution, "shifted_system", "laplacian.shifted_system", "laplacian",
               after=self._after_system)
        rebind(laplacian.DirichletLaplacian, "apply_array", "laplacian.apply_array",
               "laplacian", span=False)

        for module in (evolution, verify):
            rebind(module, "nemytskii", "potential.nemytskii", "potential")

        rebind(mesh.Field, "__post_init__", "mesh.field", "mesh", span=False)
        for module in (cli, fixedpoint, verify):
            rebind(module, "norm_lp", "mesh.norm_lp", "mesh", span=False)
        rebind(cli, "restrict", "mesh.restrict", "mesh")

        rebind(cli, "verify_all", "verify.verify_all", "verify")
        rebind(verify, "check_solution_bounds", "verify.bounds", "verify",
               after=self._after_bounds)
        rebind(verify, "check_energy", "verify.energy", "verify")
        rebind(verify, "check_elliptic", "verify.elliptic", "verify")

        for attr in ("write_trajectory_csv", "write_trajectory_bin",
                     "write_field_csv", "write_field_json"):
            rebind(nio, attr, f"io.{attr}", "io", after=self._after_write(f"io.{attr}", 1))
        rebind(cli, "_write_json", "io.write_json", "io", after=self._after_write("io.write_json", 0))

    def _after_picard(self, args, report) -> None:
        self.counters["fixedpoint.converged"] += report.converged

    def _after_evolve(self, args, trajectory) -> None:
        cfg = args[3]
        self.counters["evolution.steps"] += cfg.steps
        nbytes = trajectory.states.nbytes
        self.counters["evolution.trajectory_bytes_total"] += nbytes
        self.counters["evolution.trajectory_bytes_max"] = max(
            self.counters["evolution.trajectory_bytes_max"], nbytes)
        self.counters["laplacian.nodes"] = trajectory.states.shape[1]

    def _after_system(self, args, system) -> None:
        stencil = self.stats["laplacian.apply_array"]
        counters = self.counters
        solve = system.solve

        def solve_counting_matvecs(b):
            before = stencil[0]
            x = solve(b)
            matvecs = stencil[0] - before
            counters["laplacian.matvecs"] += matvecs
            counters["laplacian.matvecs_max"] = max(counters["laplacian.matvecs_max"], matvecs)
            return x

        system.solve = self.wrap(solve_counting_matvecs, "laplacian.solve", "laplacian",
                                 span=False)

    def _after_bounds(self, args, check) -> None:
        self.counters["verify.states_checked"] += args[0].trajectory.num_samples

    def _after_write(self, name: str, path_index: int):
        counter = IO_FORMATS[name]

        def record(args, _result) -> None:
            nbytes = os.path.getsize(args[path_index])
            self.counters["io.bytes_written"] += nbytes
            self.counters[counter] += nbytes

        return record

    # -- results ----------------------------------------------------------

    def layer_metrics(self, run_s: float, cpu_s: float) -> dict[str, float]:
        """The per-layer metrics of one traced ``cli.run`` of ``run_s`` seconds."""
        s, c = self.stats, self.counters

        def calls(name):
            return s[name][0]

        def incl(name):
            return s[name][1]

        solves = calls("laplacian.solve")
        steps = c["evolution.steps"]
        io_s = sum(incl(name) for name in IO_FORMATS)
        runs = calls("fixedpoint.picard_solve")
        metrics = {
            "cli.build_calls": calls("cli.build"),
            "cli.build_s": incl("cli.build"),
            "cli.self_s": self.layer_self["cli"],
            "cli.cpu_s": cpu_s,
            "fixedpoint.runs": runs,
            "fixedpoint.map_evals": calls("evolution.phi_map"),
            "fixedpoint.map_s": incl("evolution.phi_map"),
            "fixedpoint.self_s": self.layer_self["fixedpoint"],
            "fixedpoint.converged_ratio": c["fixedpoint.converged"] / max(runs, 1),
            "evolution.evolve_calls": calls("evolution.evolve"),
            "evolution.evolve_s": incl("evolution.evolve"),
            "evolution.self_s": s["evolution.evolve"][2],
            "evolution.step_us": 1e6 * incl("evolution.evolve") / max(steps, 1),
            "evolution.quadrature_s": incl("evolution.time_integral"),
            "evolution.trajectory_bytes_max": c["evolution.trajectory_bytes_max"],
            "evolution.trajectory_bytes_total": c["evolution.trajectory_bytes_total"],
            "laplacian.systems_built": calls("laplacian.shifted_system"),
            "laplacian.setup_s": incl("laplacian.shifted_system"),
            "laplacian.solves": solves,
            "laplacian.solve_s": incl("laplacian.solve"),
            "laplacian.solve_us": 1e6 * incl("laplacian.solve") / max(solves, 1),
            "laplacian.stencil_applies": calls("laplacian.apply_array"),
            "laplacian.stencil_bytes_computed": 16 * c["laplacian.nodes"] * calls(
                "laplacian.apply_array"),
            "laplacian.matvecs_per_solve_mean": c["laplacian.matvecs"] / max(solves, 1),
            "laplacian.matvecs_per_solve_max": c["laplacian.matvecs_max"],
            "laplacian.solver_failures": self.errors["laplacian.solve"],
            "mesh.field_constructions": calls("mesh.field"),
            "mesh.field_s": incl("mesh.field"),
            "mesh.norm_calls": calls("mesh.norm_lp"),
            "mesh.norm_s": incl("mesh.norm_lp"),
            "mesh.restrict_calls": calls("mesh.restrict"),
            "potential.nemytskii_calls": calls("potential.nemytskii"),
            "potential.nemytskii_s": incl("potential.nemytskii"),
            "verify.calls": calls("verify.verify_all"),
            "verify.states_checked": c["verify.states_checked"],
            "verify.share": incl("verify.verify_all") / run_s,
            "verify.bounds_share": incl("verify.bounds") / run_s,
            "verify.energy_share": incl("verify.energy") / run_s,
            "verify.elliptic_share": incl("verify.elliptic") / run_s,
            "io.calls": sum(calls(name) for name in IO_FORMATS),
            "io.s": io_s,
            "io.bytes_written": c["io.bytes_written"],
            "io.MBps": c["io.bytes_written"] / io_s / 1e6,
        }
        for name in IO_FORMATS.values():
            metrics[name] = c[name]
        for layer in LAYERS:
            metrics[f"{layer}.self_share"] = self.layer_self[layer] / run_s
        for layer in LAYERS:
            metrics[f"{layer}.incl_share"] = self.layer_incl[layer] / run_s
        metrics["trace.spans"] = len(self.spans)
        return metrics

    def span_dump(self) -> list[list]:
        """Spans with times in seconds from the first span's start."""
        t0 = self.spans[0][3] if self.spans else 0.0
        return [[i, parent, name, start - t0, end - t0, agg]
                for i, parent, name, start, end, agg in self.spans]


def hottest_layer(metrics: dict[str, float]) -> str:
    """The layer with the largest self time."""
    return max(LAYERS, key=lambda layer: metrics[f"{layer}.self_share"])


def inclusive_ranking(metrics: dict[str, float]) -> list[tuple[str, float]]:
    """Layers below the CLI by the share of the run spent inside them."""
    shares = [(layer, metrics[f"{layer}.incl_share"]) for layer in LAYERS if layer != "cli"]
    return sorted(shares, key=lambda item: -item[1])
