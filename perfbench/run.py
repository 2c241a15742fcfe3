"""solvharm benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze-small --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
unmodified.  ``--trace 1`` wraps the public functions of every layer
(see ``tracer.py``) and reports the per-layer metrics instead.  Every
command's output is checked outside the timed region.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; progress goes to standard
error, and a record of the run (sample counts, BLAS threads, every
command time and failure) goes to ``.perfbench_out/``.
"""

import os

# BLAS thread counts are fixed before numpy loads; the whole run, set-up
# children included, uses one thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from calibrate import REFERENCE_S, Sampler  # noqa: E402
from tracer import COUNTERS, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
# a command's speed is the mean of the calibration bursts during it and
# this many on each side (about half a second of running Python each)
LOCAL_BURSTS = 10

END_TO_END = {
    "setup_s": "s",
    "cold_pass_s": "s",
    "pass_s": "s",
    "largest_cmd_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics: span or counter name + suffix -> unit
PER_LAYER = {
    "cli.main.self_s": "s",
    "cli.main.calls": "count",
    "cli.build_report.self_s": "s",
    "clifford_dr.clifford_generators.self_s": "s",
    "clifford_dr.build_damek_ricci.self_s": "s",
    "lie_metric.algebra_from_dict.self_s": "s",
    "lie_metric.jacobi_residual.self_s": "s",
    "lie_metric.jacobi_residual.calls": "count",
    "lie_metric.from_tensor.calls": "count",
    "lie_metric.standard_decomposition.self_s": "s",
    "lie_metric.standard_decomposition.calls": "count",
    "lie_metric.subalgebra.self_s": "s",
    "lie_metric.growth_type.self_s": "s",
    "lie_metric.nilpotency_class.self_s": "s",
    "lie_metric.derived_algebra.self_s": "s",
    "curvature.levi_civita.self_s": "s",
    "curvature.levi_civita.calls": "count",
    "curvature.levi_civita.per_cmd": "calls/cmd",
    "curvature.curvature_tensor.self_s": "s",
    "curvature.curvature_tensor.calls": "count",
    "curvature.einstein_check.self_s": "s",
    "curvature.nabla_R_norm.self_s": "s",
    "curvature.central_frame_split.self_s": "s",
    "riccati.solve_algebraic_riccati_max.self_s": "s",
    "riccati.solve_algebraic_riccati_max.calls": "count",
    "riccati.solve_algebraic_riccati_max.failed": "count",
    "riccati.horosphere_mean_curvature_formula.self_s": "s",
    "jacobi_flow.stable_jacobi_tensor.self_s": "s",
    "jacobi_flow.stable_jacobi_tensor.calls": "count",
    "jacobi_flow.stable_jacobi_tensor.failed": "count",
    "jacobi_flow.mean_curvature_numeric.self_s": "s",
    "jacobi_flow.volume_density.self_s": "s",
    "jacobi_flow.volume_density.calls": "count",
    "jacobi_flow.volume_density.failed": "count",
    "jacobi_flow.frame_rhs_evals": "count",
    "hypergeom.h_factors.self_s": "s",
    "hypergeom.h_factors.calls": "count",
    "hypergeom.h_function.self_s": "s",
    "hypergeom.h_function.calls": "count",
    "hypergeom.rigidity_conclusion.self_s": "s",
    "hypergeom.gauss_f.calls": "count",
    "numerics.eigenvalues.self_s": "s",
    "numerics.eigenvalues.calls": "count",
    "numerics.ordered_real_schur.self_s": "s",
    "numerics.matrix_exponential.calls": "count",
    "numerics.solve_linear.calls": "count",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}

# set-up only layers: measured in the traced in-process set-up
SETUP_LAYERS = ("clifford_dr.",)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_solvharm():
    """Import solvharm from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "solvharm", "__init__.py")):
        raise SystemExit(f"error: no solvharm sources under {SRC}")
    sys.path.insert(0, SRC)
    import solvharm
    if os.path.dirname(os.path.dirname(solvharm.__file__)) != SRC:
        raise SystemExit(f"error: solvharm imported from {solvharm.__file__}")


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Runner:
    """Runs passes over a manifest's commands and keeps their results."""

    def __init__(self, manifest, workdir, tracer=None):
        import numpy as np
        from solvharm import cli, jacobi_flow, lie_metric
        import workloads
        self.np, self.cli = np, cli
        self.jacobi_flow, self.lie_metric = jacobi_flow, lie_metric
        self.workloads = workloads
        self.commands = manifest["commands"]
        self.directions = [np.asarray(c["directions"]) if "directions" in c
                           else None for c in self.commands]
        self.workdir = workdir
        self.tracer = tracer
        self.sampler = Sampler(tracer.exclude if tracer else None)
        self.passes = []     # dicts: id, traced, wall, times, results, ...

    def _execute(self, cmd, dirs):
        if cmd["kind"] == "cli":
            return self.cli.main(cmd["argv"])
        with open(cmd["algebra"]) as handle:
            g = self.lie_metric.algebra_from_dict(json.load(handle))
        times = self.np.asarray(cmd["times"])
        return self.np.array([self.jacobi_flow.volume_density(g, v, times)
                              for v in dirs])

    def run_pass(self, traced=False):
        """Run every command once under the calibration sampler.

        ``times`` are wall seconds without the calibration bursts;
        ``scaled_times`` are the same at the reference speed.
        """
        pass_id = f"p{len(self.passes)}"
        os.makedirs(os.path.join(self.workdir, "out", pass_id))
        bound = [self.workloads.bind(c, pass_id) for c in self.commands]
        times, results, bursts = [], [], []
        first_burst = len(self.sampler.samples)
        if traced:
            self.tracer.pass_id = pass_id
            self.tracer.install()
        try:
            with self.sampler:
                for i, (cmd, dirs) in enumerate(zip(bound, self.directions)):
                    if traced:
                        self.tracer.cmd_id = i
                    spent = self.sampler.spent
                    before = len(self.sampler.samples)
                    start = time.perf_counter()
                    try:
                        result = self._execute(cmd, dirs)
                    except Exception:   # a raising command counts as failed
                        result = traceback.format_exc()
                    end = time.perf_counter()
                    times.append(end - start - (self.sampler.spent - spent))
                    bursts.append((before, len(self.sampler.samples)))
                    results.append(result)
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.pass_id = "after"
        scaled = [t * self.sampler.factor(a, b, LOCAL_BURSTS)
                  for t, (a, b) in zip(times, bursts)]
        self.passes.append({
            "id": pass_id, "traced": traced, "wall": sum(times),
            "times": times, "scaled": sum(scaled), "scaled_times": scaled,
            "bursts": len(self.sampler.samples) - first_burst,
            "results": results, "bound": bound})
        log(f"  pass {pass_id}{' traced' if traced else ''}: "
            f"{sum(times):.3f} s wall, {sum(scaled):.3f} s scaled")
        return self.passes[-1]

    def verify(self):
        """Check every command of every pass; return the failure list."""
        refs = self.workloads.reference_spectra(
            {tuple(c["expect"]["reference"]) for c in self.commands
             if c["expect"].get("reference")})
        failures, warnings = [], set()
        for p in self.passes:
            for cmd, result in zip(p["bound"], p["results"]):
                if isinstance(result, str):
                    problems = ["raised:\n" + result]
                else:
                    try:
                        problems, warns = self.workloads.verify(cmd, result,
                                                                refs)
                        warnings.update(f"{cmd['name']}: {w}" for w in warns)
                    except Exception:
                        problems = ["check raised:\n" + traceback.format_exc()]
                if problems:
                    failures.append({"pass": p["id"], "command": cmd["name"],
                                     "problems": problems})
        for w in sorted(warnings):
            log(f"  report warning: {w}")
        return failures


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def _setup_children(workload, seed, workdir):
    """Wall and scaled seconds of each fresh-process set-up."""
    wall, scaled = [], []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_once.py"), workload,
             str(seed), os.path.join(workdir, f"setup{i}")],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: set-up {i} exited {proc.returncode}")
        w, s = proc.stdout.strip().splitlines()[-1].split()
        wall.append(float(w))
        scaled.append(float(s))
    return wall, scaled


def untraced_run(args, workdir):
    setup_wall, setup_scaled = _setup_children(args.workload, args.seed,
                                               workdir)
    inputs = os.path.join(workdir, "setup0")
    with open(os.path.join(inputs, "manifest.json")) as handle:
        manifest = json.load(handle)
    runner = Runner(manifest, inputs)
    cold = runner.run_pass()
    start = time.perf_counter()
    while True:
        runner.run_pass()
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    warm = runner.passes[1:]

    def summary(key, pick, setup):
        return {"setup_s": statistics.median(setup),
                "cold_pass_s": cold[key],
                "pass_s": statistics.median(p[key] for p in warm),
                "largest_cmd_s": statistics.median(max(p[pick])
                                                   for p in warm),
                "peak_rss_mb": peak_rss_mb}
    metrics = summary("scaled", "scaled_times", setup_scaled)
    extra = {"wall_metrics": summary("wall", "times", setup_wall),
             "setup_wall_s": setup_wall, "warm_passes": len(warm)}
    log(f"  wall seconds: {extra['wall_metrics']}")
    return runner, metrics, END_TO_END, extra


def _layer_value(name, per_pass, setup, counters, n_cmds):
    """Median over traced passes of one per-layer metric."""
    if name in COUNTERS.values():
        return statistics.median(c.get(name, 0) for c in counters)
    if name == "curvature.levi_civita.per_cmd":
        return statistics.median(
            s.get("curvature.levi_civita", (0, 0, 0))[1] / n_cmds
            for s in per_pass)
    span, field = name.rsplit(".", 1)
    index = {"self_s": 0, "calls": 1, "failed": 2}[field]
    if name.startswith(SETUP_LAYERS):
        return setup.get(span, (0.0, 0, 0))[index]
    return statistics.median(s.get(span, (0.0, 0, 0))[index]
                             for s in per_pass)


def traced_run(args, workdir, trace_path):
    import workloads
    tracer = Tracer()
    inputs = os.path.join(workdir, "setup0")
    tracer.install()
    try:
        manifest = workloads.build_inputs(args.workload, args.seed, inputs)
    finally:
        tracer.uninstall()
    runner = Runner(manifest, inputs, tracer)
    runner.run_pass()            # cold pass, not measured here
    start, pair = time.perf_counter(), 0
    while True:
        # alternate the order so drift does not favour either side
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            runner.run_pass(traced)
        pair += 1
        if time.perf_counter() - start >= args.seconds:
            break
    traced_passes = [p for p in runner.passes if p["traced"]]
    plain = [p for p in runner.passes[1:] if not p["traced"]]
    totals = tracer.self_times()
    per_pass = [{name: v for (pid, name), v in totals.items()
                 if pid == p["id"]} for p in traced_passes]
    setup = {name: v for (pid, name), v in totals.items() if pid == "setup"}
    counters = [{name: c for (pid, name), c in tracer.counters.items()
                 if pid == p["id"]} for p in traced_passes]
    n_cmds = len(runner.commands)
    metrics = {name: _layer_value(name, per_pass, setup, counters, n_cmds)
               for name in PER_LAYER
               if name not in ("trace.overhead_ratio", "failed_ratio")}
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["scaled"] for p in traced_passes)
        / statistics.median(p["scaled"] for p in plain))
    tracer.dump(trace_path)
    extra = {"traced_passes": len(traced_passes),
             "untraced_passes": len(plain)}
    return runner, metrics, PER_LAYER, extra


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("analyze-small", "analyze-large", "density",
                            "spectral-cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import_solvharm()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    log(f"{tag}: BLAS threads {BLAS_THREADS}")
    try:
        # the program's own stdout must not mix with the result line
        with contextlib.redirect_stdout(sys.stderr):
            if args.trace:
                runner, metrics, units, extra = traced_run(
                    args, workdir, os.path.join(OUT, tag + ".trace.jsonl"))
            else:
                runner, metrics, units, extra = untraced_run(args, workdir)
            failures = runner.verify()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["results"]) for p in runner.passes)
    if args.trace:
        metrics["failed_ratio"] = len(failures) / attempted
    for f in failures:
        log(f"  FAILED {f['pass']} {f['command']}: {f['problems']}")
    for name, value in metrics.items():
        log(f"  {name} = {value:.6g} {units[name]}")

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "blas_threads": BLAS_THREADS, "metrics": metrics,
        "failures": failures, **extra,
        "commands": [c["name"] for c in runner.commands],
        "calibration_reference_s": REFERENCE_S,
        "passes": [{k: p[k] for k in ("id", "traced", "wall", "times",
                                      "scaled", "scaled_times", "bursts")}
                   for p in runner.passes],
    }
    with open(os.path.join(OUT, tag + ".json"), "w") as handle:
        json.dump(record, handle, indent=1)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
