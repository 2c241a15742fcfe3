"""Span tracer that wraps the public functions of ``solvharm`` from outside.

Nothing under ``src/`` is edited.  :func:`Tracer.install` replaces each
listed function in every ``solvharm`` module namespace that binds it
(``jacobi_flow.levi_civita`` as well as ``curvature.levi_civita``), and
:func:`Tracer.uninstall` puts the originals back, so untraced passes run
the unmodified program.

A span records its name, parent span, thread, start, end, whether it
raised, and the pass and command it belongs to.  Spans live in memory until
:meth:`Tracer.dump` writes them out.  Hot inner functions get counters
only, because a span per call would cost more than the call.
"""

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute) -> span name.  Methods are given as "Class.method".
SPANS = {
    ("cli", "main"): "cli.main",
    ("cli", "build_report"): "cli.build_report",
    ("clifford_dr", "clifford_generators"): "clifford_dr.clifford_generators",
    ("clifford_dr", "build_damek_ricci"): "clifford_dr.build_damek_ricci",
    ("lie_metric", "algebra_from_dict"): "lie_metric.algebra_from_dict",
    ("lie_metric", "MetricLieAlgebra.jacobi_residual"):
        "lie_metric.jacobi_residual",
    ("lie_metric", "MetricLieAlgebra.from_tensor"): "lie_metric.from_tensor",
    ("lie_metric", "standard_decomposition"): "lie_metric.standard_decomposition",
    ("lie_metric", "subalgebra"): "lie_metric.subalgebra",
    ("lie_metric", "growth_type"): "lie_metric.growth_type",
    ("lie_metric", "nilpotency_class"): "lie_metric.nilpotency_class",
    ("lie_metric", "derived_algebra"): "lie_metric.derived_algebra",
    ("curvature", "levi_civita"): "curvature.levi_civita",
    ("curvature", "curvature_tensor"): "curvature.curvature_tensor",
    ("curvature", "einstein_check"): "curvature.einstein_check",
    ("curvature", "nabla_R_norm"): "curvature.nabla_R_norm",
    ("curvature", "central_frame_split"): "curvature.central_frame_split",
    ("riccati", "solve_algebraic_riccati_max"):
        "riccati.solve_algebraic_riccati_max",
    ("riccati", "horosphere_mean_curvature_formula"):
        "riccati.horosphere_mean_curvature_formula",
    ("jacobi_flow", "stable_jacobi_tensor"): "jacobi_flow.stable_jacobi_tensor",
    ("jacobi_flow", "mean_curvature_numeric"):
        "jacobi_flow.mean_curvature_numeric",
    ("jacobi_flow", "volume_density"): "jacobi_flow.volume_density",
    ("hypergeom", "h_factors"): "hypergeom.h_factors",
    ("hypergeom", "h_function"): "hypergeom.h_function",
    ("hypergeom", "rigidity_conclusion"): "hypergeom.rigidity_conclusion",
    ("numerics", "eigenvalues"): "numerics.eigenvalues",
    ("numerics", "ordered_real_schur"): "numerics.ordered_real_schur",
    ("numerics", "matrix_exponential"): "numerics.matrix_exponential",
    ("numerics", "solve_linear"): "numerics.solve_linear",
}

# (module, attribute) -> counter name, for functions called in inner loops.
COUNTERS = {
    ("hypergeom", "gauss_f"): "hypergeom.gauss_f.calls",
    ("jacobi_flow", "CentralGeodesicFrame.jacobi_operator"):
        "jacobi_flow.frame_rhs_evals",
}


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []


class Tracer:
    """Collects spans and counters; the current pass tags everything."""

    def __init__(self):
        self.spans = []          # finished spans, in end order
        self.counters = defaultdict(int)   # (pass, name) -> count
        self.pass_id = "setup"
        self.cmd_id = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = _ThreadState()
        self._patches = []       # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, name, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._local.stack
            span = {"id": next(tracer._ids), "name": name,
                    "parent": stack[-1]["id"] if stack else None,
                    "thread": threading.get_ident(), "pass": tracer.pass_id,
                    "cmd": tracer.cmd_id, "failed": False, "excluded": 0.0,
                    "start": time.perf_counter()}
            stack.append(span)
            try:
                return func(*args, **kwargs)
            except BaseException:
                span["failed"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
        return wrapper

    def exclude(self, seconds):
        """Keep ``seconds`` of foreign work (a calibration burst) out of
        the self time of the innermost open span of this thread."""
        stack = self._local.stack
        if stack:
            stack[-1]["excluded"] += seconds

    def _counter_wrapper(self, name, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counters[(tracer.pass_id, name)] += 1
            return func(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every listed function wherever a solvharm module binds it."""
        if self._patches:
            return
        for module_name, _ in (*SPANS, *COUNTERS):
            importlib.import_module(f"solvharm.{module_name}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "solvharm" or key.startswith("solvharm."))
                   and m is not None]
        wanted = [(k, n, self._span_wrapper) for k, n in SPANS.items()]
        wanted += [(k, n, self._counter_wrapper) for k, n in COUNTERS.items()]
        for (module_name, attr), name, make in wanted:
            module = sys.modules[f"solvharm.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    new = classmethod(make(name, raw.__func__))
                else:
                    new = make(name, raw)
                self._patch(cls, method, raw, new)
                continue
            original = getattr(module, attr)
            new = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, new)

    def _patch(self, owner, attr, original, new):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -----------------------------------------------------------

    def self_times(self):
        """(pass, name) -> (total self seconds, calls, failed calls).

        Self time is a span's duration minus the durations of its direct
        children and the time excluded from it; spans of one thread nest,
        so children never overlap.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(lambda: [0.0, 0, 0])
        for s in self.spans:
            entry = out[(s["pass"], s["name"])]
            entry[0] += (s["end"] - s["start"] - child_time[s["id"]]
                         - s["excluded"])
            entry[1] += 1
            entry[2] += int(s["failed"])
        return out

    def dump(self, path):
        """Write spans, then counters, as JSON lines."""
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(s) + "\n")
            for (pass_id, name), count in sorted(self.counters.items(),
                                                 key=str):
                handle.write(json.dumps({"counter": name, "pass": pass_id,
                                         "count": count}) + "\n")
