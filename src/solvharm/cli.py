"""Command-line interface: build | analyze | scan-h | classify | riccati.

File formats are stable: the JSON algebra format of ``lie_metric``, CSV
with a header row, and JSON reports with fixed key order and floats
serialized at 17 significant digits, so identical inputs (plus --seed)
produce byte-identical outputs.  Files are written atomically.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import (clifford_dr, curvature, hypergeom, jacobi_flow, lie_metric,
               numerics, riccati)
from .config import DEFAULT_TOLS, TRACE_IDENTITY_REL, Tolerances
from .errors import (DegenerateSpectrumError, DimensionError, NumericalError,
                     SolvharmError, StructureError)

_MEAN_GRID = (0.5, 8.0, 26)
_H_GRID = (0.05, 0.5, 50)

# the Tolerances fields each subcommand's checks read: exactly these are
# its --tol-* flags and the tolerances echoed in its report
_DECOMPOSITION_TOLS = ("jacobi_identity", "self_adjoint", "eigen_merge")
_RICCATI_TOLS = ("riccati_residual", "axis_band", "separation_band")
_COMMAND_TOLS = {
    "analyze": tuple(f.name for f in dataclasses.fields(Tolerances)
                     if f.name not in _RICCATI_TOLS),
    "scan-h": _DECOMPOSITION_TOLS,
    "classify": _DECOMPOSITION_TOLS + ("classifier_zero",),
    "riccati": _RICCATI_TOLS,
}


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _g17(value) -> str:
    """%.17g of a float, with -0 written as 0."""
    return format(float(value) + 0.0, ".17g")


def _emit_json(value, out):
    """Recursive writer with fixed key order and %.17g floats.  numpy
    values are written as the Python values they hold, a complex number
    as {"re": ..., "im": ...} and a NaN or infinity as a string."""
    if isinstance(value, dict):
        out.write("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.write(", ")
            out.write(json.dumps(str(k)))
            out.write(": ")
            _emit_json(v, out)
        out.write("}")
    elif isinstance(value, (list, tuple)):
        out.write("[")
        for i, v in enumerate(value):
            if i:
                out.write(", ")
            _emit_json(v, out)
        out.write("]")
    elif isinstance(value, np.ndarray):
        if not (value.dtype.kind == "f" and value.ndim and value.size
                and np.isfinite(value).all()):
            _emit_json(value.tolist(), out)
        elif value.ndim > 2:
            _emit_json(list(value), out)
        else:
            # finite floats, a row at a time through one "[%.17g, ...]"
            # row template ("%.17g" % x is format(x, ".17g")); adding 0.0
            # writes -0 as 0
            row = "[" + ", ".join(["%.17g"] * value.shape[-1]) + "]"
            if value.ndim == 1:
                out.write(row % tuple((value + 0.0).tolist()))
            else:
                out.write("[")
                for i, r in enumerate(value):
                    out.write((", " if i else "") +
                              row % tuple((r + 0.0).tolist()))
                out.write("]")
    elif isinstance(value, (bool, np.bool_)):
        out.write("true" if value else "false")
    elif value is None:
        out.write("null")
    elif isinstance(value, (int, np.integer)):
        out.write(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            out.write(json.dumps(str(value)))
        else:
            out.write(_g17(value))
    elif isinstance(value, (complex, np.complexfloating)):
        _emit_json({"re": float(value.real), "im": float(value.imag)}, out)
    else:
        out.write(json.dumps(value))


def _render_json(value) -> str:
    import io
    buf = io.StringIO()
    _emit_json(value, buf)
    buf.write("\n")
    return buf.getvalue()


def _write_atomic(path: str, text: str):
    """Write ``text`` to a temporary file beside ``path`` and rename it
    over ``path``, with the mode a plain ``open`` would give: 0o666 less
    the umask (``mkstemp`` creates its file as 0o600)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".solvharm-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _deliver(text: str, output):
    if output:
        _write_atomic(output, text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read JSON from {path}: {exc}") from exc


class _UsageError(Exception):
    pass


def _load_algebra(path: str, tols: Tolerances) -> lie_metric.MetricLieAlgebra:
    data = _load_json(path)
    try:
        return lie_metric.algebra_from_dict(data, tols)
    except (StructureError, DimensionError, ValueError, TypeError) as exc:
        raise _UsageError(f"malformed algebra file {path}: {exc}") from exc


def _load_standard_data(path: str, tols: Tolerances):
    """The standard decomposition of the algebra file at ``path``, or None
    once stderr says why there is none (the caller exits 3)."""
    g = _load_algebra(path, tols)
    try:
        return lie_metric.standard_decomposition(g, tols)
    except StructureError as exc:
        sys.stderr.write(f"not a standard solvable algebra: {exc}\n")
        return None


# ---------------------------------------------------------------------------
# analysis pipeline
# ---------------------------------------------------------------------------

def _tolerances_dict(tols: Tolerances, command: str) -> dict:
    return {name: getattr(tols, name) for name in _COMMAND_TOLS[command]}


def build_report(g: lie_metric.MetricLieAlgebra, seed: int = 0,
                 tols: Tolerances = DEFAULT_TOLS) -> dict:
    """The full analysis report, labelled by :func:`_classification`."""
    r_norm = curvature.curvature_norm(g.curvature)
    scale2 = lie_metric.scale_squared(g)
    is_flat = r_norm <= tols.flat_norm * scale2
    is_einstein, c_const, resid = curvature.einstein_check(g, tols)

    report = {
        "schema": "solvharm-analysis-v1",
        "seed": seed,
        "algebra": {
            "dim": g.dim,
            "derived_dim": int(g.derived_algebra.shape[1]),
            "nilpotency_class": g.nilpotency_class,
        },
        "curvature": {"norm": r_norm, "flat": is_flat},
        "einstein": {"is_einstein": is_einstein, "constant": c_const,
                     "residual": resid},
        "growth": lie_metric.growth_type(g, tols=tols).value,
    }

    data, decomposition_error = None, None
    if not is_flat:
        try:
            data = lie_metric.standard_decomposition(g, tols)
        except StructureError as exc:
            decomposition_error = str(exc)

    if data is None:
        report["standard_decomposition"] = {
            "status": "flat" if is_flat else "not-standard",
            "reason": decomposition_error,
        }
        report["classification"] = _classification(
            flat=is_flat, standard=False, einstein=is_einstein)
        report["tolerances"] = _tolerances_dict(tols, "analyze")
        return report

    report["standard_decomposition"] = {
        "status": "ok",
        "mu": list(data.mu),
        "rho_star": list(data.rho_star),
        "pairs": [list(p) for p in data.pairs],
        "trace_ad_h": data.trace_ad_h,
    }

    # mean curvature: closed formula vs numeric horosphere pipeline
    ad_h = data.ad_h()
    formula = -riccati.horosphere_mean_curvature_formula(ad_h)
    # ad_H has no stable eigenvalue: X = 0, trace L0 = -trace D_H = -trace ad_H
    trace_l0 = -float(np.trace(ad_h))
    try:
        sample = jacobi_flow.stable_jacobi_tensor(
            data, np.linspace(*_MEAN_GRID), tols)
        m_fd, _ = jacobi_flow.mean_curvature_numeric(sample)
        deviation = float(np.abs(m_fd - formula).max())
        numeric_mean = float(np.mean(m_fd))
    except SolvharmError as exc:
        deviation = numeric_mean = None
        report.setdefault("warnings", []).append(f"mean-curvature: {exc}")
    report["mean_curvature"] = {
        "formula": formula,
        "riccati_trace_l0": trace_l0,
        "numeric": numeric_mean,
        "max_deviation": deviation,
        "grid": list(_MEAN_GRID),
    }

    # h-scan on z in [0.05, 0.5]
    h_values = hypergeom.h_function(*data.frame_factor_data(),
                                    np.linspace(*_H_GRID))
    h_scale = max(float(np.abs(h_values).max()), 1e-30)
    drift = float((h_values.max() - h_values.min()) / h_scale)
    report["h_scan"] = {
        "z_range": list(_H_GRID[:2]),
        "count": _H_GRID[2],
        "min": float(h_values.min()),
        "max": float(h_values.max()),
        "relative_drift": drift,
        "constant": drift <= tols.h_constancy,
    }

    is_rigid, factors = hypergeom.rigidity_conclusion(data, tols)
    report["rigidity"] = {"is_rigid": is_rigid, "factors": factors}

    nr = curvature.nabla_R_norm(g)
    ratio = nr / r_norm if r_norm > 0 else 0.0
    symmetric = ratio <= tols.symmetry_ratio * math.sqrt(scale2)
    report["symmetry"] = {"nabla_r_norm": nr, "ratio": ratio,
                          "is_symmetric": symmetric}

    report["classification"] = _classification(
        flat=False, standard=True, einstein=is_einstein, rigid=is_rigid,
        symmetric=symmetric)
    report["tolerances"] = _tolerances_dict(tols, "analyze")
    return report


def _classification(*, flat, standard, einstein, rigid=False, symmetric=False):
    """The ``analyze`` label from its predicates (the README argues it)."""
    if flat:
        return "Flat"
    if not standard:
        return "Indeterminate"
    if rigid and einstein:
        return "RankOneSymmetric" if symmetric else "DamekRicciNonsymmetric"
    return "NotAsymptoticallyHarmonic"


def _positive_count(value: int, flag: str) -> int:
    if value < 1:
        raise _UsageError(f"{flag} must be a positive integer, got {value}")
    return value


def _density_times(raw: str) -> np.ndarray:
    """The ``--density-times`` grid: finite, nonnegative and strictly
    increasing, as the geodesic integration needs it."""
    try:
        times = np.array([float(x) for x in raw.split(",")])
    except ValueError:
        raise _UsageError(
            f"--density-times must be comma-separated numbers, got {raw!r}"
        ) from None
    if not (np.isfinite(times).all() and times[0] >= 0.0
            and (np.diff(times) > 0.0).all()):
        raise _UsageError("--density-times must be finite, nonnegative and "
                          f"strictly increasing, got {raw!r}")
    return times


def _density_table(g, seed: int, directions: int, t_arr: np.ndarray,
                   tols: Tolerances):
    """Volume densities along seeded unit directions, one after another on
    the algebra's shared connection."""
    rng = np.random.default_rng(seed)
    rows = [jacobi_flow.volume_density(g, v / np.linalg.norm(v), t_arr, tols)
            for v in rng.standard_normal((directions, g.dim))]
    lines = ["direction_id,t,det"]
    for i, dets in enumerate(rows):
        for t, det in zip(t_arr, dets):
            lines.append(f"{i},{_g17(t)},{_g17(det)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build(args, tols: Tolerances) -> int:
    kind = args.kind
    low = {"flat": 1, "real-hyperbolic": 2}.get(kind)
    if low is not None and args.dim < low:
        raise _UsageError(f"--dim must be at least {low} for {kind}, "
                          f"got {args.dim}")
    if kind == "flat":
        g = clifford_dr.build_flat(args.dim)
    elif kind == "real-hyperbolic":
        g = clifford_dr.build_real_hyperbolic(args.dim)
    else:
        cm = clifford_dr.clifford_generators(
            _positive_count(args.l, "--l"),
            _positive_count(args.copies, "--copies"))
        if kind == "heisenberg":
            g = clifford_dr.build_heisenberg_type(cm)
        else:
            g = clifford_dr.build_damek_ricci(cm)
    _deliver(_render_json(lie_metric.algebra_to_dict(g)), args.output)
    return 0


def cmd_analyze(args, tols: Tolerances) -> int:
    if args.density_csv:   # reject bad values before any work is done
        if args.seed < 0:
            raise _UsageError(f"--seed must be nonnegative, got {args.seed}")
        directions = _positive_count(args.density_directions,
                                     "--density-directions")
        times = _density_times(args.density_times)
    g = _load_algebra(args.algebra, tols)
    report = build_report(g, seed=args.seed, tols=tols)
    _deliver(_render_json(report), args.output)
    if args.density_csv:
        table = _density_table(g, args.seed, directions, times, tols)
        _write_atomic(args.density_csv, table)
    # rigid: h is constant, m the closed formula; a missing m is a warning
    rigid = report.get("rigidity", {}).get("is_rigid", False)
    witnesses = [(f"{block}.{key}", report[block][key], bound)
                 for block, key, bound in (
                     ("h_scan", "relative_drift", tols.h_constancy),
                     ("mean_curvature", "max_deviation", tols.mean_constancy))
                 if rigid and (report[block][key] or 0.0) > bound]
    for name, value, bound in witnesses:
        sys.stderr.write(f"rigid, yet {name} = {value!r} exceeds {bound!r}\n")
    return 4 if witnesses else 0


def cmd_scan_h(args, tols: Tolerances) -> int:
    count = _positive_count(args.count, "--count")
    for value, flag in ((args.z_min, "--z-min"), (args.z_max, "--z-max")):
        if not -1.0 < value < 1.0:   # also NaN
            raise _UsageError(f"{flag} must lie in (-1, 1), got {value}")
    data = _load_standard_data(args.algebra, tols)
    if data is None:
        return 3
    mu_f, rho_star, pairs = data.frame_factor_data()
    n_factors = len(mu_f) + len(rho_star) + len(pairs)
    header = "z,h," + ",".join(f"factor_{i + 1}" for i in range(n_factors))
    z_values = np.linspace(args.z_min, args.z_max, count)
    factors = hypergeom.h_factors(mu_f, rho_star, pairs, z_values)
    h_values = np.prod(factors, axis=-1)
    table = np.column_stack([z_values, h_values, factors]) + 0.0
    row_format = ",".join(["{:.17g}"] * table.shape[1]).format
    lines = [header] + [row_format(*row) for row in table.tolist()]
    _deliver("\n".join(lines) + "\n", args.output)
    return 0


def cmd_classify(args, tols: Tolerances) -> int:
    data = _load_standard_data(args.algebra, tols)
    if data is None:
        return 3
    is_rigid, factors = hypergeom.rigidity_conclusion(data, tols)
    report = {
        "schema": "solvharm-classify-v1",
        "is_rigid": is_rigid,
        "factors": factors,
        "tolerances": _tolerances_dict(tols, "classify"),
    }
    _deliver(_render_json(report), args.output)
    return 0


def cmd_riccati(args, tols: Tolerances) -> int:
    data = _load_json(args.matrix)
    raw = data.get("matrix", data) if isinstance(data, dict) else data
    try:
        mat = numerics.as_square(raw)
    except (TypeError, ValueError, DimensionError, NumericalError) as exc:
        raise _UsageError(
            f"malformed matrix file {args.matrix}: {exc}") from exc
    try:
        res = riccati.solve_algebraic_riccati_max(mat, tols)
    except DegenerateSpectrumError as exc:
        sys.stderr.write(f"degenerate spectrum: {exc}\n")
        return 5
    # horosphere_mean_curvature_formula on the spectrum the solve computed
    formula = float(-np.abs(res.spectrum_ad_a.real).sum())
    report = {
        "schema": "solvharm-riccati-v1",
        "x": res.x,
        "l0": res.l0,
        "trace_l0": res.trace_l0,
        "formula_trace": formula,
        "spectrum": [{"re": s.real, "im": s.imag} for s in res.spectrum_ad_a],
        "tolerances": _tolerances_dict(tols, "riccati"),
    }
    _deliver(_render_json(report), args.output)
    if abs(res.trace_l0 - formula) > (TRACE_IDENTITY_REL
                                      * max(1.0, abs(formula))):
        sys.stderr.write(
            f"trace identity violated: trace L0 = {res.trace_l0!r} vs "
            f"formula {formula!r}\n"
        )
        return 4
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _tolerance(raw: str) -> float:
    """A ``--tol-*`` value: a finite, nonnegative number."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:   # also NaN
        raise argparse.ArgumentTypeError(
            f"must be a finite nonnegative number, got {raw!r}")
    return value


def _add_tolerance_flags(parser: argparse.ArgumentParser, names):
    for name in names:
        parser.add_argument("--tol-" + name.replace("_", "-"),
                            dest=f"tol_{name}", type=_tolerance,
                            default=None, help=argparse.SUPPRESS)


def _collect_tolerances(args) -> Tolerances:
    overrides = {}
    for f in dataclasses.fields(Tolerances):
        v = getattr(args, f"tol_{f.name}", None)
        if v is not None:
            overrides[f.name] = v
    return DEFAULT_TOLS.with_overrides(**overrides)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvharm",
        description="Metric solvable Lie algebras, Damek-Ricci geometry "
                    "and the harmonicity rigidity pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a reference algebra")
    p.add_argument("kind", choices=["flat", "real-hyperbolic", "heisenberg",
                                    "damek-ricci"])
    p.add_argument("--dim", type=int, default=3,
                   help="dimension for flat / real-hyperbolic builds")
    p.add_argument("--l", type=int, default=1, help="center dimension")
    p.add_argument("--copies", type=int, default=1,
                   help="number of irreducible module copies")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("analyze", help="full geometric analysis report")
    p.add_argument("algebra")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.add_argument("--density-csv", default=None,
                   help="write per-direction volume densities to CSV")
    p.add_argument("--density-directions", type=int, default=16)
    p.add_argument("--density-times", default="0.5,1,2")
    _add_tolerance_flags(p, _COMMAND_TOLS["analyze"])
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan-h", help="sample the rigidity function h(z)")
    p.add_argument("algebra")
    p.add_argument("--z-min", type=float, default=0.05)
    p.add_argument("--z-max", type=float, default=0.5)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--output", default=None)
    _add_tolerance_flags(p, _COMMAND_TOLS["scan-h"])
    p.set_defaults(func=cmd_scan_h)

    p = sub.add_parser("classify", help="classify the factors of h")
    p.add_argument("algebra")
    p.add_argument("--output", default=None)
    _add_tolerance_flags(p, _COMMAND_TOLS["classify"])
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("riccati", help="maximal Riccati solution of a matrix")
    p.add_argument("matrix")
    p.add_argument("--output", default=None)
    _add_tolerance_flags(p, _COMMAND_TOLS["riccati"])
    p.set_defaults(func=cmd_riccati)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    tols = _collect_tolerances(args)
    try:
        return args.func(args, tols)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SolvharmError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
