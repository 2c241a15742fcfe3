"""Command-line interface: build | analyze | scan-h | classify | riccati.

File formats are stable: the JSON algebra format of ``lie_metric``, CSV
with a header row, and JSON reports with fixed key order and floats
serialized at 17 significant digits, so identical inputs (plus --seed)
produce byte-identical outputs.  Every output is streamed, a block of
rows at a time, into stdout or into a temporary file beside its path that
is then renamed over it, so no output is ever held whole as text.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import (clifford_dr, curvature, hypergeom, jacobi_flow, lie_metric,
               numerics, riccati)
from .config import (DEFAULT_TOLS, H_SCALE_FLOOR, SCALE_WINDOW,
                     TRACE_IDENTITY_REL, Tolerances)
from .errors import (DegenerateSpectrumError, DimensionError, NumericalError,
                     SolvharmError, StructureError)

_MEAN_GRID = (0.5, 8.0, 26)
_H_GRID = (0.05, 0.5, 50)

# the Tolerances fields each subcommand's checks read: exactly these are
# its --tol-* flags and the tolerances echoed in its report
_SPECTRAL_TOLS = ("jacobi_identity", *lie_metric.DECOMPOSITION_TOLS)
_RICCATI_TOLS = ("riccati_residual", "axis_band", "separation_band")
_COMMAND_TOLS = {
    "analyze": tuple(f.name for f in dataclasses.fields(Tolerances)
                     if f.name not in _RICCATI_TOLS),
    "scan-h": _SPECTRAL_TOLS,
    "classify": (*_SPECTRAL_TOLS, "classifier_zero"),
    "riccati": _RICCATI_TOLS,
}


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

# values per block of rows: each block is one ``tolist()`` and one write of
# some 80 kB of text, so a table costs its own bytes plus one block, while
# the per-block numpy and write calls stay a small share of the formatting
_BLOCK_VALUES = 4096
# the format of every number the CLI writes, spelled here only
_NUMBER = "%.17g"


def _rows(table, sep=", ", joiner="\n"):
    """The rows of a 2-D table of finite numbers, at least one column
    wide, as text, a block of about ``_BLOCK_VALUES`` values at a time:
    every value written %.17g (adding 0.0 writes -0 as 0), values joined
    by ``sep`` and rows by ``joiner``.  A block after the first starts
    with ``joiner``, or with ``sep`` within a row wider than a block, so
    the blocks in order are the whole text.  Every number the CLI writes
    takes this template, ``_NUMBER``."""
    table = np.asarray(table, dtype=float)
    n_rows, width = table.shape
    row_step = max(_BLOCK_VALUES // width, 1)
    col_step = min(width, _BLOCK_VALUES)
    for r in range(0, n_rows, row_step):
        for c in range(0, width, col_step):
            block = table[r:r + row_step, c:c + col_step] + 0.0
            template = sep.join([_NUMBER] * block.shape[1])
            # no list or text of this block is kept past the yield
            yield (sep if c else joiner if r else "") + joiner.join(
                [template % tuple(row) for row in block.tolist()])


def _emit_json(value, out):
    """Recursive writer with fixed key order and %.17g floats.  numpy
    values are written as the Python values they hold, a complex number
    as {"re": ..., "im": ...} and a NaN or infinity as a string.  A float
    array is written a block of rows at a time by :func:`_rows`, and a
    float scalar in its ``_NUMBER`` template."""
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
            one_d = value.ndim == 1
            out.write("[" if one_d else "[[")
            for text in _rows(value[np.newaxis] if one_d else value,
                              joiner="], ["):
                out.write(text)
            out.write("]" if one_d else "]]")
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
            out.write(_NUMBER % (value + 0.0))
    elif isinstance(value, (complex, np.complexfloating)):
        _emit_json({"re": float(value.real), "im": float(value.imag)}, out)
    else:
        out.write(json.dumps(value))


def _write_json(value, out):
    """``value`` as one JSON document and a newline."""
    _emit_json(value, out)
    out.write("\n")


def _write_csv(header: str, table, out):
    """A CSV file: ``header``, then one line per row of ``table``."""
    out.write(header + "\n")
    for text in _rows(table, ",", "\n"):
        out.write(text)
    out.write("\n")


def _check_writable(path: str):
    """Raise :class:`_UsageError` unless the directory of ``path`` exists
    and this process may create files in it.  It asks the kernel
    (``os.access``) and creates nothing there."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.access(directory, os.W_OK | os.X_OK):
        reason = ("not writable" if os.path.isdir(directory) else
                  "not a directory" if os.path.exists(directory) else
                  "missing")
        raise _UsageError(f"cannot write {path}: {directory} is {reason}")


def _write_atomic(path: str, write):
    """Call ``write(handle)`` on a temporary file beside ``path`` and
    rename it over ``path`` once ``write`` returns, with the mode a plain
    ``open`` would give: 0o666 less the umask (``mkstemp`` creates its
    file as 0o600).  If ``write`` raises, the temporary file is removed
    and ``path`` is left as it was.  An ``OSError`` is raised as a
    :class:`SolvharmError` that names ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".solvharm-")
        try:
            os.fchmod(fd, 0o666 & ~umask)
            with os.fdopen(fd, "w") as handle:
                write(handle)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise SolvharmError(f"cannot write {path}: {exc.strerror}") from exc


def _deliver(write, output):
    """The one output path of every command: ``write(out)`` streams the
    output into ``out``, the temporary file of :func:`_write_atomic` for
    the path ``output`` or, without one, stdout."""
    if output:
        _write_atomic(output, write)
    else:
        write(sys.stdout)


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
    """The cached standard decomposition of the algebra file at ``path``,
    or None once stderr says why there is none (the caller exits 3)."""
    data, reason = _load_algebra(path, tols).decomposition(tols)
    if data is None:
        sys.stderr.write(f"not a standard solvable algebra: {reason}\n")
    return data


# ---------------------------------------------------------------------------
# analysis pipeline
# ---------------------------------------------------------------------------

def _tolerances_dict(tols: Tolerances, command: str) -> dict:
    return {name: getattr(tols, name) for name in _COMMAND_TOLS[command]}


def build_report(g: lie_metric.MetricLieAlgebra, seed: int = 0,
                 tols: Tolerances = DEFAULT_TOLS, failures=None) -> dict:
    """The full analysis report, labelled by :func:`_classification` from
    the H-type certificate; Einstein, rigidity and symmetry are witnesses.
    A bracket scale outside ``SCALE_WINDOW`` raises NumericalError first.

    The standard decomposition and its H-type certificate come from
    ``g.decomposition(tols)``, which the density sidecar reads too.  The
    Einstein block is :func:`curvature.einstein_check` on every input:
    Ric from the brackets.  A certified input takes |R| and |nabla R|
    from :func:`curvature.damek_ricci_norms`, and no curvature operator
    is formed; every other input takes them from the Lambda^2 operator and
    ``g.nabla_R_norm``, both kept on ``g`` for the next report.

    A paper identity that the report contradicts is appended to
    ``failures``, when it is a list, as a message naming the identity,
    its value and its bound: on a rigid input, h that is not constant
    within ``h_constancy`` or m off the closed formula by more than
    ``mean_constancy`` (a missing m is a warning); on a certified input,
    Ric off -(m + 4k) lam^2 / 4 id by more than
    ``einstein_residual * s^2``, ``trace_ad_h`` off m/2 + k by more than
    the certificate's bound (below), or ``rigidity.is_rigid`` False.
    """
    s = g.scale
    if s and not 1 / SCALE_WINDOW <= s <= SCALE_WINDOW:
        raise NumericalError(f"bracket scale s = {s:.3e} is outside the "
                             f"window [{1 / SCALE_WINDOW:.0e}, "
                             f"{SCALE_WINDOW:.0e}] that analyze can label")
    failures = [] if failures is None else failures
    decomposition = g.decomposition(tols)
    data, cert = decomposition.data, decomposition.certificate
    is_einstein, c_const, resid = curvature.einstein_check(g, tols)
    if cert is None:
        r_norm = curvature.curvature_norm(g)
    else:
        r_norm, nr = curvature.damek_ricci_norms(cert)
        c_dr = -(cert.m + 4 * cert.k) / 4 * cert.lam * cert.lam
        trace = cert.m / 2 + cert.k
        # Ric - c id is traceless, so the first gap is |Ric - c_dr id|; in
        # units of lam each ad_H eigenvalue is certified within eigen_merge
        # of 1/2 or 1, and the data divide by the top one, as far off lam
        for identity, gap, bound in (
                (f"Ric from the brackets is not c id with c = -(m + 4k) "
                 f"lam^2 / 4 = {c_dr!r}: |Ric - c id| =",
                 math.hypot(resid, math.sqrt(g.dim) * (c_const - c_dr)),
                 tols.einstein_residual * s * s),
                (f"trace_ad_h = {data.trace_ad_h!r} is not m/2 + k = "
                 f"{trace!r}: off by", abs(data.trace_ad_h - trace),
                 2 * data.eigen_merge * (cert.m + cert.k))):
            if not gap <= bound:
                failures.append(f"H-type, yet {identity} {gap!r} exceeds "
                                f"{bound!r}")
    is_flat = r_norm <= tols.flat_norm * s * s

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
    if is_flat:
        data = None
        report["standard_decomposition"] = {"status": "flat", "reason": None}
    elif data is None:
        report["standard_decomposition"] = {"status": "not-standard",
                                            "reason": decomposition.reason}
    if data is not None:
        # every ad_H eigenvalue is positive, so the closed mean curvature
        # sum |Re sigma| is trace ad_H, X = 0 and trace L0 = -trace ad_H
        formula = data.trace_ad_h
        report["standard_decomposition"] = {
            "status": "ok",
            "mu": list(data.mu),
            "rho_star": list(data.rho_star),
            "pairs": [list(p) for p in data.pairs],
            "trace_ad_h": formula,
        }

        # mean curvature: closed formula vs numeric horosphere pipeline
        try:
            m_fd = jacobi_flow.mean_curvature_numeric(
                jacobi_flow.stable_jacobi_tensor(
                    data, np.linspace(*_MEAN_GRID), tols))
            deviation = float(np.abs(m_fd - formula).max())
            numeric_mean = float(np.mean(m_fd))
        except SolvharmError as exc:
            deviation = numeric_mean = None
            report["warnings"] = [f"mean-curvature: {exc}"]
        report["mean_curvature"] = {
            "formula": formula,
            "riccati_trace_l0": -formula,
            "numeric": numeric_mean,
            "max_deviation": deviation,
            "grid": list(_MEAN_GRID),
        }

        # h-scan on z in [0.05, 0.5]
        h_values = hypergeom.h_function(*data.frame_factor_data(),
                                        np.linspace(*_H_GRID))
        h_scale = max(float(np.abs(h_values).max()), H_SCALE_FLOOR)
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
        if cert is None:
            nr = g.nabla_R_norm
        if is_rigid:
            for name, value, bound in (
                    ("h_scan.relative_drift", drift, tols.h_constancy),
                    ("mean_curvature.max_deviation", deviation,
                     tols.mean_constancy)):
                if (value or 0.0) > bound:
                    failures.append(f"rigid, yet {name} = {value!r} "
                                    f"exceeds {bound!r}")
        elif cert is not None:
            failures.append("H-type, yet rigidity.is_rigid = False along the "
                            "chosen Z; every H-type input is rigid (True)")
        ratio = nr / r_norm if r_norm > 0 else 0.0
        report["symmetry"] = {"nabla_r_norm": nr, "ratio": ratio,
                              "is_symmetric": ratio <= tols.symmetry_ratio * s}

    report["classification"] = _classification(report, cert)
    report["tolerances"] = _tolerances_dict(tols, "analyze")
    return report


def _classification(report: dict, cert) -> str:
    """The ``analyze`` label from ``curvature.flat``, the decomposition
    status and the H-type certificate ``cert`` (the README): asymptotically
    harmonic is H-type, and symmetric is |nabla R| = 0 in closed form."""
    if report["curvature"]["flat"]:
        return "Flat"
    if report["standard_decomposition"]["status"] != "ok":
        return "Indeterminate"
    if cert is None:
        return "NotAsymptoticallyHarmonic"
    return ("RankOneSymmetric" if curvature.damek_ricci_norms(cert)[1] == 0
            else "DamekRicciNonsymmetric")


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
    the algebra's shared H-type certificate or, without one, its shared
    flow operator: the rows (direction id, t, det)."""
    rng = np.random.default_rng(seed)
    rows = [jacobi_flow.volume_density(g, v / np.linalg.norm(v), t_arr, tols)
            for v in rng.standard_normal((directions, g.dim))]
    return np.column_stack([np.repeat(np.arange(directions), t_arr.size),
                            np.tile(t_arr, directions), np.concatenate(rows)])


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
    _deliver(functools.partial(_write_json, lie_metric.algebra_to_dict(g)),
             args.output)
    return 0


def cmd_analyze(args, tols: Tolerances) -> int:
    if args.density_csv:   # reject bad values before any work is done
        if args.seed < 0:
            raise _UsageError(f"--seed must be nonnegative, got {args.seed}")
        directions = _positive_count(args.density_directions,
                                     "--density-directions")
        times = _density_times(args.density_times)
    g = _load_algebra(args.algebra, tols)
    failures = []   # paper identities the report contradicts
    report = build_report(g, seed=args.seed, tols=tols, failures=failures)
    _deliver(functools.partial(_write_json, report), args.output)
    if args.density_csv:
        table = _density_table(g, args.seed, directions, times, tols)
        _deliver(functools.partial(_write_csv, "direction_id,t,det", table),
                 args.density_csv)
    for message in failures:
        sys.stderr.write(message + "\n")
    return 4 if failures else 0


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
    table = np.empty((count, 2 + n_factors))   # z, h, factors: one table
    table[:, 0] = np.linspace(args.z_min, args.z_max, count)
    factors = hypergeom.h_factors(mu_f, rho_star, pairs, table[:, 0],
                                  out=table[:, 2:])
    np.prod(factors, axis=-1, out=table[:, 1])
    _deliver(functools.partial(_write_csv, header, table), args.output)
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
    _deliver(functools.partial(_write_json, report), args.output)
    return 0


def cmd_riccati(args, tols: Tolerances) -> int:
    data = _load_json(args.matrix)
    raw = data.get("matrix", data) if isinstance(data, dict) else data
    try:
        mat = numerics.as_square(raw)
    except (TypeError, ValueError, DimensionError, NumericalError) as exc:
        raise _UsageError(
            f"malformed matrix file {args.matrix}: {exc}") from exc
    del data, raw   # the parsed lists, not kept through the solve
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
        "spectrum": res.spectrum_ad_a,
        "tolerances": _tolerances_dict(tols, "riccati"),
    }
    _deliver(functools.partial(_write_json, report), args.output)
    if abs(res.trace_l0 - formula) > TRACE_IDENTITY_REL * np.linalg.norm(mat):
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

    p = sub.add_parser("analyze", help="full geometric analysis report")
    p.add_argument("algebra")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.add_argument("--density-csv", default=None,
                   help="write per-direction volume densities to CSV")
    p.add_argument("--density-directions", type=int, default=16)
    p.add_argument("--density-times", default="0.5,1,2")
    _add_tolerance_flags(p, _COMMAND_TOLS["analyze"])

    p = sub.add_parser("scan-h", help="sample the rigidity function h(z)")
    p.add_argument("algebra")
    p.add_argument("--z-min", type=float, default=0.05)
    p.add_argument("--z-max", type=float, default=0.5)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--output", default=None)
    _add_tolerance_flags(p, _COMMAND_TOLS["scan-h"])

    p = sub.add_parser("classify", help="classify the factors of h")
    p.add_argument("algebra")
    p.add_argument("--output", default=None)
    _add_tolerance_flags(p, _COMMAND_TOLS["classify"])

    p = sub.add_parser("riccati", help="maximal Riccati solution of a matrix")
    p.add_argument("matrix")
    p.add_argument("--output", default=None)
    _add_tolerance_flags(p, _COMMAND_TOLS["riccati"])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call.  Parsing
    leaves no state on a parser, so one serves every call."""
    return make_parser()


def _out_of_memory(command: str, exc: MemoryError) -> str:
    """The exit-6 message: the subcommand and, for numpy's
    ``_ArrayMemoryError``, the array it could not allocate."""
    text = f"error: {command} ran out of memory"
    shape = getattr(exc, "shape", None)
    if shape is not None:
        size = math.prod(shape) * exc.dtype.itemsize / 2 ** 30
        text += (f": an array of shape {tuple(shape)} and type {exc.dtype} "
                 f"needs {size:.3g} GiB")
    return text + "\n"


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    tols = _collect_tolerances(args)
    # looked up on each call, so a wrapped or patched cmd_* is the one run
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        for path in (args.output, getattr(args, "density_csv", None)):
            if path:
                _check_writable(path)
        return handler(args, tols)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SolvharmError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(_out_of_memory(args.command, exc))
        return 6


if __name__ == "__main__":
    sys.exit(main())
