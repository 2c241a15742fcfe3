"""Seeded inputs, command lists and output checks of the four workloads.

:func:`build_inputs` is the benchmark's set-up: it builds the algebras
and matrices of one workload from the seed, lets ``solvharm`` check them
(the Jacobi identity is checked on construction), writes them as the
JSON files a user would pass to the CLI, and returns the manifest of
commands.  :func:`verify` checks one command's output; it never runs
inside a timed region.
"""

import json
import math
import os

import numpy as np

from solvharm import clifford_dr, lie_metric
from solvharm.config import DEFAULT_TOLS

WORKLOADS = ("analyze-small", "analyze-large", "density", "spectral-cli")

DENSITY_TIMES = (0.5, 1.0, 2.0)
DENSITY_DIRECTIONS = 32
RICCATI_SIZES = (64, 128, 192)
SCAN_H = ("--z-min", "0.01", "--z-max", "0.95", "--count", "2000")

# DR (l, copies) -> label; l = 1, 3, 7 give the rank-one symmetric spaces
DR_LABELS = {1: "RankOneSymmetric", 3: "RankOneSymmetric",
             7: "RankOneSymmetric", 2: "DamekRicciNonsymmetric",
             5: "DamekRicciNonsymmetric"}
LARGE_DR = (7, 2)


def dr_algebra(l, copies):
    return clifford_dr.build_damek_ricci(
        clifford_dr.clifford_generators(l, copies))


def fixture_algebra(rho, theta):
    """The ``perturbed-theta`` (rho = 1/2) and ``generic-pair`` fixtures
    of the test suite: standard data with one pair (rho, theta)."""
    return lie_metric.MetricLieAlgebra(4, (
        (0, 1, 1, rho), (0, 2, 2, 1.0 - rho), (0, 3, 3, 1.0),
        (1, 2, 3, theta),
    ))


FIXTURES = {"perturbed-theta": (0.5, 0.8), "generic-pair": (0.3, 0.8)}


def rotated(g, rng):
    """The algebra ``g`` in a Haar-random orthonormal basis."""
    q, r = np.linalg.qr(rng.standard_normal((g.dim, g.dim)))
    q = q * np.sign(np.diag(r))
    tensor = np.einsum("ia,jb,ijk,kc->abc", q, q, g.tensor, q, optimize=True)
    return lie_metric.MetricLieAlgebra.from_tensor(tensor)


def riccati_matrix(n, rng):
    """Dense matrix whose spectrum keeps |Re| >= 1e-3, far outside the
    imaginary-axis band of the Riccati solver."""
    while True:
        a = rng.standard_normal((n, n)) / math.sqrt(n)
        if np.abs(np.linalg.eigvals(a).real).min() >= 1e-3:
            return a


def unit_directions(dim, count, rng):
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class _Writer:
    def __init__(self, outdir):
        self.outdir = outdir

    def algebra(self, name, g):
        return self._json(name, lie_metric.algebra_to_dict(g))

    def matrix(self, name, a):
        return self._json(name, {"matrix": a.tolist()})

    def _json(self, name, value):
        path = os.path.join(self.outdir, name + ".json")
        with open(path, "w") as handle:
            json.dump(value, handle)
        return path

    def output(self, name):
        # one output directory per pass, so every pass can be checked
        return os.path.join(self.outdir, "out", "{pass}", name)


def _cli(name, argv, check, **expect):
    return {"name": name, "kind": "cli", "argv": argv, "check": check,
            "expect": expect}


def build_inputs(workload, seed, outdir):
    """Build and write one workload's inputs; return its manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    w = _Writer(outdir)
    commands = []

    if workload == "analyze-small":
        inputs = [(f"dr-{l}-1", dr_algebra(l, 1), DR_LABELS[l])
                  for l in (1, 2, 3, 5, 7)]
        inputs += [(name, fixture_algebra(*p), "NotAsymptoticallyHarmonic")
                   for name, p in FIXTURES.items()]
        for name, g, label in inputs:
            out = w.output(f"analyze-{name}.json")
            commands.append(_cli(
                f"analyze {name}",
                ["analyze", w.algebra(name, g), "--seed", str(seed),
                 "--output", out], "analyze", output=out, label=label))

    elif workload == "analyze-large":
        g = rotated(dr_algebra(*LARGE_DR), rng)
        out = w.output("analyze-rotated.json")
        commands.append(_cli(
            "analyze rotated-dr-7-2",
            ["analyze", w.algebra("rotated-dr-7-2", g), "--seed", str(seed),
             "--output", out], "analyze", output=out,
            label="DamekRicciNonsymmetric", reference=LARGE_DR))

    elif workload == "density":
        inputs = [(f"dr-{l}-{c}", dr_algebra(l, c), True)
                  for l, c in ((2, 1), (7, 1), (7, 2))]
        inputs.append(("perturbed-theta",
                       fixture_algebra(*FIXTURES["perturbed-theta"]), False))
        for name, g, harmonic in inputs:
            dirs = unit_directions(g.dim, DENSITY_DIRECTIONS, rng)
            commands.append({
                "name": f"density {name}", "kind": "density",
                "algebra": w.algebra(name, g), "directions": dirs.tolist(),
                "times": list(DENSITY_TIMES), "check": "density",
                "expect": {"harmonic": harmonic}})

    else:  # spectral-cli
        inputs = [(name, fixture_algebra(*p), False, None)
                  for name, p in FIXTURES.items()]
        inputs += [(f"dr-{l}-1", dr_algebra(l, 1), True, None)
                   for l in (2, 5)]
        inputs.append(("rotated-dr-7-2", rotated(dr_algebra(*LARGE_DR), rng),
                       True, LARGE_DR))
        for name, g, rigid, ref in inputs:
            path = w.algebra(name, g)
            out = w.output(f"classify-{name}.json")
            commands.append(_cli(
                f"classify {name}", ["classify", path, "--output", out],
                "classify", output=out, rigid=rigid, reference=ref))
            out = w.output(f"scan-h-{name}.csv")
            commands.append(_cli(
                f"scan-h {name}",
                ["scan-h", path, *SCAN_H, "--output", out], "scan-h",
                output=out, constant=rigid))
        for n in RICCATI_SIZES:
            path = w.matrix(f"riccati-{n}", riccati_matrix(n, rng))
            out = w.output(f"riccati-{n}.json")
            commands.append(_cli(
                f"riccati {n}", ["riccati", path, "--output", out],
                "riccati", output=out, matrix=path))

    manifest = {"workload": workload, "seed": seed, "commands": commands}
    with open(os.path.join(outdir, "manifest.json"), "w") as handle:
        json.dump(manifest, handle)
    return manifest


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def reference_spectra(refs):
    """Standard data of the canonical DR builds named in ``refs``."""
    return {tuple(key): lie_metric.standard_decomposition(dr_algebra(*key))
            for key in refs}


def _spectral(mu, rho_star, pairs):
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return (np.sort(np.asarray(mu, dtype=float)),
            np.sort(np.asarray(rho_star, dtype=float)),
            pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))])


def _same_spectra(a, b, tol=DEFAULT_TOLS.eigen_merge):
    return all(x.shape == y.shape and (x.size == 0
                                       or np.abs(x - y).max() <= tol)
               for x, y in zip(a, b))


def _trace_identity(trace_l0, formula):
    return (trace_l0 is not None
            and abs(trace_l0 - formula) <= 1e-8 * max(1.0, abs(formula)))


def _check_analyze(cmd, result, refs):
    with open(cmd["expect"]["output"]) as handle:
        rep = json.load(handle)
    expect = cmd["expect"]
    problems = []
    if rep["classification"] != expect["label"]:
        problems.append(f"label {rep['classification']}")
    mc = rep.get("mean_curvature", {})
    # report's "formula" is the mean curvature m = -trace L0
    if not _trace_identity(mc.get("riccati_trace_l0"), -mc.get("formula", 0)):
        problems.append("Riccati trace identity")
    if expect.get("reference"):
        sd = rep["standard_decomposition"]
        got = _spectral(sd["mu"], sd["rho_star"], sd["pairs"])
        ref = refs[tuple(expect["reference"])]
        if not _same_spectra(got, _spectral(ref.mu, ref.rho_star, ref.pairs)):
            problems.append("spectral data differ from the canonical basis")
    return problems, rep.get("warnings", [])


def _check_classify(cmd, result, refs):
    with open(cmd["expect"]["output"]) as handle:
        rep = json.load(handle)
    expect = cmd["expect"]
    problems = []
    if rep["is_rigid"] != expect["rigid"]:
        problems.append(f"is_rigid {rep['is_rigid']}")
    if expect.get("reference"):
        facs = rep["factors"]
        got = _spectral([f["mu"] for f in facs if f["kind"] == "center"],
                        [f["rho_star"] for f in facs if f["kind"] == "kernel"],
                        [(f["rho"], f["theta"]) for f in facs
                         if f["kind"] == "pair"])
        # classify reports the factors of the central frame, which leave
        # out one top center eigenvalue
        ref = refs[tuple(expect["reference"])]
        if not _same_spectra(got, _spectral(*ref.frame_factor_data())):
            problems.append("factor data differ from the canonical basis")
    return problems, []


def _check_scan_h(cmd, result, refs):
    table = np.loadtxt(cmd["expect"]["output"], delimiter=",", skiprows=1,
                       ndmin=2)
    h, factors = table[:, 1], table[:, 2:]
    problems = []
    if table.shape[0] != int(SCAN_H[-1]) or not np.all(np.isfinite(table)):
        problems.append("scan-h table shape or values")
    elif np.abs(np.prod(factors, axis=1) - h).max() > 1e-12 * np.abs(h).max():
        problems.append("h differs from the product of its factors")
    elif cmd["expect"]["constant"]:
        drift = (h.max() - h.min()) / max(np.abs(h).max(), 1e-30)
        if drift > DEFAULT_TOLS.h_constancy:
            problems.append(f"h drifts by {drift:.3e} on a DR algebra")
    return problems, []


def _check_riccati(cmd, result, refs):
    with open(cmd["expect"]["output"]) as handle:
        rep = json.load(handle)
    with open(cmd["expect"]["matrix"]) as handle:
        a = np.asarray(json.load(handle)["matrix"])
    x = np.asarray(rep["x"])
    problems = []
    if not _trace_identity(rep["trace_l0"], rep["formula_trace"]):
        problems.append("Riccati trace identity")
    resid = np.linalg.norm(x @ x + x @ a + a.T @ x)
    if resid > DEFAULT_TOLS.riccati_residual * max(1.0,
                                                   np.linalg.norm(a) ** 2):
        problems.append(f"Riccati residual {resid:.3e}")
    return problems, []


def _check_density(cmd, rows, refs):
    if not np.all(np.isfinite(rows)) or rows.min() <= 0:
        return ["density not positive and finite"], []
    spread = float(((rows.max(0) - rows.min(0)) / np.abs(rows.mean(0))).max())
    # acceptance criterion 7: harmonic spaces are direction independent
    if cmd["expect"]["harmonic"] and spread > 1e-5:
        return [f"DR direction spread {spread:.3e} > 1e-5"], []
    if not cmd["expect"]["harmonic"] and spread <= 1e-3:
        return [f"perturbed direction spread {spread:.3e} <= 1e-3"], []
    return [], []


_CHECKS = {"analyze": _check_analyze, "classify": _check_classify,
           "scan-h": _check_scan_h, "riccati": _check_riccati,
           "density": _check_density}


def bind(cmd, pass_id):
    """``cmd`` with its output paths pointing into the pass's directory."""
    def sub(value):
        return value.replace("{pass}", pass_id) if isinstance(value, str) \
            else value
    bound = dict(cmd, expect={k: sub(v) for k, v in cmd["expect"].items()})
    if "argv" in cmd:
        bound["argv"] = [sub(a) for a in cmd["argv"]]
    return bound


def verify(cmd, result, refs):
    """(problems, warnings) for one finished command.

    ``result`` is the exit code of a CLI command or the densities of a
    density command; ``refs`` holds :func:`reference_spectra`.
    """
    if cmd["kind"] == "cli" and result != 0:
        return [f"exit code {result}"], []
    return _CHECKS[cmd["check"]](cmd, result, refs)
