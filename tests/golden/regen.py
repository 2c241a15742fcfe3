"""Golden outputs of the CLI: the inputs, and the bytes, stderr and exit
code of every command run on them.

``python tests/golden/regen.py`` rewrites ``inputs/``, ``expected/`` and
``cases.json`` from the current code, and prints each file whose bytes
changed: how many of its numbers moved, and the largest move of one,
|new - old| / max(|old|, |new|, 1), so a number that is roundoff itself
(a residual of 1e-15 moving to 2e-15) reads as the roundoff move it is.
A change that moves any of these files says which field moved, and why.
``python tests/golden/regen.py --run`` runs every case through
``cli.main`` in this one process and prints the results as JSON;
``tests/test_golden.py`` compares them with the committed files.  Both
run the cases in a child process with one BLAS / OpenMP / MKL thread
(:func:`run_isolated`); the test runs every analyze case once more
with two threads, and requires the same bytes.

The bytes depend on the numeric stack: they were made with numpy
2.4.6, scipy 1.17.1 and OpenBLAS's SkylakeX kernels
(``OPENBLAS_CORETYPE=SkylakeX``, as the CI workflow sets it).  Other
kernels, e.g. Haswell or Zen, move bits of the outputs, so regenerate
and compare on that stack.

The algebras are written by ``build`` or by ``algebra_to_dict``, so no
run rebuilds them with Haar draws.  Paths are relative to this
directory, which is the working directory of the run, and a density
sidecar goes to a temporary file, so no absolute path reaches a golden
byte.
"""

import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"
MANIFEST = HERE / "cases.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CSV = "{csv}"   # the argv slot of a density sidecar's temporary path
NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")

# algebra name -> the build argv, for the inputs ``build`` writes; each
# is also a ``build`` case
BUILT = {
    "flat-3": ["flat", "--dim", "3"],
    "rh-4": ["real-hyperbolic", "--dim", "4"],
    "heisenberg-3": ["heisenberg", "--l", "1", "--copies", "1"],
    "dr-1-1": ["damek-ricci", "--l", "1", "--copies", "1"],
    "dr-2-1": ["damek-ricci", "--l", "2", "--copies", "1"],
    "dr-3-1": ["damek-ricci", "--l", "3", "--copies", "1"],
    "dr-3-2": ["damek-ricci", "--l", "3", "--copies", "2"],
    "dr-7-2": ["damek-ricci", "--l", "7", "--copies", "2"],
}
# more ``build`` cases, not analyzed; l = 8 takes the eight-map branch of
# the generator table, l > 8 the mod-8 periodicity path
BUILD_ONLY = {
    "dr-8-1": ["damek-ricci", "--l", "8"],
    "dr-9-1": ["damek-ricci", "--l", "9"],
    "heisenberg-3-2": ["heisenberg", "--l", "3", "--copies", "2"],
}
# inputs ``build`` writes that are analyzed only: the Jacobi check at load
# takes 0.7 s of RH^88's 0.9 s analyze
LARGE = {"rh-88": ["real-hyperbolic", "--dim", "88"]}
# every algebra, and so every analyze, classify and scan-h case
ALGEBRAS = (*BUILT, "mixed-3-1-1", "mixed-3-2-0", "dr-2-1-haar",
            "dr-7-2-haar", "dr-2-1-scaled-1e-30", "dr-2-1-scaled-1e30",
            "near-dr-2-1-1e-13", "near-dr-2-1-1e-12", "near-dr-7-2-1e-6",
            "perturbed-theta", "generic-pair", "h2-x-h2", "dr-2-1-skew-ad-h")
# the malformed algebra files, one for each reason to exit 2: name -> text
MALFORMED = {
    "malformed": '{"dim": 3, "structure_constants": [[0, 1, 2.5, 1.0]]}',
    "malformed-index-range":
        '{"dim": 3, "structure_constants": [[0, 1, 3, 1.0]]}',
    "malformed-inf-coefficient":
        '{"dim": 3, "structure_constants": [[0, 1, 2, 1e999]]}',
    "malformed-short-row": '{"dim": 3, "structure_constants": [[0, 1, 2]]}',
    "malformed-float-dim":
        '{"dim": 3.0, "structure_constants": [[0, 1, 2, 1.0]]}',
    "malformed-truncated": '{"dim": 3, "structure_constants": [[0, 1, 2,',
}
# the large inputs, a scale past ``config.SCALE_WINDOW`` (exit 1) and the
# malformed files: analyze only
ANALYZE_ONLY = (*LARGE, "dr-2-1-scaled-1e50", *MALFORMED)
MATRICES = {"riccati-ok": [[1.0, 2.0, 0.0], [0.0, -1.5, 1.0],
                           [0.0, 0.0, -0.5]],
            "riccati-degenerate": [[1e-08]]}   # exit 5
# the density sidecar on one certified and two uncertified inputs
DENSITY = ("dr-2-1", "perturbed-theta", "near-dr-7-2-1e-6")


def cases() -> dict:
    """Case name -> argv, paths relative to this directory."""
    out = {f"build-{name}": ["build", *argv]
           for name, argv in {**BUILT, **BUILD_ONLY}.items()}
    for name in ALGEBRAS:
        path = f"inputs/{name}.json"
        out[f"analyze-{name}"] = ["analyze", path]
        out[f"classify-{name}"] = ["classify", path]
        out[f"scan-h-{name}"] = ["scan-h", path, "--count", "12"]
    for name in ANALYZE_ONLY:
        out[f"analyze-{name}"] = ["analyze", f"inputs/{name}.json"]
    for name in DENSITY:
        out[f"density-{name}"] = ["analyze", f"inputs/{name}.json",
                                  "--density-csv", CSV,
                                  "--density-directions", "3", "--seed", "7"]
    for name in MATRICES:
        out[name] = ["riccati", f"inputs/{name}.json"]
    return out


def run_cases(names=()) -> dict:
    """Case name -> {"argv", "exit", "stdout", "stderr", "csv"}, each case
    of ``names`` (every case if empty) through ``cli.main`` in this
    process, from this directory."""
    from solvharm import cli

    os.chdir(HERE)
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        sidecar = os.path.join(tmp, "density.csv")
        for name, argv in cases().items():
            if names and name not in names:
                continue
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main([sidecar if a == CSV else a for a in argv])
            csv = None
            if CSV in argv:
                with open(sidecar) as handle:
                    csv = handle.read()
                os.unlink(sidecar)
            results[name] = {"argv": argv, "exit": code,
                             "stdout": out.getvalue(),
                             "stderr": err.getvalue(), "csv": csv}
    return results


def run_isolated(threads: int = 1, names=()) -> dict:
    """:func:`run_cases` of ``names`` in a child process with ``threads``
    BLAS threads."""
    src = str(HERE.parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "regen.py"), "--run", *names],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path,
                 **{var: str(threads) for var in THREAD_VARS}))
    return json.loads(proc.stdout)


def expected_files(name: str) -> dict:
    """The golden file of each captured stream of case ``name``."""
    return {stream: EXPECTED / f"{name}.{stream}"
            for stream in ("stdout", "stderr", "csv")}


def _write_inputs():
    # the package, as the child of run_isolated sees it, and the oracles
    sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]
    from conftest import _haar_rotate
    from oracles import (add_to_ad_h, damek_ricci_scaled_j,
                         mixed_damek_ricci,
                         skew_derivations_commuting_with_ad_h)

    from solvharm import cli, lie_metric

    INPUTS.mkdir(exist_ok=True)
    for name, argv in {**BUILT, **LARGE}.items():
        path = str(INPUTS / f"{name}.json")
        if cli.main(["build", *argv, "--output", path]):
            raise SystemExit(f"build {name} failed")
    dr21 = damek_ricci_scaled_j(2, 1, 1.0)
    derived = {
        "mixed-3-1-1": mixed_damek_ricci(3, 1, 1),
        "mixed-3-2-0": mixed_damek_ricci(3, 2, 0),
        "dr-2-1-haar": _haar_rotate(dr21, 5),
        "dr-7-2-haar": _haar_rotate(damek_ricci_scaled_j(7, 2, 1.0), 7),
        "dr-2-1-scaled-1e-30": dr21.rescaled(1e-30),
        "dr-2-1-scaled-1e30": dr21.rescaled(1e30),
        "dr-2-1-scaled-1e50": dr21.rescaled(1e50),
        "near-dr-2-1-1e-13": damek_ricci_scaled_j(2, 1, 1.0 + 1e-13),
        "near-dr-2-1-1e-12": damek_ricci_scaled_j(2, 1, 1.0 + 1e-12),
        "near-dr-7-2-1e-6": damek_ricci_scaled_j(7, 2, 1.0 + 1e-6),
        "perturbed-theta": lie_metric.MetricLieAlgebra(4, (
            (0, 1, 1, 0.5), (0, 2, 2, 0.5), (0, 3, 3, 1.0), (1, 2, 3, 0.8))),
        "generic-pair": lie_metric.MetricLieAlgebra(4, (
            (0, 1, 1, 0.3), (0, 2, 2, 0.7), (0, 3, 3, 1.0), (1, 2, 3, 0.8))),
        "h2-x-h2": lie_metric.MetricLieAlgebra(4, (
            (0, 1, 1, 1.0), (2, 3, 3, 1.0))),
        # DR (2,1) plus 0.3 times a skew derivation commuting with ad_H:
        # ad_H normal, not self-adjoint, isometric to its DR twin
        "dr-2-1-skew-ad-h": add_to_ad_h(
            dr21, 0.3 * skew_derivations_commuting_with_ad_h(dr21)[0]),
    }
    for name, g in derived.items():
        (INPUTS / f"{name}.json").write_text(
            json.dumps(lie_metric.algebra_to_dict(g)) + "\n")
    for name, text in MALFORMED.items():
        (INPUTS / f"{name}.json").write_text(text + "\n")
    for name, matrix in MATRICES.items():
        (INPUTS / f"{name}.json").write_text(
            json.dumps({"matrix": matrix}) + "\n")


def _snapshot() -> dict:
    """Path -> bytes of every golden file."""
    files = [MANIFEST, *(p for d in (INPUTS, EXPECTED) if d.exists()
                         for p in d.iterdir())]
    return {p: p.read_bytes() for p in files if p.exists()}


def _moves(old: str, new: str) -> str:
    """How the numbers of ``old`` moved in ``new``: how many changed and
    the largest |new - old| / max(|old|, |new|, 1), or "text changed"
    when more than the numbers did."""
    old_parts, new_parts = NUMBER.split(old), NUMBER.split(new)
    if old_parts[::2] != new_parts[::2]:
        return "text changed"
    pairs = [(float(a), float(b))
             for a, b in zip(old_parts[1::2], new_parts[1::2]) if a != b]
    largest = max((abs(b - a) / max(abs(a), abs(b), 1.0)
                   for a, b in pairs), default=0.0)
    return f"{len(pairs)} values changed, largest move {largest:.3g}"


def _print_moves(before: dict):
    """One line for each golden file whose bytes differ from ``before``."""
    after = _snapshot()
    for path in sorted(before.keys() | after.keys()):
        old, new = before.get(path), after.get(path)
        if old == new:
            continue
        what = ("new" if old is None else "removed" if new is None
                else _moves(old.decode(), new.decode()))
        print(f"{path.relative_to(HERE)}: {what}")


def regenerate():
    """Rewrite the inputs, then every expected stream and the manifest,
    and print how each file that changed moved."""
    before = _snapshot()
    _write_inputs()
    results = run_isolated()
    EXPECTED.mkdir(exist_ok=True)
    for stale in EXPECTED.iterdir():
        stale.unlink()
    manifest = {}
    for name, result in results.items():
        manifest[name] = {"argv": result["argv"], "exit": result["exit"]}
        for stream, path in expected_files(name).items():
            if result[stream]:
                path.write_text(result[stream], newline="")
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    _print_moves(before)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        json.dump(run_cases(sys.argv[2:]), sys.stdout)
    else:
        regenerate()
