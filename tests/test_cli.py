import argparse
import dataclasses
import json
import os
import pathlib
import re
import stat
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from oracles import (add_to_ad_h, damek_ricci_scaled_j, g17,
                     render_json_scalar)
import solvharm
from solvharm import (cli, curvature, hypergeom, jacobi_flow, lie_metric,
                      numerics)
from solvharm.cli import build_report, main
from solvharm.clifford_dr import (build_damek_ricci, build_real_hyperbolic,
                                  clifford_generators)
from solvharm.lie_metric import standard_decomposition
from solvharm.jacobi_flow import volume_density
from solvharm.lie_metric import algebra_to_dict


def _child_env():
    # the child imports the same solvharm as the tests, also when only
    # pytest's ``pythonpath`` setting put it on sys.path
    src = os.path.dirname(os.path.dirname(solvharm.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _run(argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "solvharm.cli", *argv],
        capture_output=True, text=True, env=_child_env(), **kwargs
    )


def test_package_and_numpy_only_path_load_no_scipy():
    # building and checking an algebra needs numpy alone, and so do both
    # curvature paths: the dense stages, and the H-type certificate with
    # its closed forms; scipy loads with the first module that computes
    # with it
    script = "\n".join([
        "import sys",
        "import solvharm",
        "from solvharm import clifford_dr, curvature, lie_metric",
        "cm = clifford_dr.clifford_generators(2)",
        "g = clifford_dr.build_damek_ricci(cm)",
        "curvature.einstein_check(g)",
        "curvature.nabla_R_norm(g)",
        "cert = curvature.h_type_certificate(",
        "    g, lie_metric.standard_decomposition(g))",
        "assert cert is not None",
        "curvature.damek_ricci_norms(cert)",
        "lie_metric.algebra_to_dict(g)",
        "print(sorted(m for m in sys.modules",
        "             if m == 'scipy' or m.startswith('scipy.')))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_child_env(), check=True)
    assert proc.stdout.strip() == "[]"


def test_build_writes_deterministic_json(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["build", "damek-ricci", "--l", "1", "--copies", "1",
                 "--output", str(out1)]) == 0
    assert main(["build", "damek-ricci", "--l", "1", "--copies", "1",
                 "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["dim"] == 4
    assert all(i < j for i, j, _, _ in data["structure_constants"])


@pytest.mark.parametrize("argv, flag", [
    (["damek-ricci", "--l", "0"], "--l"),
    (["damek-ricci", "--l", "-1"], "--l"),
    (["damek-ricci", "--copies", "0"], "--copies"),
    (["heisenberg", "--l", "0"], "--l"),
])
def test_build_nonpositive_count_is_usage_error(argv, flag, tmp_path,
                                                monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("the Clifford module was built")

    monkeypatch.setattr(cli.clifford_dr, "clifford_generators", no_work)
    out = tmp_path / "alg.json"
    assert main(["build", *argv, "--output", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["flat", "--dim", "0"],
    ["flat", "--dim", "-2"],
    ["real-hyperbolic", "--dim", "1"],
])
def test_build_small_dim_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("the algebra was built")

    monkeypatch.setattr(cli.clifford_dr, "build_flat", no_work)
    monkeypatch.setattr(cli.clifford_dr, "build_real_hyperbolic", no_work)
    out = tmp_path / "alg.json"
    assert main(["build", *argv, "--output", str(out)]) == 2
    assert "--dim" in capsys.readouterr().err
    assert not out.exists()


def test_build_flat(tmp_path):
    out = tmp_path / "flat.json"
    assert main(["build", "flat", "--dim", "3", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data == {"dim": 3, "structure_constants": []}


def test_analyze_deterministic(tmp_path):
    alg = tmp_path / "dr.json"
    main(["build", "damek-ricci", "--l", "1", "--output", str(alg)])
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["analyze", str(alg), "--seed", "3",
                 "--output", str(r1)]) == 0
    assert main(["analyze", str(alg), "--seed", "3",
                 "--output", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_text())
    assert report["classification"] == "RankOneSymmetric"
    assert report["seed"] == 3
    assert "tolerances" in report


def test_analyze_malformed_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["analyze", str(missing)]) == 2


@pytest.mark.parametrize("row", [
    "[0, 5, 1, 1.0]", "[0, 1.5, 1, 1.0]", "[0, null, 1, 1.0]",
    "[0, NaN, 1, 1.0]", "[0, Infinity, 1, 1.0]", "[0, 1, 2]",
    "[0, 1, 2, 1.0, 0.0]", "[0, 1, 2, 1.0], [0, 1]",
], ids=["out-of-range", "non-integer", "null", "nan", "inf", "three-entries",
        "five-entries", "ragged"])
def test_malformed_indices_exit_2(row, tmp_path, capsys):
    alg = tmp_path / "bad.json"
    alg.write_text('{"dim": 3, "structure_constants": [' + row + ']}')
    out = tmp_path / "out.json"
    assert main(["analyze", str(alg), "--output", str(out)]) == 2
    assert "malformed algebra file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dim", ["3.9", "true", '"3"', "3.0"],
                         ids=["fraction", "bool", "string", "float"])
def test_non_integer_dim_exit_2(dim, tmp_path, capsys):
    # int() used to read 3.9 as 3 and true as 1
    alg = tmp_path / "bad.json"
    alg.write_text('{"dim": ' + dim + ', "structure_constants": []}')
    out = tmp_path / "out.json"
    assert main(["classify", str(alg), "--output", str(out)]) == 2
    assert "malformed algebra file" in capsys.readouterr().err
    assert not out.exists()


def test_integer_dim_still_loads(tmp_path):
    alg = tmp_path / "hyperbolic.json"
    alg.write_text('{"dim": 3, "structure_constants": '
                   '[[0, 1, 1, 1.0], [0, 2, 2, 1.0]]}')
    out = tmp_path / "out.json"
    assert main(["classify", str(alg), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["is_rigid"] is True


def test_analyze_perturbed_label(tmp_path):
    from solvharm.lie_metric import MetricLieAlgebra
    g = MetricLieAlgebra(4, ((0, 1, 1, 0.5), (0, 2, 2, 0.5),
                             (0, 3, 3, 1.0), (1, 2, 3, 0.8)))
    alg = tmp_path / "perturbed.json"
    alg.write_text(json.dumps(algebra_to_dict(g)))
    out = tmp_path / "rep.json"
    assert main(["analyze", str(alg), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["classification"] == "NotAsymptoticallyHarmonic"
    assert report["h_scan"]["constant"] is False


def _analyze(tmp_path, g, *flags):
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(algebra_to_dict(g)))
    out = tmp_path / "rep.json"
    assert main(["analyze", str(alg), *flags, "--output", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("w", [0.3, 1.0])
def test_analyze_normal_ad_h_is_rank_one_symmetric(w, tmp_path, dr_algebras):
    # DR (1,1) with w times the rotation of the X-Y plane added to ad_H:
    # a normal ad_H, isometric to complex hyperbolic space
    k = np.zeros((4, 4))
    k[2, 1], k[1, 2] = w, -w
    g = add_to_ad_h(dr_algebras[(1, 1)], k)
    report = _analyze(tmp_path, g)
    assert report["standard_decomposition"]["status"] == "ok"
    assert report["classification"] == "RankOneSymmetric"
    assert abs(report["einstein"]["constant"] + 1.5) <= 1e-12


def test_analyze_generic_pair_stable_tensor(tmp_path, generic_pair_algebra):
    # rho = 0.3 decays too slowly for finite horizons; the closed form
    # still gives the numeric mean curvature
    report = _analyze(tmp_path, generic_pair_algebra)
    assert "warnings" not in report
    assert report["mean_curvature"]["numeric"] is not None
    assert report["classification"] == "NotAsymptoticallyHarmonic"


def test_analyze_reads_trace_l0_without_the_riccati_solver(
        tmp_path, monkeypatch, dr_algebras, generic_pair_algebra,
        perturbed_theta_algebra, haar_rotate):
    # every ad_H eigenvalue is positive, so sum |Re sigma| is trace ad_H,
    # X = 0 and trace L0 is -trace ad_H: the report writes the spectral
    # data's trace three times.  The solver gives the same value bit for
    # bit on the canonical builds and the fixtures; in a Haar-random basis
    # its Schur form rounds differently
    rotated = haar_rotate(build_damek_ricci(clifford_generators(7, 2)), 3)
    algebras = [*dr_algebras.values(), generic_pair_algebra,
                perturbed_theta_algebra, build_real_hyperbolic(5), rotated]
    solve = cli.riccati.solve_algebraic_riccati_max
    expected = [solve(standard_decomposition(g).ad_h()).trace_l0
                for g in algebras]

    def no_solve(*args, **kwargs):
        raise AssertionError("analyze ran the Riccati solver")

    monkeypatch.setattr(cli.riccati, "solve_algebraic_riccati_max", no_solve)
    for g, want in zip(algebras, expected):
        report = _analyze(tmp_path, g)
        mc = report["mean_curvature"]
        trace = report["standard_decomposition"]["trace_ad_h"]
        assert mc["formula"] == trace == -mc["riccati_trace_l0"]
        if g is rotated:
            assert abs(mc["riccati_trace_l0"] - want) <= 1e-14 * abs(want)
        else:
            assert mc["riccati_trace_l0"] == want


def test_analyze_builds_no_central_frame(tmp_path, monkeypatch, capsys):
    # the stable tensor reads the spectral data alone: with the frame
    # split refused, analyze writes the same report
    alg = tmp_path / "dr.json"
    main(["build", "damek-ricci", "--l", "2", "--output", str(alg)])
    capsys.readouterr()
    assert main(["analyze", str(alg)]) == 0
    want = capsys.readouterr()

    def refuse(d):
        raise AssertionError("analyze split the central frame")

    monkeypatch.setattr(jacobi_flow, "central_frame_split", refuse)
    assert main(["analyze", str(alg)]) == 0
    got = capsys.readouterr()
    assert (got.out, got.err) == (want.out, want.err)
    assert '"Damek' in got.out


def test_analyze_damek_ricci_closed_forms(tmp_path, dr_algebras):
    # with m = dim v and k = dim z, a Damek-Ricci space normalized to
    # top ad_H eigenvalue 1 has trace ad_H = m/2 + k and Einstein
    # constant -(m + 4k)/4; the trace is exact on the builds
    for (l, _), g in dr_algebras.items():
        m, k = g.dim - 1 - l, l
        report = _analyze(tmp_path, g)
        mc = report["mean_curvature"]
        assert report["standard_decomposition"]["trace_ad_h"] == m / 2 + k
        assert mc["formula"] == m / 2 + k
        assert mc["riccati_trace_l0"] == -(m / 2 + k)
        c = report["einstein"]["constant"]
        assert abs(c + (m + 4 * k) / 4) <= 1e-12 * (m + 4 * k) / 4


@pytest.mark.parametrize("command", ["analyze", "classify", "scan-h"])
def test_each_command_checks_the_jacobi_identity_once(
        command, tmp_path, monkeypatch, capsys, haar_rotate, dr_algebras):
    # the loaded algebra is checked once; the standard decomposition
    # builds no algebra, and analyze reads trace ad_H off the spectral
    # data, so its one eigenvalue solve is the growth type's
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(algebra_to_dict(
        haar_rotate(dr_algebras[(2, 1)], 5))))
    calls = Counter()

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lie_metric.MetricLieAlgebra, "jacobi_residual",
                        counting("jacobi_residual",
                                 lie_metric.MetricLieAlgebra.jacobi_residual))
    from_tensor = lie_metric.MetricLieAlgebra.__dict__["from_tensor"].__func__
    monkeypatch.setattr(lie_metric.MetricLieAlgebra, "from_tensor",
                        classmethod(counting("from_tensor", from_tensor)))
    eigenvalues = numerics.eigenvalues
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "solvharm" and module is not None:
            for key, value in list(vars(module).items()):
                if value is eigenvalues:
                    monkeypatch.setattr(module, key,
                                        counting("eigenvalues", eigenvalues))
    assert main([command, str(alg)]) == 0
    capsys.readouterr()
    assert calls["jacobi_residual"] == 1
    assert calls["from_tensor"] == 0
    if command == "analyze":
        assert calls["eigenvalues"] == 1


def test_analyze_trace_l0_inside_the_riccati_band(tmp_path):
    # an ad_H eigenvalue in (axis_band, separation_band) stops the
    # riccati command, but not the closed form that analyze reads
    g = lie_metric.algebra_from_dict(
        {"dim": 3, "structure_constants": [[0, 1, 1, 5e-8], [0, 2, 2, 1.0]]})
    report = _analyze(tmp_path, g)
    assert "warnings" not in report
    trace = float(np.trace(standard_decomposition(g).ad_h()))
    assert report["mean_curvature"]["riccati_trace_l0"] == -trace


def test_tol_bvp_converged_reaches_pair_guard(tmp_path):
    from solvharm.lie_metric import MetricLieAlgebra
    g = MetricLieAlgebra(4, ((0, 1, 1, 0.5), (0, 2, 2, 0.5),
                             (0, 3, 3, 1.0), (1, 2, 3, 1e-6)))
    report = _analyze(tmp_path, g)
    assert len(report["warnings"]) == 1
    assert report["warnings"][0].startswith("mean-curvature:")
    assert "ill conditioned" in report["warnings"][0]
    assert report["mean_curvature"]["numeric"] is None
    loose = _analyze(tmp_path, g, "--tol-bvp-converged", "1e-6")
    assert "warnings" not in loose
    assert loose["mean_curvature"]["numeric"] is not None
    assert loose["tolerances"]["bvp_converged"] == 1e-6
    assert loose["classification"] == report["classification"]


@pytest.mark.parametrize("name", ["perturbed-theta", "generic-pair",
                                  "dr-2-1"])
def test_label_ignores_witness_tolerances(name, tmp_path, dr_algebras,
                                          perturbed_theta_algebra,
                                          generic_pair_algebra):
    # the label reads flat, standard, rigid, Einstein and symmetric; the
    # h-scan and the mean curvature are witnesses, and no label reads them
    g = {"perturbed-theta": perturbed_theta_algebra,
         "generic-pair": generic_pair_algebra,
         "dr-2-1": dr_algebras[(2, 1)]}[name]
    loose = _analyze(tmp_path, g, "--tol-h-constancy", "1",
                     "--tol-mean-constancy", "1")
    assert loose["classification"] == _analyze(tmp_path, g)["classification"]


@pytest.mark.parametrize("flag, block, key", [
    ("--tol-h-constancy", "h_scan", "relative_drift"),
    ("--tol-mean-constancy", "mean_curvature", "max_deviation")])
def test_witness_tolerance_reaches_rigidity_check(flag, block, key, tmp_path,
                                                  capsys):
    # pair (1/2, 1 + 1e-11) is rigid within classifier_zero, and its h
    # drifts by 4e-12: below that bound the witness contradicts the
    # verdict, and analyze exits 4 once every output is written
    from solvharm.lie_metric import MetricLieAlgebra
    g = MetricLieAlgebra(4, ((0, 1, 1, 0.5), (0, 2, 2, 0.5),
                             (0, 3, 3, 1.0), (1, 2, 3, 1.0 + 1e-11)))
    report = _analyze(tmp_path, g)
    value = report[block][key]
    assert report["rigidity"]["is_rigid"] is True and value > 0.0
    bound = value / 2.0
    out, csv = tmp_path / "witnessed.json", tmp_path / "d.csv"
    capsys.readouterr()
    assert main(["analyze", str(tmp_path / "alg.json"), flag, repr(bound),
                 "--density-csv", str(csv), "--density-directions", "1",
                 "--output", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"{block}.{key} = {value!r}" in err and repr(bound) in err
    witnessed = json.loads(out.read_text())
    assert witnessed[block][key] == value
    assert witnessed["classification"] == report["classification"]
    assert csv.read_text().startswith("direction_id,t,det\n")
    # the library reports the same contradiction, without the CLI
    tols = solvharm.DEFAULT_TOLS.with_overrides(
        **{flag[len("--tol-"):].replace("-", "_"): bound})
    failures = []
    build_report(g, tols=tols, failures=failures)
    assert failures == err.splitlines()


def test_analyze_flat_motion_group(tmp_path):
    # non-abelian presentation of a flat space: [H, X] = Y, [H, Y] = -X
    from solvharm.lie_metric import MetricLieAlgebra
    g = MetricLieAlgebra(3, ((0, 1, 2, 1.0), (0, 2, 1, -1.0)))
    report = build_report(g)
    assert report["classification"] == "Flat"
    assert report["curvature"]["norm"] == 0.0
    assert report["growth"] == "subexponential"


def test_analyze_not_standard_is_indeterminate(tmp_path):
    alg = tmp_path / "heis.json"
    main(["build", "heisenberg", "--l", "1", "--output", str(alg)])
    out = tmp_path / "rep.json"
    assert main(["analyze", str(alg), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["classification"] == "Indeterminate"
    assert report["standard_decomposition"]["status"] == "not-standard"


def test_analyze_density_sidecar(tmp_path):
    alg = tmp_path / "dr.json"
    main(["build", "damek-ricci", "--l", "1", "--output", str(alg)])
    csv = tmp_path / "density.csv"
    res = _run(["analyze", str(alg), "--density-csv", str(csv),
                "--density-directions", "4", "--density-times", "0.5,1"])
    assert res.returncode == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "direction_id,t,det"
    assert len(lines) == 1 + 4 * 2
    dets = {}
    for line in lines[1:]:
        i, t, det = line.split(",")
        dets.setdefault(t, []).append(float(det))
    for values in dets.values():
        assert np.ptp(values) <= 1e-8 * max(values)
    # the rows are volume_density on the directions drawn from --seed 0
    g = build_damek_ricci(clifford_generators(1))
    times = np.array([0.5, 1.0])
    rng = np.random.default_rng(0)
    expected = []
    for i in range(4):
        v = rng.standard_normal(g.dim)
        for t, det in zip(times, volume_density(g, v / np.linalg.norm(v),
                                                times)):
            expected.append(f"{i},{g17(t)},{g17(det)}")
    assert lines[1:] == expected


def _count_density_work(monkeypatch):
    """Counts of standard decompositions, H-type certificates and DOP853
    integrations started from now on."""
    calls = Counter()
    for module, name in ((lie_metric, "standard_decomposition"),
                         (curvature, "h_type_certificate"),
                         (jacobi_flow, "DOP853")):
        def counting(*args, _name=name, _original=getattr(module, name),
                     **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return calls


def test_density_sidecar_shares_the_report_certificate(tmp_path,
                                                        monkeypatch):
    # the report and the 16 directions of the sidecar read one standard
    # decomposition and one certificate, and the certificate gives every
    # density in closed form
    alg, csv = tmp_path / "dr.json", tmp_path / "d.csv"
    main(["build", "damek-ricci", "--l", "2", "--output", str(alg)])
    calls = _count_density_work(monkeypatch)
    assert main(["analyze", str(alg), "--density-csv", str(csv),
                 "--output", str(tmp_path / "rep.json")]) == 0
    assert calls == {"standard_decomposition": 1, "h_type_certificate": 1}
    assert len(csv.read_text().splitlines()) == 1 + 16 * 3


def test_eigen_merge_flag_chooses_the_density_path(tmp_path, monkeypatch):
    # ad_H = 1/2 -+ 1e-8 on v is H-type only once --tol-eigen-merge merges
    # the two eigenvalues; the certificate then skips the integration
    d = 1e-8
    g = lie_metric.MetricLieAlgebra(4, ((0, 1, 1, 0.5 + d),
                                        (0, 2, 2, 0.5 - d),
                                        (0, 3, 3, 1.0), (1, 2, 3, 1.0)))
    alg, csv = tmp_path / "g.json", tmp_path / "d.csv"
    alg.write_text(json.dumps(algebra_to_dict(g)))
    started = {}
    for merge in (None, "1e-6"):
        calls = _count_density_work(monkeypatch)
        flag = ["--tol-eigen-merge", merge] if merge else []
        assert main(["analyze", str(alg), "--density-csv", str(csv),
                     "--density-directions", "2",
                     "--output", str(tmp_path / "rep.json"), *flag]) == 0
        started[merge] = calls["DOP853"]
    assert started == {None: 2, "1e-6": 0}


def test_density_csv_writes_zero_without_sign(tmp_path):
    alg = tmp_path / "dr.json"
    main(["build", "damek-ricci", "--l", "1", "--output", str(alg)])
    csv = tmp_path / "density.csv"
    assert main(["analyze", str(alg), "--density-csv", str(csv),
                 "--density-times", "0,0.5", "--density-directions", "2",
                 "--output", str(tmp_path / "rep.json")]) == 0
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert [det for _, t, det in rows if t == "0"] == ["0", "0"]


def test_scan_h_not_standard_exit_3(tmp_path):
    alg = tmp_path / "heis.json"
    main(["build", "heisenberg", "--l", "1", "--output", str(alg)])
    assert main(["scan-h", str(alg)]) == 3


def test_scan_h_csv(tmp_path, capsys):
    alg = tmp_path / "dr.json"
    main(["build", "damek-ricci", "--l", "1", "--output", str(alg)])
    out = tmp_path / "h.csv"
    assert main(["scan-h", str(alg), "--count", "10",
                 "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("z,h,factor_1")
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.abs(np.array(values) + 4.0).max() <= 1e-9


def test_scan_h_rows_match_scalar_writer(tmp_path, generic_pair_algebra):
    # z from -0.9 to 0.9 crosses 0; each row is one format call, each
    # value formatted on its own
    alg = tmp_path / "g.json"
    alg.write_text(cli._render_json(algebra_to_dict(generic_pair_algebra)))
    out = tmp_path / "h.csv"
    assert main(["scan-h", str(alg), "--z-min", "-0.9", "--z-max", "0.9",
                 "--count", "37", "--output", str(out)]) == 0
    mu_f, rho_star, pairs = standard_decomposition(
        generic_pair_algebra).frame_factor_data()
    z_values = np.linspace(-0.9, 0.9, 37)
    factors = hypergeom.h_factors(mu_f, rho_star, pairs, z_values)
    rows = [",".join(g17(x) for x in (z, h, *row)) for z, h, row
            in zip(z_values, np.prod(factors, axis=-1), factors)]
    assert out.read_text().splitlines()[1:] == rows


def _large_matrix():
    """A seeded 192 x 192 matrix, the size of the largest benchmark
    report, with signed zero, subnormals, the extreme finite values and
    a decimal that needs all 17 digits."""
    m = np.random.default_rng(11).standard_normal((192, 192))
    m *= 10.0 ** np.random.default_rng(12).integers(-300, 300, m.shape)
    m[0, :6] = [-0.0, 5e-324, 1e-310, 1.7976931348623157e308,
                -1.7976931348623157e308, 0.1]
    m[-1, -6:] = m[0, :6]
    return m


_ARRAYS = {
    "dense": np.random.default_rng(3).standard_normal((4, 5)),
    "large": _large_matrix(),
    "one_row": np.random.default_rng(4).standard_normal((1, 7)),
    "signed_zero": np.array([[-0.0, 0.0], [1.0, -2.5]]),
    "extremes": np.array([1e300, -1e-300, 5e-324, 1.7976931348623157e308]),
    "nonfinite": np.array([[1.0, np.nan], [np.inf, -np.inf]]),
    "zero_d": np.array(-0.0),
    "empty": np.zeros(0),
    "empty_rows": np.zeros((0, 3)),
    "empty_cols": np.zeros((3, 0)),
    "ints": np.arange(-3, 3).reshape(2, 3),
    "complex": np.array([1 + 2j, -0.0 - 1j]),
    "bools": np.array([True, False]),
    "float32": np.array([0.1, -0.0, 3.0], dtype=np.float32),
    "three_d": np.arange(24.0).reshape(2, 3, 4) / 7.0,
    "column": np.array([[-0.0], [1e-17]]),
}


@pytest.mark.parametrize("name", sorted(_ARRAYS))
def test_render_json_matches_scalar_writer(name):
    a = _ARRAYS[name]
    report = {"schema": "x", "array": a, "nested": {"inner": {"a": a},
                                                     "list": [a, -0.0, 1]},
              "scalars": (np.float64(-0.0), np.int64(7), 2.5j, None, "s")}
    for value in (report, a):
        got, want = cli._render_json(value), render_json_scalar(value)
        # compare lengths and the first difference: pytest's diff of the
        # megabyte a 192 x 192 report writes takes minutes
        i = len(os.path.commonprefix([got, want]))
        j = max(i - 40, 0)
        assert i == len(got) == len(want), (got[j: i + 40], want[j: i + 40])


def test_classify_reports_factors(tmp_path):
    alg = tmp_path / "dr.json"
    main(["build", "damek-ricci", "--l", "2", "--output", str(alg)])
    out = tmp_path / "cls.json"
    assert main(["classify", str(alg), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["is_rigid"] is True
    labels = {f["label"] for f in report["factors"]}
    assert labels <= {"constant", "polynomial"}


def test_riccati_report(tmp_path):
    mat = tmp_path / "m.json"
    mat.write_text('{"matrix": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 1.0]]}')
    out = tmp_path / "r.json"
    assert main(["riccati", str(mat), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert np.isclose(report["trace_l0"], -2.0)
    assert np.isclose(report["formula_trace"], -2.0)
    assert np.allclose(report["x"], 0.0)


def test_riccati_trace_check_is_relative(tmp_path, monkeypatch):
    # for entries ~1e6, trace L0 and the formula agree to ~1e-10 relative,
    # which is ~4e-4 in absolute terms
    mat = tmp_path / "m.json"
    m = np.random.default_rng(1).standard_normal((6, 6)) * 1e6
    mat.write_text(json.dumps({"matrix": m.tolist()}))
    out = tmp_path / "r.json"
    assert main(["riccati", str(mat), "--output", str(out)]) == 0
    # the formula is read off the solve's spectrum, so move trace L0
    solve = cli.riccati.solve_algebraic_riccati_max

    def off(a, tols):
        res = solve(a, tols)
        return dataclasses.replace(res, trace_l0=res.trace_l0 * (1.0 + 1e-5))

    monkeypatch.setattr(cli.riccati, "solve_algebraic_riccati_max", off)
    assert main(["riccati", str(mat), "--output", str(out)]) == 4


def test_riccati_trace_check_scales_with_the_matrix(tmp_path, capsys):
    # every eigenvalue of the scaled matrix lies under the absolute
    # axis band, so X = 0 and trace L0 = -trace D_A misses the formula;
    # a bound floored at 1 let that pass
    a = np.array([[1.0, 2.0, 0.0], [0.0, -1.5, 1.0], [0.0, 0.0, -0.5]])
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"matrix": a.tolist()}))
    assert main(["riccati", str(mat)]) == 0
    capsys.readouterr()
    mat.write_text(json.dumps({"matrix": (a * 1e-100).tolist()}))
    assert main(["riccati", str(mat)]) == 4
    assert "trace identity violated" in capsys.readouterr().err


def test_riccati_degenerate_exit_5(tmp_path):
    mat = tmp_path / "m.json"
    mat.write_text("[[1e-08]]")
    assert main(["riccati", str(mat)]) == 5


def test_riccati_wide_stable_spectrum(tmp_path):
    # X = diag(2e7, 4e-7) is exact; the pivots of Y spread by 1e14
    a = np.diag([-1e7, -2e-7])
    mat, out = tmp_path / "m.json", tmp_path / "r.json"
    mat.write_text(json.dumps({"matrix": a.tolist()}))
    assert main(["riccati", str(mat), "--output", str(out)]) == 0
    np.testing.assert_allclose(json.loads(out.read_text())["x"],
                               np.diag([2e7, 4e-7]), rtol=1e-12, atol=0.0)
    # exit 0 includes the trace identity
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((2, 2)))
    mat.write_text(json.dumps({"matrix": (q @ a @ q.T).tolist()}))
    assert main(["riccati", str(mat), "--output", str(out)]) == 0


def test_riccati_overflowing_residual_exit_1(tmp_path, capsys):
    # X = 2e160, so X^2 overflows and the residual is NaN
    mat, out = tmp_path / "m.json", tmp_path / "r.json"
    mat.write_text("[[-1e160]]")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["riccati", str(mat), "--output", str(out)]) == 1
    assert "Riccati residual nan" in capsys.readouterr().err
    assert not out.exists()


def test_riccati_failed_factorization_exit_5(tmp_path, monkeypatch, capsys):
    import scipy.linalg

    def not_positive(*args, **kwargs):
        raise np.linalg.LinAlgError("1-th leading minor not positive")

    monkeypatch.setattr(scipy.linalg, "cholesky", not_positive)
    mat = tmp_path / "m.json"
    mat.write_text("[[-1.0, 0.3], [0.0, 0.5]]")
    assert main(["riccati", str(mat)]) == 5
    assert "not positive definite" in capsys.readouterr().err


_ZERO_BANDS = ["--tol-axis-band", "0", "--tol-separation-band", "0"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("matrix, flags", [
    # eigenvalue sums -2 against a norm of 1e200
    ([[-1.0, 1e200], [0.0, -1.0]], []),
    # a stable eigenvalue below the underflow threshold, bands off
    ([[-1e-320]], _ZERO_BANDS),
], ids=["coupled", "subnormal"])
def test_riccati_singular_lyapunov_exit_5(matrix, flags, tmp_path, capsys):
    mat, out = tmp_path / "m.json", tmp_path / "r.json"
    mat.write_text(json.dumps({"matrix": matrix}))
    assert main(["riccati", str(mat), "--output", str(out), *flags]) == 5
    err = capsys.readouterr().err
    assert "eigenvalue sums of the stable block are within roundoff" in err
    assert "positive definite" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_riccati_overflowing_lyapunov_exit_1(tmp_path, capsys):
    # Y ~ 1e-261^2 / 1e-276^3 = 1e306: trsyl scales it down
    mat, out = tmp_path / "m.json", tmp_path / "r.json"
    mat.write_text('{"matrix": [[-1e-276, 1e-261], [0.0, -1e-276]]}')
    assert main(["riccati", str(mat), "--output", str(out),
                 *_ZERO_BANDS]) == 1
    assert "Lyapunov solution of the stable block overflows" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("text", ['{"matrix": [[1, 2, 3], [4, 5, 6]]}',
                                  "[1.0, 2.0]", "[]",
                                  '{"matrix": [[1.0, NaN], [0.0, 1.0]]}'],
                         ids=["2x3", "1-d", "empty", "nan"])
def test_riccati_malformed_matrix_exit_2(text, tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text(text)
    out = tmp_path / "r.json"
    assert main(["riccati", str(mat), "--output", str(out)]) == 2
    assert "malformed matrix file" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exit_2():
    res = _run(["build", "nonsense"])
    assert res.returncode == 2


def test_tolerance_flags_are_echoed(tmp_path):
    alg = tmp_path / "dr.json"
    main(["build", "damek-ricci", "--l", "1", "--output", str(alg)])
    out = tmp_path / "rep.json"
    assert main(["analyze", str(alg), "--tol-einstein-residual", "1e-6",
                 "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["tolerances"]["einstein_residual"] == 1e-6


def test_every_tolerance_is_read_by_a_check():
    # a field no check reads would be a --tol-* flag that changes nothing
    import dataclasses
    import pathlib
    import re

    import solvharm
    from solvharm.config import Tolerances
    package = pathlib.Path(solvharm.__file__).parent
    source = "\n".join(p.read_text() for p in sorted(package.glob("*.py"))
                       if p.name != "config.py")
    read = set(re.findall(r"\btols\.(\w+)", source))
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    assert fields - read == set()


def test_exported_function_parameters_are_read():
    # a parameter no body reads is a knob that changes nothing
    import ast
    import importlib
    import inspect
    import pkgutil
    import textwrap

    import solvharm
    unread = []
    for info in pkgutil.iter_modules(solvharm.__path__):
        module = importlib.import_module(f"solvharm.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not inspect.isfunction(obj):
                continue
            fn = ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0]
            args = fn.args
            params = [a.arg for a in (args.posonlyargs + args.args
                                      + args.kwonlyargs)]
            params += [a.arg for a in (args.vararg, args.kwarg) if a]
            loaded = {node.id for node in ast.walk(fn)
                      if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Load)}
            unread += [f"{info.name}.{name}({p})" for p in params
                       if p not in loaded]
    assert unread == []


def test_every_export_has_a_caller():
    # a public name that only tests reach is dead weight in the package:
    # the package itself, a demo or the benchmark's tracer must use it
    import ast
    import importlib
    import pathlib
    import pkgutil

    from test_tracer_targets import _tracer_module

    def used_names(tree):
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(tree)
                if (isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load))
                or isinstance(node, ast.Attribute)}

    def defines(node, name):
        if isinstance(node, ast.Assign):
            return any(isinstance(t, ast.Name) and t.id == name
                       for t in node.targets)
        return getattr(node, "name", None) == name

    tracer = _tracer_module()
    outside = {attr.split(".")[0]
               for _, attr in [*tracer.SPANS, *tracer.COUNTERS]}
    root = pathlib.Path(__file__).resolve().parents[1]
    for path in (root / "demos").glob("*.py"):
        outside |= used_names(ast.parse(path.read_text()))
    package = pathlib.Path(solvharm.__file__).parent
    statements = []   # (module, top-level statement, names it uses)
    for info in pkgutil.iter_modules(solvharm.__path__):
        tree = ast.parse((package / f"{info.name}.py").read_text())
        statements += [(info.name, node, used_names(node))
                       for node in tree.body]
    uncalled = []
    for info in pkgutil.iter_modules(solvharm.__path__):
        module = importlib.import_module(f"solvharm.{info.name}")
        for name in getattr(module, "__all__", ()):
            if name not in outside and not any(
                    name in names for owner, node, names in statements
                    if not (owner == info.name and defines(node, name))):
                uncalled.append(f"{info.name}.{name}")
    assert uncalled == []


def test_build_takes_no_tolerance_flags(capsys):
    # build reads no tolerance, so a --tol-* flag there is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["build", "flat", "--tol-flat-norm", "1"])
    assert exc.value.code == 2
    assert "--tol-flat-norm" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scan-h", "alg.json", "--tol-mean-constancy", "1"],
    ["classify", "alg.json", "--tol-ode-rtol", "1"],
    ["riccati", "m.json", "--tol-h-constancy", "1"],
    ["analyze", "alg.json", "--tol-horizon-cap", "1"],
    ["riccati", "m.json", "--tol-riccati-symmetry", "1"],
    ["analyze", "alg.json", "--tol-pivot-rel", "1"],
    ["analyze", "alg.json", "--tol-series-tol", "1"],
    ["riccati", "m.json", "--tol-pivot-rel", "1"],
    ["analyze", "alg.json", "--tol-riccati-residual", "1"],
    ["analyze", "alg.json", "--tol-axis-band", "1"],
    ["analyze", "alg.json", "--tol-separation-band", "1"],
])
def test_unread_tolerance_flag_is_usage_error(argv, capsys):
    # a flag whose check the command never runs would change nothing
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[2] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["classify", "alg.json", "--tol-classifier-zero", "nan"],
    ["analyze", "alg.json", "--tol-eigen-merge", "-1"],
    ["scan-h", "alg.json", "--tol-jacobi-identity", "nan"],
    ["analyze", "alg.json", "--tol-flat-norm", "inf"],
    ["riccati", "m.json", "--tol-axis-band=-inf"],
    ["classify", "alg.json", "--tol-self-adjoint", "abc"],
])
def test_bad_tolerance_value_is_usage_error(argv, monkeypatch, capsys):
    # NaN, infinite and negative thresholds are refused before any file
    # is read, not turned into a silently different verdict
    def no_work(*args):
        raise AssertionError("an input file was read")

    monkeypatch.setattr(cli, "_load_json", no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[2].split("=")[0] in capsys.readouterr().err


def test_zero_tolerance_is_accepted():
    args = cli.make_parser().parse_args(
        ["classify", "alg.json", "--tol-classifier-zero", "0"])
    assert cli._collect_tolerances(args).classifier_zero == 0.0


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_files_get_mode_from_umask(umask, tmp_path):
    # as a plain open() would: 0o666 less the umask, not mkstemp's 0o600
    alg, rep, csv = (tmp_path / name for name in ("f.json", "r.json",
                                                  "d.csv"))
    old = os.umask(umask)
    try:
        assert main(["build", "flat", "--output", str(alg)]) == 0
        assert main(["analyze", str(alg), "--output", str(rep),
                     "--density-csv", str(csv),
                     "--density-directions", "1"]) == 0
    finally:
        os.umask(old)
    for path in (alg, rep, csv):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "d.csv", "f.json", "r.json"]


def _registered_tolerances(command):
    sub = next(a for a in cli.make_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest[len("tol_"):] for a in sub.choices[command]._actions
            if a.dest.startswith("tol_")}


def test_each_command_takes_exactly_the_tolerances_it_reads(
        tmp_path, monkeypatch, dr_algebras, generic_pair_algebra,
        perturbed_theta_algebra, haar_rotate):
    import dataclasses

    from solvharm.config import Tolerances
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    reads = set()

    class Recording(Tolerances):
        def __getattribute__(self, name):
            if name in fields:
                reads.add(name)
            return super().__getattribute__(name)

    report_echo = cli._tolerances_dict

    def echo(*args):   # the echo reads every flag: not a check
        before = set(reads)
        out = report_echo(*args)
        reads.intersection_update(before)
        return out

    monkeypatch.setattr(cli, "_tolerances_dict", echo)
    monkeypatch.setattr(cli, "_collect_tolerances", lambda args: Recording())

    algebras = [generic_pair_algebra, perturbed_theta_algebra,
                dr_algebras[(2, 1)], haar_rotate(dr_algebras[(3, 1)], 7)]
    paths = []
    for i, g in enumerate(algebras):
        paths.append(tmp_path / f"alg{i}.json")
        paths[-1].write_text(json.dumps(algebra_to_dict(g)))
    # only the last matrix has a stable eigenvalue: a Lyapunov solve
    matrices = [[[0.5, 0, 0], [0, 0.5, 0], [0, 0, 1.0]],
                [[1.0, 0.2], [0.0, 0.5]], [[-1.0, 0.3], [0.0, 0.5]]]
    out, csv = tmp_path / "out", tmp_path / "d.csv"
    runs = {
        "analyze": [["analyze", str(p), "--density-csv", str(csv),
                     "--density-directions", "2"] for p in paths],
        "scan-h": [["scan-h", str(p), "--count", "5"] for p in paths],
        "classify": [["classify", str(p)] for p in paths],
        "riccati": [],
    }
    for i, m in enumerate(matrices):
        path = tmp_path / f"m{i}.json"
        path.write_text(json.dumps({"matrix": m}))
        runs["riccati"].append(["riccati", str(path)])
    counts = {}
    for command, argvs in runs.items():
        reads.clear()
        for argv in argvs:
            assert main([*argv, "--output", str(out)]) == 0
        assert reads == _registered_tolerances(command), command
        counts[command] = len(reads)
    assert counts == {"analyze": 14, "scan-h": 3, "classify": 4,
                      "riccati": 3}


def test_readme_tolerance_table_matches_the_parser():
    # the README's --tol-* table lists each command's flags; analyze's
    # row gives the record size, the flag count and the fields left out
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md")
    table = readme.read_text().split("| command | `--tol-*` flags |", 1)[1]
    rows = {}
    for line in table.split("\n\n", 1)[0].splitlines():
        if line.startswith("| `"):
            command, flags = line.strip("| ").split(" | ")
            rows[command.strip("`")] = flags
    assert sorted(rows) == sorted([*cli._COMMAND_TOLS, "build"])
    assert rows["build"] == "none" and _registered_tolerances("build") == set()

    def named(flags):
        return [name.replace("-", "_")
                for name in re.findall(r"`([a-z-]+)`", flags)]

    for command in ("scan-h", "classify", "riccati"):
        assert named(rows[command]) == list(cli._COMMAND_TOLS[command])
    fields = [f.name for f in dataclasses.fields(cli.Tolerances)]
    analyze = cli._COMMAND_TOLS["analyze"]
    assert [int(n) for n in re.findall(r"\d+", rows["analyze"])] == [
        len(fields), len(analyze)]
    assert named(rows["analyze"]) == [f for f in fields if f not in analyze]


@pytest.mark.parametrize("command", ["classify", "scan-h"])
def test_trivial_derived_algebra_is_not_standard(command, tmp_path, capsys):
    alg = tmp_path / "line.json"
    alg.write_text(json.dumps({"dim": 1, "structure_constants": []}))
    out = tmp_path / "out"
    assert main([command, str(alg), "--output", str(out)]) == 3
    assert "derived algebra is trivial" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows", [
    # rho = 0.3 and 0.6: j(Z) maps E_0.3 onto E_0.6, and no E_0.7 exists
    [[0, 1, 1, 0.3], [0, 2, 2, 0.6], [0, 3, 3, 1.0], [1, 2, 3, 0.8]],
    # j(Z) maps the one vector of E_0.5 into E_0.3 + E_0.7: the active
    # dimensions mirror (1, 1, 1), but E_0.5 holds no whole plane.
    # [A, B] = Y/2 keeps A - B out of the center of n
    [[0, 1, 1, 0.5], [0, 2, 2, 0.3], [0, 3, 3, 0.7], [0, 4, 4, 0.9],
     [0, 5, 5, 1.0], [1, 2, 5, 0.5], [1, 3, 5, 0.5], [2, 3, 4, 0.5]],
], ids=["no-partner", "odd-one-half"])
def test_unpaired_eigenspaces_are_not_standard(rows, tmp_path, capsys):
    # ad_H is no derivation here; the flag admits the Jacobi residual
    alg = tmp_path / "unpaired.json"
    alg.write_text(json.dumps({"dim": 1 + max(r[2] for r in rows),
                               "structure_constants": rows}))
    loose = ["--tol-jacobi-identity", "0.1"]
    out = tmp_path / "out.json"
    assert main(["classify", str(alg), *loose, "--output", str(out)]) == 3
    assert "does not pair" in capsys.readouterr().err
    assert not out.exists()
    assert main(["analyze", str(alg), *loose, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["standard_decomposition"]["status"] == "not-standard"
    assert "does not pair" in report["standard_decomposition"]["reason"]
    assert report["classification"] == "Indeterminate"


@pytest.mark.parametrize("argv, flag", [
    (["scan-h", "--count", "-1"], "--count"),
    (["analyze", "--density-times", "0.5,abc"], "--density-times"),
    (["analyze", "--density-times", "2,1"], "--density-times"),
    (["analyze", "--density-directions", "-3"], "--density-directions"),
    (["scan-h", "--z-max", "1.0"], "--z-max"),
    (["scan-h", "--z-min", "nan"], "--z-min"),
    (["analyze", "--seed", "-1"], "--seed"),
])
def test_bad_grid_is_usage_error_before_any_work(argv, flag, tmp_path,
                                                 monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("the algebra was loaded")

    monkeypatch.setattr(cli, "_load_algebra", no_work)
    out, csv = tmp_path / "out", tmp_path / "d.csv"
    command, *options = argv
    if command == "analyze":
        options += ["--density-csv", str(csv)]
    assert main([command, "alg.json", *options, "--output", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists() and not csv.exists()


def _output_commands(tmp_path):
    """Each subcommand that writes a file, with the flag of that file."""
    alg, mat = tmp_path / "rh3.json", tmp_path / "m.json"
    alg.write_text(json.dumps(algebra_to_dict(build_real_hyperbolic(3))))
    mat.write_text('{"matrix": [[0.5, 0], [0, 1.0]]}')
    return [(["build", "flat"], "--output"),
            (["analyze", str(alg)], "--output"),
            (["analyze", str(alg), "--density-directions", "1",
              "--output", str(tmp_path / "r.json")], "--density-csv"),
            (["scan-h", str(alg)], "--output"),
            (["classify", str(alg)], "--output"),
            (["riccati", str(mat)], "--output")]


@pytest.mark.parametrize("missing, reason", [
    ("no-such-dir/out", "no-such-dir is missing"),
    ("a-file/out", "a-file is not a directory")])
def test_unwritable_output_directory_is_usage_error_before_any_work(
        missing, reason, tmp_path, monkeypatch, capsys):
    (tmp_path / "a-file").write_text("")
    target = str(tmp_path / missing)
    for argv, flag in _output_commands(tmp_path):
        handler = "cmd_" + argv[0].replace("-", "_")

        def no_work(*args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, handler, no_work)
        assert main([*argv, flag, target]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {target}: {tmp_path}/{reason}\n"
        monkeypatch.undo()


def test_failed_write_is_one_error_line_exit_1(tmp_path, capsys):
    # the directory is writable, but the target is a directory: the
    # rename fails, and no temporary file is left behind
    target = tmp_path / "taken"
    target.mkdir()
    for argv, flag in _output_commands(tmp_path):
        assert main([*argv, flag, str(target)]) == 1
        assert capsys.readouterr().err == \
            f"error: cannot write {target}: Is a directory\n"
        assert list(target.iterdir()) == []
    assert not [p for p in tmp_path.iterdir()
                if p.name.startswith(".solvharm-")]


def test_analyze_one_dimensional_algebra_is_flat(tmp_path):
    alg = tmp_path / "line.json"
    alg.write_text(json.dumps({"dim": 1, "structure_constants": []}))
    out = tmp_path / "rep.json"
    assert main(["analyze", str(alg), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["classification"] == "Flat"


def test_build_report_matches_cli(tmp_path):
    g = build_damek_ricci(clifford_generators(1))
    report = build_report(g, seed=0)
    assert report["classification"] == "RankOneSymmetric"
    assert report["einstein"]["is_einstein"] is True
    assert report["mean_curvature"]["max_deviation"] <= 1e-5
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(algebra_to_dict(g)))
    out = tmp_path / "rep.json"
    assert main(["analyze", str(alg), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["classification"] == "RankOneSymmetric"


def test_build_report_runs_lower_central_series_once(monkeypatch,
                                                     haar_rotate):
    # growth_type asks for the nilpotency class before it answers
    # exponential, and the report prints it: one pass serves both
    calls = []
    original = lie_metric.nilpotency_class

    def counting(g):
        calls.append(1)
        return original(g)

    monkeypatch.setattr(lie_metric, "nilpotency_class", counting)
    g = haar_rotate(build_damek_ricci(clifford_generators(7, 2)), 1)
    report = build_report(g)
    assert report["growth"] == "exponential"
    assert report["algebra"]["nilpotency_class"] is None
    assert len(calls) == 1


def test_build_report_computes_derived_algebra_once(monkeypatch,
                                                    haar_rotate):
    # the report's derived_dim, the growth type, the lower central series
    # and the standard decomposition all read g.derived_algebra, so the
    # n x n^2 matrix of all brackets is decomposed once; the growth type
    # and the standard decomposition both read [s, s]^perp off
    # g.derived_complement, so its null space is taken once too
    calls, spans, nulls = [], [], []
    derived, span = lie_metric.derived_algebra, lie_metric._orthonormal_span
    null_space = lie_metric._null_space

    def counting_derived(g):
        calls.append(1)
        return derived(g)

    def counting_span(columns, *args):
        spans.append(columns.shape)
        return span(columns, *args)

    def counting_null_space(mat, *args):
        nulls.append(mat.shape)
        return null_space(mat, *args)

    monkeypatch.setattr(lie_metric, "derived_algebra", counting_derived)
    monkeypatch.setattr(lie_metric, "_orthonormal_span", counting_span)
    monkeypatch.setattr(lie_metric, "_null_space", counting_null_space)
    g = haar_rotate(build_damek_ricci(clifford_generators(7, 2)), 1)
    report = build_report(g)
    assert report["standard_decomposition"]["status"] == "ok"
    assert report["algebra"]["derived_dim"] == g.dim - 1
    assert len(calls) == 1
    assert spans.count((g.dim, g.dim * g.dim)) == 1
    assert nulls.count((g.dim - 1, g.dim)) == 1


def test_tol_classifier_zero_reaches_criterion(tmp_path):
    # pair (1/2, 2 + 1e-6): a polynomial of degree 1 only inside a window
    # wider than 1e-6
    alg = tmp_path / "pair.json"
    alg.write_text(json.dumps({"dim": 4, "structure_constants": [
        [0, 1, 1, 0.5], [0, 2, 2, 0.5], [0, 3, 3, 1.0], [1, 2, 3, 2.000001]]}))
    out = tmp_path / "classify.json"
    for tol, label, degree in ((None, "unbounded", None),
                               ("1e-5", "polynomial", 1)):
        flag = ["--tol-classifier-zero", tol] if tol else []
        assert main(["classify", str(alg), *flag, "--output", str(out)]) == 0
        (factor,) = json.loads(out.read_text())["factors"]
        assert (factor["label"], factor["degree"]) == (label, degree)


def test_tol_jacobi_identity_reaches_construction_check(tmp_path, capsys):
    data = algebra_to_dict(build_damek_ricci(clifford_generators(1)))
    data["structure_constants"][0][3] += 1e-9   # Jacobi residual 1e-9
    alg = tmp_path / "shifted.json"
    alg.write_text(json.dumps(data))
    out = tmp_path / "classify.json"
    assert main(["classify", str(alg), "--output", str(out)]) == 2
    assert "Jacobi identity violated" in capsys.readouterr().err
    assert main(["classify", str(alg), "--tol-jacobi-identity", "1e-3",
                 "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["is_rigid"] is True
    assert report["tolerances"]["jacobi_identity"] == 1e-3


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    alg = tmp_path / "dr.json"
    builds = []
    make_parser = cli.make_parser

    def counting():
        builds.append(1)
        return make_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "make_parser", counting)
    try:
        assert main(["build", "damek-ricci", "--output", str(alg)]) == 0
        for _ in range(3):
            assert main(["classify", str(alg)]) == 0
        with pytest.raises(SystemExit):
            main(["classify"])
        assert main(["scan-h", str(alg), "--count", "2"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def _outcomes(calls, capsys):
    """(exit code, stdout, stderr) of each ``main`` call in turn."""
    outcomes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        outcomes.append((code, *capsys.readouterr()))
    return outcomes


def test_shared_parser_carries_no_state(tmp_path, monkeypatch, capsys):
    # each call through the one parser of the process equals the same
    # call through a parser of its own
    alg, mat = tmp_path / "dr.json", tmp_path / "m.json"
    main(["build", "damek-ricci", "--l", "1", "--output", str(alg)])
    mat.write_text('[[0.5, 0, 0], [0, 0.5, 0], [0, 0, 1.0]]')
    calls = [
        ["analyze", str(alg), "--tol-einstein-residual", "1e-6"],
        ["analyze", str(alg)],
        ["analyze", str(alg), "--count", "3"],
        ["analyze", str(alg), "--seed", "2"],
        ["scan-h", str(alg), "--count", "4"],
        ["classify", str(alg)],
        ["riccati", str(mat)],
        ["build", "damek-ricci", "--l", "2"],
    ]
    capsys.readouterr()
    shared = _outcomes(calls, capsys)
    monkeypatch.setattr(cli, "_parser", cli.make_parser)
    fresh = _outcomes(calls, capsys)
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0, 0, 0]
    assert [json.loads(out)["tolerances"]["einstein_residual"]
            for _, out, _ in shared[:2]] == [1e-6, 1e-8]
    assert "--count" in shared[2][2]


def test_handler_is_looked_up_per_call(tmp_path, monkeypatch):
    # the shared parser holds no handler, so a patched cmd_* is the one run
    assert main(["classify", str(tmp_path / "missing.json")]) == 2
    monkeypatch.setattr(cli, "cmd_classify", lambda args, tols: 7)
    assert main(["classify", str(tmp_path / "missing.json")]) == 7


def test_out_of_memory_is_exit_6(tmp_path):
    # DR (8, 5) with J_1 off H-type by 1e-6, dim 89, so the dense path
    # runs: the curvature operator (0.11 GiB), the signed gather of
    # |nabla R| (0.23 GiB) and S_l (0.11 GiB) are more than is left of
    # 600 MiB of address space after the imports (about 240 MiB); one
    # child process, one BLAS thread.  DR (8, 4) fits, and the closed
    # forms serve the H-type DR (8, 5) in far less
    alg = tmp_path / "dr85.json"
    alg.write_text(json.dumps(algebra_to_dict(
        damek_ricci_scaled_j(8, 5, 1 + 1e-6))))
    limit = 600 * 2 ** 20
    script = "\n".join([
        "import resource, sys",
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))",
        "from solvharm.cli import main",
        f"sys.exit(main(['analyze', {str(alg)!r}]))",
    ])
    env = dict(_child_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 6, proc.stderr
    assert proc.stdout == ""
    # the gather, or the operator before it where the imports take more
    assert re.fullmatch(
        r"error: analyze ran out of memory: an array of shape "
        r"\((7921, 3916\) and type float64 needs 0\.231|3916, 3916\) and "
        r"type float64 needs 0\.114) GiB\n", proc.stderr), proc.stderr


def test_out_of_memory_message_without_shape():
    assert cli._out_of_memory("scan-h", MemoryError()) == (
        "error: scan-h ran out of memory\n")


def test_density_overflow_is_a_clear_error(tmp_path):
    # scaled by 1e3, trace ad_H is 4000 and the density passes float64's
    # range near t = 0.18, inside the default --density-times
    data = algebra_to_dict(build_damek_ricci(clifford_generators(2)))
    data["structure_constants"] = [[i, j, k, c * 1e3] for i, j, k, c
                                   in data["structure_constants"]]
    alg, csv = tmp_path / "big.json", tmp_path / "d.csv"
    alg.write_text(json.dumps(data))
    res = _run(["analyze", str(alg), "--density-csv", str(csv)])
    assert res.returncode == 1
    assert re.fullmatch(
        r"error: volume density overflows float64: log\|det A\| = \S+ at "
        r"t = \S+, past log\(max float64\) = 709\.783\n", res.stderr)
    assert not csv.exists()
