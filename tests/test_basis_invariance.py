"""Results must not depend on the orthonormal basis an algebra is given in,
nor on a constant rescaling of its metric."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from oracles import (add_to_ad_h, damek_ricci_scaled_j, mixed_damek_ricci,
                     skew_derivations_commuting_with_ad_h)
from solvharm.cli import build_report, main
from solvharm.clifford_dr import (build_damek_ricci, build_flat,
                                  build_heisenberg_type,
                                  build_real_hyperbolic, clifford_generators)
from solvharm.config import DEFAULT_TOLS
from solvharm.curvature import curvature_norm, einstein_check, nabla_R_norm
from solvharm.errors import NumericalError, StructureError
from solvharm.jacobi_flow import volume_density
from solvharm.lie_metric import (GrowthType, MetricLieAlgebra,
                                 algebra_to_dict, growth_type,
                                 standard_decomposition)

NAMES = ["dr-2-1", "dr-3-1", "perturbed-theta", "generic-pair"]
NOT_AH = "NotAsymptoticallyHarmonic"
# metric rescalings under which no verdict may change
SCALES = (1e-40, 1e-12, 1e-10, 1e-9, 1e-6, 1e-3, 1e3, 1e40)


@pytest.fixture(scope="module")
def canonical(dr_algebras, perturbed_theta_algebra, generic_pair_algebra):
    return {"dr-2-1": dr_algebras[(2, 1)], "dr-3-1": dr_algebras[(3, 1)],
            "perturbed-theta": perturbed_theta_algebra,
            "generic-pair": generic_pair_algebra}


@pytest.fixture(scope="module")
def canonical_reports(canonical):
    return {name: build_report(g) for name, g in canonical.items()}


def _symmetry_ratio(g):
    return nabla_R_norm(g) / curvature_norm(g)


def _assert_same_spectral_data(g0, g):
    d0, d = standard_decomposition(g0), standard_decomposition(g)
    for field in ("mu", "rho_star", "pairs"):
        a, b = getattr(d0, field), getattr(d, field)
        assert a.shape == b.shape
        assert a.size == 0 or np.abs(a - b).max() <= DEFAULT_TOLS.eigen_merge


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [101, 202, 303])
def test_rotated_basis_gives_canonical_results(name, seed, canonical,
                                               canonical_reports, haar_rotate):
    g0 = canonical[name]
    g = haar_rotate(g0, seed)
    _assert_same_spectral_data(g0, g)

    _, c0, _ = einstein_check(g0)
    _, c, _ = einstein_check(g)
    assert abs(c - c0) <= 1e-10 * max(1.0, abs(c0))

    assert abs(_symmetry_ratio(g) - _symmetry_ratio(g0)) <= 1e-10

    rep0, rep = canonical_reports[name], build_report(g)
    assert rep["classification"] == rep0["classification"]
    # the stable Jacobi tensor reads the frame off the adapted basis
    assert abs(rep["mean_curvature"]["numeric"]
               - rep0["mean_curvature"]["numeric"]) <= 1e-12


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("factor", [0.5, 3.0])
def test_rescaled_metric_gives_canonical_results(name, factor, canonical,
                                                 canonical_reports):
    g0 = canonical[name]
    g = g0.rescaled(factor)
    _assert_same_spectral_data(g0, g)
    # nabla R / R carries one inverse length, so it scales with the brackets
    assert abs(_symmetry_ratio(g) - factor * _symmetry_ratio(g0)) <= 1e-10
    assert (build_report(g)["classification"]
            == canonical_reports[name]["classification"])


# dimension of the skew derivations of [s, s] that commute with ad_H
SKEW_DIMS = {"dr-1-1": 1, "dr-1-2": 4, "dr-2-1": 4, "dr-3-1": 6,
             "perturbed-theta": 1, "generic-pair": 0}


@pytest.fixture(scope="module")
def normal_h_inputs(dr_algebras, perturbed_theta_algebra,
                    generic_pair_algebra):
    """``(g, g with a random unit commuting skew derivation added to
    ad_H)``."""
    algebras = {f"dr-{l}-{c}": g for (l, c), g in dr_algebras.items()}
    algebras["perturbed-theta"] = perturbed_theta_algebra
    algebras["generic-pair"] = generic_pair_algebra
    spaces = {name: skew_derivations_commuting_with_ad_h(g)
              for name, g in algebras.items()}
    assert {name: len(k) for name, k in spaces.items()} == SKEW_DIMS
    rng = np.random.default_rng(7)
    pairs = {}
    for name, g in algebras.items():
        if len(spaces[name]):
            c = rng.standard_normal(len(spaces[name]))
            k = np.tensordot(c / np.linalg.norm(c), spaces[name], axes=1)
            assert np.linalg.norm(k) > 1.0   # far from self-adjoint
            pairs[name] = (g, add_to_ad_h(g, k))
    return pairs


@pytest.mark.parametrize("name", [n for n, dim in SKEW_DIMS.items() if dim])
def test_normal_ad_h_reads_as_its_symmetric_part(name, normal_h_inputs,
                                                 haar_rotate):
    # a skew derivation that commutes with ad_H can be taken out of ad_H
    # by an isometry (Alekseevskii's modification): the label and the
    # spectral data are those of the self-adjoint ad_H, in every basis
    # and at every scale.  The adapted algebra brackets H by the
    # symmetric part, so decomposing it again gives the same data
    g0, g = normal_h_inputs[name]
    d0 = standard_decomposition(g0)
    label = build_report(g0)["classification"]
    for x in (g, haar_rotate(g, 17), g.rescaled(1e-3), g.rescaled(1e3)):
        d = standard_decomposition(x)
        ad_h = d.ad_h()
        assert np.abs(ad_h - ad_h.T).max() <= 1e-15
        for other in (d, standard_decomposition(d.algebra)):
            for field in ("mu", "rho_star", "pairs"):
                a, b = getattr(d0, field), getattr(other, field)
                assert a.shape == b.shape
                assert a.size == 0 or np.abs(a - b).max() <= 2e-15
        assert build_report(x)["classification"] == label


def _pair_algebra(rho, theta):
    return MetricLieAlgebra(4, ((0, 1, 1, rho), (0, 2, 2, 1.0 - rho),
                                (0, 3, 3, 1.0), (1, 2, 3, theta)))


# ad_H = 1/2 on V1..V4 and 1 on Z1, Z2, [V1, V2] = [V3, V4] = Z1: rigid
# along Z1, yet not Einstein.  Its mu, rho_star and pairs depend on which
# unit Z of the 2-dimensional top eigenspace the decomposition picks (Z1
# gives two (1/2, 1) pairs, Z2 four kernel slots), so it is compared by
# its label only, not by _assert_same_spectral_data
SEVEN_DIM = MetricLieAlgebra(7, (
    (0, 1, 1, 0.5), (0, 2, 2, 0.5), (0, 3, 3, 0.5), (0, 4, 4, 0.5),
    (0, 5, 5, 1.0), (0, 6, 6, 1.0), (1, 2, 5, 1.0), (3, 4, 5, 1.0)))


@pytest.fixture(scope="module")
def scale_inputs(dr_algebras, perturbed_theta_algebra, generic_pair_algebra,
                 haar_rotate):
    dr_7_2 = build_damek_ricci(clifford_generators(7, 2))
    return {"dr-1-1": dr_algebras[(1, 1)], "dr-2-1": dr_algebras[(2, 1)],
            "dr-3-1": dr_algebras[(3, 1)],
            "perturbed-theta": perturbed_theta_algebra,
            "generic-pair": generic_pair_algebra,
            "heisenberg-3": build_heisenberg_type(clifford_generators(1)),
            "real-hyperbolic-4": build_real_hyperbolic(4),
            "flat-3": build_flat(3),
            # the Jacobi residual of a rotated basis is rounding noise that
            # grows as c^2 (5e-10 at c = 1e3)
            "rotated-dr-3-1": haar_rotate(dr_algebras[(3, 1)], 11),
            "rotated-dr-7-2": haar_rotate(dr_7_2, 11),
            # [H, X] = X/2 + Z/2: ad_H maps v into z, at every scale
            "mixing-h": MetricLieAlgebra(4, (
                (0, 1, 1, 0.5), (0, 1, 3, 0.5), (0, 2, 2, 0.5),
                (0, 3, 3, 1.0), (1, 2, 3, 1.0))),
            # within 1e-6 of the rigid pair (1/2, 1), and not rigid
            "pair-theta-above": _pair_algebra(0.5, 1.0 + 1e-7),
            "pair-theta-below": _pair_algebra(0.5, 1.0 - 1e-7),
            "pair-rho-above": _pair_algebra(0.5 + 1e-6, 1.0),
            "pair-rho-below": _pair_algebra(0.5 - 1e-6, 1.0),
            "seven-dim": SEVEN_DIM,
            # a basis in which the top Z picked lies near Z1: the sampled
            # h drifts by only 2.5e-7
            "rotated-seven-dim": haar_rotate(SEVEN_DIM, 0)}


# the label of each input, in its given basis and at every scale
LABELS = {
    "dr-1-1": "RankOneSymmetric", "dr-2-1": "DamekRicciNonsymmetric",
    "dr-3-1": "RankOneSymmetric", "perturbed-theta": NOT_AH,
    "generic-pair": NOT_AH, "heisenberg-3": "Indeterminate",
    "real-hyperbolic-4": "RankOneSymmetric", "flat-3": "Flat",
    "rotated-dr-3-1": "RankOneSymmetric",
    "rotated-dr-7-2": "DamekRicciNonsymmetric",
    # the label reads rigidity by the closed criterion, not the sampled h
    "pair-theta-above": NOT_AH, "pair-theta-below": NOT_AH,
    "pair-rho-above": NOT_AH, "pair-rho-below": NOT_AH,
    # rigid along the Z picked but not Einstein, or not rigid
    "seven-dim": NOT_AH, "rotated-seven-dim": NOT_AH,
}


@pytest.mark.parametrize("name", list(LABELS))
def test_label_is_scale_free(name, scale_inputs):
    # Flat, Einstein, symmetric and the Jacobi identity compare with
    # tolerances times the scale of the brackets, so no rescaling makes a
    # space look flat or stops it from being built
    g = scale_inputs[name]
    assert [build_report(g.rescaled(c))["classification"]
            for c in (1.0, *SCALES)] == [LABELS[name]] * (1 + len(SCALES))


# the near-Damek-Ricci ladder: J_1 times 1 + eps, with the J^2 label of
# the build at eps = 0.  J_1^2 is off -lam^2 id by about 2 eps lam^2, and
# the certificate takes the H-type relations within
# CLIFFORD_RELATION_TOL = 1e-12 of lam^2
LADDER_BUILDS = {
    "dr-2-1": (lambda f: damek_ricci_scaled_j(2, 1, f),
               "DamekRicciNonsymmetric"),
    "dr-3-2": (lambda f: damek_ricci_scaled_j(3, 2, f), "RankOneSymmetric"),
    "dr-7-2": (lambda f: damek_ricci_scaled_j(7, 2, f),
               "DamekRicciNonsymmetric"),
    "mixed-3-1-1": (lambda f: mixed_damek_ricci(3, 1, 1, f),
                    "DamekRicciNonsymmetric"),
}
LADDER_EPS = (0.0, *(10.0 ** e for e in range(-14, -1)))
CERTIFIED_EPS = 3   # 0, 1e-14 and 1e-13


@pytest.fixture(scope="module")
def ladder(haar_rotate):
    """{(build, basis): [algebra per LADDER_EPS]}, basis "canonical" or
    "haar"."""
    rungs = {}
    for name, (build, _) in LADDER_BUILDS.items():
        algebras = [build(1.0 + eps) for eps in LADDER_EPS]
        rungs[name, "canonical"] = algebras
        rungs[name, "haar"] = [haar_rotate(g, 5) for g in algebras]
    return rungs


@pytest.mark.parametrize("basis", ["canonical", "haar"])
@pytest.mark.parametrize("name", list(LADDER_BUILDS))
def test_near_damek_ricci_label_switches_once(name, basis, ladder):
    # the label is the certificate's, so it switches where the
    # certificate does, at one eps in every basis: no Einstein, rigidity
    # or symmetry tolerance can call an uncertified input Damek-Ricci
    label = LADDER_BUILDS[name][1]
    got = [build_report(g)["classification"]
           for g in ladder[name, basis]]
    want = [label] * CERTIFIED_EPS + [NOT_AH] * (len(LADDER_EPS)
                                                  - CERTIFIED_EPS)
    assert got == want


WITNESS_TOLS = ("einstein_residual", "symmetry_ratio", "classifier_zero",
                "h_constancy", "mean_constancy")


@pytest.mark.parametrize("name", [*LADDER_BUILDS, "fixtures"])
def test_label_does_not_read_the_witness_tolerances(name, ladder, canonical):
    # a witness tolerance 100 times larger or smaller moves no label
    inputs = ([canonical["perturbed-theta"], canonical["generic-pair"]]
              if name == "fixtures" else
              [*ladder[name, "canonical"], *ladder[name, "haar"]])
    for g in inputs:
        label = build_report(g)["classification"]
        for field in WITNESS_TOLS:
            for factor in (100.0, 0.01):
                tols = dataclasses.replace(
                    DEFAULT_TOLS,
                    **{field: getattr(DEFAULT_TOLS, field) * factor})
                got = build_report(g, tols=tols)["classification"]
                assert got == label, (field, factor)


# past the scale window, analyze exits 1 before any geometry is computed
OUT_OF_WINDOW = (1e-160, 1e-100, 1e-60, 1e60, 1e100, 1e160)


@pytest.mark.parametrize("name", ["dr-1-1", "dr-2-1", "rotated-dr-7-2",
                                  "perturbed-theta"])
def test_analyze_refuses_a_scale_outside_the_window(name, scale_inputs,
                                                    tmp_path, capsys):
    g = scale_inputs[name]
    report = tmp_path / "report.json"
    for c in OUT_OF_WINDOW:
        path = tmp_path / f"{name}-{c:g}.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no RuntimeWarning either
            path.write_text(json.dumps(algebra_to_dict(g.rescaled(c))))
            code = main(["analyze", str(path), "--output", str(report)])
        out, err = capsys.readouterr()
        assert (code, out, report.exists()) == (1, "", False)
        assert err.startswith("error: bracket scale s = ")
        assert err.endswith(" is outside the window [1e-45, 1e+45] that "
                            "analyze can label\n")
        # s is named as it is, not as inf or 0
        named = float(err[len("error: bracket scale s = "):].split()[0])
        assert named == pytest.approx(c * np.linalg.norm(g.tensor),
                                      rel=1e-3)


# scales past the analyze window, from 1e-300 to 1e300: loading,
# classify and scan-h work in the power-of-two unit fixed at load
EXTREME = (1e-300, 1e-200, 1e-160, 1e154, 1e155, 1e160, 1e200, 1e300)
# [e0, e1] = e2, [e0, e2] = e3, [e1, e2] = 0.7 e3, [e1, e3] = 0.4 e0: the
# Jacobi residual is 0.075 s^2
NOT_JACOBI = ((0, 1, 2, 1.0), (0, 2, 3, 1.0), (1, 2, 3, 0.7),
              (1, 3, 0, 0.4))
# [H, X] = X, [H, Y] = X + 2Y: ad_H is not normal on the abelian [s, s]
NOT_NORMAL = ((0, 1, 1, 1.0), (0, 2, 1, 1.0), (0, 2, 2, 2.0))


def _scaled(rows, c):
    """Structure constant rows times ``c``, as an algebra file holds them."""
    return [(i, j, k, v * c) for i, j, k, v in rows]


def _rows(g):
    """The rows of ``g``, as :func:`algebra_to_dict` writes them."""
    return algebra_to_dict(g)["structure_constants"]


def test_load_is_scale_free_at_extreme_scales(dr_algebras, scale_inputs):
    # the Jacobi check neither passes as inf <= inf nor as 0 <= 0
    loadable = [*dr_algebras.values(), scale_inputs["rotated-dr-7-2"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no RuntimeWarning either
        for c in EXTREME:
            with pytest.raises(StructureError, match="Jacobi identity"):
                MetricLieAlgebra(4, _scaled(NOT_JACOBI, c))
            for g in loadable:
                MetricLieAlgebra(g.dim, _scaled(_rows(g), c))


def test_a_scale_past_float64_is_refused_at_load(scale_inputs, tmp_path,
                                                 capsys):
    # each entry of DR (2,1) times 1.5e308 is a float, but |T| is not: a
    # rank threshold RANK_REL * inf would call every bracket rank 0.  An
    # infinite entry is malformed input instead, refused before s is taken
    g = scale_inputs["dr-2-1"]
    past = _scaled(_rows(g), 1.5e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="past float64"):
            MetricLieAlgebra(g.dim, past)
        with pytest.raises(StructureError, match="non-finite coefficient"):
            MetricLieAlgebra(g.dim, [(0, 1, 1, float("inf"))])
        path = tmp_path / "past.json"
        path.write_text(json.dumps({"dim": g.dim,
                                    "structure_constants": past}))
        for command in ("classify", "scan-h", "analyze"):
            assert main([command, str(path)]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: bracket scale s = |T| is past "
                                  "float64 (largest bracket entry ")
            assert err.count("\n") == 1


@pytest.mark.parametrize("name", ["dr-2-1", "real-hyperbolic-2",
                                  "rotated-dr-7-2"])
def test_classify_and_scan_h_are_scale_free(name, scale_inputs, tmp_path,
                                            capsys):
    g0 = (build_real_hyperbolic(2) if name == "real-hyperbolic-2"
          else scale_inputs[name])
    out = tmp_path / "classify.json"
    rigid = []
    for c in (1.0, *EXTREME):
        rows = _scaled(_rows(g0), c)
        path = tmp_path / f"{name}-{c:g}.json"
        path.write_text(json.dumps({"dim": g0.dim,
                                    "structure_constants": rows}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["classify", str(path), "--output", str(out)]) == 0
            assert main(["scan-h", str(path), "--output",
                         str(tmp_path / "h.csv")]) == 0
            _assert_same_spectral_data(g0, MetricLieAlgebra(g0.dim, rows))
        rigid.append(json.loads(out.read_text())["is_rigid"])
    assert rigid == [True] * (1 + len(EXTREME))
    assert capsys.readouterr().err == ""


def test_h_type_certificate_is_scale_free_at_extreme_scales(scale_inputs):
    # the certificate reads the brackets in the power-of-two unit: its
    # lam^2 and lam^3 neither underflow, so that the relations would pass
    # as 0 <= 0, nor overflow, so volume_density takes one path at every
    # scale.  Below scale 1, at t = O(1) the density is t^(n-1) to
    # rounding
    t = np.array([0.5, 1.0, 2.0])
    for g, certified in ((scale_inputs["dr-2-1"], True),
                         (scale_inputs["rotated-dr-7-2"], True),
                         (damek_ricci_scaled_j(2, 1, 1 + 1e-6), False)):
        cert = g.decomposition().certificate
        v = np.full(g.dim, g.dim ** -0.5)
        for c in EXTREME:
            scaled = MetricLieAlgebra(g.dim, _scaled(_rows(g), c))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = scaled.decomposition().certificate
                if not certified:
                    assert got is None, c
                    continue
                assert got._replace(lam=0.0) == cert._replace(lam=0.0), c
                assert got.lam == pytest.approx(c * cert.lam, rel=1e-12)
                if c < 1.0:
                    np.testing.assert_allclose(volume_density(scaled, v, t),
                                               t ** (g.dim - 1), rtol=1e-12)


def test_non_normal_ad_h_is_refused_at_every_scale(tmp_path, capsys):
    path = tmp_path / "not-normal.json"
    for c in (1.0, *SCALES, *EXTREME):
        path.write_text(json.dumps({"dim": 3, "structure_constants":
                                    _scaled(NOT_NORMAL, c)}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["classify", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "ad_H not normal" in err


@pytest.mark.parametrize("name, status", [("dr-2-1", "ok"),
                                          ("generic-pair", "ok"),
                                          ("mixing-h", "not-standard")])
def test_decomposition_status_is_scale_free(name, status, scale_inputs):
    # the self-adjoint checks compare with tolerances times |ad_H|, with
    # no absolute floor that a small metric would fall under
    g = scale_inputs[name]
    assert [build_report(g.rescaled(c))["standard_decomposition"]["status"]
            for c in (1.0, *SCALES)] == [status] * (1 + len(SCALES))


@pytest.mark.parametrize("name", ["dr-1-1", "dr-2-1", "heisenberg-3",
                                  "real-hyperbolic-4", "flat-3",
                                  "rotated-dr-7-2"])
def test_growth_is_scale_free(name, scale_inputs):
    # Re sigma(ad_X) scales with the brackets, and so does its threshold
    g = scale_inputs[name]
    growth = growth_type(g)
    assert [growth_type(g.rescaled(c)) for c in SCALES] == [growth] * len(SCALES)


# filiform-n: [e0, e_i] = e_(i+1), one Jordan block of size n - 1 in ad_e0
NILPOTENT = {
    "heisenberg-3": build_heisenberg_type(clifford_generators(1)),
    "filiform-4": MetricLieAlgebra(4, ((0, 1, 2, 1.0), (0, 2, 3, 1.0))),
    "filiform-5": MetricLieAlgebra(5, ((0, 1, 2, 1.0), (0, 2, 3, 1.0),
                                       (0, 3, 4, 1.0))),
    "h-type-7-2": build_heisenberg_type(clifford_generators(7, 2)),
}


@pytest.mark.parametrize("name", sorted(NILPOTENT))
def test_nilpotent_growth_is_basis_free(name, haar_rotate):
    # a rotated ad_X has eigenvalues of real part ~ eps^(1/k) |ad_X| for a
    # Jordan block of size k, above the floor; Engel's theorem decides
    g = NILPOTENT[name]
    rotated = [haar_rotate(g, seed) for seed in range(6)]
    assert {growth_type(x) for x in [g, *rotated]} == \
        {GrowthType.SUBEXPONENTIAL}


@pytest.mark.parametrize("key", [(1, 1), (2, 1), (3, 1), (7, 2)])
def test_damek_ricci_growth_is_exponential_in_every_basis(key, haar_rotate):
    g = build_damek_ricci(clifford_generators(*key))
    rotated = [haar_rotate(g, seed) for seed in range(6)]
    assert {growth_type(x) for x in [g, *rotated]} == {GrowthType.EXPONENTIAL}


def _matrix_algebra(mats):
    """span(mats) under the commutator, with ``mats`` declared orthonormal."""
    m = np.array(mats, dtype=float)
    flat = m.reshape(len(m), -1).T
    comm = np.einsum("aij,bjk->abik", m, m)
    comm = (comm - comm.transpose(1, 0, 2, 3)).reshape(len(m) ** 2, -1)
    coef = np.linalg.lstsq(flat, comm.T, rcond=None)[0]
    assert np.abs(flat @ coef - comm.T).max() <= 1e-14
    return MetricLieAlgebra.from_tensor(coef.T.reshape(len(m), len(m), -1))


def _e(n, i, j):
    e = np.zeros((n, n))
    e[i, j] = 1.0
    return e


def _pad(a, n):
    """``a`` as the top-left block of an n x n matrix."""
    b = np.zeros((n, n))
    b[:len(a), :len(a)] = a
    return b


J = np.array([[0.0, -1.0], [1.0, 0.0]])
H = np.diag([1.0, -1.0])
F = np.array([[0.0, 1.0], [1.0, 0.0]])
SO3 = [_e(3, 1, 2) - _e(3, 2, 1), _e(3, 2, 0) - _e(3, 0, 2),
       _e(3, 0, 1) - _e(3, 1, 0)]
SOL = [np.diag([1.0, -1.0, 0.0]), _e(3, 0, 2), _e(3, 1, 2)]
# growth type from the Levi factor and the real parts of the radical's
# weights: compact Levi factor and imaginary weights are subexponential
REDUCTIVE_GROWTH = {
    "so(3)": ([*SO3], GrowthType.SUBEXPONENTIAL),
    "e(3)": ([_pad(a, 4) for a in SO3]
             + [_e(4, 0, 3), _e(4, 1, 3), _e(4, 2, 3)],
             GrowthType.SUBEXPONENTIAL),
    "gl(2)": ([J, H, F, np.eye(2)], GrowthType.EXPONENTIAL),
    "sl(2) x R^2": ([_pad(J, 3), _pad(H, 3), _pad(F, 3), _e(3, 0, 2),
                     _e(3, 1, 2)], GrowthType.EXPONENTIAL),
    "so(3) + sol": ([_pad(a, 6) for a in SO3]
                    + [np.kron(np.diag([0.0, 1.0]), a) for a in SOL],
                    GrowthType.EXPONENTIAL),
}


@pytest.mark.parametrize("name", sorted(REDUCTIVE_GROWTH))
def test_reductive_growth_in_every_basis_and_scale(name, haar_rotate):
    mats, growth = REDUCTIVE_GROWTH[name]
    g = _matrix_algebra(mats)
    for x in [g, *(haar_rotate(g, seed) for seed in range(1, 7))]:
        assert [growth_type(x.rescaled(c)) for c in SCALES] == \
            [growth] * len(SCALES)


def test_elliptic_basis_sl2_growth_does_not_depend_on_seed(tmp_path):
    # J, J + H/10, J + F/10 declared orthonormal: ad_X has a real
    # eigenvalue only on a narrow cone of directions, which a sample of
    # random directions can miss
    g = _matrix_algebra([J, J + 0.1 * H, J + 0.1 * F])
    assert growth_type(g) is GrowthType.EXPONENTIAL
    alg = tmp_path / "sl2.json"
    alg.write_text(json.dumps(algebra_to_dict(g)))
    texts = set()
    for seed in range(8):
        out = tmp_path / f"report-{seed}.json"
        assert main(["analyze", str(alg), "--seed", str(seed),
                     "--output", str(out)]) == 0
        text = out.read_text()
        assert f'"seed": {seed}, ' in text
        texts.add(text.replace(f'"seed": {seed}, ', ""))
    (text,) = texts
    assert json.loads(text)["growth"] == "exponential"
