"""The H-type certificate and the Damek-Ricci closed forms of
``curvature``, against the dense curvature stages they replace in
``cli.build_report``."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import mixed_damek_ricci, nabla_R, ricci
from solvharm import curvature, lie_metric
from solvharm.cli import build_report
from solvharm.clifford_dr import (build_damek_ricci, build_real_hyperbolic,
                                  clifford_generators)
from solvharm.lie_metric import standard_decomposition


def _dr_keys(max_dim):
    """(l, copies) of every Damek-Ricci build with l <= 8, copies <= 3 and
    dim 1 + m + l <= max_dim."""
    return [(l, c) for l in range(1, 9) for c in (1, 2, 3)
            if 1 + clifford_generators(l, c).shape[1] + l <= max_dim]


_MIXED = [(3, 1, 1), (3, 2, 0), (7, 1, 1), (7, 2, 0)]
_RH = [2, 3, 6]


@functools.cache
def _base(name):
    kind, *args = name.split("-")
    args = [int(a) for a in args]
    if kind == "dr":
        return build_damek_ricci(clifford_generators(*args))
    if kind == "mixed":
        return mixed_damek_ricci(*args)
    return build_real_hyperbolic(*args)


_BASES = ([f"dr-{l}-{c}" for l, c in _dr_keys(32)]
          + [f"mixed-{l}-{p}-{q}" for l, p, q in _MIXED]
          + [f"rh-{n}" for n in _RH])
_VARIANTS = ["canonical", "rot-11", "rot-12", "x2^20", "x2^-20", "x1e30",
             "x1e-30"]


def _variant(name, variant, haar_rotate):
    """The base algebra ``name`` as given, Haar-rotated by a seed, or
    rescaled, with the factor its ad_H eigenvalue lam picks up."""
    g = _base(name)
    if variant == "canonical":
        return g, 1.0
    if variant.startswith("rot-"):
        return haar_rotate(g, int(variant[4:])), 1.0
    factor = {"x2^20": 2.0 ** 20, "x2^-20": 2.0 ** -20, "x1e30": 1e30,
              "x1e-30": 1e-30}[variant]
    return g.rescaled(factor), factor


def _counts(name):
    """(m, k) of a base build: dim v and dim z."""
    g = _base(name)
    k = int(name.split("-")[1]) if not name.startswith("rh") else g.dim - 1
    return g.dim - 1 - k, k


@pytest.mark.parametrize("variant", _VARIANTS)
@pytest.mark.parametrize("name", _BASES)
def test_closed_forms_match_the_dense_stages(name, variant, haar_rotate):
    g, factor = _variant(name, variant, haar_rotate)
    cert = lie_metric.h_type_certificate(standard_decomposition(g))
    assert cert is not None
    assert (cert.m, cert.k) == _counts(name)
    assert cert.lam == pytest.approx(factor, rel=1e-14)
    r_norm, nr = curvature.damek_ricci_norms(cert)
    dense_r = curvature.curvature_norm(g)
    # |R| and Ric scale as s^2, |nabla R| as |R| s (the symmetry ratio's
    # unit)
    assert abs(r_norm - dense_r) <= 1e-12 * dense_r
    assert abs(nr - curvature.nabla_R_norm(g)) <= 1e-12 * dense_r * g.scale
    ric = curvature.ricci_from_brackets(g)
    dense_ric = ricci(curvature.curvature_tensor(g))
    assert np.abs(ric - dense_ric).max() <= 1e-12 * dense_r
    c_dr = -(cert.m + 4 * cert.k) / 4 * cert.lam ** 2
    assert np.abs(ric - c_dr * np.eye(g.dim)).max() <= 1e-12 * dense_r


def _dyadic(array, bits=8):
    """Whether every entry times 2^bits is an integer below 2^40, so that
    products and short sums of entries are exact in float64."""
    scaled = np.ldexp(np.asarray(array), bits)
    return bool((scaled == np.round(scaled)).all()
                and np.abs(scaled).max(initial=0.0) < 2.0 ** 40)


@pytest.mark.parametrize("name", [b for b in _BASES
                                  if _base(b).dim <= 16])
def test_closed_forms_are_exact_on_dyadic_builds(name):
    # the canonical builds have entries 0, +-1/2 and +-1, so R and
    # nabla R are dyadic and their squared norms are exact float sums
    # (math.fsum rounds once, and the exact sum is representable)
    g = _base(name)
    assert _dyadic(g.tensor)
    cert = lie_metric.h_type_certificate(standard_decomposition(g))
    assert cert.lam == 1.0
    _, m, k, pq = cert
    r = curvature.curvature_tensor(g)
    nab = nabla_R(g)
    assert _dyadic(r) and _dyadic(nab)
    r_sq = Fraction(math.fsum((r * r).ravel()))
    nr_sq = Fraction(math.fsum((nab * nab).ravel()))
    assert r_sq == Fraction((3 * k + 1) * m * m
                            + (3 * k * k + 20 * k + 1) * m
                            + 16 * k * (k + 1), 8)
    assert nr_sq == Fraction(3 * k * (k - 1) * (3 - k) * m * (m + 2), 2) \
        + 36 * pq
    ric = curvature.ricci_from_brackets(g)
    assert np.array_equal(ric, -(m + 4 * k) / 4 * np.eye(g.dim))


def test_sum_pq_counts_the_sign_split_of_triple_products():
    # J_1 J_2 J_3 is +-id on each irreducible module of l = 3: p q = 0 on
    # the isotypic (3; 2, 0), 4 * 4 on the mixed (3; 1, 1); l = 4 has
    # four triples, each with trace 0 on R^8
    cases = {"mixed-3-2-0": 0, "mixed-3-1-1": 16, "dr-3-1": 0, "dr-4-1": 64,
             "dr-2-1": 0, "rh-6": 0}
    for name, pq in cases.items():
        g = _base(name)
        assert lie_metric.h_type_certificate(
            standard_decomposition(g)).pq == pq
    g = _base("mixed-3-1-1")
    # |R|^2 = 192 and |nabla R|^2 = 576: |nabla R| / |R| = sqrt(3)
    r_norm, nr = curvature.damek_ricci_norms(
        lie_metric.h_type_certificate(standard_decomposition(g)))
    assert (r_norm, nr) == (math.sqrt(192.0), 24.0)


@pytest.mark.parametrize("name, label", [
    ("mixed-3-1-1", "DamekRicciNonsymmetric"),
    ("mixed-3-2-0", "RankOneSymmetric"),
    ("mixed-7-1-1", "DamekRicciNonsymmetric"),
    ("mixed-7-2-0", "DamekRicciNonsymmetric")])
@pytest.mark.parametrize("seed", [None, 5, 6])
def test_mixed_clifford_modules_labels(name, label, seed, haar_rotate):
    # (3; 1, 1) and (3; 2, 0) share dim v = 8 and dim z = 3, and only the
    # J^2 condition tells them apart
    g = _base(name) if seed is None else haar_rotate(_base(name), seed)
    report = build_report(g)
    assert report["classification"] == label
    assert (report["symmetry"]["nabla_r_norm"] == 0.0) == (
        label == "RankOneSymmetric")
