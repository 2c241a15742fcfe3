"""The ``analyze`` label: the rule on the printed predicates and the
H-type certificate, its verdict on every Damek-Ricci build up to
dimension 25 (canonical, Haar-rotated and rescaled), and its one
owner."""

import ast
import itertools
import pathlib
import re

import numpy as np
import pytest

from solvharm.cli import _classification, build_report
from solvharm.clifford_dr import (build_damek_ricci, build_real_hyperbolic,
                                  clifford_generators)
from solvharm.lie_metric import HTypeCertificate

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src" / "solvharm"
PREDICATES = ("flat", "standard", "einstein", "rigid", "symmetric")
# none, real hyperbolic space (symmetric) and DR (2,1) (not symmetric)
CERTIFICATES = (None, HTypeCertificate(1.0, 0, 1, 0),
                HTypeCertificate(1.0, 4, 2, 0))


def _readme_labels():
    """The labels of the README's list, in its order."""
    text = README.read_text()
    text = text[text.index("ends in one of five labels"):]
    block = text[text.index("\n- "):]
    return re.findall(r"`([A-Z]\w+)`", block[:block.index("\n\n")])


def _report(flat, standard, einstein, rigid, symmetric):
    """A report holding the five printed predicates and nothing else."""
    status = "ok" if standard else ("flat" if flat else "not-standard")
    return {"curvature": {"flat": flat},
            "standard_decomposition": {"status": status},
            "einstein": {"is_einstein": einstein},
            "rigidity": {"is_rigid": rigid},
            "symmetry": {"is_symmetric": symmetric}}


def _readme_rule(flat, standard, cert):
    # the README's list, one bullet per branch, first match wins; of
    # the CERTIFICATES, the one with k = dim z <= 1 is symmetric
    if flat:
        return "Flat"
    if not standard:
        return "Indeterminate"
    if cert is not None:
        return ("RankOneSymmetric" if cert.k <= 1
                else "DamekRicciNonsymmetric")
    return "NotAsymptoticallyHarmonic"


def test_readme_lists_the_five_labels():
    assert _readme_labels() == [
        "Flat", "Indeterminate", "RankOneSymmetric",
        "DamekRicciNonsymmetric", "NotAsymptoticallyHarmonic"]


@pytest.mark.parametrize("values", list(itertools.product((False, True),
                                                          repeat=5)),
                         ids=lambda v: "-".join(
                             p for p, x in zip(PREDICATES, v) if x) or "none")
def test_rule_table(values):
    # the rule reads flat and standard of the five printed predicates,
    # and the certificate: einstein, rigid and symmetric are witnesses
    # that never move the label.  The report given holds no other key
    flat, standard = values[:2]
    for cert in CERTIFICATES:
        assert (_classification(_report(*values), cert)
                == _readme_rule(flat, standard, cert))


def test_rule_table_reaches_every_label():
    labels = {_classification(_report(*v), cert)
              for v in itertools.product((False, True), repeat=5)
              for cert in CERTIFICATES}
    assert labels == set(_readme_labels())


def _dr_builds(max_dim):
    """(l, copies) of every Damek-Ricci build of dimension <= max_dim."""
    builds = []
    for l in itertools.count(1):
        m = clifford_generators(l).m
        if 1 + m + l > max_dim:
            return builds
        builds += [(l, c) for c in range(1, (max_dim - 1 - l) // m + 1)]


DR_BUILDS = _dr_builds(25)


def test_every_small_build_is_listed():
    assert len(DR_BUILDS) == 30
    assert {l for l, _ in DR_BUILDS} == set(range(1, 9))


def _j_squared_criterion(cm) -> bool:
    """Whether the DR space of ``cm`` is symmetric, by the J^2 criterion
    (Cowling-Dooley-Koranyi-Ricci, Adv. Math. 87, 1991): k = dim z <= 1,
    or k = 3 and |tr J_1 J_2 J_3| = m, or k = 7 and m = 8."""
    k, m, j = cm.l, cm.m, cm.generators
    if k <= 1:
        return True
    if k == 3:
        return abs(abs(np.trace(j[0] @ j[1] @ j[2])) - m) <= 1e-12 * m
    return k == 7 and m == 8


@pytest.mark.parametrize("key", DR_BUILDS, ids=lambda k: f"dr-{k[0]}-{k[1]}")
def test_label_matches_j_squared_criterion(key, haar_rotate):
    # the certificate is the label's only path to RankOneSymmetric and
    # DamekRicciNonsymmetric, so it must not refuse a true Damek-Ricci
    # input, in a Haar basis or at a scale inside SCALE_WINDOW either
    cm = clifford_generators(*key)
    want = ("RankOneSymmetric" if _j_squared_criterion(cm)
            else "DamekRicciNonsymmetric")
    g = build_damek_ricci(cm)
    assert build_report(g)["classification"] == want
    for x in (haar_rotate(g, sum(key)), g.rescaled(1e-30), g.rescaled(1e30)):
        assert build_report(x)["classification"] == want


def _label_owners(path):
    """The names of the functions of ``path`` that hold a string constant
    naming a label, or "<module>" for one outside any function."""
    labels = re.compile(r"\b(Flat|Indeterminate|RankOneSymmetric|"
                        r"DamekRicciNonsymmetric|NotAsymptoticallyHarmonic)"
                        r"\b")
    owners = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and labels.search(node.value)):
            owners.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(), str(path)), "<module>")
    return owners


def test_one_function_owns_the_labels():
    # every label string in the package, docstrings included, is inside
    # cli._classification: no second rule can name a label
    owners = {(p.name, name) for p in sorted(SRC.glob("*.py"))
              for name in _label_owners(p)}
    assert owners == {("cli.py", "_classification")}


def test_the_owner_check_sees_a_second_rule(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('"""Reads Flat."""\n\n\ndef _classification():\n'
                      '    return "Flat"\n\n\ndef higher_rank(x):\n'
                      '    return f"{x} NotAsymptoticallyHarmonic"\n')
    assert _label_owners(module) == {"<module>", "_classification",
                                     "higher_rank"}


def test_every_build_to_dim_45_is_certified_as_built():
    # the builds and the certificate read one bracket model: a build the
    # certificate refused would read NotAsymptoticallyHarmonic
    builds = _dr_builds(45)
    assert max(l for l, _ in builds) == 9   # the mod-8 periodicity path
    for l, copies in builds:
        cm = clifford_generators(l, copies)
        cert = build_damek_ricci(cm).decomposition().certificate
        assert (cert.m, cert.k) == (cm.m, l)
        assert cert.lam == pytest.approx(1.0, rel=1e-12, abs=0.0)
    for n in range(2, 31):
        cert = build_real_hyperbolic(n).decomposition().certificate
        assert (cert.m, cert.k) == (0, n - 1)
        assert cert.lam == pytest.approx(1.0, rel=1e-12, abs=0.0)
