"""The ``analyze`` label: the rule on the predicates the report prints, and
its verdict on every Damek-Ricci build up to dimension 25."""

import itertools
import pathlib
import re

import numpy as np
import pytest

from solvharm.cli import _classification, build_report
from solvharm.clifford_dr import build_damek_ricci, clifford_generators

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PREDICATES = ("flat", "standard", "einstein", "rigid", "symmetric")


def _readme_labels():
    """The labels of the README's list, in its order."""
    text = README.read_text()
    text = text[text.index("ends in one of five labels"):]
    block = text[text.index("\n- "):]
    return re.findall(r"`([A-Z]\w+)`", block[:block.index("\n\n")])


def _report(flat, standard, einstein, rigid, symmetric):
    """A report holding the five predicates and nothing else."""
    status = "ok" if standard else ("flat" if flat else "not-standard")
    return {"curvature": {"flat": flat},
            "standard_decomposition": {"status": status},
            "einstein": {"is_einstein": einstein},
            "rigidity": {"is_rigid": rigid},
            "symmetry": {"is_symmetric": symmetric}}


def _readme_rule(flat, standard, einstein, rigid, symmetric):
    # the README's list, one bullet per branch, first match wins
    if flat:
        return "Flat"
    if not standard:
        return "Indeterminate"
    if rigid and einstein:
        return ("RankOneSymmetric" if symmetric
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
    # the rule reads the five printed predicates and nothing else: the
    # report given holds no other key
    assert _classification(_report(*values)) == _readme_rule(*values)


def test_rule_table_reaches_every_label():
    labels = {_classification(_report(*v))
              for v in itertools.product((False, True), repeat=5)}
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
def test_label_matches_j_squared_criterion(key):
    cm = clifford_generators(*key)
    want = ("RankOneSymmetric" if _j_squared_criterion(cm)
            else "DamekRicciNonsymmetric")
    assert build_report(build_damek_ricci(cm))["classification"] == want
