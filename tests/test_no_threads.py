"""The package starts no threads or processes of its own: the density
sidecar runs its directions one after another, and BLAS threading is left
to the environment.  Nor does it import the test oracles."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "solvharm"
CONCURRENCY = {"threading", "concurrent", "multiprocessing"}


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_no_concurrency(path):
    assert CONCURRENCY.isdisjoint(_imported_roots(path))


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_no_test_oracle(path):
    assert {"oracles", "tests"}.isdisjoint(_imported_roots(path))
