"""Every third-party module the package, the tests and the demos import is
declared in ``pyproject.toml``: the runtime dependencies everywhere, and
the ``test`` extra in ``tests/`` too.  Installed but undeclared packages
(sympy, networkx, ...) would pass every run on one machine and fail on a
clean install, so the check reads the sources, not the environment."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")   # Python 3.11+

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _declared(requirements) -> set:
    """Top-level import names of PEP 508 requirement strings."""
    return {re.match(r"[A-Za-z0-9_.-]+", req)[0].lower().replace("-", "_")
            for req in requirements}


def _imported(directory: pathlib.Path) -> set:
    """Top-level names of the absolute imports and ``pytest.importorskip``
    calls of every module in ``directory``."""
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "importorskip"):
                names.add(ast.literal_eval(node.args[0]))
    return {name.partition(".")[0] for name in names}


def test_every_third_party_import_is_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _declared(project["dependencies"])
    test = runtime | _declared(project["optional-dependencies"]["test"])
    assert {"numpy", "scipy"} <= runtime
    assert {"pytest", "hypothesis", "mpmath"} <= test
    for directory, allowed in (("src/solvharm", runtime), ("tests", test),
                               ("demos", runtime)):
        local = {path.stem for path in (ROOT / directory).glob("*.py")}
        undeclared = (_imported(ROOT / directory) - {"solvharm"} - local
                      - set(sys.stdlib_module_names) - allowed)
        assert not undeclared, (directory, sorted(undeclared))
