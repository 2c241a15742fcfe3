"""Every small threshold of the package is named in ``config``: no module
but ``config.py`` writes a numeric literal of magnitude below 1e-6, so a
tolerance cannot hide in the code as a bare number."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "solvharm"
SMALLEST_BARE = 1e-6


def _small_literals(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, (int, float, complex))
                and not isinstance(node.value, bool)
                and 0 < abs(node.value) < SMALLEST_BARE):
            yield f"{path.name}:{node.lineno}: {node.value!r}"


@pytest.mark.parametrize("path", sorted(p for p in SRC.rglob("*.py")
                                        if p.name != "config.py"),
                         ids=lambda p: p.name)
def test_module_has_no_bare_small_threshold(path):
    assert list(_small_literals(path)) == []


def test_the_check_sees_a_bare_threshold(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('"""Docs may say 1e-12."""\nok = 0.5\nbad = -1e-9\n')
    assert list(_small_literals(module)) == ["m.py:3: 1e-09"]
