"""Every number the CLI writes goes through one formatter: the %.17g
format is spelled once in the package, outside docstrings, so the
reports, the scan-h table and the density table cannot drift apart."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "solvharm"
G17 = re.compile(r"\.17[gG]")


def _g17_formats(path):
    tree = ast.parse(path.read_text(), str(path))
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings and G17.search(node.value)):
            yield f"{path.name}:{node.lineno}"


def test_one_place_spells_the_number_format():
    uses = [use for path in sorted(SRC.rglob("*.py"))
            for use in _g17_formats(path)]
    assert len(uses) == 1, uses


def test_the_check_sees_each_spelling(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('"""Docs may say %.17g."""\n'
                      'def f(x):\n'
                      '    """Nor here: {:.17g}."""\n'
                      '    a = "%.17g" % x\n'
                      '    b = f"{x:.17g}"\n'
                      '    return a, b, format(x, ".17G")\n')
    assert sorted(_g17_formats(module)) == ["m.py:4", "m.py:5", "m.py:6"]
