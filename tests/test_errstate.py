"""Every ``np.errstate`` in the package is listed here with its reason.
A suppressed overflow can make a check pass vacuously (``inf <= inf``),
so a new one fails this guard until it is argued and listed."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "solvharm"

# module.function -> why the warnings it silences are expected
ALLOWED = {
    "hypergeom.z_of_t": "e^(2t) overflows past t ~ 354, where z is 0",
    "jacobi_flow._integrated_density": "a density past float64's range "
                                       "overflows the step's stage sums "
                                       "and is reported as a "
                                       "NumericalError",
}


def _errstates(path):
    """``module.function`` of each ``errstate`` call in ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name == "errstate":
                found.append(f"{path.stem}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_each_errstate_is_listed_with_its_reason():
    uses = [use for path in sorted(SRC.rglob("*.py"))
            for use in _errstates(path)]
    assert sorted(uses) == sorted(ALLOWED)


def test_the_guard_sees_each_spelling(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('import numpy as np\n'
                      'from numpy import errstate\n'
                      'with np.errstate(over="ignore"):\n'
                      '    pass\n'
                      'def f(x):\n'
                      '    """np.errstate in a docstring is not a call."""\n'
                      '    with errstate(all="ignore"):\n'
                      '        def g():\n'
                      '            return np.errstate(invalid="ignore")\n'
                      '        return x\n')
    assert _errstates(module) == ["m.<module>", "m.f", "m.g"]
