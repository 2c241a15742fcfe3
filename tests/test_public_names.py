"""Each module of the package that declares ``__all__`` lists exactly its
public top-level functions and classes, so a name moved from one module
to another leaves no stale export behind and gains one where it lands."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "solvharm"


def _names(path):
    """(``__all__`` as written, the public top-level def and class names),
    or None when the module declares no ``__all__``."""
    tree = ast.parse(path.read_text(), str(path))
    exports = None
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["__all__"]):
            exports = ast.literal_eval(node.value)
    if exports is None:
        return None
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
              and not node.name.startswith("_")]
    return sorted(exports), sorted(public)


_DECLARING = sorted(p for p in SRC.glob("*.py") if _names(p) is not None)


def test_the_modules_declare_their_exports():
    assert {p.stem for p in _DECLARING} >= {"lie_metric", "curvature",
                                             "jacobi_flow"}


@pytest.mark.parametrize("path", _DECLARING, ids=lambda p: p.name)
def test_all_lists_exactly_the_public_definitions(path):
    exports, public = _names(path)
    assert exports == public


def test_the_check_sees_a_stale_export(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('__all__ = ["moved", "kept"]\n\n'
                      "def kept():\n    pass\n\n\nclass Added:\n    pass\n")
    exports, public = _names(module)
    assert exports != public
    assert (exports, public) == (["kept", "moved"], ["Added", "kept"])
