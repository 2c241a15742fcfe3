"""Each module of the package that declares ``__all__`` lists exactly its
public top-level functions and classes, so a name moved from one module
to another leaves no stale export behind and gains one where it lands.
Each name it lists is also read somewhere: by the package itself, the
benchmark's tracer, the test oracles or the README tour, so an export
that only its own tests call is seen as dead."""

import ast
import pathlib

import pytest
from test_demos import _readme_tour
from test_tracer_targets import _tracer_module

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "solvharm"


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


def _read_names(tree) -> set:
    """Every name an AST reads: names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def _tracer_names() -> set:
    tracer = _tracer_module()
    return {part for _, attr in [*tracer.SPANS, *tracer.COUNTERS]
            for part in attr.split(".")}


def _readers() -> set:
    """The names read by the package (its ``__init__`` re-exports aside),
    the tracer's ``SPANS`` and ``COUNTERS``, ``tests/oracles.py`` and the
    README tour."""
    trees = [ast.parse(p.read_text(), str(p)) for p in SRC.glob("*.py")
             if p.name != "__init__.py"]
    trees += [ast.parse((ROOT / "tests" / "oracles.py").read_text()),
              ast.parse(_readme_tour())]
    return set().union(_tracer_names(), *map(_read_names, trees))


def _unread(readers, paths) -> list:
    return sorted(f"{p.stem}.{name}" for p in paths
                  for name in _names(p)[0] if name not in readers)


def test_every_export_is_read():
    assert _unread(_readers(), _DECLARING) == []


def test_the_read_check_sees_a_dead_export(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('__all__ = ["used", "dead"]\n\n'
                      "def used():\n    pass\n\n\ndef dead():\n"
                      "    pass\n\n\nused()\n")
    assert _unread(_read_names(ast.parse(module.read_text())),
                   [module]) == ["m.dead"]
