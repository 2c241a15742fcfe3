"""A report depends only on its input, and the density sidecar's directions
on ``--seed``: the package draws random numbers in one place, the seeded
direction draw of ``cli._density_table``."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "solvharm"
RANDOM_MODULES = {"random", "secrets", "numpy.random"}


class _RandomUses(ast.NodeVisitor):
    """(file, enclosing function, source) of every random draw or import."""

    def __init__(self, filename):
        self.filename, self.scope, self.uses = filename, [], []

    def _record(self, node):
        self.uses.append((self.filename, ".".join(self.scope),
                          ast.unparse(node)))

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node):
        if any(a.name in RANDOM_MODULES for a in node.names):
            self._record(node)

    def visit_ImportFrom(self, node):
        names = {f"{node.module}.{a.name}" for a in node.names}
        if {node.module, *names} & RANDOM_MODULES:
            self._record(node)

    def visit_Call(self, node):
        # np.random.default_rng(seed) is one use, not two
        if any(isinstance(n, ast.Attribute) and n.attr == "random"
               for n in ast.walk(node.func)):
            self._record(node)
            for child in (*node.args, *node.keywords):
                self.visit(child)
        else:
            self.generic_visit(node)

    def visit_Attribute(self, node):
        if node.attr == "random":
            self._record(node)
        self.generic_visit(node)


def test_only_random_draw_is_the_seeded_density_directions():
    uses = []
    for path in sorted(SRC.rglob("*.py")):
        visitor = _RandomUses(path.name)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        uses += visitor.uses
    assert uses == [("cli.py", "_density_table",
                     "np.random.default_rng(seed)")]
