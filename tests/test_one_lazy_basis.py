"""Spans have one lazy basis and one breadth-first build: fundrep.Subspace
is the only class that defines _basis, the only code that builds shadow
rows (Shadow, ShadowBasis) and the only code that builds a deque;
MatchedSpan, lowering_closure and every other span use its build."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qosc"
SHADOW_TYPES = {"Shadow", "ShadowBasis"}


def owners(tree, accepts):
    """The classes (None for code outside a class) holding a node that
    accepts takes."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if accepts(child):
                found.add(owner)
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(tree, None)
    return found


def defines_basis(node):
    return isinstance(node, ast.FunctionDef) and node.name == "_basis"


def builds_shadow(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in SHADOW_TYPES)


def builds_deque(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "deque")


def across_src(accepts):
    return sorted(
        (path.name, owner)
        for path in SRC.glob("*.py")
        for owner in owners(ast.parse(path.read_text()), accepts)
    )


def test_only_subspace_defines_the_lazy_basis():
    assert across_src(defines_basis) == [("fundrep.py", "Subspace")]


def test_only_subspace_builds_shadow_rows():
    assert across_src(builds_shadow) == [("fundrep.py", "Subspace")]


def test_only_subspace_builds_a_deque():
    assert across_src(builds_deque) == [("fundrep.py", "Subspace")]


def test_the_checks_see_a_second_home():
    tree = ast.parse(
        "class Subspace:\n    def _basis(self): return ShadowBasis()\n"
        "    def build(self): return deque()\n"
        "class MatchedSpan(Subspace):\n    def _basis(self): pass\n"
        "def build():\n    return Shadow()\n"
        "def closure(v):\n    return deque([v])\n"
    )
    assert owners(tree, defines_basis) == {"Subspace", "MatchedSpan"}
    assert owners(tree, builds_shadow) == {"Subspace", None}
    assert owners(tree, builds_deque) == {"Subspace", None}
