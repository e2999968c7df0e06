"""Level modules have one constructor, algebraops.level_module, and no
module of the package probes its arguments with hasattr or getattr."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qosc"


def top_level_scopes(tree):
    """(name, node) of each top-level function, each method as
    Class.method, and "<module>" for every other top-level statement."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield "%s.%s" % (node.name, item.name), item
                else:
                    yield node.name, item
        else:
            yield "<module>", node


def callers_of(tree, names):
    """The scopes with a call whose callee expression names one of names,
    as in WModule(...) or (WModule if c else W2Module)(...)."""
    return sorted(
        {
            scope
            for scope, node in top_level_scopes(tree)
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(call.func))
        }
    )


def package_callers(names):
    return sorted(
        (path.name, scope)
        for path in SRC.glob("*.py")
        for scope in callers_of(ast.parse(path.read_text()), names)
    )


def test_only_level_module_constructs_w_modules():
    assert package_callers({"WModule", "W2Module"}) == [("algebraops.py", "level_module")]


def test_no_module_probes_attributes():
    assert package_callers({"hasattr", "getattr"}) == []


def test_the_checks_see_a_second_caller():
    tree = ast.parse(
        "import fockmod\n"
        "W = fockmod.WModule\n"
        "def level_module(c):\n    return (WModule if c else W2Module)(1, 2, 3)\n"
        "def helper():\n    return [W2Module(1, 2, 3)]\n"
        "class Probe:\n"
        "    def size(self, v):\n        return hasattr(v, 'to_str') and getattr(v, 'n')\n"
        "    def plain(self, v):\n        return v.to_str()\n"
        "BARE = WModule(1, 2, 3)\n"
    )
    assert callers_of(tree, {"WModule", "W2Module"}) == ["<module>", "helper", "level_module"]
    assert callers_of(tree, {"hasattr", "getattr"}) == ["Probe.size"]
