"""Level modules have one constructor, algebraops.level_module, Q(w)(z)
is entered only inside scalars, and no module of the package probes its
arguments with hasattr or getattr."""

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


def names_one_of(node, names):
    """node is a name or an attribute in names, as WModule or v.from_scalar."""
    return (isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in names)


def callers_of(tree, names):
    """The scopes with a call whose callee expression names one of names,
    as in WModule(...), (WModule if c else W2Module)(...) or
    v.from_scalar(...)."""
    return sorted(
        {
            scope
            for scope, node in top_level_scopes(tree)
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and any(names_one_of(n, names) for n in ast.walk(call.func))
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


# SpectralScalar(...), SpectralScalar.monomial(...) and any .from_scalar(...)
SPECTRAL_ENTRIES = {"SpectralScalar", "from_scalar"}


def test_only_scalars_enters_the_spectral_field():
    # every other module lifts a Scalar by arithmetic with Z1 or SONE
    assert {path for path, _ in package_callers(SPECTRAL_ENTRIES)} == {"scalars.py"}


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


def test_the_spectral_check_sees_every_entry():
    tree = ast.parse(
        "from .scalars import SpectralScalar\n"
        "def pole(e):\n    return (Z1 - SpectralScalar.from_scalar(q_power(e))) * SONE\n"
        "def lift(s):\n    return s.from_scalar(ONE)\n"
        "def mono():\n    return SpectralScalar.monomial(ONE, 1)\n"
        "def plain():\n    return Scalar.monomial(1, 2) * Z1 - qint(2)\n"
        "class Rho:\n    def build(self):\n        return SpectralScalar(0, (ONE,), (ONE,))\n"
    )
    assert callers_of(tree, SPECTRAL_ENTRIES) == ["Rho.build", "lift", "mono", "pole"]
