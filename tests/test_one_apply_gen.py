"""The module protocol has one apply_gen: the window rule and the image
memo live in fockmod.FockModule, and subclasses give only _image."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qosc"


def classes_defining(tree, method):
    return sorted(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == method for item in node.body)
    )


def test_only_fock_module_defines_apply_gen():
    # in every module of the package: a module with its own images gives
    # _image and keeps them in its own memo
    assert [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in classes_defining(ast.parse(path.read_text()), "apply_gen")
    ] == [("fockmod.py", "FockModule")]


def test_no_module_flags_whether_it_caches_images():
    # who keeps images is read off a module's _images, not off a flag
    assert [p.name for p in sorted(SRC.glob("*.py")) if "caches_images" in p.read_text()] == []


def test_the_check_sees_a_second_apply_gen():
    tree = ast.parse(
        "class A:\n    def apply_gen(self): pass\n"
        "class B(A):\n    def apply_gen(self): pass\n"
        "class C(A):\n    def _image(self): pass\n"
    )
    assert classes_defining(tree, "apply_gen") == ["A", "B"]
