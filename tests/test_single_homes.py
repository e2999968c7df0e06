"""Level modules have one constructor, algebraops.level_module, Q(w)(z)
is entered only inside scalars, no module of the package probes its
arguments with hasattr or getattr, and truncation has one kept-support
rule, TargetAlgebra.keeps: only fockmod reads nested ket labels, and
truncate_image_span keeps whole blocks without truncating or adding a
vector.  Kets are enumerated one way: only fockmod's one Fock-ket range
and one weight split call itertools.product.  Only fockmod's relation walks
touch the packed encoding of coefficients as integers.  Scalar rows and
packed rows share one walk kernel: only fockmod._step and _sum_parts
accumulate walk rows, and the trie walk takes no step or sum as a
parameter."""

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


def nested_label_probes(tree):
    """The scopes that test whether a label's first part is a tuple, as in
    isinstance(label[0], tuple)."""
    return sorted(
        {
            scope
            for scope, node in top_level_scopes(tree)
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == "isinstance"
            and len(call.args) == 2
            and isinstance(call.args[0], ast.Subscript)
            and isinstance(call.args[1], ast.Name) and call.args[1].id == "tuple"
        }
    )


def test_only_fockmod_reads_nested_labels():
    probes = sorted(
        (path.name, scope)
        for path in SRC.glob("*.py")
        for scope in nested_label_probes(ast.parse(path.read_text()))
    )
    assert {path for path, _ in probes} == {"fockmod.py"}


def test_the_nested_label_check_sees_a_probe():
    tree = ast.parse(
        "def truncate_vector(vec, kept):\n"
        "    def keeps(label):\n"
        "        if isinstance(label[0], tuple):\n"
        "            return all(keeps(p) for p in label)\n"
        "        return True\n"
        "    return vec\n"
        "def plain(x):\n    return isinstance(x, tuple)\n"
    )
    assert nested_label_probes(tree) == ["truncate_vector"]


def calls_in(tree, function, names):
    """The names among names that the body of a top-level function calls,
    by name or as a method."""
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    return sorted(
        {
            name
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            for name in names
            if names_one_of(call.func, {name})
        }
    )


TRUNCATING_CALLS = {"truncate_vector", "add"}


def test_truncate_image_span_neither_truncates_nor_adds_a_vector():
    tree = ast.parse((SRC / "fundrep.py").read_text())
    assert calls_in(tree, "truncate_image_span", TRUNCATING_CALLS) == []


def test_the_truncation_check_sees_a_per_vector_span():
    tree = ast.parse(
        "def truncate_image_span(image, truncated):\n"
        "    out = Subspace(truncated)\n"
        "    for wt, (b, vecs) in image.blocks.items():\n"
        "        for v in vecs:\n"
        "            tv = truncate_vector(v, truncated.algebra.kept)\n"
        "            if not tv.is_zero():\n"
        "                out.add(tv)\n"
        "    return out\n"
    )
    assert calls_in(tree, "truncate_image_span", TRUNCATING_CALLS) == ["add", "truncate_vector"]


def product_callers(tree):
    """The scopes that call itertools.product, as itertools.product(...) or
    by a name imported from itertools; a method named product, as
    WordExpr.product, is not it."""
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "itertools"
        for alias in node.names
        if alias.name == "product"
    }
    return sorted(
        {
            scope
            for scope, node in top_level_scopes(tree)
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and (isinstance(call.func, ast.Attribute) and call.func.attr == "product"
                 and isinstance(call.func.value, ast.Name) and call.func.value.id == "itertools"
                 or isinstance(call.func, ast.Name) and call.func.id in names)
        }
    )


def test_only_the_ket_enumeration_calls_itertools_product():
    callers = sorted(
        (path.name, scope)
        for path in SRC.glob("*.py")
        for scope in product_callers(ast.parse(path.read_text()))
    )
    assert callers == [("fockmod.py", "_fock_kets"), ("fockmod.py", "_split")]


def test_the_product_check_sees_every_call_but_a_word_product():
    tree = ast.parse(
        "import itertools\n"
        "from itertools import product as pairs\n"
        "class TensorModule:\n"
        "    def labels_by_delta(self, dvec):\n"
        "        return list(itertools.product(*[range(t + 1) for t in dvec]))\n"
        "def singles(ranges):\n    return [m for m in pairs(*ranges)]\n"
        "def word():\n    return WordExpr.product('e', 1, 2)\n"
    )
    assert product_callers(tree) == ["TensorModule.labels_by_delta", "singles"]


def packed_encoding_scopes(tree):
    """The scopes that touch the packed encoding, in which a polynomial is
    an int with one slot of K bits per coefficient: a bit shift by a
    computed amount (c << K, v >>= K) or a bit_length call.  A shift by a
    constant, as n >>= 1 of a square-and-multiply, is not one."""

    def touches(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift, ast.RShift)):
            return not isinstance(node.right, ast.Constant)
        if isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.LShift, ast.RShift)):
            return not isinstance(node.value, ast.Constant)
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "bit_length")

    return sorted(
        {scope for scope, node in top_level_scopes(tree) for sub in ast.walk(node) if touches(sub)}
    )


def test_only_fockmod_touches_the_packed_encoding():
    scopes = sorted(
        (path.name, scope)
        for path in SRC.glob("*.py")
        for scope in packed_encoding_scopes(ast.parse(path.read_text()))
    )
    assert scopes and {path for path, _ in scopes} == {"fockmod.py"}


def test_the_packed_encoding_check_sees_every_touch():
    tree = ast.parse(
        "def pack(c, K, e):\n    return c << (K * e)\n"
        "def width(bound):\n    return bound.bit_length() + 1\n"
        "class Rows:\n    def unpack(self, v):\n        v >>= self.K\n        return v\n"
        "def halve(n):\n    n >>= 1\n    return n >> 2\n"
        "def product(a, b):\n    return a * b\n"
    )
    assert packed_encoding_scopes(tree) == ["Rows.unpack", "pack", "width"]


def items_loop_value(node):
    """The value name of a loop `for key, value in x.items()`, else None."""
    if (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Attribute) and node.iter.func.attr == "items"
            and isinstance(node.target, ast.Tuple) and len(node.target.elts) == 2
            and isinstance(node.target.elts[1], ast.Name)):
        return node.target.elts[1].id
    return None


def drops_an_entry(node):
    """node has an if whose branch deletes a dict entry: del d[k] or d.pop(k)."""
    return any(
        isinstance(x, ast.Delete) and any(isinstance(t, ast.Subscript) for t in x.targets)
        or isinstance(x, ast.Call) and isinstance(x.func, ast.Attribute) and x.func.attr == "pop"
        for branch in ast.walk(node) if isinstance(branch, ast.If)
        for stmt in branch.body + branch.orelse
        for x in ast.walk(stmt)
    )


def row_accumulators(tree):
    """The scopes that accumulate walk rows {source: {label: coefficient}}
    with a zero drop: a loop over rows.items() holding a loop over one
    row's items that drops an entry in an if."""

    def accumulates(node):
        for outer in ast.walk(node):
            row = items_loop_value(outer)
            for inner in ast.walk(outer) if row else ():
                if (inner is not outer and items_loop_value(inner)
                        and isinstance(inner.iter.func.value, ast.Name)
                        and inner.iter.func.value.id == row and drops_an_entry(inner)):
                    return True
        return False

    return sorted({scope for scope, node in top_level_scopes(tree) if accumulates(node)})


def called_parameters(tree, functions):
    """(function, parameter) for each parameter of the named top-level
    functions that its body calls, as step(atom, rows)."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            params = {a.arg for a in node.args.args + node.args.kwonlyargs}
            out |= {(node.name, call.func.id) for call in ast.walk(node)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in params}
    return sorted(out)


def test_scalar_and_packed_rows_share_one_walk_kernel():
    accumulators = sorted(
        (path.name, scope)
        for path in SRC.glob("*.py")
        for scope in row_accumulators(ast.parse(path.read_text()))
    )
    assert accumulators == [("fockmod.py", "_step"), ("fockmod.py", "_sum_parts")]
    tree = ast.parse((SRC / "fockmod.py").read_text())
    walks = {"_walk", "_eval_trie"}
    assert walks <= {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert called_parameters(tree, walks) == []


def test_the_kernel_check_sees_a_second_copy():
    tree = ast.parse(
        "def _pstep(packing, atom, rows):\n"
        "    out = {}\n"
        "    for src, terms in rows.items():\n"
        "        acc = {}\n"
        "        for label, c in terms.items():\n"
        "            for l2, c2 in packing.tables[atom][label]:\n"
        "                s = acc.get(l2, 0) + c * c2\n"
        "                if s:\n                    acc[l2] = s\n"
        "                else:\n                    del acc[l2]\n"
        "        out[src] = acc\n"
        "    return out\n"
        "class Rows:\n"
        "    def total(self, rows, out):\n"
        "        for src, vec in rows.items():\n"
        "            acc = out.setdefault(src, {})\n"
        "            for label, x in vec.items():\n"
        "                acc[label] = acc.get(label, 0) + x\n"
        "                if not acc[label]:\n                    acc.pop(label)\n"
        "def word_product(a, b, acc):\n"
        "    for a1, c1 in a.items():\n"
        "        for a2, c2 in b.items():\n"
        "            s = acc.get(a1 + a2, 0) + c1 * c2\n"
        "            if not s:\n                acc.pop(a1 + a2, None)\n"
        "def _walk(step, finish, node, rows):\n"
        "    for atom, child in node[0].items():\n"
        "        img = step(atom, rows)\n"
        "        finish(img)\n"
        "        _walk(step, finish, child, img)\n"
        "def _eval_trie(trie, rows, source):\n"
        "    return _walk(source, trie, rows)\n"
    )
    assert row_accumulators(tree) == ["Rows.total", "_pstep"]
    assert called_parameters(tree, {"_walk", "_eval_trie"}) == [
        ("_walk", "finish"), ("_walk", "step")]
