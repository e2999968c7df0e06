"""Formal words in the generators e_i, f_i, k_mu with exact coefficients.

A WordExpr is a finite linear combination of generator monomials.  Atoms
are ('e', i), ('f', i) and ('k', Weight); q-commutators and divided powers
expand at construction time, so evaluation on a module is a right-to-left
sweep over the suffix trie of the terms.
"""

from __future__ import annotations

from .scalars import ONE, Scalar, qfact_at, Q


class WordExpr:
    """Linear combination of atom tuples; coefficients are Scalars."""

    __slots__ = ("terms", "_trie")

    def __init__(self, terms=None):
        # terms: dict {atoms tuple: Scalar}
        self.terms = {}
        self._trie = None
        if terms:
            for atoms, c in terms.items():
                if not c.is_zero():
                    self.terms[atoms] = c

    @staticmethod
    def gen(kind, i):
        return WordExpr({((kind, i),): ONE})

    @staticmethod
    def e(i):
        return WordExpr.gen("e", i)

    @staticmethod
    def f(i):
        return WordExpr.gen("f", i)

    @staticmethod
    def product(kind, *indices):
        """The monomial kind_{i1} kind_{i2} ... of the given indices."""
        return WordExpr({tuple((kind, i) for i in indices): ONE})

    @staticmethod
    def k(mu):
        return WordExpr({(("k", mu),): ONE})

    @staticmethod
    def unit(c=ONE):
        return WordExpr({(): c})

    def scale(self, c: Scalar):
        if c.is_zero():
            return WordExpr()
        return WordExpr({a: c * v for a, v in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for a, c in other.terms.items():
            s = out.get(a)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(a, None)
            else:
                out[a] = s
        w = WordExpr()
        w.terms = out
        return w

    def __sub__(self, other):
        return self + other.scale(Scalar.from_int(-1))

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        out = WordExpr()
        acc = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                key = a1 + a2
                c = c1 * c2
                s = acc.get(key)
                s = c if s is None else s + c
                if s.is_zero():
                    acc.pop(key, None)
                else:
                    acc[key] = s
        out.terms = acc
        return out

    def __pow__(self, n):
        w = WordExpr.unit()
        for _ in range(n):
            w = w * self
        return w

    def is_zero(self):
        return not self.terms

    def mirror_ef(self):
        """The (e -> f) substitution: swap e_i and f_i in every atom."""
        swap = {"e": "f", "f": "e"}
        out = WordExpr()
        out.terms = {
            tuple((swap.get(k, k), i) for (k, i) in atoms): c
            for atoms, c in self.terms.items()
        }
        return out

    def suffix_trie(self):
        """The trie of self for a walk on any vector, built once: as
        suffix_trie([self]), but a term's first-applied k atoms stay on its
        path, since they fold into a factor per source ket only on a basis
        ket.  A WordExpr is not changed after it is built, so the trie never
        goes stale."""
        if self._trie is None:
            self._trie = _trie([self], _head_split)
        return self._trie

    def __repr__(self):
        if not self.terms:
            return "WordExpr(0)"
        bits = []
        for atoms, c in list(self.terms.items())[:6]:
            mono = ".".join(
                "%s%s" % (k, i if k != "k" else "[%s]" % (i.to_str(),))
                for (k, i) in atoms
            )
            bits.append("(%s)*%s" % (c.to_str(), mono or "1"))
        if len(self.terms) > 6:
            bits.append("...")
        return "WordExpr(%s)" % " + ".join(bits)


def _head_split(atoms):
    """(head, core, ()): head the leading k atoms of a term, applied last."""
    h = 0
    while h < len(atoms) and atoms[h][0] == "k":
        h += 1
    return atoms[:h], atoms[h:], ()


def _end_split(atoms):
    """(head, core, tail): the leading and the trailing k atoms of a term
    and the atoms between them; a term of k atoms only is all head."""
    head, core, _ = _head_split(atoms)
    t = len(core)
    while t and core[t - 1][0] == "k":
        t -= 1
    return head, core[:t], core[t:]


def suffix_trie(exprs):
    """The terms of several WordExprs as one trie keyed rightmost atom
    first: evaluating right-to-left, terms that end in the same atoms share
    the nodes of that suffix, within one word and across words.

    A term's k atoms at its ends are not on its path: its leading ones
    (applied last) act on each image ket, its trailing ones (applied first)
    on each source ket, by a q-power per weight, so the walk of a basis ket
    folds both into a factor where it adds the term.  So k_mu e_j k_-mu
    and e_j share the e_j node, and a term of k atoms only ends at the root.

    A node is [children {atom: node}, ends, owners].  ends lists [word
    index, term index, coefficient, last, head, tail] for each term that
    ends at the node, where last marks the word's last end in the order a
    walk meets them (a node's ends, then its children in insertion order)
    and head and tail are its leading and trailing k atoms.  owners lists,
    in order, the words with a term through the node, that is the words an
    image dropped at the node belongs to.  The root owns every word, so
    len(root[2]) is the number of words.
    """
    return _trie(exprs, _end_split)


def _trie(exprs, split):
    """suffix_trie of exprs, each term's atoms split into (head, path, tail)."""
    root = [{}, [], list(range(len(exprs)))]
    for r, expr in enumerate(exprs):
        for idx, (atoms, c) in enumerate(expr.terms.items()):
            head, core, tail = split(atoms)
            node = root
            for atom in reversed(core):
                node = node[0].setdefault(atom, [{}, [], []])
                if not node[2] or node[2][-1] != r:
                    node[2].append(r)
            node[1].append([r, idx, c, False, head, tail])
    last, stack = {}, [root]
    while stack:
        node = stack.pop()
        for end in node[1]:
            last[end[0]] = end
        stack.extend(reversed(node[0].values()))
    for end in last.values():
        end[3] = True
    return root


def qcommutator(a: WordExpr, b: WordExpr, t: Scalar) -> WordExpr:
    """[a, b]_t = a b - t b a."""
    return a * b - (b * a).scale(t)


def divided_power(kind, i, k) -> WordExpr:
    """x_i^(k) = x_i^k / [k]!_q."""
    if k < 0:
        return WordExpr()
    w = WordExpr.gen(kind, i) ** k
    return w.scale(qfact_at(Q, k).inverse())


def word_degree_profile(atoms, shift_of):
    """(max prefix rise, net shift) of an atom tuple applied right-to-left."""
    rise = 0
    cur = 0
    for atom in reversed(atoms):
        cur += shift_of(atom)
        rise = max(rise, cur)
    return rise, cur


def expr_max_rise(expr: WordExpr, shift_of) -> int:
    rise = 0
    for atoms in expr.terms:
        r, _ = word_degree_profile(atoms, shift_of)
        rise = max(rise, r)
    return rise
