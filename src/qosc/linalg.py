"""Exact sparse linear algebra over the coefficient fields.

Vectors are sparse dicts keyed by basis labels; pivoting is deterministic
(first nonzero position in label order), so kernel bases and expansions
are reproducible across runs.
"""

from __future__ import annotations

from bisect import insort

from .fockmod import label_key
from .scalars import ONE, ZERO, Scalar


def _sub_into(u, c, v):
    """u -= c*v on sparse dicts, in place."""
    for k, x in v.items():
        p = c * x
        s = u.get(k)
        s = -p if s is None else s - p
        if s.is_zero():
            u.pop(k, None)
        else:
            u[k] = s


def vaxpy(u, c, v):
    """u - c*v (sparse dicts), in a fresh dict."""
    out = dict(u)
    _sub_into(out, c, v)
    return out


class RowBasis:
    """Incremental echelon row space that can express a vector in the
    accepted originals.

    Rows are normalized at their pivot (the minimal label of the row), so
    every row's support lies at or above its pivot; a single ascending
    sweep therefore fully reduces any vector and rows never get rewritten.
    reduce(v) returns the remainder and the sweep's multipliers; insert
    accepts an original whose remainder is nonzero.  No coordinates are
    kept: express(v) back-substitutes through the multipliers of the
    originals, each of which uses only its own row and older ones.
    """

    def __init__(self):
        self.rows = {}  # pivot -> normalized row dict
        self.pivots = []  # pivots sorted by label_key
        self.made = []  # per accepted original: (pivot, 1/its coeff, multipliers)

    def reduce(self, v):
        """(remainder of v, {pivot: multiplier} of the sweep); v is
        independent iff the remainder is nonzero.  v itself is left
        unchanged: the sweep works on one copy of it."""
        v = dict(v)
        mult = {}
        for pivot in self.pivots:
            c = v.get(pivot)
            if c is None:
                continue
            _sub_into(v, c, self.rows[pivot])
            mult[pivot] = c
        return v, mult

    def insert(self, r, mult):
        """Accept the original whose reduce() gave a nonzero (r, mult)."""
        pivot = min(r, key=label_key)
        inv = r[pivot].inverse()
        self.rows[pivot] = {k: c * inv for k, c in r.items()}
        insort(self.pivots, pivot, key=label_key)
        self.made.append((pivot, inv, mult))

    def express(self, v):
        """{index of original: coeff} with v their combination; None if
        v is outside the span."""
        r, c = self.reduce(v)
        if r:
            return None
        coords = {}
        i = len(self.made)
        while c:
            i -= 1
            pivot, inv, mult = self.made[i]
            x = c.pop(pivot, None)
            if x is not None:
                coords[i] = x = x * inv
                c = vaxpy(c, x, mult)
        return coords

    def contains(self, v):
        r, _ = self.reduce(v)
        return not r


# -- the shadow of a row space over GF(p) --------------------------------------

SHADOW_PRIME = 2**61 - 1
SHADOW_POINT = 1234567891011  # w0, a unit mod SHADOW_PRIME


class Shadow:
    """Sparse vectors over Q(w) seen at w = SHADOW_POINT in GF(SHADOW_PRIME),
    each scalar evaluated once.

    This ring map is defined on the fractions whose denominator does not
    vanish there.  A vector with an entry outside it (a pole at w0), or with
    an entry over Q(w)(z), has no image: the call returns None."""

    def __init__(self):
        self._memo = {}

    def __call__(self, v):
        """{label: nonzero residue} of the image of v, or None."""
        memo = self._memo
        out = {}
        for k, c in v.items():
            if not isinstance(c, Scalar):
                return None
            r = memo.get(c, -1)
            if r == -1:
                r = memo[c] = c.residue(SHADOW_POINT, SHADOW_PRIME)
            if r is None:
                return None
            if r:
                out[k] = r
        return out


class ShadowBasis:
    """Incremental echelon rows over GF(SHADOW_PRIME), pivoted as in
    RowBasis, of the images of accepted vectors.

    An image that reduces to nonzero is independent of the rows.  Then the
    accepted vectors and the new one have a minor whose image is nonzero,
    so the minor is nonzero over Q(w): the new vector is independent of the
    accepted ones there too.  A zero remainder proves nothing."""

    def __init__(self):
        self.rows = {}  # pivot -> row normalized at its pivot
        self.pivots = []  # sorted by label_key

    def reduce(self, v):
        """The remainder of the image v, reduced in place."""
        p = SHADOW_PRIME
        for pivot in self.pivots:
            c = v.get(pivot)
            if c is None:
                continue
            for k, x in self.rows[pivot].items():
                s = (v.get(k, 0) - c * x) % p
                if s:
                    v[k] = s
                else:
                    del v[k]
        return v

    def insert(self, r):
        """Add the nonzero remainder r of reduce() as a row."""
        pivot = min(r, key=label_key)
        inv = pow(r[pivot], -1, SHADOW_PRIME)
        self.rows[pivot] = {k: c * inv % SHADOW_PRIME for k, c in r.items()}
        insort(self.pivots, pivot, key=label_key)


def _eliminate(rows, ncols):
    """Gauss-Jordan over sparse rows {column index: coeff}, one at a time.

    The pivot of a row is its least column index; every pivot row is
    normalized and eliminated from all earlier rows, so the echelon stays
    fully reduced.  Column index ncols is a right-hand side: a row that
    reduces to it alone is inconsistent, and the elimination stops there,
    returning None.  Otherwise returns [(pivot index, reduced row)].
    """
    echelon = []
    for r in rows:
        for pc, er in echelon:
            c = r.get(pc)
            if c is not None:
                r = vaxpy(r, c, er)
        if not r:
            continue
        pc = min(r)
        if pc == ncols:
            return None
        inv = r[pc].inverse()
        r = {k: v * inv for k, v in r.items()}
        for t in range(len(echelon)):
            p2, er = echelon[t]
            c = er.get(pc)
            if c is not None:
                echelon[t] = (p2, vaxpy(er, c, r))
        echelon.append((pc, r))
    return echelon


def _indexed(coeffs, col_index):
    return {col_index[c]: x for c, x in coeffs.items() if not x.is_zero()}


def nullspace(rows, columns):
    """Deterministic kernel basis of the linear map given by equation rows.

    rows: sparse dicts {column label: coeff}; columns: ordered unknowns.
    Each kernel vector carries coefficient 1 at its free column; free
    columns are taken in increasing order.
    """
    col_index = {c: i for i, c in enumerate(columns)}
    echelon = _eliminate((_indexed(row, col_index) for row in rows), len(columns))
    pivots = {pc for pc, _ in echelon}
    basis = []
    for fc in range(len(columns)):
        if fc in pivots:
            continue
        vec = {columns[fc]: ONE}
        for pc, er in echelon:
            c = er.get(fc)
            if c is not None:
                vec[columns[pc]] = -c
        basis.append(vec)
    return basis


def solve_unique(equations, columns):
    """Solve a (possibly overdetermined) linear system exactly.

    equations: (coeff dict over columns, rhs) pairs, the rhs a Scalar or
    SpectralScalar; columns: the ordered unknowns.  Returns (solution dict,
    status) where status is 'unique', 'inconsistent' or 'underdetermined'.
    """
    n = len(columns)
    col_index = {c: i for i, c in enumerate(columns)}

    def augmented():
        for coeffs, rhs in equations:
            r = _indexed(coeffs, col_index)
            if not rhs.is_zero():
                r[n] = rhs
            yield r

    echelon = _eliminate(augmented(), n)
    if echelon is None:
        return None, "inconsistent"
    if len(echelon) < n:
        return None, "underdetermined"
    sol = {c: ZERO for c in columns}
    for pc, er in echelon:
        # row is x_pc - rhs = 0 after full reduction (no other unknowns left)
        assert set(er) <= {pc, n}
        sol[columns[pc]] = er.get(n, ZERO)
    return sol, "unique"
