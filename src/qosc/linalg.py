"""Exact sparse linear algebra over the coefficient fields.

Vectors are sparse dicts keyed by basis labels; pivoting is deterministic
(first nonzero position in label order), so kernel bases and expansions
are reproducible across runs.
"""

from __future__ import annotations

from bisect import insort

from .fockmod import label_key
from .scalars import ONE, ZERO


def vaxpy(u, c, v):
    """u - c*v (sparse dicts), in a fresh dict."""
    out = dict(u)
    for k, x in v.items():
        p = c * x
        s = out.get(k)
        s = -p if s is None else s - p
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


class RowBasis:
    """Incremental echelon row space remembering original-vector coordinates.

    Rows are normalized at their pivot (the minimal label of the row), so
    every row's support lies at or above its pivot; a single ascending
    sweep therefore fully reduces any vector and rows never get rewritten.
    add(v) either accepts v as a new independent row or returns the exact
    coordinates of v in terms of the previously accepted originals;
    reduce(v) and insert(...) split it, for callers that decide between
    the two steps whether to keep an independent v.
    """

    def __init__(self):
        self.rows = {}  # pivot -> (normalized row dict, comb dict idx->coeff)
        self.pivots = []  # pivots sorted by label_key
        self.count = 0

    def reduce(self, v):
        """(remainder of v, coordinates of v - remainder in the originals);
        v is independent iff the remainder is nonzero."""
        v = dict(v)
        comb = {}
        for pivot in self.pivots:
            c = v.get(pivot)
            if c is None:
                continue
            row, rcomb = self.rows[pivot]
            v = vaxpy(v, c, row)
            for j, x in rcomb.items():
                p = c * x
                s = comb.get(j)
                s = p if s is None else s + p
                if s.is_zero():
                    comb.pop(j, None)
                else:
                    comb[j] = s
        return v, comb

    def insert(self, r, comb):
        """Accept the original whose reduce() gave a nonzero (r, comb)."""
        pivot = min(r, key=label_key)
        inv = r[pivot].inverse()
        row = {k: c * inv for k, c in r.items()}
        rcomb = {self.count: inv}
        for j, x in comb.items():
            rcomb[j] = -(x * inv)
        self.rows[pivot] = (row, rcomb)
        insort(self.pivots, pivot, key=label_key)
        self.count += 1

    def express(self, v):
        """Coordinates of v in the accepted originals; None if outside."""
        r, comb = self.reduce(v)
        return comb if not r else None

    def add(self, v):
        """Returns (accepted, coords-if-dependent-else-None)."""
        r, comb = self.reduce(v)
        if not r:
            return False, comb
        self.insert(r, comb)
        return True, None

    def contains(self, v):
        r, _ = self.reduce(v)
        return not r


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
