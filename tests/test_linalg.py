"""The single elimination kernel against the three loops it replaced.

``ref_nullspace`` and ``ref_solve_unique`` are the two Gauss-Jordan loops
that ``linalg`` held before they shared one kernel; ``ref_cone_member`` is
the dense Fraction elimination that ``rmatrix._ConeTest.member`` ran.  The
kernel must give the same kernel basis (order included), the same status
and the same solution, and the cone test the same answers.  ``RowBasis``
must express a combination of its originals by its exact coefficients,
and its in-place sweep must give what the sweep of one ``vaxpy`` copy per
pivot gave (``RefRowBasis``).
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qosc.algebraops import host_eps, level_module
from qosc.decomp import finite_indices
from qosc.linalg import RowBasis, nullspace, solve_unique, vaxpy
from qosc.rmatrix import _ConeTest, make_c_pair, make_d_pair
from qosc.scalars import ONE, Q, ZERO, Scalar, qint

# -- reference loops ---------------------------------------------------------


def ref_nullspace(rows, columns):
    col_index = {c: i for i, c in enumerate(columns)}
    echelon = []
    for row in rows:
        r = {}
        for c, x in row.items():
            if not x.is_zero():
                r[col_index[c]] = x
        for pc, er in echelon:
            c = r.get(pc)
            if c is not None:
                r = vaxpy(r, c, er)
        if not r:
            continue
        pc = min(r)
        inv = r[pc].inverse()
        r = {k: v * inv for k, v in r.items()}
        for t in range(len(echelon)):
            p2, er = echelon[t]
            c = er.get(pc)
            if c is not None:
                echelon[t] = (p2, vaxpy(er, c, r))
        echelon.append((pc, r))
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


def ref_solve_unique(equations, columns):
    RHS = ("#rhs",)
    col_index = {c: i for i, c in enumerate(columns)}
    echelon = []
    for coeffs, rhs in equations:
        r = {col_index[c]: x for c, x in coeffs.items() if not x.is_zero()}
        if not (hasattr(rhs, "is_zero") and rhs.is_zero()):
            r[RHS] = rhs
        for pc, er in echelon:
            c = r.get(pc)
            if c is not None:
                r = vaxpy(r, c, er)
        main = [k for k in r if k != RHS]
        if not main:
            if r:
                return None, "inconsistent"
            continue
        pc = min(main)
        inv = r[pc].inverse()
        r = {k: v * inv for k, v in r.items()}
        for t in range(len(echelon)):
            p2, er = echelon[t]
            c = er.get(pc)
            if c is not None:
                echelon[t] = (p2, vaxpy(er, c, r))
        echelon.append((pc, r))
    pivots = {pc for pc, _ in echelon}
    if len(pivots) < len(columns):
        return None, "underdetermined"
    sol = {c: ZERO for c in columns}
    for pc, er in echelon:
        rhs = er.get(RHS)
        leftovers = [k for k in er if k != RHS and k != pc]
        assert not leftovers
        sol[columns[pc]] = rhs if rhs is not None else ZERO
    return sol, "unique"


class RefRowBasis(RowBasis):
    """RowBasis whose sweep copies the vector at every pivot with vaxpy."""

    def reduce(self, v):
        v = dict(v)
        mult = {}
        for pivot in self.pivots:
            c = v.get(pivot)
            if c is None:
                continue
            v = vaxpy(v, c, self.rows[pivot])
            mult[pivot] = c
        return v, mult


def ref_cone_member(roots, dvec):
    cols = [tuple(r.delta) for r in roots]
    n = len(dvec)
    aug = [[Fraction(cols[j][i]) for j in range(len(cols))] + [Fraction(dvec[i])] for i in range(n)]
    r = 0
    for c in range(len(cols)):
        p = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        d = aug[r][c]
        aug[r] = [x / d for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    ok = True
    for i in range(r, n):
        if aug[i][-1] != 0:
            ok = False
    if ok:
        for i in range(r):
            val = aug[i][-1]
            if val.denominator != 1 or val < 0:
                ok = False
                break
    return ok


# -- random sparse systems ---------------------------------------------------

W = Scalar.monomial(1, 1)
POOL = [ZERO] * 4 + [
    ONE,
    -ONE,
    Scalar.from_int(2),
    Scalar.from_int(-3),
    Q,
    Q.inverse(),
    qint(2),
    qint(3),
    ONE + W,
    (ONE + W).inverse(),
]
entries = st.sampled_from(POOL)


@st.composite
def systems(draw):
    """(equations, columns): fresh rows, zero rows, and combinations of
    earlier rows with the matching right-hand side (dependent) or an offset
    one (inconsistent when the combination reduces to zero).  Half of the
    systems give fresh rows the right-hand side of one point x, so that
    overdetermined systems can still be consistent."""
    columns = draw(st.permutations([(i, -i) for i in range(draw(st.integers(1, 4)))]))
    x = {c: draw(entries) for c in columns} if draw(st.booleans()) else None
    eqs = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["fresh"] * 3 + ["zero", "combo", "combo", "offset"]))
        if kind == "zero" or (kind != "fresh" and not eqs):
            eqs.append(({c: ZERO for c in draw(st.lists(st.sampled_from(columns)))}, ZERO))
        elif kind == "fresh":
            coeffs = {c: draw(entries) for c in draw(st.lists(st.sampled_from(columns), unique=True))}
            if x is None:
                rhs = draw(entries)
            else:
                rhs = sum((a * x[c] for c, a in coeffs.items()), ZERO)
            eqs.append((coeffs, rhs))
        else:
            (a, ra), (b, rb) = draw(st.sampled_from(eqs)), draw(st.sampled_from(eqs))
            s, t = draw(entries), draw(entries)
            coeffs = {c: s * a.get(c, ZERO) + t * b.get(c, ZERO) for c in columns}
            rhs = s * ra + t * rb
            eqs.append((coeffs, rhs + ONE if kind == "offset" else rhs))
    return eqs, columns


@settings(max_examples=200, deadline=None)
@given(systems())
def test_kernel_matches_reference_loops(system):
    eqs, columns = system
    rows = [coeffs for coeffs, _ in eqs]
    got = nullspace(rows, columns)
    want = ref_nullspace(rows, columns)
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
    sol, status = solve_unique(eqs, columns)
    ref_sol, ref_status = ref_solve_unique(eqs, columns)
    assert status == ref_status
    if sol is None:
        assert ref_sol is None
    else:
        assert list(sol.items()) == list(ref_sol.items())


def test_statuses():
    a, b = ("a",), ("b",)
    two = Scalar.from_int(2)
    zero_row = ({a: ZERO, b: ZERO}, ZERO)
    cases = [
        ([zero_row, ({a: ONE}, two), ({a: ONE, b: ONE}, ONE)], "unique"),
        ([({a: ONE, b: Q}, ONE), ({a: two, b: two * Q}, ONE)], "inconsistent"),
        ([zero_row, ({b: ONE}, ZERO)], "underdetermined"),
        ([({a: ONE}, ONE), zero_row, ({b: ZERO}, two)], "inconsistent"),
    ]
    for eqs, status in cases:
        sol, got = solve_unique(eqs, [a, b])
        assert got == status
        assert (sol, got) == ref_solve_unique(eqs, [a, b])
    sol, _ = solve_unique(cases[0][0], [a, b])
    assert sol == {a: two, b: -ONE}
    # free column b: one kernel vector, 1 at b and -q at a
    assert nullspace([{a: ONE, b: Q}, {a: two, b: two * Q}], [a, b]) == [{b: ONE, a: -Q}]


# -- the cone test -----------------------------------------------------------

# (flavor, level, number of lowering roots); the roots are independent
ALGEBRAS = [
    ("c", "bold", 5),
    ("c", "underline", 2),
    ("c", "overline", 3),
    ("d", "underline", 3),
    ("d", "bold", 5),
]


def lowering_roots(flavor, level):
    module = level_module(flavor, level, host_eps(flavor, 2), 2, [(ONE, "W")])
    alg = module.algebra
    return [alg.root(j) for j in alg.gen_indices if j != 0]


@pytest.mark.parametrize("flavor, level, rank", ALGEBRAS)
def test_lowering_roots_are_independent(flavor, level, rank):
    roots = lowering_roots(flavor, level)
    assert len(roots) == rank
    rows = [{j: Scalar.from_int(r.delta[i]) for j, r in enumerate(roots)}
            for i in range(len(roots[0].delta))]
    assert nullspace(rows, list(range(rank))) == []


@pytest.mark.parametrize("flavor, level, rank", ALGEBRAS)
def test_cone_member_matches_fraction_reference(flavor, level, rank):
    roots = lowering_roots(flavor, level)
    n = len(roots[0].delta)
    cone = _ConeTest(roots)
    # the sum of the roots lies in the cone, its negative does not
    total = [sum(r.delta[i] for r in roots) for i in range(n)]
    assert cone.member(total) and not cone.member([-x for x in total])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-1, 3), min_size=rank, max_size=rank),
        st.lists(st.integers(-1, 1), min_size=n, max_size=n),
        st.booleans(),
    )
    def check(coeffs, noise, perturb):
        dvec = [sum(c * r.delta[i] for c, r in zip(coeffs, roots)) for i in range(n)]
        if perturb:
            dvec = [d + e for d, e in zip(dvec, noise)]
        want = ref_cone_member(roots, dvec)
        assert _ConeTest(roots).member(dvec) == want
        assert cone.member(dvec) == want  # one test object, many vectors

    check()


def ref_cone_member_by_solve(roots, dvec):
    """The decision ``_ConeTest.member`` made by one ``solve_unique`` over
    Q(w) per delta-vector, before it kept an integer left inverse."""
    roots = [tuple(r.delta) for r in roots]
    eqs = [({j: Scalar.from_int(r[i]) for j, r in enumerate(roots)}, Scalar.from_int(d))
           for i, d in enumerate(dvec)]
    sol, status = solve_unique(eqs, range(len(roots)))
    assert status != "underdetermined"
    if status != "unique":
        return False
    for x in sol.values():
        # a nonnegative integer n is the Scalar from_int(n), whose num is (n,)
        n = x.num[0] if x.num else 0
        if n < 0 or x != Scalar.from_int(n):
            return False
    return True


PAIRS = [
    ("c", 2, lambda: make_c_pair(2, ("+", "-"), 3)),
    ("c", 3, lambda: make_c_pair(3, ("+", "-"), 3)),
    ("d", 2, lambda: make_d_pair(2, 1, 1, 3)),
    ("d", 3, lambda: make_d_pair(3, 1, 1, 3)),
]


@pytest.mark.parametrize("flavor, m, make", PAIRS, ids=["%s-m%d" % p[:2] for p in PAIRS])
def test_the_integer_cone_decision_matches_the_solve_over_qw(flavor, m, make):
    alg = make().source.algebra
    roots = [alg.root(j) for j in finite_indices(alg)]
    cone = _ConeTest(roots)
    # every coordinate of these roots lies in -1..1: the box reaches one
    # past that at m = 2 (5 coordinates) and holds it at m = 3 (7)
    n = len(roots[0].delta)
    box = range(-2, 3) if m == 2 else range(-1, 2)
    members = 0
    for dvec in product(box, repeat=n):
        got = cone.member(dvec)
        assert got == ref_cone_member_by_solve(roots, dvec), dvec
        members += got
    assert members > n


# -- RowBasis.express --------------------------------------------------------

KETS = [(i, j) for i in range(3) for j in range(2)]
OUTSIDE = (3, 3)
NONZERO = st.builds(
    lambda a, k: Scalar.from_int(a) * Q**k,
    st.integers(-3, 3).filter(bool),
    st.integers(-3, 3),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.dictionaries(st.sampled_from(KETS), NONZERO, min_size=1, max_size=4),
             min_size=1, max_size=8),
    st.lists(st.one_of(st.just(ZERO), NONZERO), min_size=6, max_size=6),
)
def test_express_returns_the_coefficients_of_a_combination(vectors, weights):
    basis, originals = RowBasis(), []
    for v in vectors:
        r, mult = basis.reduce(v)
        if r:
            basis.insert(r, mult)
            originals.append(v)
    coords = {i: x for i, x in enumerate(weights[: len(originals)]) if not x.is_zero()}
    combo = {}
    for i, x in coords.items():
        combo = vaxpy(combo, -x, originals[i])
    assert basis.express(combo) == coords
    assert basis.express({**combo, OUTSIDE: ONE}) is None
    assert basis.express({}) == {}


# -- RowBasis.reduce in place ------------------------------------------------

DENSE = st.builds(
    lambda a, k, j: Scalar.from_int(a) * Q**k + qint(j),
    st.integers(-3, 3), st.integers(-2, 2), st.integers(0, 3),
).filter(lambda x: not x.is_zero())


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.dictionaries(st.sampled_from(KETS), st.one_of(NONZERO, DENSE),
                             min_size=1, max_size=5),
             min_size=1, max_size=10),
    st.lists(st.one_of(st.just(ZERO), NONZERO, DENSE), min_size=10, max_size=10),
)
def test_in_place_reduce_matches_the_vaxpy_sweep(vectors, weights):
    basis, ref = RowBasis(), RefRowBasis()
    for v in vectors:
        arg = dict(v)
        got, want = basis.reduce(arg), ref.reduce(v)
        # the argument is left as it was: MatchedSpan stores it
        assert list(arg.items()) == list(v.items())
        assert [list(d.items()) for d in got] == [list(d.items()) for d in want]
        if got[0]:
            basis.insert(*got)
            ref.insert(*want)
    assert basis.pivots == ref.pivots and basis.made == ref.made
    assert {p: list(r.items()) for p, r in basis.rows.items()} == {
        p: list(r.items()) for p, r in ref.rows.items()}
    combo = {}
    for x, v in zip(weights, vectors):
        combo = vaxpy(combo, x, v)
    assert basis.express(combo) == ref.express(combo)
    assert basis.express({**combo, OUTSIDE: ONE}) == ref.express({**combo, OUTSIDE: ONE})
