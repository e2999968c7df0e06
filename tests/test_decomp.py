import pytest

from qosc.algebraops import phi_words
from qosc.decomp import (
    classical_dim,
    conjugate,
    decompose,
    find_hw,
    hw_weight,
    in_classical_family,
    is_partition,
    partitions_upto,
    tableau_H,
)
from qosc.fockmod import (
    FockVector,
    RestrictedModule,
    TensorModule,
    TruncatedModule,
    W2Module,
    WModule,
    act,
)
from qosc.lattice import EpsilonData, Weight
from qosc.scalars import Scalar, parse_scalar

EPS = EpsilonData((1, 0, 1, 0, 1))
EPSP = EpsilonData((0, 1, 0, 1, 0))


def nonzero(res):
    return {lam: d for lam, d in res if d}


def test_partitions_and_families():
    assert conjugate((3, 1)) == (2, 1, 1)
    ps = set(partitions_upto(3))
    # each partition comes once; cumulative counts of partitions of 0..8
    for total, count in enumerate((1, 2, 4, 7, 12, 19, 30, 45, 67)):
        got = list(partitions_upto(total))
        assert len(got) == len(set(got)) == count, total
        assert all(is_partition(p) and sum(p) <= total for p in got)
    assert (2, 1) in ps and (1, 1, 1) in ps and () in ps
    assert in_classical_family((5,), "O", 2)
    assert in_classical_family((1, 1), "O", 2)
    assert not in_classical_family((2, 1), "O", 2)
    assert in_classical_family((4, 2), "Sp", 2)
    assert not in_classical_family((1, 1, 1), "Sp", 2)


def test_tableau_examples():
    res = tableau_H(EpsilonData((1, 0, 1)), (1,))
    assert res is not None and res[0] == {3: 1}
    assert res[1] == [(3, "col", 1)]
    assert tableau_H(EpsilonData((0, 0)), (1, 1, 1)) is None
    # large alternating host: any two-column partition fills
    big = EpsilonData(tuple((i + 1) % 2 for i in range(11)))
    for lam in [(4,), (3, 1), (2, 2), (5, 3)]:
        assert tableau_H(big, lam) is not None, lam


def test_hw_weights():
    assert hw_weight(EPS, (), 1, "c") == Weight(1, (0,) * 5)
    assert hw_weight(EPS, (1,), 1, "c") == Weight(1, (0, 0, 0, 0, 1))
    assert hw_weight(EPSP, (3,), 1, "d") == Weight(2, (0, 0, 0, 0, 3))
    assert hw_weight(EPS, (2,), 2, "c") == Weight(2, (0, 0, 0, 1, 1))
    assert hw_weight(EPS, (1, 1), 2, "c") == Weight(2, (0, 0, 0, 0, 2))
    # outside P_eps at the overline level
    tgt = phi_words("c", "overline", EPS)
    assert hw_weight(EPS, (4,), 2, "c", kept=tgt.kept) is None


def test_find_hw_top_line():
    wx = WModule(EPS, parse_scalar("q^2"), cutoff=6)
    wy = WModule(EPS, parse_scalar("q^-4"), cutoff=6)
    T = TensorModule([RestrictedModule(wx, 0), RestrictedModule(wy, 0)])
    basis = find_hw(T, Weight(2, (0,) * 5))
    assert len(basis) == 1
    assert basis[0].terms == {
        ((0,) * 5, (0,) * 5): basis[0].terms[((0,) * 5, (0,) * 5)]
    }
    basis = find_hw(T, hw_weight(EPS, (2,), 2, "c"))
    assert len(basis) == 1
    # re-verify independently: every kernel vector is killed by raising ops
    for v in basis:
        for j in EPS.II:
            assert act(T, ("e", j), v).is_zero()


def test_decompose_matches_howe_oracles():
    N = 8
    wx = WModule(EPS, parse_scalar("q^2"), cutoff=N)
    wy = WModule(EPS, parse_scalar("q^-4"), cutoff=N)
    pp = nonzero(
        decompose(TensorModule([RestrictedModule(wx, 0), RestrictedModule(wy, 0)]), "c", 2, N)
    )
    assert pp == {(): 1, (2,): 1, (4,): 1, (6,): 1, (8,): 1}
    mm = nonzero(
        decompose(TensorModule([RestrictedModule(wx, 1), RestrictedModule(wy, 1)]), "c", 2, N)
    )
    assert mm == {(1, 1): 1, (2,): 1, (4,): 1, (6,): 1, (8,): 1}
    pm = nonzero(
        decompose(TensorModule([RestrictedModule(wx, 0), RestrictedModule(wy, 1)]), "c", 2, N)
    )
    assert pm == {(1,): 1, (3,): 1, (5,): 1, (7,): 1}


def test_decompose_type_d_multiplicities():
    w2 = W2Module(EPSP, parse_scalar("q^2"), cutoff=6)
    got = nonzero(decompose(w2, "d", 1, 5))
    assert got == {(): 1, (1,): 2, (2,): 3, (3,): 4, (4,): 5, (5,): 6}


def test_multiplicity_stability_under_truncation():
    N = 8
    wx = WModule(EPS, parse_scalar("q^2"), cutoff=N)
    wy = WModule(EPS, parse_scalar("q^-4"), cutoff=N)
    bold = nonzero(
        decompose(TensorModule([RestrictedModule(wx, 0), RestrictedModule(wy, 0)]), "c", 2, N)
    )
    for side in ("underline", "overline"):
        tgt = phi_words("c", side, EPS)
        tx = TruncatedModule(wx, tgt)
        ty = TruncatedModule(wy, tgt)
        level = nonzero(
            decompose(TensorModule([RestrictedModule(tx, 0), RestrictedModule(ty, 0)]), "c", 2, N)
        )
        for lam, d in level.items():
            assert bold[lam] == d, (side, lam)
        # zero branch: weights outside P_eps never appear
        for lam in bold:
            if hw_weight(EPS, lam, 2, "c", kept=tgt.kept) is None:
                assert lam not in level


def test_weight_positivity_of_components():
    # every weight of the window lies in 2 Lam + Z_+ deltas
    wx = WModule(EPS, parse_scalar("q^2"), cutoff=6)
    wy = WModule(EPS, parse_scalar("q^-4"), cutoff=6)
    T = TensorModule([wx, wy])
    for label in T.enumerate_labels(4):
        wt = T.weight_of(label)
        assert wt.lam == 2 and all(c >= 0 for c in wt.delta)


def test_classical_dims():
    assert classical_dim("O", 1, ()) == 1
    assert classical_dim("O", 1, (1,)) == 1
    assert classical_dim("Sp", 1, (3,)) == 4
    assert classical_dim("O", 2, ()) == 1
    assert classical_dim("O", 2, (1, 1)) == 1
    assert classical_dim("O", 2, (2,)) == 2
    with pytest.raises(ValueError):
        classical_dim("O", 3, (1,))
    # cross-validated against hw counts in the full W (x) W window
    wx = WModule(EPS, parse_scalar("q^2"), cutoff=6)
    wy = WModule(EPS, parse_scalar("q^-4"), cutoff=6)
    for lam, d in decompose(TensorModule([wx, wy]), "c", 2, 6):
        if d:
            assert d == classical_dim("O", 2, lam)
