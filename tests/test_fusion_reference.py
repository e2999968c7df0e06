"""The fused image read off the matched span against the apply-every-ket loop.

``ref_fuse`` is the ``rmatrix.fuse`` that applied the specialized R matrix
to every window ket (exhaustive pairs) or stored source vector (the rest)
through ``MatchedSpan.apply``.  ``rmatrix.fuse`` now spans
``rho(c1/c2)[key] * v_tgt`` over the stored entries; both must give the same
image, hence the same block dimensions and highest-weight content.
"""

from collections import Counter

import pytest

from qosc.fockmod import FockVector
from qosc.fundrep import Subspace
from qosc.rmatrix import (
    SolverError,
    compare_spans,
    fuse,
    hw_content,
    make_c_pair,
    make_d_pair,
    solve_R,
    verify_completeness,
)
from qosc.scalars import ONE, SpectralScalar, parse_scalar


def ref_fuse(pair, rho, dec, c1, c2):
    zc = c1 / c2
    rho_c = {k: v.specialize(zc) for k, v in rho.items()}
    src = pair.source
    if pair.exhaustive:
        basis_iter = [FockVector.basis(l) for l in src.enumerate_labels()]
    else:
        basis_iter = [e[1] for _, ent in dec.blocks.values() for e in ent]
    image = Subspace(pair.target)
    for v in basis_iter:
        img = dec.apply(v, rho_c)
        if img is None:
            raise SolverError("fusion source vector outside decomposition")
        if not img.is_zero():
            image.add(_despectralize(img))
    return image


def _despectralize(vec):
    out = FockVector(overflow=vec.overflow)
    for l, c in vec.terms.items():
        if isinstance(c, SpectralScalar):
            c = c.as_scalar()
        out.terms[l] = c
    return out


# each c point is a zero of some rho, so the image is a proper subspace
PAIRS = {
    "c-bold-++": (lambda: make_c_pair(2, ("+", "+"), cutoff=5, level="bold"), "q^-6"),
    "c-bold-+-": (lambda: make_c_pair(2, ("+", "-"), cutoff=5, level="bold"), "q^-4"),
    "c-underline-+-": (
        lambda: make_c_pair(2, ("+", "-"), cutoff=5, level="underline"), "q^-4"),
    "d-bold-1,1": (lambda: make_d_pair(2, 1, 1, cutoff=5, level="bold"), "q^-2"),
    "d-underline-1,1": (
        lambda: make_d_pair(2, 1, 1, cutoff=5, level="underline"), "q^-2"),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_fuse_matches_apply_every_ket(name):
    make, c = PAIRS[name]
    pair = make()
    rho, dec = solve_R(pair, needed_weights=None)
    c1 = parse_scalar(c)
    got = fuse(pair, rho, dec, c1)
    ref = ref_fuse(pair, rho, dec, c1, ONE)
    assert 0 < got.dim() < dec.dim()
    assert got.dims() == ref.dims()
    assert compare_spans(got, ref)["pass"]
    sizes = {k: len(v) for k, v in hw_content(got, pair).items()}
    assert sizes == {k: len(v) for k, v in hw_content(ref, pair).items()}
    assert any(sizes.values())


def test_partial_decomposition_fails_completeness_and_fusion():
    # by default the orbit is built only above the e_0 equations' weights;
    # whole window weight blocks are then absent from it
    pair = make_c_pair(2, ("+", "+"), cutoff=5, level="bold")
    rho, dec = solve_R(pair)
    rep = verify_completeness(pair, dec, maxdeg=5)
    assert not rep["pass"]
    src = pair.source
    window = Counter(src.weight_of(l) for l in src.enumerate_labels())
    dims = dec.dims()
    assert rep["missing"] == sorted(
        (wt for wt in window if dims.get(wt, 0) < window[wt]), key=lambda w: (w.degree(), w.delta)
    )
    assert any(wt not in dec.blocks for wt in rep["missing"])
    with pytest.raises(SolverError, match="outside decomposition"):
        fuse(pair, rho, dec, parse_scalar("q^-6"))
