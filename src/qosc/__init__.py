"""Exact computer algebra for q-oscillator modules of generalized quantum
groups of affine type D: module actions, truncation functors, normalized
R matrices with spectral decompositions, and fusion."""

from .scalars import (
    ONE,
    Q,
    QTILDE,
    SONE,
    SZERO,
    W,
    Z1,
    ZERO,
    PoleError,
    Scalar,
    SpectralScalar,
    factor_q_poles,
    parse_scalar,
    q_power,
    qint,
)
from .lattice import EpsilonData, Weight, bilinear, qpair, simple_root
from .fockmod import (
    FockVector,
    RestrictedModule,
    TensorModule,
    TruncatedModule,
    W2Module,
    WModule,
    act,
    eval_word,
    weight_block,
)
from .words import WordExpr, divided_power, qcommutator
from .algebraops import (
    RelationReport,
    TargetAlgebra,
    check_phi_relations,
    check_relations,
    check_truncation_equivariance,
    phi_words,
    relation_suite,
    truncate_vector,
)
from .decomp import (
    classical_dim,
    decompose,
    find_hw,
    hw_weight,
    tableau_H,
)
from .fundrep import (
    bold_word,
    build_fundamental,
    check_fundamental_truncation,
    u_rs,
    verify_appendix_C,
    verify_EF_identities,
)
from .rmatrix import (
    AdmissibilityError,
    SolverError,
    check_admissible,
    closed_rho_c,
    closed_rho_d,
    fuse,
    make_c_pair,
    make_d_pair,
    poles,
    renormalize_diamond,
    solve_R,
    verify_spectral,
)

__version__ = "0.1.0"
