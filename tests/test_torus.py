import random

import pytest

from nygaard.linalg import PGroup, identity, mat_mul, mat_scale
from nygaard.qtorus import build_qtorus
from nygaard.syntomic import _q_dlog_fixed
from nygaard.torus import (
    PrecisionExhausted,
    build_torus,
    conjugate_check,
    divided_frobenius_identity_check,
    frobenius_chain_map_check,
    frobenius_eta_check,
    hodge_quotient_check,
    weight_classes,
)

from oracles import complex_cohomology, weights_box


def test_build_torus_weight_blocks_d1():
    X = build_torus(3, 1, 1)
    for k in (1, 2, 3, 6, -4):
        C = X.weight_block((k,))
        H = complex_cohomology(C.ranks, C.diffs, 3, modulus=3)
        # H^1 = F_p iff p | k; H^0 = F_p iff p | k
        if k % 3 == 0:
            assert H[1] == PGroup(3, (1,))
            assert H[0] == PGroup(3, (1,))
        else:
            assert H[1].is_zero()
            assert H[0].is_zero()


def test_weight_zero_block():
    X = build_torus(5, 1, 2)
    C = X.weight_block((0,))
    assert C.diffs[0] == [[0]]
    H = complex_cohomology(C.ranks, C.diffs, 5, modulus=25)
    assert H[0] == PGroup(5, (2,))
    assert H[1] == PGroup(5, (2,))


def test_d2_top_cohomology_weight0():
    X = build_torus(2, 2, 1)
    C = X.weight_block((0, 0))
    H = complex_cohomology(C.ranks, C.diffs, 2, modulus=2)
    assert H[2] == PGroup(2, (1,))  # spanned by dlog T_1 ^ dlog T_2


def test_d2_koszul_unit_weight_acyclic():
    X = build_torus(2, 2, 1)
    C = X.weight_block((1, 0))
    H = complex_cohomology(C.ranks, C.diffs, 2, modulus=2)
    assert all(g.is_zero() for g in H.values())


def test_dsquared_zero_random_weights():
    rng = random.Random(3)
    for d in (1, 2, 3):
        X = build_torus(3, d, 2)
        for _ in range(10):
            m = tuple(rng.randint(-6, 6) for _ in range(d))
            X.weight_block(m)  # Complex __post_init__ checks d*d = 0


def test_frobenius_is_chain_map():
    X = build_torus(2, 2, 3)
    assert frobenius_chain_map_check(X, weights_box(2, 3))


def test_frobenius_scales():
    X = build_torus(5, 2, 2)
    assert X.frobenius_matrix(0) == identity(1)  # phi(1) = 1
    assert X.frobenius_matrix(1) == mat_scale(5, identity(2))  # phi(dlog T) = 5 dlog T


def test_nygaard_lattices():
    X = build_torus(2, 2, 2)
    for i in range(5):
        for j in range(3):
            # d-stable: d maps p^{max(i-j,0)} into p^{max(i-j-1,0)}
            assert j == 2 or X.nygaard_scale(i, j) % X.nygaard_scale(i, j + 1) == 0
            # p N^{>=i} inside N^{>=i+1} inside N^{>=i}
            s, s1 = X.nygaard_scale(i, j), X.nygaard_scale(i + 1, j)
            assert (2 * s) % s1 == 0
            assert s1 % s == 0


def test_nygaard_shape_example():
    # i=1, d=1: [p*A -> Omega^1]
    X = build_torus(3, 1, 2)
    assert X.nygaard_scale(1, 0) == 3
    assert X.nygaard_scale(1, 1) == 1


def test_precision_exhausted():
    # the internal precision n + i of N^{>=i} is capped at 64: i = 62 is the
    # last level at n = 2
    X = build_torus(2, 1, 2)
    assert divided_frobenius_identity_check(X, 62)
    for check in (divided_frobenius_identity_check,
                  lambda X, i: frobenius_eta_check(X, i, M=1)):
        with pytest.raises(PrecisionExhausted):
            check(X, 63)


def test_divided_frobenius_values():
    X = build_torus(2, 1, 3)
    # phi_1(p * 1) = 1: degree 0 normalized matrix is the identity
    assert X.divided_frobenius_matrix(1, 0) == identity(1)
    # phi_1(dlog T) = dlog T
    assert X.divided_frobenius_matrix(1, 1) == identity(1)
    for i in range(4):
        assert divided_frobenius_identity_check(X, i)


def test_divided_frobenius_check_sees_the_restriction_identity(monkeypatch):
    # doubling phi_2 keeps p * phi_1 = phi on N^{>=1}, but breaks
    # phi_1 on N^{>=2} = p * phi_2
    X = build_torus(3, 2, 2)
    matrix = X.divided_frobenius_matrix
    monkeypatch.setattr(X, "divided_frobenius_matrix",
                        lambda i, j: mat_scale(2 if i == 2 else 1, matrix(i, j)))
    assert divided_frobenius_identity_check(X, 0)
    assert not divided_frobenius_identity_check(X, 1)


def test_dlog_classes():
    # phi_i fixes the degree-i dlog classes dlog T_I of weight zero, as the
    # charp payload reads it off the torus at N = 1
    X = build_qtorus(3, 2, 1)
    for i in (0, 1, 2):
        assert _q_dlog_fixed(X.divided_frobenius_matrix(i, i), X.N)
    assert not _q_dlog_fixed(mat_scale(3, X.divided_frobenius_matrix(1, 1)), X.N)


def test_conjugate_check_small():
    for p, d in ((2, 1), (3, 1), (2, 2)):
        X = build_torus(p, d, 1)
        for i in range(0, d + 2):
            rep = conjugate_check(X, i, M=p + 1)
            assert rep["all_ok"], (p, d, i)


def test_conjugate_check_d2_box():
    X = build_torus(2, 2, 1)
    rep = conjugate_check(X, 1, M=6)
    assert rep["all_ok"]


def test_frobenius_eta_identity_i0_d1():
    X = build_torus(2, 1, 2)
    rep = frobenius_eta_check(X, 0, M=4)
    assert rep["all_ok"]


def test_frobenius_eta_identity_range():
    for p in (2, 3):
        for d in (1, 2):
            X = build_torus(p, d, 3)
            for i in range(0, 4):
                rep = frobenius_eta_check(X, i, M=2)
                assert rep["all_ok"], (p, d, i)


def test_hodge_quotient_exactness():
    for p, d in ((2, 1), (3, 2), (2, 2)):
        X = build_torus(p, d, 2)
        for i in range(0, 4):
            rep = hodge_quotient_check(X, i)
            assert rep["ok"], (p, d, i, rep)


def test_hodge_quotient_i0_trivial_case():
    X = build_torus(5, 1, 1)
    rep = hodge_quotient_check(X, 0)
    assert rep["ok"]


def _zero_row_of_phi_i(X, jbad):
    """Corrupt phi_i: zero the first row of its matrix in degree jbad."""
    orig = X.divided_frobenius_matrix

    def corrupted(i, j):
        Phi = [row[:] for row in orig(i, j)]
        if j == jbad:
            Phi[0] = [0] * len(Phi[0])
        return Phi

    X.divided_frobenius_matrix = corrupted


@pytest.mark.parametrize("p, d", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_conjugate_check_rejects_a_corrupted_phi_i(p, d):
    for i in range(d + 1):
        for jbad in range(d + 1):
            X = build_torus(p, d, 1)
            _zero_row_of_phi_i(X, jbad)
            rep = conjugate_check(X, i, M=2)
            failed = {w for w, v in rep.items() if w != "all_ok" and not v["ok"]}
            if jbad <= i:
                # every class where phi_i is compared fails, and no other:
                # the classes c e_1 with p | c
                assert failed == {w for w in weight_classes(d, 2) if w[0] % p == 0}
                assert not rep["all_ok"]
            else:
                # above degree i the truncated target is zero
                assert rep["all_ok"]
