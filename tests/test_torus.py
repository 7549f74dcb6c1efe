import random

import pytest

import oracles
from nygaard import cli, syntomic, torus
from nygaard.linalg import PGroup, identity, mat_scale
from nygaard.qtorus import QTorusComplex
from nygaard.torus import (
    PrecisionExhausted,
    TorusDeRham,
    conjugate_check,
    frobenius_eta_check,
    summand_levels,
    weight_classes,
)

from oracles import complex_cohomology


def test_build_torus_weight_blocks_d1():
    X = TorusDeRham(3)
    for k in (1, 2, 3, 6, -4):
        C = X.weight_block(k)
        H = complex_cohomology(C.ranks, C.diffs, 3, modulus=3)
        # H^1 = F_p iff p | k; H^0 = F_p iff p | k
        if k % 3 == 0:
            assert H[1] == PGroup(3, (1,))
            assert H[0] == PGroup(3, (1,))
        else:
            assert H[1] == H[0] == PGroup.zero(3)


def test_weight_zero_block():
    X = TorusDeRham(5)
    C = X.weight_block(0)
    assert C.diffs[0] == [[0]]
    H = complex_cohomology(C.ranks, C.diffs, 5, modulus=25)
    assert H[0] == PGroup(5, (2,))
    assert H[1] == PGroup(5, (2,))


def test_d2_top_cohomology_weight0():
    X = oracles.build_torus(2, 2)
    C = X.weight_block((0, 0))
    H = complex_cohomology(C.ranks, C.diffs, 2, modulus=2)
    assert H[2] == PGroup(2, (1,))  # spanned by dlog T_1 ^ dlog T_2


def test_d2_koszul_unit_weight_acyclic():
    X = oracles.build_torus(2, 2)
    C = X.weight_block((1, 0))
    H = complex_cohomology(C.ranks, C.diffs, 2, modulus=2)
    assert all(g == PGroup.zero(2) for g in H.values())


def test_dsquared_zero_random_weights():
    # the d-dimensional reference model; the 1-torus has one differential
    rng = random.Random(3)
    for d in (1, 2, 3):
        X = oracles.build_torus(3, d)
        for _ in range(10):
            m = tuple(rng.randint(-6, 6) for _ in range(d))
            X.weight_block(m)  # the Complex constructor checks d*d = 0


def test_frobenius_scales():
    X = QTorusComplex(5, 1)
    assert X.frobenius_matrix(0) == identity(1)  # phi(1) = 1
    assert X.frobenius_matrix(1) == [[5]]  # phi(dlog T) = 5 dlog T
    # on the d-torus phi is p^j in degree j, on each dlog T_I
    assert oracles.build_qtorus(5, 2, 1).frobenius_matrix(1) == mat_scale(5, identity(2))


def test_nygaard_lattices():
    # the scales take any Koszul degree j, as those of the d-torus do
    X = TorusDeRham(2)
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
    X = TorusDeRham(3)
    assert X.nygaard_scale(1, 0) == 3
    assert X.nygaard_scale(1, 1) == 1


def test_precision_exhausted():
    # the Nygaard level i of N^{>=i} is capped at 62
    X = TorusDeRham(2)
    assert frobenius_eta_check(X, 62, M=1)["all_ok"]
    with pytest.raises(PrecisionExhausted):
        frobenius_eta_check(X, 63, M=1)


def test_divided_frobenius_values():
    X = TorusDeRham(2)
    # phi_1(p * 1) = 1: degree 0 normalized matrix is the identity
    assert X.divided_frobenius_matrix(1, 0) == identity(1)
    # phi_1(dlog T) = dlog T
    assert X.divided_frobenius_matrix(1, 1) == identity(1)
    # p^i phi_i is phi = p^j on the Nygaard basis p^{max(i-j,0)} e_I
    for i in range(4):
        assert X.divided_frobenius_matrix(i, 0) == identity(1)
        assert X.divided_frobenius_matrix(i, 1) == [[2 ** max(1 - i, 0)]]


def test_dlog_classes(monkeypatch):
    # phi_i fixes the degree-i dlog classes dlog T_I of weight zero, as the
    # charp payload reads it off the torus at N = 1, from the one block of
    # phi_i in degree i; the d-dimensional model reads every dlog T_I
    X = QTorusComplex(3, 1)
    for i in (0, 1, 2):
        assert syntomic._weight0(X, 2, i, 1)[1]["phi_fixed"]
        assert oracles.q_dlog_fixed(oracles.build_qtorus(3, 2, 1).divided_frobenius_matrix(i, i), 1)
    orig = X.divided_frobenius_matrix
    monkeypatch.setattr(X, "divided_frobenius_matrix", lambda i, j: mat_scale(3, orig(i, j)))
    assert not syntomic._weight0(X, 2, 1, 1)[1]["phi_fixed"]


def _on_the_summands(check, p, d, i, M):
    """The verdict of check on the d-torus at level i, by the Künneth lemma:
    the 1-torus verdicts at the levels i - t2."""
    return all(check(TorusDeRham(p), level, M)["all_ok"] for level in summand_levels(d, i))


def test_conjugate_check_small():
    # on the 1-torus at the summand levels, and on the d-dimensional model
    for p, d in ((2, 1), (3, 1), (2, 2)):
        for i in range(0, d + 2):
            assert _on_the_summands(conjugate_check, p, d, i, p + 1), (p, d, i)
            assert oracles.conjugate_check(oracles.build_torus(p, d), i, M=p + 1)["all_ok"]


def test_conjugate_check_d2_box():
    assert _on_the_summands(conjugate_check, 2, 2, 1, 6)
    assert oracles.conjugate_check(oracles.build_torus(2, 2), 1, M=6)["all_ok"]


def test_frobenius_eta_identity_i0_d1():
    X = TorusDeRham(2)
    rep = frobenius_eta_check(X, 0, M=4)
    assert rep["all_ok"]


def test_frobenius_eta_identity_range():
    for p in (2, 3):
        for d in (1, 2):
            for i in range(0, 4):
                assert _on_the_summands(frobenius_eta_check, p, d, i, 2), (p, d, i)
                X = oracles.build_torus(p, d)
                assert oracles.frobenius_eta_check(X, i, M=2)["all_ok"], (p, d, i)


def _zero_row_of_phi_i(X, jbad):
    """Corrupt phi_i: zero the first row of its matrix in degree jbad."""
    orig = X.divided_frobenius_matrix

    def corrupted(i, j):
        Phi = [row[:] for row in orig(i, j)]
        if j == jbad:
            Phi[0] = [0] * len(Phi[0])
        return Phi

    X.divided_frobenius_matrix = corrupted


def _models(p, d):
    """(a fresh model, the module of its checks, its class representatives
    of radius 2 by their c): the d-dimensional reference model, and at
    d = 1 the 1-torus of the package too."""
    models = [(lambda: oracles.build_torus(p, d), oracles,
               {w[0]: w for w in oracles.weight_classes(d, 2)})]
    if d == 1:
        models.append((lambda: TorusDeRham(p), torus, {c: c for c in weight_classes(2)}))
    return models


@pytest.mark.parametrize("p, d", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_conjugate_check_rejects_a_corrupted_phi_i(p, d):
    for build, checks, classes in _models(p, d):
        for i in range(d + 1):
            for jbad in range(d + 1):
                X = build()
                _zero_row_of_phi_i(X, jbad)
                rep = checks.conjugate_check(X, i, M=2)
                failed = {w for w, v in rep.items() if w != "all_ok" and not v["ok"]}
                if jbad <= i:
                    # every class where phi_i is compared fails, and no
                    # other: the classes c e_1 with p | c
                    assert failed == {w for c, w in classes.items() if c % p == 0}
                    assert not rep["all_ok"]
                else:
                    # above degree i the truncated target is zero
                    assert rep["all_ok"]


def _shrink_nygaard_lattice(X, jbad):
    """Corrupt N^{>=i}: multiply its scale in degree jbad by p."""
    orig = X.nygaard_scale
    X.nygaard_scale = lambda i, j: orig(i, j) * (X.p if j == jbad else 1)


@pytest.mark.parametrize("p, d", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_frobenius_eta_check_rejects_a_corrupted_nygaard_lattice(p, d):
    for build, checks, classes in _models(p, d):
        for i in range(d + 1):
            for jbad in range(d + 1):
                X = build()
                _shrink_nygaard_lattice(X, jbad)
                rep = checks.frobenius_eta_check(X, i, M=2)
                # phi(N^{>=i}) is then p Fil^i eta_p in degree jbad, at
                # every class
                assert not any(rep[m] for m in classes.values())
                assert not rep["all_ok"]


DERHAM_CORRUPTIONS = {
    "conjugate_all_ok": lambda X: _zero_row_of_phi_i(X, 0),
    "frobenius_eta_all_ok": lambda X: _shrink_nygaard_lattice(X, 0),
}


@pytest.mark.parametrize("key", sorted(DERHAM_CORRUPTIONS))
def test_each_derham_key_reads_false_on_a_corrupted_model(monkeypatch, key):
    def corrupted(p):
        X = TorusDeRham(p)
        DERHAM_CORRUPTIONS[key](X)
        return X

    cfg = cli.RunConfig(p=2, d=2, i=1, M=2)
    assert cli.cmd_derham(cfg)["all_ok"]
    monkeypatch.setattr(cli, "TorusDeRham", corrupted)
    payload = cli.cmd_derham(cfg)
    assert payload[key] is False and payload["all_ok"] is False
