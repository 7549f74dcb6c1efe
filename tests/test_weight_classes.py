"""The weight-class lemma of the `torus` docstring, steps 1-4, against the
box oracle: every per-weight check of the d-dimensional reference model gives
the same verdict at m as at gcd(m) e_1, and the invariants those verdicts are
read from agree too.  The package runs these checks on the 1-torus only, by
step 5 (tests/test_kunneth.py)."""

from math import gcd

import pytest

import oracles
from nygaard.complexes import eta
from nygaard.linalg import identity, mat_scale, quotient_invariants, restrict_lattice
from oracles import (
    build_qtorus,
    build_torus,
    conjugate_check,
    eta_filtration,
    eta_lattices_B,
    frobenius_chain_map_check,
    frobenius_eta_check,
    lnu_identification_check,
    q_nygaard_stability_check,
    specialization_check,
    weight_classes,
    weights_box,
)


def representative(m):
    return (gcd(*m),) + (0,) * (len(m) - 1)


def _chain_map(X, i, M):
    # looked up at call time, so that the patched weight loop reaches it
    return frobenius_chain_map_check(X, oracles.weight_classes(X.d, M))


TORUS_CHECKS = {
    # qderham's chain-map check at N = 1, on the integral torus
    "chain_map": lambda X, i, M: _chain_map(build_qtorus(X.p, X.d, 1), i, M),
    "conjugate": lambda X, i, M: conjugate_check(X, i, M)["all_ok"],
    "frobenius_eta": lambda X, i, M: frobenius_eta_check(X, i, M)["all_ok"],
}

Q_CHECKS = {
    "specialization": lambda X, i, M: specialization_check(X, M),
    "chain_map": _chain_map,
    "nygaard_stable": lambda X, i, M: q_nygaard_stability_check(X, i, M),
    "lnu": lambda X, i, M: lnu_identification_check(X, i, M, n_prec=2)["all_ok"],
}


def _verdict_over(monkeypatch, weights, check, X, i, M):
    """The verdict of check with its weight loop run over weights."""
    with monkeypatch.context() as patch:
        patch.setattr(oracles, "weight_classes", lambda d, M: weights)
        return check(X, i, M)


def _assert_class_verdicts(monkeypatch, check, X, i, M):
    box = weights_box(X.d, M)
    assert _verdict_over(monkeypatch, box, check, X, i, M) == check(X, i, M)
    at_rep = {c: _verdict_over(monkeypatch, [c], check, X, i, M)
              for c in weight_classes(X.d, M)}
    for m in box:
        assert _verdict_over(monkeypatch, [m], check, X, i, M) == at_rep[representative(m)], m
    return at_rep


@pytest.mark.parametrize("name", sorted(TORUS_CHECKS))
@pytest.mark.parametrize("p, d", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_torus_verdict_over_classes_is_the_verdict_over_the_box(monkeypatch, name, p, d):
    X = build_torus(p, d)
    for i in range(d + 1):
        _assert_class_verdicts(monkeypatch, TORUS_CHECKS[name], X, i, 3 if d == 1 else 2)


@pytest.mark.parametrize("name", sorted(Q_CHECKS))
@pytest.mark.parametrize("p, d, N", [(2, 1, 2), (3, 1, 3), (2, 2, 2), (2, 2, 3)])
def test_q_verdict_over_classes_is_the_verdict_over_the_box(monkeypatch, name, p, d, N):
    X = build_qtorus(p, d, N)
    for i in range(2):
        _assert_class_verdicts(monkeypatch, Q_CHECKS[name], X, i, 3 if d == 1 else 2)


@pytest.mark.parametrize("p, d", [(2, 1), (3, 2)])
def test_a_corrupted_phi_i_fails_on_whole_classes(monkeypatch, p, d):
    # zeroing a row of phi_i makes the verdict false, at the classes c e_1
    # with p | c and at every weight of the box in them
    X = build_torus(p, d)
    orig = X.divided_frobenius_matrix

    def corrupted(i, j):
        Phi = [row[:] for row in orig(i, j)]
        Phi[0] = [0] * len(Phi[0])
        return Phi

    X.divided_frobenius_matrix = corrupted
    at_rep = _assert_class_verdicts(monkeypatch, TORUS_CHECKS["conjugate"], X, d, 3)
    assert {c for c, ok in at_rep.items() if not ok} == {
        c for c in weight_classes(d, 3) if c[0] % p == 0}


def _torus_filtration(X, m, i_top):
    """The weight-m block, eta_p of it and Fil^i = p^i X  intersect  eta_p."""
    block = X.weight_block(m)
    _, eta_lat = eta(X.p, block)
    fils = {i: {j: restrict_lattice(mat_scale(X.p**i, identity(X.rank(j))), None, L)
                for j, L in eta_lat.items()} for i in range(i_top + 1)}
    return block, eta_lat, fils


def _q_filtration(X, m, i_top):
    """The weight-m block, eta_{xi_tilde} of it and its Fil^i."""
    eta_lat = eta_lattices_B(X, m, X.B.xi_tilde)
    return X.weight_block(m), eta_lat, eta_filtration(X, eta_lat, i_top)


def _signature(filtration, X, m, i_top=2):
    """Koszul cohomology over Z, the index of eta and the graded pieces
    Fil^i/Fil^{i+1}, i <= i_top, degree by degree."""
    def invariants(L, M):
        invs, free = quotient_invariants(L, M)
        return tuple(invs), free

    block, eta_lat, fils = filtration(X, m, i_top + 1)
    sig = [tuple((tuple(invs), free) for _, (invs, free) in sorted(block.invariants().items()))]
    for j, L in sorted(eta_lat.items()):
        sig.append(invariants(identity(block.rank(j)), L))
        sig.append(tuple(invariants(fils[i][j], fils[i + 1][j]) for i in range(i_top + 1)))
    return tuple(sig)


@pytest.mark.parametrize("model, p, d, M", [
    ("torus", 2, 1, 4), ("torus", 3, 2, 3), ("torus", 2, 3, 2),
    ("q2", 2, 1, 4), ("q3", 3, 1, 3), ("q2", 2, 2, 2), ("q3", 2, 2, 2),
])
def test_per_weight_invariants_are_those_of_the_class(model, p, d, M):
    # the lemma is an isomorphism of filtered complexes, not only an
    # agreement of verdicts: the groups the checks compare agree too
    if model == "torus":
        X, filtration = build_torus(p, d), _torus_filtration
    else:
        X, filtration = build_qtorus(p, d, int(model[1])), _q_filtration
    at_rep = {c: _signature(filtration, X, c) for c in weight_classes(d, M)}
    for m in weights_box(d, M):
        assert _signature(filtration, X, m) == at_rep[representative(m)], m
    # the classes are told apart, so the comparison is not vacuous
    assert len(set(at_rep.values())) > 1
