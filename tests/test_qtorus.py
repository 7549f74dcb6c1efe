import pytest

from nygaard.linalg import (
    hermite_form,
    identity,
    lattice_contains,
    mat_mul,
    mat_scale,
)
import oracles
from nygaard import cli, qtorus
from nygaard.qbase import QBase
from nygaard.qtorus import (
    QTorusComplex,
    eta_filtration,
    eta_lattices_B,
    frobenius_chain_map_check,
    lnu_identification_check,
    q_divided_frobenius_checks,
    q_nygaard_stability_check,
    specialization_check,
)
from nygaard.torus import TorusDeRham

from oracles import presented_cohomology_mod, presented_complex_cohomology, weights_box


def _same(A, B):
    assert A == B and all(type(x) is int for row in A for x in row)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_n1_blocks_are_the_integral_torus_blocks(p, d):
    # at N = 1, B = Z and every block of the q-model is the scalar block of
    # the integral torus model, with exact integer entries; phi is p^j
    # there.  The 1-torus models take any Koszul degree j for the blocks
    # that depend on j - i, as the d-torus has them
    X, T = QTorusComplex(p, 1), TorusDeRham(p)
    for m in range(-2, 3):
        _same(X.diff_matrix(m), T.diff_matrix(m))
        for i in range(-1, d + 2):
            ratio = T.nygaard_scale(i, 0) // T.nygaard_scale(i, 1)
            _same(X.normalized_diff_matrix(i, m), mat_scale(ratio, T.diff_matrix(m)))
    for j in range(d + 1):
        _same(X.frobenius_matrix(j), [[p**j]])
        for i in range(-1, d + 2):
            _same(X.divided_frobenius_matrix(i, j), T.divided_frobenius_matrix(i, j))
            _same(X.nygaard_lattice_rows(i, j), [[T.nygaard_scale(i, j)]])
    # the d-dimensional reference models agree the same way
    X, T = oracles.build_qtorus(p, d, 1), oracles.build_torus(p, d)
    same = _same
    weights = weights_box(d, 2 if d < 3 else 1)
    for j in range(d + 1):
        same(X.frobenius_matrix(j), mat_scale(p**j, identity(T.rank(j))))
        if j < d:
            for m in weights:
                same(X.diff_matrix(m, j), T.diff_matrix(m, j))
        for i in range(-1, d + 2):
            same(X.divided_frobenius_matrix(i, j), T.divided_frobenius_matrix(i, j))
            same(X.nygaard_lattice_rows(i, j), mat_scale(T.nygaard_scale(i, j), identity(T.rank(j))))
            if j < d:
                ratio = T.nygaard_scale(i, j) // T.nygaard_scale(i, j + 1)
                for m in weights:
                    same(X.normalized_diff_matrix(i, m, j), mat_scale(ratio, T.diff_matrix(m, j)))


def test_build_qtorus_rank1_block():
    X = QTorusComplex(3, 3)
    C = X.weight_block(2)
    # d = 1, rank-1 Koszul: one N x N block, the matrix of [2]_{q^3}
    assert C.ranks == {0: 3, 1: 3}
    B = X.B
    expect = B.mult_matrix(B.phi(B.q_integer(2)))
    assert C.diffs[0] == expect


def test_specialization_to_integral_torus():
    for p in (2, 3):
        assert specialization_check(QTorusComplex(p, 4), M=3)
    assert oracles.specialization_check(oracles.build_qtorus(2, 2, 4), M=3)


def test_specialization_reads_false_when_a_q_integer_is_off(monkeypatch):
    # the constant coefficient of [m]_{q^p} is compared with m itself, so a
    # [k]_q whose constant coefficient is off by one turns qderham's
    # specialization false; [p]_q is left as it is, so xi is unchanged
    q_integer = QBase.q_integer

    def off_by_one(B, k):
        a = q_integer(B, k)
        return a if k == B.p else (a[0] + 1,) + a[1:]

    monkeypatch.setattr(QBase, "q_integer", off_by_one)
    for N in (1, 2):
        result = cli.run_command("qderham", cli.RunConfig(p=2, N=N, M=1))["result"]
        assert result["specialization"] is False and result["all_ok"] is False, N


def test_d2_mixed_weight_dsquared():
    X = oracles.build_qtorus(2, 2, 3)
    for m in ((1, 2), (-3, 1), (4, 6)):
        X.weight_block(m)  # d^2 = 0 checked in the constructor


def test_q_frobenius_is_chain_map():
    for p in (2, 3):
        assert frobenius_chain_map_check(QTorusComplex(p, 4), range(-2, 3))
    assert oracles.frobenius_chain_map_check(oracles.build_qtorus(2, 2, 4), weights_box(2, 2))


@pytest.mark.parametrize("p, d, N", [(2, 1, 3), (3, 2, 2)])
def test_q_chain_map_check_rejects_a_corrupted_phi(p, d, N):
    # zero the constant-coefficient row of phi in degree 1: at every weight
    # m != 0 the two sides of phi d = d phi then differ; the 1-torus at
    # d = 1, the d-dimensional reference model at d = 2
    if d == 1:
        X, checks, weights = QTorusComplex(p, N), qtorus, range(-2, 3)
    else:
        X, checks, weights = oracles.build_qtorus(p, d, N), oracles, weights_box(d, 2)
    orig = X.frobenius_matrix

    def corrupted(j):
        Phi = [row[:] for row in orig(j)]
        if j == 1:
            Phi[0] = [0] * len(Phi[0])
        return Phi

    X.frobenius_matrix = corrupted
    for m in weights:
        assert checks.frobenius_chain_map_check(X, [m]) == (m in (0, (0,) * d)), m


def test_phi_dlog_twist():
    # phi(dlog T) = xi_tilde * dlog T: degree-1 Frobenius block at d = 1
    X = QTorusComplex(3, 4)
    B = X.B
    got = X.frobenius_matrix(1)
    expect = mat_mul(B.phi_matrix(), B.mult_matrix(B.xi_tilde))
    assert got == expect


def test_phi_mu_identity():
    # phi(q - 1) = (q - 1) [p]_q exactly
    for p in (2, 3, 5):
        B = QBase(p, 6)
        assert B.phi(B.mu) == B.mul(B.mu, B.xi)


def test_q_nygaard_lattices():
    X = QTorusComplex(2, 4)
    for i in (0, 1, 2):
        assert q_nygaard_stability_check(X, i, M=2)
    # i = 0 is the full block
    assert X.nygaard_lattice_rows(0, 0) == [[1 if a == b else 0 for b in range(4)] for a in range(4)]


def test_q_nygaard_mod_mu_is_p_powers():
    # constant coefficients of the xi-power lattice rows give p-power lattices
    X = QTorusComplex(3, 4)
    rows = X.nygaard_lattice_rows(2, 0)
    # the (0,0) entry of M_{xi^2} is p^2
    assert rows[0][0] == 9


def test_q_divided_frobenius():
    for p in (2, 3):
        X = QTorusComplex(p, 4)
        for i in (0, 1, 2):
            assert q_divided_frobenius_checks(X, i)
    # phi_i fixes the degree-i dlog block: normalized matrix at j = i is
    # the plain coefficient Frobenius (weight-zero constants fixed)
    X = QTorusComplex(2, 4)
    Phi = X.divided_frobenius_matrix(1, 1)
    assert Phi == X.B.phi_matrix()
    # phi_1(xi * 1) = 1: constant coefficient of the degree-0 block is 1
    Phi0 = X.divided_frobenius_matrix(1, 0)
    assert Phi0[0][0] == 1


def test_eta_xitilde_contains_frobenius_image():
    X = QTorusComplex(2, 3)
    for m in range(-2, 3):
        pm = 2 * m
        lat = eta_lattices_B(X, pm, X.B.xi_tilde)
        img = X.frobenius_matrix(0)
        for row in img:
            assert lattice_contains(lat[0], [row])


def test_lnu_identification_d1():
    X = QTorusComplex(2, 4)
    rep = lnu_identification_check(X, i_max=1, M=2, n_prec=2)
    assert rep["containment"], rep
    assert rep["graded"], rep


def test_lnu_identification_weight0_identity():
    # weight 0: the identification is the identity on dlog monomials
    X = QTorusComplex(3, 3)
    rep = lnu_identification_check(X, i_max=1, M=0, n_prec=2)
    assert rep["all_ok"]


def test_truncation_consistency():
    # recomputing at larger N and truncating reproduces the N-result
    for N in (2, 3, 4, 5):
        Xs = QTorusComplex(2, N)
        Xl = QTorusComplex(2, N + 1)
        for m in (1, 2, -3):
            Ds = Xs.diff_matrix(m)
            Dl = Xl.diff_matrix(m)
            for a in range(N):
                for b in range(N):
                    assert Ds[a][b] == Dl[a][b]


@pytest.mark.parametrize("p", [2, 3])
def test_lnu_graded_check_rejects_a_corrupted_phi(p):
    # zero the constant-coefficient row of phi in degree 0; the (a) and (b)
    # containments cannot see a zero row, the cone can
    for i in range(3):
        X = QTorusComplex(p, 3)
        orig = X.frobenius_matrix

        def corrupted(j, orig=orig):
            Phi = [row[:] for row in orig(j)]
            if j == 0:
                Phi[0] = [0] * len(Phi[0])
            return Phi

        X.frobenius_matrix = corrupted
        rep = lnu_identification_check(X, i_max=i, M=1, n_prec=2)
        assert not rep["graded"] and not rep["all_ok"]
        assert not rep["weights"][0]["c"]


@pytest.mark.parametrize("p", [2, 3])
def test_lnu_containments_read_hermite_bases(p):
    # (a) and (b) read coordinates off the pivots of the eta lattices and of
    # Fil^i, which are their own Hermite forms; a phi of degree 1 that is not
    # divisible by xi_tilde leaves both, as a refactored lattice says too
    for m in range(-1, 2):
        X = QTorusComplex(p, 3)
        lat = eta_lattices_B(X, p * m, X.B.xi_tilde)
        fils = eta_filtration(X, lat, 2)
        assert all(hermite_form(L) == L for L in lat.values())
        assert all(hermite_form(L) == L for fil in fils.values() for L in fil.values())
    X = QTorusComplex(p, 3)
    orig = X.frobenius_matrix
    X.frobenius_matrix = lambda j: identity(len(orig(j))) if j == 1 else orig(j)
    rep = lnu_identification_check(X, i_max=1, M=1, n_prec=2)
    assert not rep["containment"]
    lat = eta_lattices_B(X, p, X.B.xi_tilde)
    assert not lattice_contains(lat[1], X.frobenius_matrix(1))
    assert rep["weights"][1]["a"] is rep["weights"][1]["b"] is False


@pytest.mark.parametrize("p, d, N", [(2, 1, 3), (3, 1, 3), (2, 1, 4), (2, 2, 3)])
def test_lnu_cone_over_z_is_finite_and_killed_by_p(p, d, N):
    # the dropped rank-over-Q half: over Z the q -> 1 fibre of the cone has
    # free rank 0 and is killed by p, so its groups are the groups mod p^n;
    # the 1-torus at d = 1, the d-dimensional reference model at d = 2
    if d == 1:
        X, checks, weights = QTorusComplex(p, N), qtorus, [(m, p * m) for m in range(-1, 2)]
    else:
        X, checks = oracles.build_qtorus(p, d, N), oracles
        weights = [(m, tuple(p * a for a in m)) for m in weights_box(d, 1)]
    for m, pm in weights:
        fils = checks.eta_filtration(X, checks.eta_lattices_B(X, pm, X.B.xi_tilde), 3)
        for i in range(3):
            phi_N = {j: mat_mul(X.nygaard_lattice_rows(i, j), X.frobenius_matrix(j))
                     for j in range(d + 1)}
            terms, maps = checks._graded_cone(X, i, m, pm, fils, phi_N)
            over_z = presented_complex_cohomology(terms, maps, p)
            assert all(g.free_rank == 0 and set(g.exponents) <= {1} for g in over_z.values())
            for n in (1, 2):
                assert presented_cohomology_mod(terms, maps, p, n) == over_z
