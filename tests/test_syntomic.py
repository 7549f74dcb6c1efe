from math import comb

import pytest

from nygaard import cli, linalg, pdalg, syntomic
from nygaard.errors import CompositeNonzero, UsageError
from nygaard.linalg import PGroup, cocycles_boundaries_mod, span_contains_mod
from nygaard.syntomic import (
    NotStabilized,
    degree_bound_inverse_certificate,
    syntomic_acrys,
    _assemble_window,
    _orbit_contribution,
    _q_dlog_fixed,
    _q_tail_vanishes,
    _window_blocks,
    syntomic_q,
)
from nygaard.qtorus import QTorusComplex, build_qtorus

from oracles import (
    cohomology_mod,
    negative_twist_series_by_blocks,
    orbit_contribution_from_scratch,
    phi_block,
    primitive_weights,
    window_n_then_x,
)


# ---------------------------------------------------------------------------
# weight zero and twists 0, 1 (char p)


def test_charp_weight0_anchor():
    # H^0(Z/p^r(0)) = Z/p^r (constants); orbit parts contribute nothing to H^0
    for p, r in ((2, 1), (3, 2)):
        res = syntomic_q(p, 1, 0, r, N=1, M=4)
        assert res.groups[0] == PGroup(p, (r,))
        _, k_used = _orbit_contribution(build_qtorus(p, 1, 1), (1,), 0, r, r + 1)
        assert res.certificates["stabilized"] == k_used


def test_charp_i0_r1_artin_schreier_h1():
    # d=1, i=0, r=1: H^1 is the global Artin-Schreier cokernel: one F_p per
    # orbit plus the weight-zero echo
    p = 2
    M = 4
    res = syntomic_q(p, 1, 0, 1, N=1, M=M)
    orbits = [m for m in range(-M, M + 1) if m != 0 and m % p]
    expected_h1_rank = len(orbits) + 1
    assert res.groups[1] == PGroup(p, (1,) * expected_h1_rank)
    assert res.global_model


def test_charp_dlog_class_weight1():
    for r in (1, 2, 3):
        res = syntomic_q(2, 1, 1, r, N=1, M=4)
        assert res.dlog["present"]
        assert res.dlog["cocycle"]
        assert res.dlog["nonzero_in_H"]
        assert res.dlog["phi_fixed"]
        # stabilization fired within V <= r + 2
        assert res.V_used <= r + 2


def test_charp_negative_twist_zero():
    res = syntomic_q(3, 1, -1, 2, N=1, M=3)
    assert all(g == PGroup.zero(3) for g in res.groups.values())


def test_charp_degrees_outside_window_zero():
    res = syntomic_q(2, 1, 1, 1, N=1, M=3)
    for t, g in res.groups.items():
        if t > 2:  # degrees outside [0, i+1] for the d=1 torus
            assert g == PGroup.zero(2)


def test_charp_reduction_compatibility():
    # H^0 of the r+1 result surjects onto the r result (orders here: both are
    # cyclic of the expected orders)
    for r in (1, 2):
        a = syntomic_q(2, 1, 0, r, N=1, M=2)
        b = syntomic_q(2, 1, 0, r + 1, N=1, M=2)
        assert a.groups[0] == PGroup(2, (r,))
        assert b.groups[0] == PGroup(2, (r + 1,))


def test_charp_module_scaling_sanity():
    # multiplying the H^0(Z/p^r(0)) generator by a scalar stays in the group
    res = syntomic_q(2, 1, 0, 2, N=1, M=2)
    g = res.groups[0]
    assert g.p ** sum(g.exponents) == 4
    # scalar action: c * class has order order/gcd(c, order)
    assert 2 ** sum(PGroup(2, (2,)).exponents) // 2 == 2


@pytest.mark.parametrize("p, d, N", [(2, 3, 1), (3, 3, 1), (2, 2, 3), (3, 2, 2)])
def test_window_up_to_top_is_the_sliced_full_window(p, d, N):
    # a window built up to degree top is the full window cut at top: the
    # degrees 0..top, with the differentials out of the degrees below top
    X = build_qtorus(p, d, N)
    for i in range(-1, d + 1):
        top = min(i + 2, d + 1)
        for m0 in primitive_weights(d, p, 1):
            for V in (0, 2):
                ranks, diffs, basis = _assemble_window(X, i, V, m0)
                assert _assemble_window(X, i, V, m0, top=top) == (
                    {t: ranks[t] for t in range(top + 1)},
                    {t: diffs[t] for t in range(top)},
                    {t: basis[t] for t in range(top + 1)},
                ), (i, m0, V)


def _weight0_groups(X, i, r):
    ranks, diffs, _ = window_n_then_x(X, i, 0)
    return cohomology_mod(ranks, diffs, X.p, r)


def _orbit_and_tail(X, m0, i, r, V):
    # the groups and the tail verdict of m0, both read from m0's own blocks
    blocks = _window_blocks(X, i, m0)
    return _orbit_contribution(X, m0, i, r, V, blocks=blocks), _q_tail_vanishes(X, r, V, blocks)


def _check_orbit_windows_agree_with_e1(p, d, r, N, M):
    # the GL_d(Z[q^{+-1}]) symmetry of the module docstring, checked weight by
    # weight: every primitive orbit has the groups, stabilisation depth and
    # tail verdict of e_1, at the default V and at V = r - 1, and the answer
    # is the weight-0 groups plus the sum over the primitive weights
    X = build_qtorus(p, d, N)
    e1 = (1,) + (0,) * (d - 1)
    weights = primitive_weights(d, p, M)
    for i in range(d + 1):
        for V in (r + 1, r - 1):
            ref = _orbit_and_tail(X, e1, i, r, V)
            total = _weight0_groups(X, i, r)
            for m0 in weights:
                got = _orbit_and_tail(X, m0, i, r, V)
                assert got == ref, (m0, i, V)
                for t, g in got[0][0].items():
                    total[t] = total[t] + g
            if ref[1]:
                assert syntomic_q(p, d, i, r, N=N, M=M, V=V).groups == total, (i, V)
            else:
                with pytest.raises(NotStabilized):
                    syntomic_q(p, d, i, r, N=N, M=M, V=V)


# every p and r at d = 1 (gcd(m0) up to 3); one (p, r) per row at d = 2, 3
# (the full product over d = 2, 3 takes about a minute)
@pytest.mark.parametrize("p, d, r, M", [
    *((p, 1, r, 3) for p in (2, 3, 5) for r in (1, 2, 3)),
    (2, 2, 1, 2), (3, 2, 2, 2), (5, 2, 3, 2),
    (3, 3, 2, 1),
])
def test_charp_orbit_windows_agree_with_class_representative(p, d, r, M):
    _check_orbit_windows_agree_with_e1(p, d, r, 1, M)


# d = 1 up to gcd(m0) = 3 (M = 3) and d = 2, at N = 2, 3; at p = 2, N = 3 and
# V = r - 1 the tail test fails, for every primitive weight alike
@pytest.mark.parametrize("p, d, r, N, M", [
    *((p, 1, r, N, 3) for p in (2, 3, 5) for r in (1, 2) for N in (2, 3)),
    (2, 2, 1, 2, 2), (3, 2, 2, 2, 1), (2, 2, 2, 3, 1), (5, 2, 1, 3, 1),
])
def test_q_orbit_windows_agree_with_e1(p, d, r, N, M):
    _check_orbit_windows_agree_with_e1(p, d, r, N, M)


@pytest.mark.parametrize("p, d, M", [
    (p, d, M) for p in (2, 3, 5) for d in (1, 2, 3) for M in range(5)])
def test_orbit_sum_adds_e1_once_per_primitive_weight(monkeypatch, p, d, M):
    # the closed form n = (2M+1)^d - (2 floor(M/p) + 1)^d against the
    # enumeration: with e_1 contributing one Z/p in degree 0, the orbit sum
    # holds n more copies than the weight-0 block; M = 0 builds no window
    monkeypatch.setattr(syntomic, "_orbit_contribution",
                        lambda X, m0, i, r, V, blocks=None: ({0: PGroup(p, (1,))}, {0: 0}))
    X = build_qtorus(p, d, 1)
    n = len(primitive_weights(d, p, M))
    total, _, k_used, V_used = syntomic._orbit_sum(X, 0, 1, M, 1)
    assert total[0] == _weight0_groups(X, 0, 1)[0] + n * PGroup(p, (1,))
    assert (k_used, V_used) == (({0: 0}, 2) if M else ({}, 0))


def test_one_orbit_window_at_the_frontier(monkeypatch):
    # -p2 -d2 -N4 -M2 has 16 primitive weights and builds one orbit window
    calls = []
    contribution = syntomic._orbit_contribution

    def counted(X, m0, i, r, V, blocks=None):
        calls.append(m0)
        return contribution(X, m0, i, r, V, blocks=blocks)

    monkeypatch.setattr(syntomic, "_orbit_contribution", counted)
    syntomic_q(2, 2, 1, 2, N=4, M=2)
    assert calls == [(1, 0)]


# every p and N <= 3 at d <= 2, where p = 2, N = 3, r = 3 does not stabilise
# in degree i + 1; d = 3 at N = 1, and at N = 2 for p = 2
@pytest.mark.parametrize("p, d, N", [
    *((p, d, N) for p in (2, 3, 5) for d in (1, 2) for N in (1, 2, 3)),
    *((p, 3, 1) for p in (2, 3, 5)), (2, 3, 2),
])
def test_orbit_contribution_matches_the_window_oracle(p, d, N):
    # the windows grown one step group at a time and certified by orders give
    # the groups, widenings and NotStabilized degrees of the windows built
    # from scratch in the N-then-X order and compared by exponents
    X = build_qtorus(p, d, N)
    e1 = (1,) + (0,) * (d - 1)
    for i in range(d + 1):
        for r in (1, 2, 3):
            for V in (r - 1, r + 1):
                answers = []
                for contribution in (_orbit_contribution, orbit_contribution_from_scratch):
                    try:
                        answers.append(contribution(X, e1, i, r, V))
                    except NotStabilized as ex:
                        answers.append(str(ex))
                assert answers[0] == answers[1], (i, r, V)


@pytest.mark.parametrize("p, d, N", [(2, 1, 1), (3, 2, 2), (2, 3, 1), (5, 2, 3)])
def test_window_is_the_top_left_block_of_the_next(p, d, N):
    # in the step order W_K is a prefix of W_{K+1} and a subcomplex of it: the
    # basis of W_K starts that of W_{K+1}, d_t of W_K is the top-left block
    # of d_t of W_{K+1}, and its rows are zero in the new columns
    X = build_qtorus(p, d, N)
    e1 = (1,) + (0,) * (d - 1)
    for i in range(-1, d + 2):
        for K in range(3):
            ranks, diffs, basis = _assemble_window(X, i, K, e1)
            _, big_diffs, big_basis = _assemble_window(X, i, K + 1, e1)
            for t in ranks:
                assert big_basis[t][:ranks[t]] == basis[t], (i, K, t)
            for t, D in diffs.items():
                old_rows = big_diffs[t][:ranks[t]]
                assert [row[:ranks[t + 1]] for row in old_rows] == D, (i, K, t)
                assert not any(a for row in old_rows for a in row[ranks[t + 1]:]), (i, K, t)


def _oracle_dlog(X, i, r):
    # the dlog flags read off the presentation of the oracle's weight-0
    # block, whose N-side degree-i basis starts at position 0
    if not 0 <= i <= X.d:
        return {"degree": i, "present": False}
    ranks, diffs, _ = window_n_then_x(X, i, 0)
    K, B = cocycles_boundaries_mod(ranks, diffs, X.p, r)[i]
    if not K:
        return {"degree": i, "present": False}
    vec = [1] + [0] * (ranks[i] - 1)
    return {"degree": i, "present": True, "cocycle": span_contains_mod(K, vec, X.p, r),
            "nonzero_in_H": not span_contains_mod(B, vec, X.p, r),
            "phi_fixed": _q_dlog_fixed(X.divided_frobenius_matrix(i, i), X.N)}


@pytest.mark.parametrize("p, N", [(p, N) for p in (2, 3, 5) for N in (1, 2, 3)])
def test_weight0_groups_and_dlog_match_the_oracle_block(p, N):
    # H^t = ker(A_t) + coker(A_{t-1}) from one elimination per Koszul degree,
    # against the cohomology of the oracle's weight-0 block, and the dlog
    # flags against those read off its presentation
    for d in (1, 2, 3):
        X = build_qtorus(p, d, N)
        for i in range(-1, d + 3):
            for r in (1, 2, 3):
                groups, dlog = syntomic._weight0(X, i, r)
                assert groups == _weight0_groups(X, i, r), (d, i, r)
                assert dlog == _oracle_dlog(X, i, r), (d, i, r)


def _corrupt_method(monkeypatch, obj, name, corrupt):
    method = getattr(obj, name)
    monkeypatch.setattr(obj, name, lambda *args: corrupt(args, method(*args)))


@pytest.mark.parametrize("p, d, i, r, N", [(2, 1, 1, 2, 1), (3, 2, 1, 1, 1), (2, 2, 2, 2, 3)])
def test_dlog_flags_read_false_on_a_corrupted_model(monkeypatch, p, d, i, r, N):
    # a unit added to row 0 of phi_i in degree i makes e_0 no cocycle; a unit
    # added to row 0 of the coefficient Frobenius moves the constant dlog
    # vectors, so phi_i no longer fixes them
    assert syntomic._weight0(build_qtorus(p, d, N), i, r)[1]["cocycle"]

    def bump_row0(mat):
        mat = [row[:] for row in mat]
        mat[0][-1] += 1
        return mat

    X = build_qtorus(p, d, N)
    _corrupt_method(monkeypatch, X, "divided_frobenius_matrix",
                    lambda args, mat: bump_row0(mat) if args[1] == i else mat)
    dlog = syntomic._weight0(X, i, r)[1]
    assert dlog["present"] and not dlog["cocycle"]
    X = build_qtorus(p, d, N)
    _corrupt_method(monkeypatch, X.B, "phi_matrix", lambda args, mat: bump_row0(mat))
    dlog = syntomic._weight0(X, i, r)[1]
    assert dlog["present"] and not dlog["phi_fixed"]


def test_widening_window_checks_that_boundaries_are_cocycles(monkeypatch):
    # the first widening appends step group s = V + 1; its rows of d_1 get a
    # unit added at column 0, in the row that the least valuation entry b_c
    # of a new boundary row b of degree 1 reaches: b*d_1 = b_c e_0 is
    # nonzero mod p^r, and the check on the new rows raises; the steps of
    # W_V are left as they are
    p, d, i, r = 2, 2, 1, 2
    V = r + 1
    tail_rows = syntomic._tail_rows
    corrupted = []

    def corrupt(blocks, rk, t, s):
        rows = tail_rows(blocks, rk, t, s)
        if t == 1 and s == V + 1:
            # b spans X^0_s, N^1_s, X^0_{s+1}; the rows of d_1 at step group
            # s are the rows of b's columns past X^0_s
            b = next(row for row in ([a % p**r for a in b] for b in tail_rows(blocks, rk, 0, s))
                     if any(row[rk[0]:]))
            c = min((c for c, a in enumerate(b) if a and c >= rk[0]),
                    key=lambda c: linalg._vp(b[c], p))
            rows[c - rk[0]][0] += 1
            corrupted.append(s)
        return rows

    monkeypatch.setattr(syntomic, "_tail_rows", corrupt)
    with pytest.raises(CompositeNonzero):
        syntomic_q(p, d, i, r, N=1, M=1, V=V)
    assert corrupted == [V + 1]


def _count_window_work(monkeypatch):
    """eliminate_mod calls, and the window V of every preimage_mod that
    presents the cocycles of an orbit window"""
    calls, cocycle_windows, window, inside = [], [], [None], [False]
    eliminate, preimage = linalg.eliminate_mod, linalg.preimage_mod
    assemble, cocycles = syntomic._assemble_window, syntomic.cocycles_boundaries_mod

    def counted_eliminate(*args, **kw):
        calls.append(1)
        return eliminate(*args, **kw)

    def counted_preimage(*args):
        if inside[0]:
            cocycle_windows.append(window[0])
        return preimage(*args)

    def recorded_assemble(X, i, V, *args):
        window[0] = V
        return assemble(X, i, V, *args)

    def recorded_cocycles(*args):
        inside[0] = True
        try:
            return cocycles(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(linalg, "eliminate_mod", counted_eliminate)
    monkeypatch.setattr(syntomic, "eliminate_mod", counted_eliminate)
    monkeypatch.setattr(linalg, "preimage_mod", counted_preimage)
    monkeypatch.setattr(syntomic, "cocycles_boundaries_mod", recorded_cocycles)
    monkeypatch.setattr(syntomic, "_assemble_window", recorded_assemble)
    return calls, cocycle_windows


@pytest.mark.parametrize("config,most", [
    # eliminate_mod calls here; when each widening window was presented by
    # its boundaries from scratch, and its images compared by exponents: 30,
    # 24 and 32; when every widening window was presented with cocycles too:
    # 38, 30 and 41
    ({"model": "q", "p": 2, "d": 1, "i": 1, "r": 2, "N": 3, "M": 1}, 26),
    ({"model": "charp", "p": 3, "d": 2, "i": 1, "r": 2, "M": 3}, 18),
    ({"model": "q", "p": 3, "d": 2, "i": 1, "r": 2, "N": 3, "M": 1}, 26),
])
def test_window_elimination_count(monkeypatch, config, most):
    # of the orbit windows, only W_V (V = r + 1) is presented with cocycles;
    # each widening eliminates carried pivot rows and the new step's rows
    calls, cocycle_windows = _count_window_work(monkeypatch)
    cli.run_command("syntomic", cli.RunConfig(**config))
    assert 0 < len(calls) <= most
    assert set(cocycle_windows) == {config["r"] + 1}


def test_charp_negative_twist_series_certificate():
    # every Koszul degree j >= 0 lies in the zone j > i: the termination
    # exponent of p^{j-i} phi - 1 is the least k with (j - i) k >= r
    res = syntomic_q(2, 2, -1, 3, N=1, M=1)
    assert res.certificates["negative_twist_series"] == {0: 3, 1: 2, 2: 1}
    assert syntomic_q(3, 1, -2, 4, N=1).certificates["negative_twist_series"] == {0: 2, 1: 2}


@pytest.mark.parametrize("p, d, i, r", [(2, 1, 1, 2), (3, 2, 0, 1), (2, 2, 2, 3)])
def test_charp_box_radius_0_is_weight0(p, d, i, r):
    # -M 0 has no primitive weights, so no orbit class: only weight 0 remains
    res = syntomic_q(p, d, i, r, N=1, M=0)
    assert res.groups == _weight0_groups(build_qtorus(p, d, 1), i, r)
    assert res.certificates["stabilized"] == {}
    # no window is built, so V_used is 0, as for i < 0; M = 1 builds one
    assert res.V_used == 0
    assert syntomic_q(p, d, i, r, N=1, M=1).V_used == r + 2


def test_charp_orbit_multiplicity_at_the_frontier():
    # p = 3, d = 3, i = 1, r = 2, M = 8: H^{i+1} is (Z/p^r)^{C(d,i) + C(d-1,i) n}
    # with n = (2M+1)^d - (2 floor(M/p) + 1)^d primitive weights in the box
    p, d, i, r, M = 3, 3, 1, 2, 8
    n = (2 * M + 1) ** d - (2 * (M // p) + 1) ** d
    assert n == len(primitive_weights(d, p, M)) == 4788
    res = syntomic_q(p, d, i, r, N=1, M=M)
    assert res.groups[i + 1] == PGroup(p, (r,) * (comb(d, i) + comb(d - 1, i) * n))
    assert res.groups[i] == PGroup(p, (r,) * comb(d, i))


def test_charp_tail_test_is_class_invariant():
    # the tail test reads V + 1 >= r: V = r - 1 certifies, V = r - 2 does not
    assert syntomic_q(2, 2, 1, 3, N=1, M=1, V=2).V_used == 3
    with pytest.raises(NotStabilized):
        syntomic_q(2, 2, 1, 3, N=1, M=1, V=1)


@pytest.mark.parametrize("model, N", [("charp", 1), ("q", 3)])
@pytest.mark.parametrize("p, d, i, r", [(2, 2, 1, 1), (3, 1, 0, 2), (2, 2, 2, 2)])
def test_stabilized_is_the_widening_of_the_e1_window(model, N, p, d, i, r):
    # per degree <= i+1, the widening k at which the stable image of the e_1
    # window certified
    res = syntomic_q(p, d, i, r, N=N, M=2)
    assert res.model == model
    e1 = (1,) + (0,) * (d - 1)
    _, k_used = _orbit_contribution(build_qtorus(p, d, N), e1, i, r, r + 1)
    assert res.certificates["stabilized"] == k_used
    assert sorted(k_used) == list(range(min(i + 1, d + 1) + 1))


# ---------------------------------------------------------------------------
# q-model


def test_q_weight0_anchor():
    for p in (2, 3):
        res = syntomic_q(p, 1, 0, 1, N=3, M=2)
        assert res.groups[0] == PGroup(p, (1,))


def test_q_dlog_and_degree_bound():
    res = syntomic_q(2, 1, 1, 1, N=3, M=2)
    assert res.dlog["present"] and res.dlog["nonzero_in_H"] and res.dlog["phi_fixed"]
    # no Koszul degrees above i = d here; the series certificate is vacuous
    assert res.certificates["degree_bound_series"] == {}
    res0 = syntomic_q(2, 1, 0, 1, N=3, M=1)
    assert res0.certificates["degree_bound_series"][1] >= 1  # terminated


def test_q_dlog_flag_reads_every_dlog_row():
    # d = 2, i = 1: the dlog vectors of T_1 and T_2 sit at rows 0 and N
    N = 3
    Phi = build_qtorus(2, 2, N).divided_frobenius_matrix(1, 1)
    assert _q_dlog_fixed(Phi, N)
    moved = [row[:] for row in Phi]
    moved[N][N + 1] += 1
    assert moved[0][0] == 1 and not _q_dlog_fixed(moved, N)


def test_q_matches_charp_mod_mu():
    # at i = 0 the full-B model already agrees with its collapse along mu, the
    # charp model N = 1 (no twisted can); the collapsed windows are the
    # mu-killed windows at N >= 2 (tests/test_local_ring.py)
    rq = syntomic_q(2, 1, 0, 1, N=3, M=2)
    rc = syntomic_q(2, 1, 0, 1, N=1, M=2)
    assert (rq.model, rc.model) == ("q", "charp")
    assert all(rq.groups[t] == rc.groups[t] for t in rc.groups)


@pytest.mark.parametrize("i, r", [(0, 1), (1, 2)])
def test_q_box_radius_0_is_weight0(i, r):
    res = syntomic_q(2, 1, i, r, N=3, M=0)
    assert res.groups == _weight0_groups(build_qtorus(2, 1, 3), i, r)
    assert res.certificates["stabilized"] == {}
    assert res.V_used == 0
    assert syntomic_q(2, 1, i, r, N=3, M=1).V_used == r + 2


def test_q_negative_twist():
    res = syntomic_q(2, 1, -2, 1, N=3, M=2)
    assert all(g == PGroup.zero(2) for g in res.groups.values())


@pytest.mark.parametrize("p, d, i, r", [(2, 2, -1, 3), (3, 1, -2, 4), (5, 3, -1, 2)])
def test_q_negative_twist_series_is_computed(p, d, i, r):
    # at N = 1 the least k with p^{(j-i)k} = 0 mod p^r, and a computed
    # exponent per Koszul degree at N = 4
    charp = syntomic_q(p, d, i, r, N=1, M=1).certificates["negative_twist_series"]
    assert charp == {j: -(-r // (j - i)) for j in range(d + 1)}
    series = syntomic_q(p, d, i, r, N=4, M=1).certificates["negative_twist_series"]
    assert isinstance(series, dict) and set(series) == set(range(d + 1))
    assert all(k >= 1 for k in series.values())


@pytest.mark.parametrize("N", [1, 4])
def test_r_below_1_is_rejected(N):
    with pytest.raises(UsageError):
        syntomic_q(2, 1, 1, 0, N=N)


@pytest.mark.parametrize("N", [1, 4])
def test_negative_box_radius_is_rejected(N):
    # the closed-form count of primitive weights holds for M >= 0 only
    with pytest.raises(UsageError):
        syntomic_q(2, 1, 1, 1, N=N, M=-2)


def test_degree_bound_series_terminates():
    Xq = build_qtorus(2, 1, 4)
    cert = degree_bound_inverse_certificate(Xq, 0, 1)
    assert 1 in cert and cert[1] >= 1


def test_nilpotency_index_against_unreduced_powers():
    # the least k with T^k = 0 mod p^r, read off the exact integer powers;
    # a T that is not nilpotent mod p raises at the cap r * len(T)
    for p, r, T in ((2, 2, [[2, 1], [0, 2]]), (3, 3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
                    (2, 3, [[6, 4], [2, 2]]), (5, 1, [[0]]), (3, 2, [])):
        Tk, k = T, 1
        while any(a % p**r for row in Tk for a in row):
            Tk, k = linalg.mat_mul(Tk, T), k + 1
        assert syntomic._nilpotency_index(T, p, r) == k
    for T in ([[1]], [[0, 1], [1, 0]], [[2, 1], [0, 1]]):
        with pytest.raises(syntomic.BoundViolated, match=r"T\^%d " % (3 * len(T))):
            syntomic._nilpotency_index(T, 2, 3)


def test_orbit_sum_fetches_each_koszul_block_once(monkeypatch):
    # the tail test reads the blocks the orbit's widenings fetched
    fetched = []
    diff = QTorusComplex.diff_matrix

    def counted(X, m, j):
        fetched.append((m, j))
        return diff(X, m, j)

    monkeypatch.setattr(QTorusComplex, "diff_matrix", counted)
    syntomic_q(2, 2, 1, 2, N=3, M=2)
    assert fetched and len(fetched) == len(set(fetched))


# ---------------------------------------------------------------------------
# acrys model


def test_acrys_i0():
    for p, r in ((2, 1), (2, 2), (3, 2)):
        res = syntomic_acrys(p, 0, r, e=2)
        assert res.groups[0] == PGroup(p, (r,))


def test_acrys_i1_span_identity():
    # the span identity is the acrys command's certificate alone; the
    # surjectivity mechanism it drove holds for every e >= 1 by the image
    # lemma of the `pdalg` docstring, so the syntomic payload carries neither
    for p in (2, 3):
        res = syntomic_acrys(p, 1, 1, e=2)
        assert res.certificates == {}
        assert cli.cmd_acrys(cli.RunConfig(p=p, n=1, e=2, i=1))["span_identity"]


def test_acrys_negative_twist():
    res = syntomic_acrys(2, -1, 2, e=2)
    assert all(g == PGroup.zero(2) for g in res.groups.values())


@pytest.mark.parametrize("p,e,i,r", [
    (p, e, i, r) for p in (2, 3) for e in (1, 2) for i in (-1, -2, -3) for r in (1, 2, 3)
])
def test_acrys_negative_twist_series_is_computed(p, e, i, r):
    # the least k with (p^{-i} phi)^k = 0 mod p^r on every chain block; the
    # weight-0 block [1] needs ceil(r / -i), and the shifts need no more
    k = syntomic_acrys(p, i, r, e=e).certificates["negative_twist_series"]
    assert type(k) is int
    assert k == -(-r // -i)


def test_acrys_negative_twist_series_reads_the_blocks():
    # a chain with levels l_k, phi(e_k) = p^{l_k} e_{k+1}, needs at most the
    # ceil(r / -i) terms of [1], since levels are >= 0: a two-step shift
    # ends before ceil(4 / 1) = 4, a chain of m = 2 at k = 2, a chain with
    # l_0 - i >= r at k = 1, and a chain of levels 0 at the bound; a chain
    # end with l < r raises, as phi of it leaves the window
    p, i, r, W = 2, -1, 4, 9
    for levels, want in (([1, 1, 1, 5], 2), ([0, 4], 2), ([3, 4, 9], 1), ([0, 0, 0, 4], 4)):
        T = linalg.mat_scale(p**-i, phi_block([p**l for l in levels[:-1]] + [0]))
        assert syntomic._nilpotency_index(T, p, r) == want <= -(-r // -i)
        pdalg._chain_end(levels, r, W)
    with pytest.raises(pdalg.TruncationTooTight, match="phi image of weight 3 leaves W = 9"):
        pdalg._chain_end([0, 3], r, W)


@pytest.mark.parametrize("p,e,i,r", [
    (p, e, i, r) for p in (2, 3, 5) for e in (1, 2) for i in (-1, -2, -3) for r in (1, 2, 3)
])
def test_acrys_negative_twist_series_matches_the_dense_blocks(p, e, i, r):
    # chain by chain, the powers of p^{-i} times the oracle's dense phi-block
    # vanish mod p^r by k = ceil(r / -i), and over all chains the series
    # ends there
    A = pdalg.PDAlgebra(p, r, e)
    bound = -(-r // -i)
    for idxs, c in pdalg._phi_shifts(A)[1:]:
        T = linalg.mat_scale(p**-i, phi_block(c))
        assert syntomic._nilpotency_index(T, p, r) <= bound, idxs
    assert (pdalg.negative_twist_series(p, r, e, None, i)
            == negative_twist_series_by_blocks(A, i) == bound)


def test_acrys_names_no_k_group():
    # no K-group is named without a check, and H^1 is not echoed as a string
    for i in (0, 1, 2):
        assert syntomic_acrys(2, i, 4, e=1).evidence == {}


def test_result_serialization_roundtrip():
    import json

    res = syntomic_q(2, 1, 1, 1, N=1, M=2)
    blob = json.dumps(res.to_json(), sort_keys=True)
    assert json.loads(blob)["groups"]["1"]["exponents"]
