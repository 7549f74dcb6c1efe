import inspect
from itertools import product
from math import comb

import pytest

from nygaard import cli, linalg, pdalg, syntomic
from nygaard.errors import CompositeNonzero, UsageError
import oracles
from nygaard.linalg import PGroup, block_diag
from nygaard.syntomic import (
    NotStabilized,
    degree_bound_inverse_certificate,
    syntomic_acrys,
    _assemble_window,
    _orbit_contribution,
    syntomic_q,
)
from nygaard.qtorus import QTorusComplex

from oracles import (
    negative_twist_series_by_blocks,
    orbit_contribution_by_two_spans,
    orbit_contribution_from_scratch,
    orbit_sum_by_the_d_window,
    phi_block,
    primitive_weights,
    weight0_from_scratch,
    weight0_on_the_d_torus,
)


# ---------------------------------------------------------------------------
# weight zero and twists 0, 1 (char p)


def test_charp_weight0_anchor():
    # H^0(Z/p^r(0)) = Z/p^r (constants); orbit parts contribute nothing to H^0,
    # by the engine too; charp runs no window, so it reports no widening
    for p, r in ((2, 1), (3, 2)):
        res = syntomic_q(p, 1, 0, r, N=1, M=4)
        assert res.groups[0] == PGroup(p, (r,))
        groups, _ = _orbit_contribution(QTorusComplex(p, 1), 0, r, r + 1)
        assert groups[0] == PGroup.zero(p)
        assert "stabilized" not in res.certificates


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
    # degrees 0..top, with the differentials out of the degrees below top;
    # at every twist -1..d, which the summands of the d-torus run at
    X = QTorusComplex(p, N)
    for i in range(-1, d + 1):
        top = min(i + 2, 2)
        for V in (0, 2):
            ranks, diffs, basis = _assemble_window(X, i, V)
            assert _assemble_window(X, i, V, top=top) == (
                {t: ranks[t] for t in range(top + 1)},
                {t: diffs[t] for t in range(top)},
                {t: basis[t] for t in range(top + 1)},
            ), (i, V)


def _weight0_groups(p, d, N, i, r):
    """The groups of the weight-0 block of the d-dimensional reference model,
    presented from scratch."""
    return weight0_from_scratch(oracles.build_qtorus(p, d, N), i, r)[0]


def _orbit_and_tail(X, m0, i, r, V):
    # the groups and the tail verdict of m0 on the d-dimensional reference
    # model, its window presented from scratch
    q = X.p**r
    tail = (X.diff_matrix(tuple(X.p ** (V + 1) * a for a in m0), t) for t in range(X.d))
    return (orbit_contribution_from_scratch(X, m0, i, r, V),
            not any(a % q for D in tail for row in D for a in row))


def _check_orbit_windows_agree_with_e1(p, d, r, N, M):
    # the GL_d(Z[q^{+-1}]) symmetry of the module docstring, checked weight by
    # weight on the d-dimensional reference model: every primitive orbit has
    # the groups, stabilisation depth and tail verdict of e_1, at the default
    # V and at V = r - 1, and the answer is the weight-0 groups plus the sum
    # over the primitive weights
    X = oracles.build_qtorus(p, d, N)
    e1 = (1,) + (0,) * (d - 1)
    weights = primitive_weights(d, p, M)
    for i in range(d + 1):
        for V in (r + 1, r - 1):
            ref = _orbit_and_tail(X, e1, i, r, V)
            total = _weight0_groups(p, d, N, i, r)
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
    # enumeration.  charp at i = 0: the orbit of e_1 is one Z/p in degree 1
    # (the summand t2 = 0), so the orbit sum holds n more copies than the
    # weight-0 block there.  q at i = 0, with the engine made to give one Z/p
    # in degree 0: n more copies in degree 0.  M = 0 builds no window
    n = len(primitive_weights(d, p, M))
    total, _, k_used, V_used = syntomic._orbit_sum(QTorusComplex(p, 1), d, 0, 1, M, 1)
    assert total[1] == _weight0_groups(p, d, 1, 0, 1)[1] + n * PGroup(p, (1,))
    assert (k_used, V_used) == (None, 2 if M else 0)
    monkeypatch.setattr(syntomic, "_orbit_contribution",
                        lambda X, i, r, V, blocks=None: ({0: PGroup(p, (1,))}, {0: 0}))
    total, _, k_used, V_used = syntomic._orbit_sum(QTorusComplex(p, 2), d, 0, 1, M, 1)
    assert total[0] == _weight0_groups(p, d, 2, 0, 1)[0] + n * PGroup(p, (1,))
    assert (k_used, V_used) == (({0: 0}, 2) if M else ({}, 0))


def test_one_orbit_window_at_the_frontier(monkeypatch):
    # -p2 -d2 -i1 -N4 -M2 has 16 primitive weights and builds one orbit
    # window per Künneth summand: the 1-torus at the twists 1 and 0
    calls = []
    contribution = syntomic._orbit_contribution

    def counted(X, i, r, V, blocks=None):
        calls.append(i)
        return contribution(X, i, r, V, blocks=blocks)

    monkeypatch.setattr(syntomic, "_orbit_contribution", counted)
    syntomic_q(2, 2, 1, 2, N=4, M=2)
    assert calls == [1, 0]


# every p and N <= 3 at d <= 2, where p = 2, N = 3, r = 3 does not stabilise
# in degree i + 1; d = 3 at N = 1, and at N = 2 for p = 2
@pytest.mark.parametrize("p, d, N", [
    *((p, d, N) for p in (2, 3, 5) for d in (1, 2) for N in (1, 2, 3)),
    *((p, 3, 1) for p in (2, 3, 5)), (2, 3, 2),
])
def test_orbit_contribution_matches_the_window_oracle(p, d, N):
    # the windows of the 1-torus grown one step group at a time and certified
    # by orders give the groups, widenings and NotStabilized degrees of the
    # windows of the reference model at d = 1 built from scratch in the
    # N-then-X order and compared by exponents, at the twists 0..d, which
    # the summands of the d-torus run at
    X, X1 = QTorusComplex(p, N), oracles.build_qtorus(p, 1, N)
    for i in range(d + 1):
        for r in (1, 2, 3):
            for V in (r - 1, r + 1):
                answers = []
                for contribution in (lambda: _orbit_contribution(X, i, r, V),
                                     lambda: orbit_contribution_from_scratch(X1, (1,), i, r, V)):
                    try:
                        answers.append(contribution())
                    except NotStabilized as ex:
                        answers.append([str(ex), ex.degrees])
                assert answers[0] == answers[1], (i, r, V)


def _outcome(contribution, *args):
    try:
        return contribution(*args)
    except NotStabilized as ex:
        return ["NotStabilized", str(ex), ex.degrees]
    except CompositeNonzero as ex:
        return ["CompositeNonzero", str(ex)]


def _record_meet_orders(monkeypatch):
    """The order -log_p |B_k ∩ W_V| of every elimination that
    `_orbit_contribution` makes with no tracked block, in call order"""
    orders, eliminate = [], syntomic.eliminate_mod

    def recorded(M, p, r, T=None, **kw):
        vals, rows = eliminate(M, p, r, T, **kw)
        if T is None:
            orders.append(sum(vals) - r * len(vals))
        return vals, rows

    monkeypatch.setattr(syntomic, "eliminate_mod", recorded)
    return orders


TWO_SPAN_GRID = [(i, r, V) for i, r in product(range(3), (1, 2, 3)) for V in (r - 1, r + 1, r + 3)]


# 243 configs: p in {2, 3, 5}, i in 0..2, r <= 3, N in {2, 3, 4} and V in
# {r - 1, r + 1, r + 3}, of which 17 raise NotStabilized
@pytest.mark.parametrize("p, N", list(product((2, 3, 5), (2, 3, 4))))
def test_orbit_contribution_matches_the_two_span_oracle(monkeypatch, p, N):
    # B_k ∩ W_V read off one tracked elimination per widening against
    # span(B_k) and span(pi B_k) carried apart: the order at every widening
    # of every degree, k_used, the groups and the NotStabilized degrees.
    # Then with a unit added to column 0 of the rows of d_1 past W_V, the
    # same CompositeNonzero message, which every config raises
    X = QTorusComplex(p, N)
    engine_orders = _record_meet_orders(monkeypatch)
    tail_rows, raised = syntomic._tail_rows, 0
    for i, r, V in TWO_SPAN_GRID:
        def corrupt(blocks, rk, t, s, V=V):
            rows = tail_rows(blocks, rk, t, s)
            if t == 1 and s > V:
                for row in rows:
                    row[0] += 1
            return rows

        for corrupted in (False, True):
            with monkeypatch.context() as m:
                if corrupted:
                    m.setattr(syntomic, "_tail_rows", corrupt)
                engine_orders.clear()
                got = _outcome(_orbit_contribution, X, i, r, V)
                orders = []
                want = _outcome(orbit_contribution_by_two_spans, X, i, r, V, orders)
            assert got == want, (i, r, V, corrupted)
            assert engine_orders == [order for _, order in orders], (i, r, V, corrupted)
            raised += got[0] == "CompositeNonzero"
    assert raised == len(TWO_SPAN_GRID)


def _engine_without_pivot_kernel_rows():
    """A copy of `_orbit_contribution` whose widenings leave out of
    B_k ∩ W_V the p^{r-v} multiples of the W_V-parts of the pivots"""
    source = inspect.getsource(syntomic._orbit_contribution)
    line = "kernel = [[p ** (r - v) * a % q for a in row[m:]] for v, row in zip(vals, rows) if v]"
    assert source.count(line) == 1
    namespace = dict(vars(syntomic))
    exec(source.replace(line, "kernel = []"), namespace)
    return namespace["_orbit_contribution"]


def test_the_two_span_oracle_sees_dropped_pivot_kernel_rows():
    # without those rows B_k ∩ W_V is too small, so the comparison of the
    # grid above fails: some config still certifies, but with another group
    # or another k_used
    engine = _engine_without_pivot_kernel_rows()
    changed = []
    for p, N in product((2, 3, 5), (2, 3, 4)):
        X = QTorusComplex(p, N)
        for i, r, V in TWO_SPAN_GRID:
            got = _outcome(engine, X, i, r, V)
            want = _outcome(orbit_contribution_by_two_spans, X, i, r, V)
            if isinstance(got, tuple) and isinstance(want, tuple) and got != want:
                changed.append((p, N, i, r, V))
    assert changed


def _orbit_sum_or_raise(orbit_sum, *args):
    try:
        return orbit_sum(*args)
    except NotStabilized as ex:
        return [str(ex), ex.degrees]


# charp: 1,620 configs, every p, d <= 3, i in 0..d+1, r <= 3, M <= 2 and
# V in 0..r+2, of which 216 raise at the tail test
@pytest.mark.parametrize("p, d", [(p, d) for p in (2, 3, 5) for d in (1, 2, 3)])
def test_charp_read_off_matches_the_d_dimensional_window(p, d):
    # the Künneth sum of the d = 1 lemma against the window of e_1 on the
    # d-dimensional reference model, presented from scratch: groups, dlog,
    # V_used, and NotStabilized with its message exactly when the box has a
    # primitive weight and V + 1 < r
    X, Xd = QTorusComplex(p, 1), oracles.build_qtorus(p, d, 1)
    for i, r, M in product(range(d + 2), (1, 2, 3), (0, 1, 2)):
        for V in range(r + 3):
            got = _orbit_sum_or_raise(syntomic._orbit_sum, X, d, i, r, M, V)
            assert got == _orbit_sum_or_raise(orbit_sum_by_the_d_window, Xd, i, r, M, V), \
                (i, r, M, V)
            assert isinstance(got, list) is (M > 0 and V + 1 < r), (i, r, M, V)


# q: every i in 0..d+1, r <= 3 and V in {r - 1, r + 1}; at p = 2, N = 3 some
# summands raise from the image chain, and at V = r - 1 some from the tail
@pytest.mark.parametrize("p, d, N", [
    (p, d, N) for p in (2, 3) for d in (2, 3) for N in (2, 3)])
def test_q_kunneth_sum_matches_the_d_dimensional_window(p, d, N):
    # groups, dlog, the widenings k_used (the largest over the summands),
    # V_used, and NotStabilized with its message and degrees
    X, Xd = QTorusComplex(p, N), oracles.build_qtorus(p, d, N)
    for i, r in product(range(d + 2), (1, 2, 3)):
        for V in (r - 1, r + 1):
            assert (_orbit_sum_or_raise(syntomic._orbit_sum, X, d, i, r, 1, V)
                    == _orbit_sum_or_raise(orbit_sum_by_the_d_window, Xd, i, r, 1, V)), (i, r, V)


def test_charp_orbit_lemma_matches_the_d1_engine():
    # the orbit of e_1 on the 1-torus at N = 1: Z/p^r in degree 1 at twist
    # 0 and 0 at every other twist, read off; the engine certifies the same
    # groups at every window tried
    for p, r, j in product((2, 3, 5, 7), (1, 2, 3, 4), (0, 1, 2, 3)):
        X = QTorusComplex(p, 1)
        for V in (r - 1, r + 1, r + 3):
            groups, _ = _orbit_contribution(X, j, r, V)
            nonzero = {t: g for t, g in groups.items() if g != PGroup.zero(p)}
            assert nonzero == syntomic._charp_orbit(p, j, r), (p, r, j, V)


@pytest.mark.parametrize("p, d, N", [(2, 1, 1), (3, 2, 2), (2, 3, 1), (5, 2, 3)])
def test_window_is_the_top_left_block_of_the_next(p, d, N):
    # in the step order W_K is a prefix of W_{K+1} and a subcomplex of it: the
    # basis of W_K starts that of W_{K+1}, d_t of W_K is the top-left block
    # of d_t of W_{K+1}, and its rows are zero in the new columns; at every
    # twist -1..d+1 of the summands of the d-torus
    X = QTorusComplex(p, N)
    for i in range(-1, d + 2):
        for K in range(3):
            ranks, diffs, basis = _assemble_window(X, i, K)
            _, big_diffs, big_basis = _assemble_window(X, i, K + 1)
            for t in ranks:
                assert big_basis[t][:ranks[t]] == basis[t], (i, K, t)
            for t, D in diffs.items():
                old_rows = big_diffs[t][:ranks[t]]
                assert [row[:ranks[t + 1]] for row in old_rows] == D, (i, K, t)
                assert not any(a for row in old_rows for a in row[ranks[t + 1]:]), (i, K, t)


@pytest.mark.parametrize("p, N", [(p, N) for p in (2, 3, 5) for N in (1, 2, 3)])
def test_weight0_groups_and_dlog_match_the_oracle_block(p, N):
    # H^t = ker(A_t) + coker(A_{t-1}) from one N x N elimination per Koszul
    # degree, against the cohomology of the weight-0 block of the
    # d-dimensional reference model, and the dlog flags against those read
    # off its presentation
    X = QTorusComplex(p, N)
    for d in (1, 2, 3):
        Xd = oracles.build_qtorus(p, d, N)
        for i in range(-1, d + 3):
            for r in (1, 2, 3):
                assert syntomic._weight0(X, d, i, r) == weight0_from_scratch(Xd, i, r), (d, i, r)


# 864 configs: every p <= 5, d <= 4, N <= 4, i in 0..5 and r <= 3
@pytest.mark.parametrize("p, N", [(p, N) for p in (2, 3, 5) for N in (1, 2, 3, 4)])
def test_weight0_blocks_match_the_d_dimensional_elimination(p, N):
    # C(d, j) copies of one N x N block per Koszul degree j give the groups
    # and dlog flags of the elimination of the whole d-dimensional block
    X = QTorusComplex(p, N)
    configs = list(product((1, 2, 3, 4), range(6), (1, 2, 3)))
    for d, i, r in configs:
        Xd = oracles.build_qtorus(p, d, N)
        assert syntomic._weight0(X, d, i, r) == weight0_on_the_d_torus(Xd, i, r), (d, i, r)
    assert len(configs) * 12 == 864


def _corrupt_method(monkeypatch, obj, name, corrupt):
    method = getattr(obj, name)
    monkeypatch.setattr(obj, name, lambda *args: corrupt(args, method(*args)))


@pytest.mark.parametrize("p, d, i, r, N", [(2, 1, 1, 2, 1), (3, 2, 1, 1, 1), (2, 2, 2, 2, 3)])
def test_dlog_flags_read_false_on_a_corrupted_model(monkeypatch, p, d, i, r, N):
    # a unit added to row 0 of phi_i in degree i makes e_0 no cocycle; a unit
    # added to row 0 of the coefficient Frobenius moves the constant dlog
    # vectors, so phi_i no longer fixes them
    assert syntomic._weight0(QTorusComplex(p, N), d, i, r)[1]["cocycle"]

    def bump_row0(mat):
        mat = [row[:] for row in mat]
        mat[0][-1] += 1
        return mat

    X = QTorusComplex(p, N)
    _corrupt_method(monkeypatch, X, "divided_frobenius_matrix",
                    lambda args, mat: bump_row0(mat) if args[1] == i else mat)
    dlog = syntomic._weight0(X, d, i, r)[1]
    assert dlog["present"] and not dlog["cocycle"]
    X = QTorusComplex(p, N)
    _corrupt_method(monkeypatch, X.B, "phi_matrix", lambda args, mat: bump_row0(mat))
    dlog = syntomic._weight0(X, d, i, r)[1]
    assert dlog["present"] and not dlog["phi_fixed"]


def test_widening_window_checks_that_boundaries_are_cocycles(monkeypatch):
    # q at N = 2 (charp runs no window): in the Künneth summand at twist i,
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
        syntomic_q(p, d, i, r, N=2, M=1, V=V)
    assert corrupted == [V + 1]


def test_each_widening_builds_the_rows_of_d_t_once(monkeypatch):
    # the rows of d_t at step group s serve the d∘d check of degree t and
    # the new rows of degree t + 1, so one orbit builds each (t, s) once,
    # whether the window or a widening reads it; the grid holds widenings
    # with degrees 1 and 2 both pending, where each was built twice before
    tail_rows, built = syntomic._tail_rows, []
    monkeypatch.setattr(syntomic, "_tail_rows",
                        lambda blocks, rk, t, s: built.append((t, s)) or tail_rows(blocks, rk, t, s))
    for p, N, i, r in product((2, 3), (2, 3), (0, 1, 2), (1, 2)):
        del built[:]
        _outcome(_orbit_contribution, QTorusComplex(p, N), i, r, r + 1)
        assert len(built) == len(set(built)), (p, N, i, r)


def _count_window_work(monkeypatch):
    """eliminate_mod calls, the window V of every preimage_mod that presents
    the cocycles of an orbit window, and the V of every assembled window"""
    calls, cocycle_windows, window, inside, assembled = [], [], [None], [False], []
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
        assembled.append(V)
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
    return calls, cocycle_windows, assembled


@pytest.mark.parametrize("config,most", [
    # eliminate_mod calls here, the d + 1 of the weight-0 block included.
    # q at d = 1: when each widening window was presented by its boundaries
    # from scratch, and its images compared by exponents, 30; when every
    # widening window was presented with cocycles too, 38
    ({"model": "q", "p": 2, "d": 1, "i": 1, "r": 2, "N": 3, "M": 1}, 26),
    # charp reads its orbit off the lemma: the weight-0 block alone, d + 1
    # (18 when it ran the d = 2 window)
    ({"model": "charp", "p": 3, "d": 2, "i": 1, "r": 2, "M": 3}, 3),
    # q at d = 2: 3 + 20 + 10, the weight-0 block and the d = 1 summands at
    # the twists 1 and 0 (26 with the d = 2 window, which took longer; 3 +
    # 22 + 10 when span(B_k) and span(pi B_k) were carried apart)
    ({"model": "q", "p": 3, "d": 2, "i": 1, "r": 2, "N": 3, "M": 1}, 35),
])
def test_window_elimination_count(monkeypatch, config, most):
    # of the orbit windows, only W_V (V = r + 1) is presented with cocycles;
    # each widening eliminates carried pivot rows and the new step's rows.
    # charp assembles no window and eliminates only in the weight-0 block
    calls, cocycle_windows, assembled = _count_window_work(monkeypatch)
    cli.run_command("syntomic", cli.RunConfig(**config))
    if config["model"] == "charp":
        assert len(calls) == config["d"] + 1 == most
        assert assembled == cocycle_windows == []
        return
    assert 0 < len(calls) <= most
    assert set(cocycle_windows) == set(assembled) == {config["r"] + 1}


def test_q_elimination_count_is_the_sum_over_the_d1_summands(monkeypatch):
    # the q run at d = 2 eliminates d + 1 times in the weight-0 block and
    # then exactly as the d = 1 engine run alone at the twists i and i - 1
    p, d, i, r, N = 3, 2, 1, 2, 3
    calls, _, _ = _count_window_work(monkeypatch)
    per_summand = []
    for j in (i, i - 1):
        calls.clear()
        _orbit_contribution(QTorusComplex(p, N), j, r, r + 1)
        per_summand.append(len(calls))
    calls.clear()
    syntomic_q(p, d, i, r, N=N, M=1)
    assert per_summand == [20, 10]
    assert len(calls) == d + 1 + sum(per_summand)


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
    assert res.groups == _weight0_groups(p, d, 1, i, r)
    assert "stabilized" not in res.certificates
    # no tail test runs, so V_used is 0, as for i < 0; at M = 1 the tail test
    # certifies V = r + 1, though charp builds no window there either
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
    # q: per degree <= i+1, the widening k at which the stable image of the
    # d-dimensional e_1 window of the reference model certified, which is
    # the largest over the Künneth summands.  charp runs no window and
    # reports no widening, and its groups are those of the d-dimensional
    # window
    res = syntomic_q(p, d, i, r, N=N, M=2)
    assert res.model == model
    X = oracles.build_qtorus(p, d, N)
    e1 = (1,) + (0,) * (d - 1)
    groups, k_used = orbit_contribution_from_scratch(X, e1, i, r, r + 1)
    assert sorted(k_used) == list(range(min(i + 1, d + 1) + 1))
    if model == "charp":
        assert "stabilized" not in res.certificates
        assert res.groups == orbit_sum_by_the_d_window(X, i, r, 2, r + 1)[0]
    else:
        assert res.certificates["stabilized"] == k_used


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
    # d = 2, i = 1: the dlog vectors of T_1 and T_2 sit at rows 0 and N of
    # the d-dimensional phi_i, which is two copies of the one block whose
    # row 0 the payload reads; the reference flag reads every dlog row
    N = 3
    X = QTorusComplex(2, N)
    Phi = oracles.build_qtorus(2, 2, N).divided_frobenius_matrix(1, 1)
    assert Phi == block_diag(X.divided_frobenius_matrix(1, 1), 2)
    assert oracles.q_dlog_fixed(Phi, N) and syntomic._weight0(X, 2, 1, 1)[1]["phi_fixed"]
    moved = [row[:] for row in Phi]
    moved[N][N + 1] += 1
    assert moved[0][0] == 1 and not oracles.q_dlog_fixed(moved, N)


def test_charp_groups_do_not_depend_on_the_window_but_q_groups_do():
    # charp: the same groups at every window V from r - 1, the least that
    # passes the tail test, to r + 3.  q: the groups of -p2 -d1 -i1 -r1 -N2
    # -M1 grow by one Z/2 per primitive weight and window step, though each
    # run certifies its stable image at k = 2.  The q side records a defect
    # of the full-B answer (ROADMAP item 6), which will change it on purpose
    for p, d, i, r in product((2, 3), (1, 2), (0, 1, 2), (1, 2, 3)):
        groups = [syntomic_q(p, d, i, r, N=1, M=1, V=V).groups for V in range(r - 1, r + 4)]
        assert all(g == groups[0] for g in groups), (p, d, i, r)
    counts = []
    for V in (2, 3, 4):
        res = syntomic_q(2, 1, 1, 1, N=2, M=1, V=V)
        assert res.certificates["stabilized"] == {0: 2, 1: 2, 2: 2}
        counts.append((len(res.groups[0].exponents), len(res.groups[1].exponents)))
    assert counts == [(7, 10), (9, 12), (11, 14)]


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
    assert res.groups == _weight0_groups(2, 1, 3, i, r)
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
    Xq = QTorusComplex(2, 4)
    cert = degree_bound_inverse_certificate(Xq, 1, 0, 1)
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

    def counted(X, m):
        fetched.append(m)
        return diff(X, m)

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
