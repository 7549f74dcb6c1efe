"""Elimination over Z/p^r against the integer path and sympy, and the
syntomic windows against an over-Z reimplementation of the same windows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors

from nygaard.complexes import acyclic_mod, presented_cone
from nygaard.linalg import (
    CompositeNonzero,
    PGroup,
    _vp,
    block_diag,
    cocycles_boundaries_mod,
    eliminate_mod,
    hermite_form,
    identity,
    lattice_contains,
    mat_scale,
    mat_mul,
    preimage_mod,
    quotient_exponents_mod,
    quotient_invariants,
    row_mul,
    span_contains_mod,
    span_exponent_mod,
    zeros,
)
from nygaard.qtorus import QTorusComplex
from nygaard.syntomic import _assemble_window

from oracles import (
    build_qtorus,
    cocycles_boundaries_rels_mod,
    cohomology_mod,
    embed_rows,
    howell_form,
    kernel_int,
    module_invariants_mod,
    preimage_lattice,
    presented_cohomology_mod,
    presented_complex_cohomology,
    primitive_weights,
    window_n_then_x,
)


@st.composite
def local_matrices(draw):
    """(M, p, r, n) with M over Z/p^r of width n; entries lean to zeros and
    p-multiples, so zero rows, zero columns and low-rank pivots all occur."""
    p = draw(st.sampled_from((2, 3, 5)))
    r = draw(st.integers(1, 3))
    q = p**r
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.integers(0, q - 1),
                      st.integers(0, q // p - 1).map(lambda a: p * a))
    M = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    return M, p, r, n


def integer_span(rows, q, n):
    """span(rows) + q*Z^n as an integer lattice."""
    return hermite_form(rows + mat_scale(q, identity(n)))


@settings(max_examples=150, deadline=None)
@given(local_matrices())
def test_kernel_annihilates_and_has_predicted_order(data):
    M, p, r, n = data
    q = p**r
    vals, _ = eliminate_mod(M, p, r)
    assert all(0 <= v < r for v in vals)
    K = preimage_mod(M, [], p, r)
    for row in K:
        assert len(row) == len(M)
        assert all(a % q == 0 for a in row_mul(row, M))
    # x*M = 0 leaves x_t in p^{r-v_t} Z/p^r at each pivot and x_t free past it
    assert span_exponent_mod(K, p, r) == sum(vals) + r * (len(M) - len(vals))


def test_tracked_columns_never_choose_a_pivot():
    # the T columns are carried along, but only the M-part picks pivots: a
    # unit in T does not lower the pivot valuation, nor revive a zero M-part;
    # each row comes back whole, M-part then T-part
    for p in (2, 3):
        assert eliminate_mod([[p]], p, 2, T=[[1]]) == ([1], [[p, 1]])
        assert eliminate_mod([[0]], p, 2, T=[[1]]) == ([], [[0, 1]])
        assert eliminate_mod([[p, 0], [0, p * p]], p, 3, T=[[1, 0], [0, 1]]) == (
            [1, 2], [[p, 0, 1, 0], [0, p * p, 0, 1]])


@settings(max_examples=150, deadline=None)
@given(local_matrices(), st.data())
def test_tracked_columns_of_lower_valuation_change_no_pivot(data, draw):
    # M is scaled by p, and each tracked row is a unit followed by a row of
    # the identity: the T-part has lower valuation than the M-part, yet the
    # pivots are those of M alone, and T' is U*T for the U of the identity
    # part, with U*M in pivot order of the pivot valuations, then zero rows
    M, p, r, n = data
    q = p**r
    M = [[p * a % q for a in row] for row in M]
    m = len(M)
    units = draw.draw(st.lists(
        st.integers(0, q - 1).filter(lambda a: a % p), min_size=m, max_size=m))
    T = [[u] + e for u, e in zip(units, identity(m))]
    vals, rows = eliminate_mod(M, p, r, T)
    assert vals == eliminate_mod(M, p, r)[0]
    T2 = [row[n:] for row in rows]
    U = [row[1:] for row in T2]
    assert [row[0] for row in T2] == [sum(a * u for a, u in zip(row, units)) % q for row in U]
    UM = [[a % q for a in row] for row in mat_mul(U, M)]
    for v, row in zip(vals, UM):
        assert min(_vp(a, p) if a else r for a in row) == v
    assert all(not any(row) for row in UM[len(vals):])


@settings(max_examples=150, deadline=None)
@given(local_matrices(), st.data())
def test_whole_rows_keep_the_M_part_in_front(data, draw):
    # with T given, every row comes back whole, M-part then T-part: the
    # M-parts of the pivot rows are the rows of the elimination without T,
    # the null rows have M-part zero, and there is one row per row of M
    M, p, r, n = data
    q = p**r
    T = [draw.draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2)) for _ in M]
    vals, W = eliminate_mod(M, p, r, T)
    assert vals == eliminate_mod(M, p, r)[0]
    assert len(W) == len(M) and all(len(row) == n + 2 for row in W)
    assert [row[:n] for row in W[:len(vals)]] == eliminate_mod(M, p, r)[1]
    assert not any(a for row in W[len(vals):] for a in row[:n])


@settings(max_examples=150, deadline=None)
@given(local_matrices())
def test_pivot_rows_span_the_input(data):
    # without T, eliminate_mod returns one pivot row per pivot, and they span
    # span(M): |P| = |M| = |P + M|, spans compared by order
    M, p, r, n = data
    vals, P = eliminate_mod(M, p, r)
    assert len(P) == len(vals)
    assert all(len(row) == n and all(0 <= a < p**r for a in row) for row in P)
    e = span_exponent_mod(M, p, r)
    assert span_exponent_mod(P, p, r) == e == span_exponent_mod(P + M, p, r)


@settings(max_examples=100, deadline=None)
@given(local_matrices())
def test_kernel_mod_matches_integer_preimage(data):
    M, p, r, n = data
    if not M or not n:
        return
    q = p**r
    old = howell_form(preimage_lattice(M, mat_scale(q, identity(n))), p, r)
    assert howell_form(preimage_mod(M, [], p, r), p, r) == old


@settings(max_examples=100, deadline=None)
@given(local_matrices(), st.integers(0, 3))
def test_preimage_of_scaled_identity_matches_integer_preimage(data, i):
    # {x : x*M = 0 mod p^i} at precision r >= i: for the dense phi-block M
    # of a weight chain, the Nygaard kernel that `oracles.nygaard_exponents`
    # reads off the chain's coefficient list, and `pdalg` off its levels
    M, p, r, n = data
    if not M or not n:
        return
    i = min(i, r)
    target = mat_scale(p**i, identity(n))
    old = howell_form(preimage_lattice(M, target), p, r)
    assert howell_form(preimage_mod(M, target, p, r), p, r) == old


@settings(max_examples=150, deadline=None)
@given(local_matrices())
def test_span_exponents_match_sympy(data):
    M, p, r, n = data
    q = p**r
    exps = module_invariants_mod(M, p, r)
    if not n:
        assert exps == ()
        return
    # Z^n / span(M + q*Z^n) = (+) Z/d; span(M) mod q is (+) Z/(q/d) over d < q
    invs = [int(d) for d in invariant_factors(Matrix(M + mat_scale(q, identity(n))))]
    want = tuple(sorted((r - _vp(d, p) for d in invs if d % q), reverse=True))
    assert exps == want
    assert span_exponent_mod(M, p, r) == sum(want)


@settings(max_examples=150, deadline=None)
@given(local_matrices(), st.data())
def test_quotient_exponents_match_integer_path(data, draw):
    L, p, r, n = data
    q = p**r
    entry = st.integers(0, q - 1)
    B = draw.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    got = quotient_exponents_mod(L, B, p, r)
    if not n:
        assert got == ()
        return
    Lz = integer_span(L + B, q, n)
    Bz = integer_span(B, q, n)
    invs, free = quotient_invariants(Lz, Bz)
    assert free == 0
    assert got == PGroup.from_invariants(p, invs).exponents
    for v in L:
        assert span_contains_mod(B + L, v, p, r)
        assert span_contains_mod(B, v, p, r) == lattice_contains(Bz, [v])


@st.composite
def presented_complexes(draw):
    """(terms, maps, p, r): a presented complex with known coordinates.

    In coordinates, degree j is Z^{k_j} with differential delta_j
    (delta_j delta_{j+1} = 0) and a subcomplex of relations R_j.  It is
    embedded with gens G_j = p^{a_j} [I | 0] U_j for a unimodular U_j, so the
    gens are not saturated when a_j > 0, and ambient maps
    A_j = U_j^{-1} P_j U_{j+1}, P_j having p^{a_{j+1}-a_j} delta_j in its
    top-left block, so that G_j A_j = delta_j G_{j+1}."""
    p = draw(st.sampled_from((2, 3, 5)))
    r = draw(st.integers(1, 3))
    L = draw(st.integers(1, 3))
    small = st.integers(-3, 3)

    def matrix(m, n):
        return draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=m, max_size=m))

    ks = [draw(st.integers(0, 3)) for _ in range(L)]
    deltas = {}
    for j in reversed(range(L - 1)):
        nxt = deltas.get(j + 1)
        if nxt is None:
            deltas[j] = matrix(ks[j], ks[j + 1])
        else:
            K = kernel_int(nxt) if ks[j + 1] else []
            deltas[j] = mat_mul(matrix(ks[j], len(K)), K) if K else zeros(ks[j], ks[j + 1])
    rels = {0: matrix(draw(st.integers(0, 2)), ks[0])}
    for j in range(1, L):
        rels[j] = matrix(draw(st.integers(0, 2)), ks[j]) + (
            mat_mul(rels[j - 1], deltas[j - 1]) if rels[j - 1] and ks[j - 1] else [])
    a = [draw(st.integers(0, 1))]
    for _ in range(L - 1):
        a.append(a[-1] + draw(st.integers(0, 1)))
    ns = [k + draw(st.integers(0, 1)) for k in ks]
    U, Uinv = [], []
    for n in ns:
        E, Einv = identity(n), identity(n)
        for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
            s, t = draw(st.permutations(range(n)))[:2]
            c = draw(small)
            E[s] = [x + c * y for x, y in zip(E[s], E[t])]
            for row in Einv:
                row[t] -= c * row[s]
        U.append(E)
        Uinv.append(Einv)
    terms, maps = {}, {}
    for j in range(L):
        G = mat_scale(p ** a[j], [row[:] for row in U[j][: ks[j]]])
        gens = G + ([[x + y for x, y in zip(G[0], G[-1])]] if len(G) > 1 else [])
        terms[j] = (gens, mat_mul(rels[j], G) if rels[j] and G else [])
        if j + 1 < L:
            P = zeros(ns[j], ns[j + 1])
            for s_, row in enumerate(deltas[j]):
                P[s_][: ks[j + 1]] = [p ** (a[j + 1] - a[j]) * x for x in row]
            maps[j] = mat_mul(mat_mul(Uinv[j], P), U[j + 1]) if ns[j] and ns[j + 1] else P
    return terms, maps, p, r


@settings(max_examples=150, deadline=None)
@given(presented_complexes())
def test_presented_cohomology_mod_matches_integer_path(data):
    # the oracle: the same complex over Z with p^r * gens added to the rels
    terms, maps, p, r = data
    q = p**r
    scaled = {j: (g, R + mat_scale(q, g)) for j, (g, R) in terms.items()}
    assert presented_cohomology_mod(terms, maps, p, r) == presented_complex_cohomology(
        scaled, maps, p)


def oracle_acyclic(terms, maps, p, r):
    try:
        groups = presented_cohomology_mod(terms, maps, p, r)
    except CompositeNonzero:
        return False
    return all(g == PGroup.zero(p) for g in groups.values())


@settings(max_examples=150, deadline=None)
@given(presented_complexes())
def test_acyclic_mod_matches_the_groups(data):
    # the span-order verdict against the groups, on the complex and on the
    # cones of the identity (always acyclic) and of p times it (acyclic iff
    # the complex is), so that both verdicts occur
    terms, maps, p, r = data
    assert acyclic_mod(terms, maps, p, r) == oracle_acyclic(terms, maps, p, r)
    width = {j: len(g[0]) if g else 0 for j, (g, _) in terms.items()}
    for c in (1, p):
        cone = presented_cone((terms, maps), (terms, maps),
                              {j: mat_scale(c, identity(n)) for j, n in width.items()})
        assert acyclic_mod(*cone, p, r) == oracle_acyclic(*cone, p, r)
        if c == 1:
            assert acyclic_mod(*cone, p, r)


def test_acyclic_mod_refuses_balanced_orders_when_d_squared_is_not_zero():
    # |C^t| = |im d_{t-1}| * |im d_t| in every degree, but d_0 d_1 = 1
    I2 = identity(2)
    terms = {0: ([[1]], []), 1: (I2, []), 2: ([[1]], [])}
    maps = {0: [[1, 0]], 1: [[1], [0]]}
    for p, r in ((2, 1), (3, 2)):
        assert not acyclic_mod(terms, maps, p, r)
    # the same orders with d_1 moved to the other summand: a complex, acyclic
    assert acyclic_mod(terms, {0: [[1, 0]], 1: [[0], [1]]}, 2, 1)


def test_presented_cohomology_mod_reads_unsaturated_gens():
    # gens = p*Z presents Z/p mod p although its ambient row is 0 mod p
    for p in (2, 3):
        assert presented_cohomology_mod({0: ([[p]], [])}, {}, p, 1) == {0: PGroup(p, (1,))}
        assert presented_cohomology_mod({0: ([[p, 0]], [[p * p, 0]])}, {}, p, 3) == {
            0: PGroup(p, (1,))}
    with pytest.raises(CompositeNonzero):
        presented_cohomology_mod({0: ([[2]], [[1]])}, {}, 2, 1)


def test_empty_and_degenerate_shapes():
    assert eliminate_mod([], 2, 2) == ([], [])
    assert preimage_mod([], [], 2, 2) == []
    assert preimage_mod([[], []], [], 3, 1) == identity(2)
    assert preimage_mod([[4, 0], [0, 0]], [], 2, 2) == identity(2)
    assert module_invariants_mod([[0, 0], [0, 4]], 2, 2) == ()
    assert quotient_exponents_mod([], [[1]], 2, 1) == ()
    assert quotient_exponents_mod([[2, 0]], [], 2, 2) == (1,)


# ---------------------------------------------------------------------------
# windows: the Z/p^r presentations against the same windows computed over Z


def integer_window_groups(ranks, diffs, p, r, extra_rels=None):
    """The window groups over Z: cocycles are the preimage of p^r*Z plus the
    next relations, boundaries carry p^r*I rows."""
    q = p**r
    out = {}
    for t in sorted(ranks):
        rk = ranks[t]
        if rk == 0:
            out[t] = PGroup.zero(p)
            continue
        rel = extra_rels.get(t, []) if extra_rels else []
        D = diffs.get(t)
        if D and ranks.get(t + 1, 0):
            tgt = mat_scale(q, identity(ranks[t + 1]))
            if extra_rels and extra_rels.get(t + 1):
                tgt = hermite_form(tgt + extra_rels[t + 1])
            K = preimage_lattice(D, tgt)
        else:
            K = identity(rk)
        B = diffs.get(t - 1, []) if ranks.get(t - 1, 0) else []
        B = [row for row in B if any(row)] + mat_scale(q, identity(rk)) + rel
        assert all(lattice_contains(K, [b]) for b in B)
        invs, free = quotient_invariants(K, B)
        assert free == 0
        out[t] = PGroup.from_invariants(p, invs)
    return out


def integer_image(K0, B1, p, r, n):
    """Image of the small window's cocycles in the big window's group, over Z."""
    q = p**r
    Bz = integer_span(B1, q, n)
    invs, free = quotient_invariants(hermite_form(K0 + Bz), Bz)
    assert free == 0
    return PGroup.from_invariants(p, invs).exponents


def orbit_window(X, i, V, m0):
    """The window W_V of the orbit of m0 on the d-dimensional reference model
    X; of e_1 at d = 1, the window the package assembles on the 1-torus."""
    if m0 == (1,):
        return _assemble_window(QTorusComplex(X.p, X.N), i, V)
    return window_n_then_x(X, i, V, m0)


def check_windows(X, i, r, M, V, extra_rels=None):
    p = X.p
    ranks0, diffs0, _ = window_n_then_x(X, i, 0)
    extra = extra_rels(ranks0) if extra_rels else None
    got = cohomology_mod(ranks0, diffs0, p, r, extra)
    assert got == integer_window_groups(ranks0, diffs0, p, r, extra)
    for m0 in primitive_weights(X.d, p, M):
        wins = []
        for k in (0, 1):
            ranks, diffs, basis = orbit_window(X, i, V + k, m0)
            extra = extra_rels(ranks) if extra_rels else None
            got = cohomology_mod(ranks, diffs, p, r, extra)
            assert got == integer_window_groups(ranks, diffs, p, r, extra), (m0, k)
            wins.append((ranks, basis, cocycles_boundaries_rels_mod(ranks, diffs, p, r, extra)))
        (_, basis0, pres0), (ranks1, basis1, pres1) = wins
        for t in pres0:
            emb = embed_rows(pres0[t][0], basis0[t], basis1[t])
            assert quotient_exponents_mod(emb, pres1[t][1], p, r) == \
                integer_image(emb, pres1[t][1], p, r, ranks1[t]), (m0, t)


@pytest.mark.parametrize("p, d, i, r, M", [
    (2, 1, 0, 1, 2), (2, 1, 1, 2, 2), (3, 1, 1, 2, 2), (2, 1, 2, 3, 1),
    (2, 2, 1, 1, 1), (3, 2, 0, 2, 1), (2, 2, 2, 2, 1),
])
def test_charp_windows_match_integer_path(p, d, i, r, M):
    check_windows(build_qtorus(p, d, 1), i, r, M, r + 1)


def mu_rels(X):
    """mu * gens per window degree: the relations that kill mu."""
    mu = X.B.mult_matrix(X.B.mu)
    return lambda ranks: {t: block_diag(mu, rk // X.N) for t, rk in ranks.items()}


@pytest.mark.parametrize("kill_mu", [False, True])
@pytest.mark.parametrize("p, i, r, N", [(2, 0, 1, 3), (2, 1, 1, 3), (3, 1, 1, 2), (2, 1, 2, 2)])
def test_q_windows_match_integer_path(p, i, r, N, kill_mu):
    Xq = build_qtorus(p, 1, N)
    check_windows(Xq, i, r, 2, r + 1, mu_rels(Xq) if kill_mu else None)


@pytest.mark.parametrize("p, d, r, N", [
    (2, 1, 1, 2), (2, 1, 2, 3), (3, 1, 2, 2), (5, 1, 1, 3), (2, 2, 1, 2), (3, 2, 1, 3),
])
def test_q_windows_mod_mu_are_the_n1_windows(p, d, r, N):
    # B/mu = Z: with mu * gens added to the relations, every q window at N
    # has the groups of the N = 1 window, and so has the image of W_V in
    # W_{V+1}; the mu-collapse of the q-model is the N = 1 (charp) model
    Xq, X1 = build_qtorus(p, d, N), build_qtorus(p, d, 1)
    rels = mu_rels(Xq)

    def groups(X, i, V, m0, extra):
        ranks, diffs, basis = (orbit_window if m0 else window_n_then_x)(X, i, V, m0)
        window_rels = extra(ranks) if extra else None
        return (cohomology_mod(ranks, diffs, p, r, window_rels),
                cocycles_boundaries_rels_mod(ranks, diffs, p, r, window_rels), basis)

    for i in range(d + 2):
        assert groups(Xq, i, 0, None, rels)[0] == groups(X1, i, 0, None, None)[0]
        for m0 in primitive_weights(d, p, 1):
            wins = {}
            for X, extra in ((Xq, rels), (X1, None)):
                (g0, pres0, basis0), (g1, pres1, basis1) = (
                    groups(X, i, r + k, m0, extra) for k in (0, 1))
                images = {t: quotient_exponents_mod(
                    embed_rows(pres0[t][0], basis0[t], basis1[t]), pres1[t][1], p, r)
                    for t in pres0}
                wins[X.N] = (g0, g1, images)
            assert wins[N] == wins[1], (i, m0)


def test_relation_outside_next_relations_raises():
    # the rel of degree 0 maps to (1, 0), outside span(rels_1) = span((0, 1))
    I2 = identity(2)
    for p, r in ((2, 1), (3, 2)):
        bad = {0: ([[1]], [[1]]), 1: (I2, [[0, 1]])}, {0: [[1, 0]]}
        with pytest.raises(CompositeNonzero):
            presented_cohomology_mod(*bad, p, r)
        with pytest.raises(CompositeNonzero):
            presented_complex_cohomology(*bad, p)
        assert not acyclic_mod(*bad, p, r)
        good = {0: ([[1]], [[1]]), 1: (I2, [[0, 1]])}, {0: [[0, 1]]}
        assert presented_cohomology_mod(*good, p, r) == {0: PGroup.zero(p), 1: PGroup(p, (r,))}


def test_boundaries_checked_against_the_next_relations():
    # d*d = 1 is not 0, but it lands in the relations of degree 1, so the
    # boundary of degree 0 is a cocycle; degree 0 itself has no relations
    ranks = {-1: 1, 0: 1, 1: 1}
    diffs = {-1: [[1]], 0: [[1]]}
    groups = cohomology_mod(ranks, diffs, 2, 2, {1: [[1]]})
    assert all(g == PGroup.zero(2) for g in groups.values())
    with pytest.raises(CompositeNonzero):
        cohomology_mod(ranks, diffs, 2, 2, {0: [[2]], 1: [[2]]})


def test_window_boundary_outside_cocycles_raises():
    # d*d = 2 is nonzero mod 4 but zero mod 2
    ranks = {0: 1, 1: 1, 2: 1}
    diffs = {0: [[1]], 1: [[2]]}
    assert cohomology_mod(ranks, diffs, 2, 1)[1] == PGroup.zero(2)
    cocycles_boundaries_mod(ranks, diffs, 2, 1)
    with pytest.raises(CompositeNonzero):
        cohomology_mod(ranks, diffs, 2, 2)
    with pytest.raises(CompositeNonzero):
        cocycles_boundaries_mod(ranks, diffs, 2, 2)
