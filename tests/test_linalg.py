import random
from itertools import product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf
from sympy.matrices.normalforms import invariant_factors

from nygaard import linalg
from nygaard.linalg import (
    CompositeNonzero,
    PGroup,
    cohomology_invariants,
    hermite_form,
    identity,
    lattice_contains,
    lattice_eq,
    mat_mul,
    preimage_mod,
    quotient_invariants,
    restrict_lattice,
    row_mul,
)
from nygaard.errors import UsageError

from oracles import (
    complex_cohomology,
    howell_form,
    kernel_int,
    module_invariants_mod,
    preimage_lattice,
    solve_left,
)


def rand_mat(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


# ---------------------------------------------------------------------------
# Hermite form, kernels, lattices


def test_hermite_matches_sympy_on_full_rank():
    rng = random.Random(3)
    for _ in range(25):
        M = rand_mat(rng, 3, 3)
        if sympy.Matrix(M).det() == 0:
            continue
        H = hermite_form(M)
        S = sympy_hnf(sympy.Matrix(M).T).T  # sympy uses column-style HNF
        S = [[int(x) for x in row] for row in S.tolist()]
        # sympy returns lower-left style for transposed input; compare spans
        assert lattice_eq(H, S)


def test_kernel_int():
    M = [[2, 4], [1, 2], [3, 6]]
    K = kernel_int(M)
    for row in K:
        assert row_mul(row, M) == [0, 0]
    # kernel rank = 3 - rank(M) = 2
    assert len(K) == 2


def test_solve_left_and_membership():
    rng = random.Random(5)
    for _ in range(40):
        L = rand_mat(rng, 3, 4)
        x = [rng.randint(-4, 4) for _ in range(3)]
        y = row_mul(x, L)
        sol, = solve_left(L, [y])
        assert sol is not None
        assert row_mul(sol, L) == y
    assert solve_left([[2, 0], [0, 2]], [[1, 0]]) == [None]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lattice_contains_agrees_with_solve_left(data):
    # membership without a transform against the solutions, on random
    # lattices (L = [] and zero rows included); rows in span(L) are drawn
    # beside arbitrary ones, so that both verdicts occur
    n = data.draw(st.integers(1, 4))
    entry = st.integers(-6, 6)
    L = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    xs = data.draw(st.lists(st.lists(entry, min_size=len(L), max_size=len(L)), max_size=2))
    rows = [row_mul(x, L) if L else [0] * n for x in xs]
    rows += data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=2))
    assert lattice_contains(L, rows) == (None not in solve_left(L, rows))
    for y in rows:
        assert lattice_contains(L, [y]) == (solve_left(L, [y]) != [None])


def test_preimage_and_intersection():
    # preimage of 3Z^1 under x -> x*(1,2)^T-ish map
    D = [[1], [2]]
    P = preimage_lattice(D, [[3]])
    for row in P:
        assert row_mul(row, D)[0] % 3 == 0
    assert lattice_contains(P, [[3, 0]])
    assert lattice_contains(P, [[1, 1]])
    I = restrict_lattice([[2, 0], [0, 3]], None, [[3, 0], [0, 2]])
    assert lattice_eq(I, [[6, 0], [0, 6]])


def two_step_intersection(L1, L2):
    """span(L1) ∩ span(L2) from the kernel of [L1; -L2], as intersections
    were taken before restrict_lattice."""
    if not L1 or not L2:
        return []
    ker = kernel_int(L1 + [[-a for a in row] for row in L2])
    return hermite_form([row_mul(row[: len(L1)], L1) for row in ker])


@st.composite
def restrictions(draw):
    """(G, D, L) for restrict_lattice: G may be empty or have dependent
    rows, D may be None or have zero columns, L may be empty."""
    entry = st.integers(-4, 4)
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, 3))
    G = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3))
    if G and draw(st.booleans()):
        c = draw(entry)
        G.append([a + c * b for a, b in zip(G[0], G[-1])])
    D = draw(st.none() | st.lists(st.lists(entry, min_size=k, max_size=k),
                                  min_size=n, max_size=n))
    w = n if D is None else k
    L = draw(st.lists(st.lists(entry, min_size=w, max_size=w), max_size=3))
    return G, D, L


@settings(max_examples=200, deadline=None)
@given(restrictions())
def test_restrict_lattice_matches_intersection_of_preimage(data):
    G, D, L = data
    want = two_step_intersection(G, L if D is None else preimage_lattice(D, L))
    assert restrict_lattice(G, D, L) == hermite_form(want)


@pytest.mark.parametrize("G, D, L", [
    ([[2, 0], [0, 3]], None, [[3, 0], [0, 2]]),
    ([[1, 2], [3, 4], [2, 2]], [[1], [2]], [[5]]),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[2, 0], [1, 1], [0, 3]], []),
])
def test_restrict_lattice_runs_two_hermite_forms(monkeypatch, G, D, L):
    # one kernel of [G*D; -L] and one Hermite form of the answer
    calls = []
    hermite = linalg.hermite_form

    def counted(*args, **kwargs):
        calls.append(kwargs.get("transform", False))
        return hermite(*args, **kwargs)

    monkeypatch.setattr(linalg, "hermite_form", counted)
    assert restrict_lattice(G, D, L)
    assert calls == [True, False]


# ---------------------------------------------------------------------------
# quotients and PGroup


def test_quotient_invariants_free_rank_of_dependent_rows():
    # the free rank is that of span(L), not the number of rows of L
    assert quotient_invariants([[1], [1]], []) == ([], 1)
    assert quotient_invariants([[2], [3]], [[6]]) == ([6], 0)


@st.composite
def relation_matrices(draw):
    """(M, n): relation rows in Z^n with zero rows and columns, dependent
    rows and torsion prime to p (6, 10) all drawn often."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.sampled_from((1, -2, 3, 4, 6, 10, -15)),
                      st.integers(-12, 12))
    zero_col = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    M = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    if M and draw(st.booleans()):
        c = draw(st.integers(-3, 3))
        M.append([c * a - b for a, b in zip(M[0], M[-1])])
    if draw(st.booleans()):
        M.insert(draw(st.integers(0, len(M))), [0] * n)
    if zero_col is not None:
        M = [[0 if j == zero_col else a for j, a in enumerate(row)] for row in M]
    return M, n


@settings(max_examples=300, deadline=None)
@given(relation_matrices())
def test_quotient_invariants_against_sympy(data):
    # Z^n / span(M): the invariant factors of M above 1 and n - rank(M) free
    M, n = data
    invs, free = quotient_invariants(identity(n), M)
    factors = [abs(int(d)) for d in invariant_factors(sympy.Matrix(M))] if M else []
    assert invs == [d for d in factors if d > 1]
    assert free == n - sum(1 for d in factors if d)
    assert all(b % a == 0 for a, b in zip(invs, invs[1:]))


def test_quotient_invariants_basic():
    L = identity(2)
    M = [[2, 0], [0, 3]]
    invs, free = quotient_invariants(L, M)
    assert sorted(invs) == [6] or sorted(invs) == [2, 3] or invs == [6]
    # canonical invariant factors: single Z/6
    assert invs == [6]
    assert free == 0


def test_pgroup_from_invariants():
    g = PGroup.from_invariants(2, [12, 2], 1)
    assert g.exponents == (2, 1)
    assert g.free_rank == 1
    assert str(g) == "Z + Z/4 + Z/2"
    assert (g + PGroup(2, (3,), 0)).exponents == (3, 2, 1)


def test_pgroup_multiplicity():
    g = PGroup(3, (2, 1), 1)
    assert 3 * g == g + g + g == PGroup(3, (2, 2, 2, 1, 1, 1), 3)
    assert 0 * g == PGroup.zero(3)


# ---------------------------------------------------------------------------
# complex cohomology


def test_mult_by_p_complex():
    ranks = {0: 1, 1: 1}
    diffs = {0: [[5]]}
    H = complex_cohomology(ranks, diffs, 5)
    assert H[0] == PGroup.zero(5)
    assert H[1] == PGroup(5, (1,))


def test_zero_complex():
    ranks = {0: 2, 1: 3, 2: 1}
    H = complex_cohomology(ranks, {0: [[0] * 3] * 2, 1: [[0]] * 3}, 3)
    assert H[0] == PGroup(3, (), 2)
    assert H[1] == PGroup(3, (), 3)
    assert H[2] == PGroup(3, (), 1)


def koszul_pp(p):
    # Koszul complex on (p, p): degrees 0,1,2 with ranks 1,2,1
    ranks = {0: 1, 1: 2, 2: 1}
    diffs = {0: [[p, p]], 1: [[-p], [p]]}
    return ranks, diffs


def brute_cohomology_sympy(ranks, diffs):
    """Independent oracle via the classical SNF homology theorem.

    For a complex of free abelian groups, H^j = Z^{r_j - rk D_j - rk D_{j-1}}
    (+) torsion given by the invariant factors of D_{j-1}.
    """
    out = {}
    for j in sorted(ranks):
        r = ranks[j]
        if r == 0:
            out[j] = ([], 0)
            continue
        D = diffs.get(j) if ranks.get(j + 1, 0) else None
        Dp = diffs.get(j - 1) if ranks.get(j - 1, 0) else None
        rk_d = sympy.Matrix(D).rank() if D else 0
        if Dp:
            sm = sympy.Matrix(Dp)
            rk_dp = sm.rank()
            invs = [int(d) for d in sympy.matrices.normalforms.invariant_factors(sm) if d != 0]
            tors = [d for d in invs if d > 1]
        else:
            rk_dp = 0
            tors = []
        out[j] = (tors, r - rk_d - rk_dp)
    return out


def test_koszul_pp_cohomology_oracle():
    for p in (2, 5):
        ranks, diffs = koszul_pp(p)
        oracle = brute_cohomology_sympy(ranks, diffs)
        assert oracle[0] == ([], 0)
        assert oracle[1] == ([p], 0)
        assert oracle[2] == ([p], 0)
        H = complex_cohomology(ranks, diffs, p)
        assert H[0] == PGroup.zero(p)
        assert H[1] == PGroup(p, (1,))
        assert H[2] == PGroup(p, (1,))


def random_complex(rng, max_deg=4, max_rank=4, lo=-3, hi=3):
    """Random bounded complex over Z with honest d*d = 0 (built right to left)."""
    degs = list(range(max_deg + 1))
    ranks = {j: rng.randint(1, max_rank) for j in degs}
    diffs = {}
    nxt = None  # differential out of degree j+1
    for j in reversed(degs[:-1]):
        if nxt is None:
            D = rand_mat(rng, ranks[j], ranks[j + 1], lo, hi)
        else:
            K = kernel_int(nxt)
            if not K:
                D = [[0] * ranks[j + 1] for _ in range(ranks[j])]
            else:
                R = rand_mat(rng, ranks[j], len(K), lo, hi)
                D = mat_mul(R, K)
        diffs[j] = D
        nxt = D
    return ranks, diffs


def test_random_complexes_against_oracle():
    rng = random.Random(17)
    for _ in range(15):
        ranks, diffs = random_complex(rng, max_deg=3, max_rank=3)
        mine = cohomology_invariants(ranks, diffs)
        oracle = brute_cohomology_sympy(ranks, diffs)
        for j in ranks:
            assert mine[j] == oracle[j], (j, mine[j], oracle[j])


def test_euler_characteristic():
    rng = random.Random(23)
    for _ in range(10):
        ranks, diffs = random_complex(rng)
        inv = cohomology_invariants(ranks, diffs)
        chi_h = sum((-1) ** j * free for j, (_, free) in inv.items())
        chi_r = sum((-1) ** j * r for j, r in ranks.items())
        assert chi_h == chi_r


def test_composite_nonzero_raises():
    ranks = {0: 1, 1: 1, 2: 1}
    diffs = {0: [[1]], 1: [[1]]}
    with pytest.raises(CompositeNonzero):
        complex_cohomology(ranks, diffs, 2)


def group_mod_q(invs, free, p, q):
    """UCT pieces: (H/q) and H[q] of an abelian group given by invariants."""
    over = [min_gcd(d, q) for d in invs] + [q] * free
    torsion_sub = [min_gcd(d, q) for d in invs]
    return over, torsion_sub


def min_gcd(d, q):
    from math import gcd

    return gcd(d, q)


def test_mod_pn_cohomology_universal_coefficients():
    # direct Z/p^n route must match H^n(C)/q (+) H^{n+1}(C)[q]
    rng = random.Random(29)
    for p, n in ((2, 2), (3, 1), (2, 3)):
        q = p**n
        for _ in range(8):
            ranks, diffs = random_complex(rng, max_deg=3, max_rank=3)
            direct = complex_cohomology(ranks, diffs, p, modulus=q)
            over_z = cohomology_invariants(ranks, diffs)
            for j in ranks:
                invs, free = over_z[j]
                invs2, free2 = over_z.get(j + 1, ([], 0))
                pieces = [min_gcd(d, q) for d in invs] + [q] * free
                pieces += [min_gcd(d, q) for d in invs2]
                expect = PGroup.zero(p)
                for d in pieces:
                    expect = expect + PGroup.from_invariants(p, [d])
                assert direct[j] == expect, (j, direct[j], expect)


# ---------------------------------------------------------------------------
# Howell form


def span_mod(rows, q):
    """Exhaustive row span over Z/q (oracle for tiny cases)."""
    if not rows:
        return frozenset()
    n = len(rows[0])
    out = set()
    for coeffs in product(range(q), repeat=len(rows)):
        v = [0] * n
        for c, row in zip(coeffs, rows):
            for i in range(n):
                v[i] = (v[i] + c * row[i]) % q
        out.add(tuple(v))
    return frozenset(out)


def test_howell_zero_and_trivial():
    assert howell_form([[0, 0], [0, 0]], 2, 2) == []
    assert howell_form([[2]], 2, 2) == [[2]]


def test_howell_exhaustive_span_oracle_p2_n2():
    rng = random.Random(31)
    seen = {}
    for _ in range(60):
        M = [[rng.randrange(4) for _ in range(3)] for _ in range(3)]
        H = howell_form(M, 2, 2)
        sp = span_mod(M, 4)
        assert span_mod(H, 4) == sp
        # canonical: same span -> same form
        if sp in seen:
            assert seen[sp] == H
        else:
            seen[sp] = H
        # each original row lies in the span of the form
        for row in M:
            assert tuple(a % 4 for a in row) in span_mod(H, 4)


def test_howell_membership_random_p_n3():
    rng = random.Random(37)
    p, n = 3, 3
    q = p**n
    for _ in range(20):
        M = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
        H = howell_form(M, p, n)
        # scrambled generators give the same canonical form
        rows = [row_mul([rng.randrange(q) for _ in M], M) for _ in range(5)] + M
        rows = [[a % q for a in r] for r in rows]
        assert howell_form(rows, p, n) == H


def test_kernel_mod():
    p, n = 2, 2
    M = [[2], [1]]
    K = preimage_mod(M, [], p, n)
    for row in K:
        assert row_mul(row, M)[0] % 4 == 0
    assert howell_form(K, p, n) == howell_form([[1, 2]], p, n)


def test_module_invariants_mod():
    # span{(p,1),(0,p)} over Z/p^2 is cyclic of order p^2
    p = 2
    assert module_invariants_mod([[2, 1], [0, 2]], p, 2) == (2,)
    assert module_invariants_mod([[2, 0], [0, 2]], p, 2) == (1, 1)


def test_mod_pn_cohomology_checks_the_composite_mod_pn():
    # d*d = 2 vanishes mod 2 but not mod 4
    ranks, diffs = {0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[2]]}
    H = complex_cohomology(ranks, diffs, 2, modulus=2)
    assert H == {0: PGroup.zero(2), 1: PGroup.zero(2), 2: PGroup(2, (1,))}
    with pytest.raises(CompositeNonzero):
        complex_cohomology(ranks, diffs, 2, modulus=4)


@pytest.mark.parametrize("modulus", [0, 1, 6, 9, -4])
def test_modulus_must_be_a_positive_power_of_p(modulus):
    with pytest.raises(UsageError):
        complex_cohomology({0: 1}, {}, 2, modulus=modulus)
