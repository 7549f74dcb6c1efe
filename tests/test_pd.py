import inspect
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, floor

import pytest

from nygaard import cli, linalg, pdalg, syntomic
from nygaard.errors import CompositeNonzero, NotStabilized, UsageError
from nygaard.linalg import (
    PGroup,
    identity,
    mat_is_zero,
    mat_scale,
    preimage_mod,
    quotient_exponents_mod,
    span_contains_mod,
    span_exponent_mod,
)
from nygaard.pdalg import (
    PDAlgebra,
    TruncationTooTight,
    conj_graded_map_check,
    conjugate_filtration_description1,
    conjugate_filtration_equality_check,
    conjugate_filtration_spans,
    fiber_group,
    frobenius_table,
    nygaard_graded_image_check,
    phi_pth_power_check,
    span_identity_check,
)

import oracles
from oracles import (
    conjugate_filtration_description1_per_weight,
    fiber_group_on_the_basis,
    filtration_multiplicativity_check,
    frobenius_fixed_points,
    howell_form,
    module_invariants_mod,
    negative_twist_series_by_blocks,
    nygaard_graded_image_check_per_chain,
    nygaard_graded_image_check_per_level,
    phi_block,
    phi_multiplicative_check,
    phi_pth_power_check_per_monomial,
    phi_shift_by_monomials,
    power_by_repeated_multiplication,
    src_env,
    vp_factorial,
    weight_chains_by_search,
)
from oracles import TwoVariablePD


def fibre(A, i):
    """`pdalg.fiber_group` at the parameters of A."""
    return fiber_group(A.p, A.n, A.e, A.W, i)


def small_algebra(p=2, n=2, e=2, W=None):
    return PDAlgebra(p, n=n, e=e, W=W if W is not None else 2 * p * p)


def one_variable(names, cases, at):
    """`pytest.mark.parametrize(names, cases)` with ids that put the number
    of variables, 1, at position `at` of each case, as in p-e-1-n: the ids
    the cases had while the model also ran two variables."""
    ids = ["-".join(map(str, case[:at] + (1,) + case[at:])) for case in cases]
    return pytest.mark.parametrize(names, cases, ids=ids)


def pd_model(p, g, n, e, W):
    """The model in g variables: `PDAlgebra`, or at g = 2 its tensor square
    `oracles.TwoVariablePD`."""
    return (PDAlgebra if g == 1 else TwoVariablePD)(p, n, e, W)


def variables(A, m):
    """The weights, one per variable, of the monomial m of either model."""
    return A.pairs[m] if isinstance(A, TwoVariablePD) else (m,)


def from_variables(A, ws):
    """The monomial of A made of the weights ws, one per variable; T or
    more when it lies beyond the window."""
    return A.index(*ws) if isinstance(A, TwoVariablePD) else ws[0]


def level(A, m):
    """The divided-power exponent of the monomial m of either model: in
    two variables, the total exponent."""
    return sum(v // A.pe for v in variables(A, m))


def every_chain(A):
    """Every weight chain of A: `pdalg._weight_chains` over its window."""
    return pdalg._weight_chains(A.p, A.T)


def every_chain_kernel(A, i):
    """The Nygaard kernel of every chain of A as the diagonal rows
    p^{a_k} e_k of `_nygaard_exponents`: phi is zero on a chain that
    `oracles.phi_shifts` leaves out, whose kernel is the whole chain."""
    kernels = {}
    for idxs, c in oracles.phi_shifts(A):
        exps = pdalg._nygaard_exponents(c, A.p, A.n, i)
        kernels[tuple(idxs)] = [[A.p**a if j == k else 0 for j in range(len(c))]
                                for k, a in exps.items()]
    return [(idxs, kernels.get(tuple(idxs), identity(len(idxs)))) for idxs in every_chain(A)]


def in_nygaard(A, i, vec):
    """Whether the vector vec of A/p^n lies in N^{>=i}: per weight chain, in
    the span mod p^n of the kernel of phi mod p^i at precision n + i."""
    Ahi = PDAlgebra(A.p, A.n + i, A.e, A.W)
    return all(span_contains_mod(K, [vec[t] for t in idxs], A.p, A.n)
               for idxs, K in every_chain_kernel(Ahi, i))


# ---------------------------------------------------------------------------
# multiplication law


def test_pd_mul_binomial():
    A = small_algebra()
    x1 = A.monomial(0, 1)
    prod = A.mul(x1, x1)
    # x^{[1]} * x^{[1]} = 2 x^{[2]}
    assert prod == A.monomial(0, 2, 2)


def test_pd_mul_truncation_flag():
    A = small_algebra(p=2, n=3, W=4)
    a = A.monomial(0, 3)
    b = A.monomial(0, 2)
    # x^{[3]} x^{[2]} = 10 x^{[5]} is nonzero mod 8 but leaves the window
    [ma], [mb] = a, b
    m, c = A.mul_monomials(ma, mb)
    assert m >= A.T and c
    assert A.mul(a, b) == {}


def test_pd_pth_power_vanishes_mod_p():
    # (x^{[1]})^p = p! x^{[p]} = 0 mod p
    for p in (2, 3):
        A = small_algebra(p=p, n=1)
        x1 = A.monomial(0, 1)
        assert A.power(x1, p) == {}


@pytest.mark.parametrize("p,e,g,n", [
    (p, e, g, n) for p in (2, 3, 5) for e in (0, 1) for g in (1, 2) for n in (1, 3)
])
def test_power_by_squaring_is_repeated_multiplication(p, e, g, n):
    # on every monomial and on random 3-term elements, for exponents whose
    # squarings regroup the product; some powers reach the window edge l = W.
    # At g = 2 the inherited square and multiply runs on the tensor square,
    # where l is the total divided-power exponent
    A = pd_model(p, g, n, e, 2 * p if g == 1 else p)
    basis = A.monomials()
    rng = random.Random(100 * p + 10 * e + g + n)
    elements = [{m: 1} for m in basis]
    elements += [A.add(A.add({rng.choice(basis): rng.randrange(1, A.q)},
                             {rng.choice(basis): rng.randrange(1, A.q)}),
                       {rng.choice(basis): rng.randrange(1, A.q)}) for _ in range(20)]
    edge = 0
    for a in elements:
        for k in (0, 1, 2, p, 2 * p + 1):
            want = power_by_repeated_multiplication(A, a, k)
            assert A.power(a, k) == want, (a, k)
            edge += any(level(A, m) == A.W for m in want) and k > 1
    assert edge


def test_pd_mul_associative_commutative():
    A = small_algebra(p=2, n=2, e=1, W=6)
    rng = random.Random(1)
    basis = A.monomials()
    for _ in range(40):
        a = {rng.choice(basis): rng.randrange(1, 4)}
        b = {rng.choice(basis): rng.randrange(1, 4)}
        c = {rng.choice(basis): rng.randrange(1, 4)}
        assert A.mul(a, b) == A.mul(b, a)
        assert A.mul(A.mul(a, b), c) == A.mul(a, A.mul(b, c))


def test_teichmuller_merge():
    # [x^{1/2}] * [x^{1/2}] = x = 1! x^{[1]}
    A = small_algebra(p=2, e=1)
    half = A.monomial(1, 0)
    assert A.mul(half, half) == A.monomial(0, 1)


def _mul_by_factorials(A, a, b):
    """Reference product: `PDAlgebra.mul` as written before `mul_monomials`,
    merging variable by variable, with the overflow factor (l + k)!/l! taken
    from factorials after testing its valuation."""
    out = {}
    pe = A.p**A.e
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            coeff, merged = c1 * c2, []
            for v1, v2 in zip(variables(A, m1), variables(A, m2)):
                (l1, c1_), (l2, c2_) = divmod(v1, pe), divmod(v2, pe)
                k, c = divmod(c1_ + c2_, pe)
                l = l1 + l2
                coeff *= comb(l, l1)
                if k:
                    if vp_factorial(l + k, A.p) - vp_factorial(l, A.p) >= A.n:
                        break
                    coeff *= factorial(l + k) // factorial(l)
                    l += k
                merged.append(l * pe + c)
            if len(merged) < len(variables(A, m1)) or coeff % A.q == 0:
                continue  # an overflow factor vanishes mod p^n, or the product does
            m = from_variables(A, merged)
            if m >= A.T:
                continue
            v = (out.get(m, 0) + coeff) % A.q
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def _outcome(f, *args, **kw):
    """f's value, or TruncationTooTight when f raises it."""
    try:
        return f(*args, **kw)
    except TruncationTooTight:
        return TruncationTooTight


@pytest.mark.parametrize("p,e,g,n", [
    # (3, 2, 2) is left out: 486 monomials make 236,196 pairs per n
    (p, e, g, n) for p in (2, 3) for e in (0, 1, 2) for g in (1, 2) for n in (1, 2, 3)
    if (p, e, g) != (3, 2, 2)
])
def test_mul_and_mul_monomials_match_the_merged_law(p, e, g, n):
    # at g = 2 the inherited bilinear `mul` runs on the tensor square, whose
    # `mul_monomials` is the one-variable law in each variable
    A = pd_model(p, g, n, e, 2 * p if g == 1 else 2)
    basis = A.monomials()
    for m1 in basis:
        for m2 in basis:
            a, b = {m1: 1}, {m2: 1}
            want = _mul_by_factorials(A, a, b)
            assert A.mul(a, b) == want
            r = A.mul_monomials(m1, m2)
            inside = r is not None and r[0] < A.T
            assert want == ({r[0]: r[1]} if inside else {})
    # sums with coefficients, where c1 * c2 can kill a product mod p^n
    rng = random.Random(100 * p + 10 * e + g + n)
    for _ in range(100):
        a, b = ({rng.choice(basis): rng.randrange(1, A.q) for _ in range(3)} for _ in "ab")
        assert A.mul(a, b) == _mul_by_factorials(A, a, b)


# ---------------------------------------------------------------------------
# conjugate filtration


def test_fil0_contains_small_divided_powers():
    A = small_algebra(p=3, n=1)
    fil = conjugate_filtration_spans(A, 2)
    for l in range(3):  # l < p; x^{[l]} has weight l p^e
        assert l * A.pe in fil[0]
    assert 3 * A.pe not in fil[0]
    assert 3 * A.pe in fil[1]


def test_conjugate_filtration_two_descriptions():
    for p in (2, 3):
        A = small_algebra(p=p, n=1, e=1, W=2 * p * p)
        rep = conjugate_filtration_equality_check(A, nmax=2)
        assert rep["ok"], rep


def test_conjugate_filtration_equality_g2():
    # descriptions (1) and (2) agree in two variables too, where products
    # take the one-variable law in each variable; description (2) is read
    # off the model's own conjugate levels, the sum over the variables
    A = TwoVariablePD(2, n=1, e=1, W=5)
    for nn in (0, 1):
        fil2 = {t for t, lv in enumerate(A.conj) if lv <= nn}
        assert description1_all_multipliers(A, nn) == fil2, nn


def dense_description1(A, nn):
    """Reference for description (1): the closure run on dense vectors, one
    row per product with its coefficient mod p, expanding every new row."""
    p = A.p
    rows = [A.to_vector(A.monomial(0, l)) for l in range(min((nn + 1) * p - 1, A.W) + 1)]
    seen = {tuple(r) for r in rows}
    multipliers = [A.monomial(a, 0) for a in range(1, p**A.e)] + [A.monomial(0, 1)]
    frontier = [A.from_vector(r) for r in rows]
    while frontier:
        nxt = []
        for el in frontier:
            for v in multipliers:
                prod = A.mul(el, v)
                vec = tuple(a % p for a in A.to_vector(prod))
                if any(vec) and vec not in seen:
                    seen.add(vec)
                    rows.append(list(vec))
                    nxt.append(prod)
        frontier = nxt
    return rows


@one_variable("p,e,n", [(p, e, n) for p in (2, 3) for e in (1, 2) for n in (1, 2)], 1)
def test_description1_index_set_matches_dense_closure(p, e, n):
    A = PDAlgebra(p, n=n, e=e, W=2 * p)
    units = identity(A.T)
    for nn in (0, 1, 2):
        reached = conjugate_filtration_description1(A, nn)
        want = [units[t] for t in sorted(reached)]
        assert howell_form(dense_description1(A, nn), p, 1) == want, nn


@one_variable("p,e", [(p, e) for p in (2, 3) for e in (1, 2)], 1)
def test_description1_grown_level_by_level_matches_each_level(p, e):
    # the closure at level n - 1, grown by the new seeds, is the closure at n
    A = PDAlgebra(p, n=1, e=e, W=3 * p)
    reached = None
    for nn in range(4):
        reached = conjugate_filtration_description1(A, nn, reached)
        assert reached == conjugate_filtration_description1(A, nn), nn
    assert reached != conjugate_filtration_description1(A, 0)


def description1_all_multipliers(A, nn):
    """Reference for the description-(1) closure: every Teichmuller monomial
    [x^{a/p^e}], 0 < a < p^e, and x are multipliers, and in two variables
    the same monomials of y.  A monomial is a seed when its weight in each
    variable is a multiple of p^e and its exponents add up to less than
    (n + 1) p."""
    pe = A.p**A.e
    frontier = [m for m in A.monomials()
                if not any(v % pe for v in variables(A, m))
                and sum(v // pe for v in variables(A, m)) < (nn + 1) * A.p]
    reached = set(frontier)
    steps = list(range(1, pe)) + [pe]  # the weights of the [x^{a/p^e}] and of x
    g = len(variables(A, 0))
    multipliers = [from_variables(A, [v if k == j else 0 for k in range(g)])
                   for j in range(g) for v in steps]
    while frontier:
        nxt = []
        for m in frontier:
            for v in multipliers:
                r = A.mul_monomials(m, v)
                if r and r[0] < A.T and r[1] % A.p and r[0] not in reached:
                    reached.add(r[0])
                    nxt.append(r[0])
        frontier = nxt
    return reached


@one_variable("p,e", [(p, e) for p in (2, 3, 5) for e in (0, 1, 2)], 2)
def test_description1_unit_steps_reach_what_every_multiplier_reaches(p, e):
    # [x^{1/p^e}] and x generate every multiplier of the closure
    A = PDAlgebra(p, n=1, e=e, W=3 * p)
    reached = None
    for nn in range(4):
        want = description1_all_multipliers(A, nn)
        assert conjugate_filtration_description1(A, nn) == want, nn
        reached = conjugate_filtration_description1(A, nn, reached)
        assert reached == want, nn


def test_conjugate_filtration_check_sees_a_missing_monomial(monkeypatch):
    A = small_algebra(p=2, n=1, e=1, W=8)
    spans = conjugate_filtration_spans

    def drop_one(A, nmax=None):
        fil = spans(A, nmax)
        fil[1] = fil[1] - {max(fil[1] - fil[0])}
        return fil

    monkeypatch.setattr(pdalg, "conjugate_filtration_spans", drop_one)
    rep = conjugate_filtration_equality_check(A, nmax=2)
    assert not rep["ok"]
    assert rep["levels"] == {0: True, 1: False, 2: True}


def test_filtration_multiplicative():
    rng = random.Random(7)
    for p in (2, 3):
        A = small_algebra(p=p, n=1)
        assert filtration_multiplicativity_check(A, rng)


def test_random_ideal_element_divided_powers_in_fil():
    # (f*x)^{[l]} = f^l x^{[l]} must land in the level floor(l/p) span
    rng = random.Random(11)
    A = small_algebra(p=2, n=1, e=1, W=8)
    for _ in range(20):
        l = rng.randint(1, 6)
        c = rng.randrange(2)  # f = x^{c/2}
        # multiply out (x^{c/p^e} * x)^{[l]} = x^{c l/p^e} x^{[l]}
        base = A.monomial((c * l) % 2, l + (c * l) // 2)
        if not base:
            continue
        for w in base:
            assert w // A.pe // 2 <= (l + (c * l) // 2) // 2


# ---------------------------------------------------------------------------
# graded comparison


def test_conj_graded_map_identity_level0():
    A = small_algebra(p=3, n=1)
    rep = conj_graded_map_check(A, 0)
    assert rep["ok"]


def test_conj_graded_map_level1_example():
    # S = F_p[x^{1/p^e}]/x: Gamma^1 = S*xbar -> gr_1 spanned by unit * x^{[p]}
    for p in (2, 3):
        A = small_algebra(p=p, n=1, e=2)
        rep = conj_graded_map_check(A, 1)
        assert rep["ok"], rep


def test_conj_graded_map_level2_rank():
    A = small_algebra(p=2, n=1, e=1, W=10)
    rep = conj_graded_map_check(A, 2)
    assert rep["ok"]


def test_conj_graded_map_is_bijective_at_every_window():
    # Gamma^n enumerated from its definition meets the basis at every W,
    # including the W where |r + pk| = W sits on the edge of the window
    for p, e in ((2, 0), (2, 1), (3, 1)):
        for W in range(4 * p):
            A = PDAlgebra(p, n=1, e=e, W=W)
            for nn in range(4):
                assert conj_graded_map_check(A, nn)["ok"], (p, e, W, nn)


def test_conj_graded_map_rank_mismatch_on_a_missing_monomial(monkeypatch):
    # Gamma^2 is enumerated from its definition, not from the basis, so a
    # Fil_2 missing one monomial of level 2 has a smaller target
    A = small_algebra(p=2, n=1, e=1, W=10)
    rank = conj_graded_map_check(A, 2)["rank"]
    spans = conjugate_filtration_spans

    def drop_one_of_level_2(A, nmax):
        fil = spans(A, nmax)
        fil[2] = fil[2] - {min(fil[2] - fil[1])}
        return fil

    monkeypatch.setattr(pdalg, "conjugate_filtration_spans", drop_one_of_level_2)
    assert conj_graded_map_check(A, 2) == {"ok": False, "reason": "rank mismatch",
                                           "src": rank, "tgt": rank - 1}


# ---------------------------------------------------------------------------
# Frobenius


def test_phi_of_x1():
    # phi(x^{[1]}) = p! x^{[p]}
    for p in (2, 3):
        A = small_algebra(p=p, n=2)
        img = A.frobenius(A.monomial(0, 1))
        from math import factorial

        assert img == A.monomial(0, p, factorial(p))


def test_phi_base_is_pth_power():
    A = small_algebra(p=2, e=2)
    # phi([x^{1/4}]) = [x^{1/2}]
    assert A.frobenius(A.monomial(1, 0)) == A.monomial(2, 0)


def test_phi_pth_power_mod_p():
    rng = random.Random(13)
    for p in (2, 3):
        A = small_algebra(p=p, n=2)
        assert phi_pth_power_check(A, rng)


def test_phi_multiplicative():
    rng = random.Random(17)
    A = small_algebra(p=2, n=2, W=12)
    assert phi_multiplicative_check(A, rng, trials=50)


def test_truncation_too_tight():
    A = PDAlgebra(2, n=4, e=1, W=3)
    with pytest.raises(TruncationTooTight):
        A.frobenius(A.monomial(0, 2))


def _vp_int(a, p):
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


@pytest.mark.parametrize("p,e,g", [(p, e, g) for p in (2, 3, 5) for e in (0, 1, 2) for g in (1, 2)])
def test_frobenius_coefficient_has_valuation_pd_weight(p, e, g):
    # v_p of phi's coefficient on [x^c] x^{[l]}, computed by factorials, is
    # l; so phi vanishes mod p^n exactly when l >= n.  At g = 2, on the
    # tensor square, the valuations of the two variables add up to the
    # total exponent
    A = pd_model(p, g, 1, e, 2 * p if g == 1 else p)
    at = {n: pd_model(p, g, n, e, A.W) for n in range(1, A.W + 2)}  # by precision
    for m in A.monomials():
        coeff, image, w = 1, [], 0
        for v in variables(A, m):
            l, c = divmod(v, p**e)
            k, c = divmod(p * c, p**e)
            # phi(x^{[l]}) = ((pl)!/l!) x^{[pl]}, then [x]^k x^{[pl]}
            coeff *= factorial(p * l) // factorial(l)
            coeff *= factorial(p * l + k) // factorial(p * l)
            image.append((p * l + k) * p**e + c)
            w += l
        image = from_variables(A, image)
        assert _vp_int(coeff, p) == w, m
        if w:
            # exact, and zero mod p^w, inside the window or not
            assert at[w].frobenius_monomial(m) == (image, coeff)
            assert coeff % at[w].q == 0
        above = at[w + 1]
        if image >= A.T:
            with pytest.raises(TruncationTooTight):
                above.frobenius_monomial(m)
        else:
            assert above.frobenius_monomial(m) == (image, coeff)


# ---------------------------------------------------------------------------
# Nygaard filtration


def test_orbit_blocks_partition():
    A = small_algebra(p=2, n=1, e=1, W=4)
    blocks = every_chain(A)
    seen = sorted(t for b in blocks for t in b)
    assert seen == list(range(A.T))


def fraction_weight_chains(A):
    """Reference chains from the weights c/p^e + l as exact fractions: start
    at each weight that is not p times another, multiply by p while the
    weight stays in the basis."""
    weight = {Fraction(t % A.pe, A.pe) + t // A.pe: t for t in A.monomials()}
    chains = []
    for w, t in weight.items():
        if w and w / A.p in weight:
            continue
        chain = [t]
        while w and w * A.p in weight:
            w *= A.p
            chain.append(weight[w])
        chains.append(tuple(chain))
    return chains


@one_variable("p,e", [(p, e) for p in (2, 3, 5, 7) for e in (0, 1, 2, 3)], 2)
def test_basis_tables_are_each_monomials_pd_weight_and_conjugate_level(p, e):
    # the levels are read off the weight by arithmetic, so the index sets
    # built from them are checked against the level sets of the fraction
    # weights l + c/p^e: Fil^conj_n of `conjugate_filtration_spans` at every
    # level up to one past the window's top, and the restricted Fil^conj_n
    # of `nygaard_graded_image_check`; and the closed-form chains against
    # the weight-dictionary search and the fraction oracle.  At W = 0 and
    # e = 0 the basis is [1] alone
    pe = p**e
    for W in (0, 1, p, 2 * p + 1, 3 * p * p):
        A = PDAlgebra(p, n=1, e=e, W=W)
        # the index of each monomial [x^{c/p^e}] x^{[l]}, by its fraction
        # weight, with its conjugate level floor(l / p) = floor(weight / p)
        # and its numerator c
        weights = [Fraction(c, pe) + l for l in range(W + 1) for c in range(pe)]
        index = {f: int(f * pe) for f in weights}
        assert list(A.monomials()) == sorted(index.values()) == list(range(A.T))
        levels = [(index[f], floor(f / p), (f - floor(f)) * pe) for f in weights]
        top = W // p + 1
        fil = conjugate_filtration_spans(A, top)
        for n in range(top + 1):
            assert fil[n] == {t for t, lv, _ in levels if lv <= n}, (W, n)
            assert pdalg._restricted_conj(A, n) == {
                t for t, lv, c in levels if lv <= n and c % p == 0}, (W, n)
        assert fil[-1] == set() and fil[top] == set(range(A.T))
        chains = every_chain(A)
        assert chains == weight_chains_by_search(A)
        assert sorted(map(tuple, chains)) == sorted(fraction_weight_chains(A))
        if W == e == 0:
            assert list(A.monomials()) == [0] and chains == [[0]]


@one_variable("p,e", [(p, e) for p in (2, 3, 5) for e in (0, 1, 2)], 2)
def test_integer_weight_chains_match_fraction_oracle(p, e):
    A = PDAlgebra(p, n=1, e=e, W=2 * p)
    chains = [tuple(c) for c in every_chain(A)]
    assert len(chains) == len(set(chains))
    assert set(chains) == set(fraction_weight_chains(A))
    assert max(map(len, chains)) >= 2
    # the chains do not depend on the precision
    assert every_chain(PDAlgebra(p, n=3, e=e, W=A.W)) == list(map(list, chains))


@pytest.mark.parametrize("p,e,n,i", [
    (p, e, n, i) for p in (2, 3) for e in (1, 2) for n in (1, 2) for i in (1, 2)
])
def test_reduced_level_kernel_is_the_lower_precision_kernel(p, e, n, i):
    # {x : phi(x) = 0 mod p^i} at n+i+1, reduced mod p^{n+i}, spans the same
    # module as the kernel computed at n+i
    q = p ** (n + i)
    hi = every_chain_kernel(PDAlgebra(p, n + i + 1, e), i)
    lo = every_chain_kernel(PDAlgebra(p, n + i, e), i)
    assert [idxs for idxs, _ in hi] == [idxs for idxs, _ in lo]
    for (_, Khi), (_, Klo) in zip(hi, lo):
        reduced = [[a % q for a in row] for row in Khi]
        assert howell_form(reduced, p, n + i) == howell_form(Klo, p, n + i)


def _fixed_points_eliminating_every_chain(A, i):
    """ker(phi - p^i) at n + i projected to n, with a kernel computed on
    every chain: the invariants and full-basis generators."""
    Aw = PDAlgebra(A.p, A.n + i, A.e, A.W)
    invs = []
    gens = []
    for idxs in every_chain(Aw):
        op = phi_block(phi_shift_by_monomials(Aw, idxs))
        for t in range(len(op)):
            op[t][t] -= A.p**i
        K = howell_form(preimage_mod(op, [], A.p, A.n + i), A.p, A.n + i)
        proj = [[a % A.q for a in row] for row in K]
        proj = [row for row in proj if any(row)]
        if proj:
            invs.extend(module_invariants_mod(proj, A.p, A.n))
        for row in proj:
            full = [0] * Aw.T
            for k, t in enumerate(idxs):
                full[t] = row[k]
            gens.append(full)
    return tuple(sorted(invs, reverse=True)), gens


@pytest.mark.parametrize("p,e,n", [(p, e, n) for p in (2, 3) for e in (1, 2) for n in (1, 2)])
def test_zero_phi_block_shortcut_matches_elimination(p, e, n):
    A = small_algebra(p=p, n=n, e=e)
    for i in (0, 1, 2):
        A2 = PDAlgebra(p, n + i, e, A.W)
        zero_chains = 0
        for idxs, K in every_chain_kernel(A2, i):
            M = phi_block(phi_shift_by_monomials(A2, idxs))
            if not mat_is_zero(M):
                continue
            zero_chains += 1
            if i:
                assert K == preimage_mod(M, mat_scale(p**i, identity(len(idxs))), p, A2.n)
        assert zero_chains
        # the fibre group, and the solver that skips the zero chains, agree
        # with the solve on every chain
        invs, gens = oracles.fixed_points_at(A, i, A.W)
        want_invs, want_gens = _fixed_points_eliminating_every_chain(A, i)
        assert fibre(A, i).exponents == invs == want_invs
        full = [[0] * A.T for _ in gens]
        for row, (idxs, local) in zip(full, gens):
            for t, a in zip(idxs, local):
                row[t] = a
        # each row lies in one chain, so equal spans mean equal chain spans
        assert howell_form(full, p, n) == howell_form(want_gens, p, n)


@pytest.mark.parametrize("p,e,n", [(p, e, n) for p in (2, 3) for e in (1, 2) for n in (1, 2)])
def test_fixed_point_generators_are_the_projected_kernel(p, e, n):
    # the solver's generators span the projected kernel of the dense oracle,
    # each is fixed by phi / p^i mod p^n, and they span the fibre group
    A = small_algebra(p=p, n=n, e=e)
    for i in (0, 1, 2):
        rep = frobenius_fixed_points(A, i)
        _, want = _fixed_points_eliminating_every_chain(A, i)
        rows = [A.to_vector(x) for x in rep["generators"]]
        assert howell_form(rows, p, n) == howell_form(want, p, n)
        for x in rep["generators"]:
            assert A.frobenius(x) == A.scale(p**i, x)
        assert module_invariants_mod(rows, p, n) == fibre(A, i).exponents


def _algebra_holding_phi(p, n, e):
    """The algebra at the least W >= p whose phi images stay in the window."""
    for W in itertools.count(p):
        A = PDAlgebra(p, n=n, e=e, W=W)
        try:
            oracles.phi_shifts(A)
            return A
        except TruncationTooTight:
            pass


def _phi_shifts_building_every_list(A):
    """Reference for `oracles.phi_shifts`: build every chain's coefficient
    list mod p^n, monomial by monomial, and keep the nonzero ones, as before
    the root rule and the exact lists."""
    out = []
    for idxs in pdalg._weight_chains(A.p, A.T):
        c = phi_shift_by_monomials(A, idxs)
        if any(c):
            out.append((idxs, c))
    return out


@one_variable("p,e", [(p, e) for p in (2, 3, 5) for e in (0, 1, 2)], 2)
def test_phi_blocks_skip_exactly_the_zero_chains(p, e):
    # a chain is left out iff its root has l >= n, and then its list is zero
    tight = 0
    for n in (1, 2, 3):
        A = _algebra_holding_phi(p, n, e)
        assert oracles.phi_shifts(A) == _phi_shifts_building_every_list(A), n
        if A.W > p:  # one less is too tight for phi: both raise
            B = PDAlgebra(p, n=n, e=e, W=A.W - 1)
            assert (_outcome(oracles.phi_shifts, B) is TruncationTooTight
                    is _outcome(_phi_shifts_building_every_list, B))
            tight += 1
    assert tight


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_phi_blocks_skip_exactly_the_zero_chains_under_O(flags):
    # the window test is a raise, not an assert, so python -O keeps it
    code = inspect.getsource(phi_shift_by_monomials) + inspect.getsource(
        _phi_shifts_building_every_list) + """
import sys
sys.path.insert(0, %r)
import oracles
from nygaard import pdalg
from nygaard.errors import CompositeNonzero, TruncationTooTight

def outcome(build, A):
    try:
        return build(A)
    except TruncationTooTight:
        return "TruncationTooTight"

for p, e, n in ((2, 1, 3), (3, 2, 2), (2, 2, 2), (5, 1, 2)):
    outcomes = []
    for W in range(1, 5 * p):
        A = pdalg.PDAlgebra(p, n, e, W)
        got = outcome(oracles.phi_shifts, A)
        if got != outcome(_phi_shifts_building_every_list, A):
            raise SystemExit("mismatch at %%r" %% ((p, e, n, W),))
        outcomes.append(got == "TruncationTooTight")
    if outcomes != sorted(outcomes, reverse=True) or not outcomes[0] or outcomes[-1]:
        raise SystemExit("W never went from too tight to holding at %%r" %% ((p, e, n),))
""" % os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run([sys.executable, *flags, "-c", code], env=src_env(),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr + out.stdout


def _closed_form_shifts(p, n, e, W):
    """The lists of `oracles.phi_shifts` in closed form (ROADMAP item 15),
    written from the weights alone, with E = p^e and T = (W + 1) E: the
    chain [0], and the chain r, rp, rp^2, ... below T of each root r prime
    to p with r // E < n.  On the weight w_k of a chain,
    c_k = floor(p w_k / E)! / floor(w_k / E)!, and 0 at the end, where
    p w_k >= T.  Returns the lists mod p^n, where c_k is 0 once
    l_k = w_k // E reaches n, and the exact ones.  TruncationTooTight when
    such a chain other than [0] ends at l < n."""
    E, T = p**e, (W + 1) * p**e
    lists, exact = [], []
    for r in range(min(T, n * E)):
        if r and not r % p:
            continue
        chain = [r]
        while r and chain[-1] * p < T:
            chain.append(chain[-1] * p)
        if r and chain[-1] // E < n:
            raise TruncationTooTight("phi image of weight %d leaves W = %d" % (chain[-1] // E, W))
        c = [factorial(p * w // E) // factorial(w // E) if p * w < T else 0 for w in chain]
        exact.append((chain, c))
        lists.append((chain, [0 if w // E >= n else a % p**n for w, a in zip(chain, c)]))
    return lists, exact


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_phi_shifts_match_the_closed_form(p):
    # each chain's list, built from `frobenius_monomial`, is the closed form
    # of the powers of t in the `pdalg` docstring, exactly and mod p^n, and
    # v_p(c_k) = l_k on every nonzero exact entry; both sides raise
    # TruncationTooTight, with one message, on the same configs
    raised = answered = 0
    for e, n in itertools.product(range(4), (1, 2, 3)):
        for W in sorted({0, 1, 2, n, p, 7, 3 * p * p}):
            if (W + 1) * p**e > 60000:
                continue
            A = PDAlgebra(p, n, e, W)
            got = _outcome_and_message(oracles.phi_shifts, A)
            want = _outcome_and_message(_closed_form_shifts, p, n, e, W)
            if want[0] is TruncationTooTight:
                assert got == want, (e, n, W)
                raised += 1
                continue
            lists, exact = want
            assert got == lists, (e, n, W)
            assert frobenius_table(A, n) == exact, (e, n, W)
            for chain, c in exact:
                assert all(_vp_int(a, p) == w // p**e for w, a in zip(chain, c) if a)
            answered += 1
    assert raised and answered


def _graded_image_parity(p):
    """`nygaard_graded_image_check` on one `frobenius_table` per algebra,
    shared by the levels i = 0..4, against the per-level oracle, over
    e <= 3, n <= 3 and the windows 3p^2 (the default), 7, and n + i,
    n + i + 1 for each i: the configs where the values, or the raise types
    and messages, differ, and the kinds of outcome seen."""
    def outcome(check, *args):
        try:
            return check(*args)
        except (TruncationTooTight, CompositeNonzero) as ex:
            return type(ex).__name__, str(ex)

    bad, kinds = [], set()
    for e, n in itertools.product(range(4), (1, 2, 3)):
        for W in sorted({3 * p * p, 7} | {n + i + d for i in range(5) for d in (0, 1)}):
            A = pdalg.PDAlgebra(p, n, e, W)
            table = pdalg.frobenius_table(A, n + 5)
            for i in range(5):
                got = outcome(pdalg.nygaard_graded_image_check, A, i, table)
                if got != outcome(nygaard_graded_image_check_per_level, A, i):
                    bad.append((e, n, W, i))
                kinds.add(got[0] if type(got) is tuple else got["ok"])
    return bad, kinds


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_graded_image_check_on_one_table_matches_the_per_level_oracle(p):
    # a higher precision can raise where a lower one does not, so each level
    # decides its raise from the chain levels; it is the oracle's, which
    # builds an algebra per level and raises from `frobenius_monomial`
    bad, kinds = _graded_image_parity(p)
    assert bad == []
    assert {True, "TruncationTooTight"} <= kinds


def test_graded_image_check_on_one_table_matches_the_per_level_oracle_under_O():
    # the raises are raises, not asserts, so python -O keeps the parity
    code = inspect.getsource(_graded_image_parity) + """
import itertools
import sys
sys.path.insert(0, %r)
from nygaard import pdalg
from nygaard.errors import CompositeNonzero, TruncationTooTight
from oracles import nygaard_graded_image_check_per_level
for p in (2, 3, 5, 7):
    bad, kinds = _graded_image_parity(p)
    if bad or not {True, "TruncationTooTight"} <= kinds:
        raise SystemExit("p = %%d: mismatch at %%r, kinds %%r" %% (p, bad[:3], kinds))
""" % os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=src_env(),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr + out.stdout


def _acrys_check_parity(p):
    """The three acrys checks against the forms they replaced, as
    `cli.cmd_acrys` runs them, over e <= 3, n <= 3, i in -1..3 and the
    windows 3p^2 (the default) and n + top, n + top + 1, top = max(i, 0):
    the description-(1) closure grown over the levels 0..top + 1 on A mod p,
    the p-th power check on A with the same draws, and the Nygaard check of
    each level 0..top on A mod p, from one table at top against the
    per-chain form on a table at top + 2.  Returns the configs where the
    values, or the raise types and messages, differ, and the kinds of
    outcome seen."""
    def outcome(check, *args):
        try:
            return check(*args)
        except (TruncationTooTight, CompositeNonzero) as ex:
            return type(ex).__name__, str(ex)

    bad, kinds = [], set()
    for e, n, i in itertools.product(range(4), (1, 2, 3), range(-1, 4)):
        top = max(i, 0)
        for W in (None, n + top, n + top + 1):
            A = pdalg.PDAlgebra(p, n, e, W)
            A1 = pdalg.PDAlgebra(p, 1, e, A.W)
            got, want = [None], [None]
            for nn in range(top + 2):
                got.append(pdalg.conjugate_filtration_description1(A1, nn, got[-1]))
                want.append(conjugate_filtration_description1_per_weight(A1, nn, want[-1]))
            got.append(pdalg.phi_pth_power_check(A, random.Random(0)))
            want.append(phi_pth_power_check_per_monomial(A, random.Random(0)))
            table, table2 = pdalg.frobenius_table(A1, top), pdalg.frobenius_table(A1, top + 2)
            for j in range(top + 1):
                got.append(outcome(pdalg.nygaard_graded_image_check, A1, j, table))
                want.append(outcome(nygaard_graded_image_check_per_chain, A1, j, table2))
                kinds.add(got[-1][0] if type(got[-1]) is tuple else got[-1]["ok"])
            if got != want:
                bad.append((e, n, i, W))
    return bad, kinds


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_acrys_checks_match_the_forms_they_replaced(p):
    # one monomial per class of lambda(w), the closure walked by levels and
    # the chains with l >= i read off their levels give every value, raise
    # type and message of the per-monomial, per-weight and per-chain forms
    bad, kinds = _acrys_check_parity(p)
    assert bad == []
    assert {True, False, "TruncationTooTight"} <= kinds


def test_acrys_checks_match_the_forms_they_replaced_under_O():
    # the raises are raises, not asserts, so python -O keeps the parity
    code = inspect.getsource(_acrys_check_parity) + """
import itertools
import random
import sys
sys.path.insert(0, %r)
from nygaard import pdalg
from nygaard.errors import CompositeNonzero, TruncationTooTight
from oracles import (conjugate_filtration_description1_per_weight,
                     nygaard_graded_image_check_per_chain, phi_pth_power_check_per_monomial)
for p in (2, 3, 5, 7):
    bad, kinds = _acrys_check_parity(p)
    if bad or not {True, False, "TruncationTooTight"} <= kinds:
        raise SystemExit("p = %%d: mismatch at %%r, kinds %%r" %% (p, bad[:3], kinds))
""" % os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=src_env(),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr + out.stdout


def test_frobenius_table_at_top_0_is_the_chain_of_1():
    # no root has l < 0, and [1] is always listed, with phi(1) = 1
    for p, n, e, W in ((2, 1, 0, 0), (3, 2, 1, None), (5, 1, 2, 4)):
        A = PDAlgebra(p, n, e, W)
        assert frobenius_table(A, 0) == [([0], [1])]
        assert frobenius_table(A, 1)[0] == ([0], [1])


@one_variable("p,e", [(p, e) for p in (2, 3, 5) for e in (0, 1, 2)], 2)
def test_shift_kernel_matches_preimage(p, e):
    # the diagonal Nygaard kernel of every chain spans what elimination gives
    nonzero = 0
    for n in (1, 2, 3):
        A = _algebra_holding_phi(p, n, e)
        for i in range(4):
            for idxs, K in every_chain_kernel(A, i):
                M = phi_block(phi_shift_by_monomials(A, idxs))
                if mat_is_zero(M):
                    assert K == identity(len(idxs))
                    continue
                nonzero += 1
                want = preimage_mod(M, mat_scale(p**i, identity(len(M))), p, n)
                assert howell_form(K, p, n) == howell_form(want, p, n), (n, i, M)
    assert nonzero


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_phi_block_that_is_not_a_shift_raises(flags):
    # the shape check is a raise, not an assert, so python -O keeps it
    code = """
import sys
sys.path.insert(0, %r)
import oracles
from nygaard import pdalg
from nygaard.errors import CompositeNonzero
A = pdalg.PDAlgebra(2, 3, 1, 8)
chain = next(c for c in pdalg._weight_chains(A.p, A.T) if len(c) >= 3)
if not pdalg._phi_shift(A, chain)[0]:
    raise SystemExit("phi is zero on the root of the chain")
phi = A.frobenius_monomial
for bad in (
    # row 0 moved onto column 2, past the next index of the chain
    lambda w: (chain[2], 1) if w == chain[0] else phi(w),
    # row 1 moved onto column 1, which row 0 already fills
    lambda w: (chain[1], 1) if w == chain[1] else phi(w),
):
    A.frobenius_monomial = bad
    for build in (lambda: pdalg._phi_shift(A, chain), lambda: oracles.phi_shifts(A)):
        try:
            build()
        except CompositeNonzero:
            continue
        raise SystemExit("no CompositeNonzero")
""" % os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run([sys.executable, *flags, "-c", code], env=src_env(),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr + out.stdout


def test_graded_image_check_raises_when_n_i1_is_not_inside_n_i(monkeypatch):
    # the whole chain handed in as N^{>=i+1} is not inside N^{>=i}
    exponents = pdalg._nygaard_exponents

    def whole_algebra_at_i1(c, p, n, i):
        return _whole_algebra_as_nygaard(c, p, n, i) if i == 2 else exponents(c, p, n, i)

    monkeypatch.setattr(pdalg, "_nygaard_exponents", whole_algebra_at_i1)
    with pytest.raises(CompositeNonzero, match=r"N\^\{>=2\} is not inside N\^\{>=1\}"):
        nygaard_graded_image_check(small_algebra(p=2, n=1, e=1, W=8), 1)


def _divided_phi_rows(rows, M, p, i):
    """phi(x)/p^i for each row x, with phi given by its dense block M;
    CompositeNonzero when some phi(x) is not divisible by p^i."""
    out = []
    for row in rows:
        img = linalg.row_mul(row, M)
        if any(a % p**i for a in img):
            raise CompositeNonzero("Nygaard generator not phi-divisible")
        out.append([a // p**i for a in img])
    return out


def _graded_image_eliminating_every_chain(A, i):
    """`nygaard_graded_image_check` with both Nygaard kernels eliminated on
    every chain, zero phi-blocks included."""
    p = A.p
    Acmp = PDAlgebra(p, A.n + i + 1, A.e, A.W)
    fil_idx = {t for t in pdalg.conjugate_filtration_spans(A, i + 1)[i]
               if t % A.pe % p == 0}
    same, dim_src, dim_img = True, 0, 0
    for idxs in every_chain(Acmp):
        M = phi_block(phi_shift_by_monomials(Acmp, idxs))
        units = identity(len(idxs))
        Ki, Ki1 = (preimage_mod(M, mat_scale(p**j, units), p, Acmp.n) for j in (i, i + 1))
        imgs = _divided_phi_rows(Ki, M, p, i)
        fil_rows = [units[k] for k, t in enumerate(idxs) if t in fil_idx]
        e_img = span_exponent_mod(imgs, p, 1)
        if not e_img == len(fil_rows) == span_exponent_mod(imgs + fil_rows, p, 1):
            same = False
        dim_img += e_img
        dim_src += len(quotient_exponents_mod(Ki, Ki1, p, Acmp.n))
    return {"image_matches_fil": same, "dim_graded": dim_src, "dim_image": dim_img,
            "injective": dim_src == dim_img, "ok": same and dim_src == dim_img}


def _syntomic_acrys_eliminating_every_chain(A, i):
    """H^1 of fib(phi_i - can) on A/p^r, r = A.n, with the Nygaard kernel
    and the cokernel of phi_i - can eliminated on every chain, and per chain
    (indices, rows of phi_i - can mod p^r).  The generators are kept at the
    internal precision r + i: reducing them mod p^r first would lose the
    p * N^{>=i-1} classes, which are nonzero in the tensor product."""
    p, r = A.p, A.n
    Aint = PDAlgebra(p, r + i, A.e, A.W)
    q = p**r
    h1, chains = PGroup.zero(p), []
    for idxs in every_chain(Aint):
        M = phi_block(phi_shift_by_monomials(Aint, idxs))
        units = identity(len(idxs))
        gens = preimage_mod(M, mat_scale(p**i, units), p, Aint.n)
        imgs = _divided_phi_rows(gens, M, p, i)
        rows = [[(a - b) % q for a, b in zip(img, g)] for img, g in zip(imgs, gens)]
        h1 = h1 + PGroup(p, quotient_exponents_mod(units, rows, p, r))
        chains.append((idxs, rows))
    return h1, chains


def _surjectivity_mechanism(A, i, chains):
    """Whether the image of phi_i - can mod p contains Fil^{i+1}_pd and
    Fil^conj_{i-1} restricted to the numerators divisible by p, per chain by
    span orders, for the chains of `_syntomic_acrys_eliminating_every_chain`
    and i >= 1."""
    p = A.p
    parts = {
        "pd_part": {t for t in A.monomials() if t // A.pe >= i + 1},
        "conj_part": {t for t in conjugate_filtration_spans(A, i)[i - 1]
                      if t % A.pe % p == 0},
    }
    out = dict.fromkeys(parts, True)
    for idxs, rows in chains:
        e_img = span_exponent_mod(rows, p, 1)
        units = identity(len(idxs))
        for part, idx in parts.items():
            extra = [units[k] for k, t in enumerate(idxs) if t in idx]
            if span_exponent_mod(rows + extra, p, 1) != e_img:
                out[part] = False
    return out


def _outcome_or_error(f, *args):
    """f's value, or the type of the typed error it raises."""
    try:
        return f(*args)
    except (TruncationTooTight, CompositeNonzero) as ex:
        return type(ex)


@pytest.mark.parametrize("p,e,n", [(p, e, n) for p in (2, 3, 5) for e in (0, 1, 2) for n in (1, 2, 3)])
def test_graded_image_check_matches_elimination_on_every_chain(p, e, n):
    # the spans read off the one-entry rows are those elimination finds;
    # the narrow windows 2p and 3p raise TruncationTooTight on some levels,
    # and at e = 0 the image misses Fil^conj_i on some chains
    for W in (None, 2 * p, 3 * p):
        A = PDAlgebra(p, n=n, e=e, W=W)
        for i in (0, 1, 2, 3):
            assert (_outcome_or_error(nygaard_graded_image_check, A, i)
                    == _outcome_or_error(_graded_image_eliminating_every_chain, A, i)), (W, i)


def test_graded_image_check_reads_fil_on_zero_chains(monkeypatch):
    # an index of the restricted Fil^conj_i on a zero chain has no preimage:
    # a restricted Fil^conj_i that also holds a weight of level i + 1 on a
    # zero chain no longer matches the image, and nothing else changes
    p, i = 2, 1
    A = small_algebra(p=p, n=1, e=2)
    want = nygaard_graded_image_check(A, i)
    assert want["image_matches_fil"] and want == _graded_image_eliminating_every_chain(A, i)
    Acmp = PDAlgebra(p, A.n + i + 1, A.e, A.W)
    t = next(t for idxs in every_chain(Acmp) if not any(phi_shift_by_monomials(Acmp, idxs))
             for t in idxs if t % A.pe % p == 0)
    assert t // (A.pe * p) > i and t not in pdalg._restricted_conj(A, i)
    restricted = pdalg._restricted_conj
    monkeypatch.setattr(pdalg, "_restricted_conj", lambda A, i: restricted(A, i) | {t})
    rep = nygaard_graded_image_check(A, i)
    assert rep == dict(want, image_matches_fil=False, ok=False)


@pytest.mark.parametrize("p,e,r", [(p, e, r) for p in (2, 3, 5) for e in (1, 2) for r in (1, 2)])
def test_syntomic_acrys_matches_elimination_on_every_chain(p, e, r):
    # H^0 = H^1 is the cokernel eliminated on every chain, and the payload
    # carries no certificate and no evidence
    for i in (0, 1, 2):
        res = syntomic.syntomic_acrys(p, i, r, e=e)
        h1, _ = _syntomic_acrys_eliminating_every_chain(PDAlgebra(p, r, e), i)
        assert res.groups == {0: h1, 1: h1}
        assert res.certificates == {} and res.evidence == {}


@one_variable("p,e", [(p, e) for p in (2, 3, 5) for e in (0, 1, 2)], 2)
def test_fiber_group_is_the_solved_h0_and_the_eliminated_h1(p, e):
    # over n <= 3 and i <= 3 at the default window, the fibre group is what
    # the solver gives as H^0 and what elimination gives as H^1
    for n in (1, 2, 3):
        for i in (0, 1, 2, 3):
            A = PDAlgebra(p, n, e)
            got = fibre(A, i)
            assert got == frobenius_fixed_points(A, i)["group"], (n, i)
            assert got == _syntomic_acrys_eliminating_every_chain(A, i)[0], (n, i)


@pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3, 5) for e in (0, 1, 2)])
def test_image_mod_p_misses_exactly_the_short_roots(p, e):
    # the image lemma of the `pdalg` docstring, against elimination: mod p,
    # the image of phi_i - can holds every unit vector of a chain but the
    # root, and the root too unless it has |l| < i; the block [1 - p^i] of
    # the weight-0 chain misses it at i = 0 only.  So the image holds
    # Fil^{i+1}_pd, and the restricted Fil^conj_{i-1} except at e = 0 and
    # i >= 2, where the root x^{[1]} lies in it
    for r in (1, 2):
        A = PDAlgebra(p, r, e)
        for i in (0, 1, 2, 3):
            _, chains = _syntomic_acrys_eliminating_every_chain(A, i)
            for idxs, rows in chains:
                root = idxs[0]
                short = i == 0 if not root else root // A.pe < i
                missed = [k for k, unit in enumerate(identity(len(idxs)))
                          if not span_contains_mod(rows, unit, p, 1)]
                assert missed == ([0] if short else []), (r, i, idxs)
            if i:
                assert _surjectivity_mechanism(A, i, chains) == {
                    "pd_part": True, "conj_part": not (e == 0 and i >= 2)}, (r, i)


def _count_eliminations(monkeypatch):
    calls = []
    eliminate = linalg.eliminate_mod

    def counted(*args, **kw):
        calls.append(1)
        return eliminate(*args, **kw)

    monkeypatch.setattr(linalg, "eliminate_mod", counted)
    return calls


@pytest.mark.parametrize("command,config", [
    ("acrys", {"p": 5, "e": 2, "i": 2, "n": 1}),
    ("syntomic", {"model": "acrys", "p": 5, "e": 2, "i": 1, "r": 2}),
])
def test_acrys_elimination_count(monkeypatch, command, config):
    # the Nygaard kernels are diagonal, and the fibre group is read off the
    # chains' Nygaard exponents: nothing is eliminated
    calls = _count_eliminations(monkeypatch)
    cli.run_command(command, cli.RunConfig(**config))
    assert calls == []


def test_graded_image_check_eliminates_nothing(monkeypatch):
    # every span of the check is read off the coefficient lists
    calls = _count_eliminations(monkeypatch)
    for p, e, n in ((2, 1, 2), (3, 2, 1), (5, 2, 1), (2, 0, 3)):
        A = PDAlgebra(p, n=n, e=e)
        for i in (0, 1, 2, 3):
            nygaard_graded_image_check(A, i)
    assert not calls


def test_fixed_points_solve_once_at_the_default_window(monkeypatch):
    # the default W = 3p^2 is at least n + i here, so the solver never
    # solves at W + p, and the fibre group needs no window but W
    windows = []
    fixed_points_at = oracles.fixed_points_at

    def counted(A, i, W):
        windows.append(W)
        return fixed_points_at(A, i, W)

    monkeypatch.setattr(oracles, "fixed_points_at", counted)
    configs = [(p, e, n, i) for p in (2, 3, 5) for e in (1, 2) for n in (1, 2) for i in (0, 1, 2)]
    for p, e, n, i in configs:
        A = PDAlgebra(p, n=n, e=e)
        assert frobenius_fixed_points(A, i)["group"] == fibre(A, i)
    assert windows == [3 * p * p for p, _, _, _ in configs]


@pytest.mark.parametrize("command,config,blocks,products", [
    # 41 lists and 570 products: one list for [1] and one per chain whose
    # root has l < i, the top Nygaard level, and one p-th power per class
    # of lambda(w) and per random element (81 lists and 1,290 products when
    # the lists reached l < i + 2 and every monomial was raised to the p-th
    # power; 183 lists when each level built its own, 7,705 when every list
    # was built; 2,150 products when `power` multiplied p times from one,
    # 14,650 when description (1) multiplied through `mul`)
    ("acrys", {"p": 5, "e": 2, "i": 2, "n": 1}, 41, 570),
    # no list and no product: the fibre group reads the chains alone
    ("syntomic", {"model": "acrys", "p": 5, "e": 2, "i": 1, "r": 2}, 0, 0),
])
def test_acrys_block_and_product_count(monkeypatch, command, config, blocks, products):
    # each list is built once per run, shared by the Nygaard levels, and
    # only on [1] and on a chain whose root has l < i; the description-(1)
    # closure multiplies monomials without `mul`
    built, muls = [], []
    shift, mul = pdalg._phi_shift, PDAlgebra.mul

    def counted_shift(A, idxs):
        assert idxs[0] // A.pe < max(config["i"], 1)
        built.append(tuple(idxs))
        return shift(A, idxs)

    def counted_mul(A, *args, **kw):
        muls.append(1)
        return mul(A, *args, **kw)

    monkeypatch.setattr(pdalg, "_phi_shift", counted_shift)
    monkeypatch.setattr(PDAlgebra, "mul", counted_mul)
    cli.run_command(command, cli.RunConfig(**config))
    assert len(built) <= blocks
    assert len(set(built)) == len(built)
    assert bool(built) == bool(blocks)
    assert len(muls) <= products


def _without_the_overflow_factor(A, w1, w2):
    """`PDAlgebra.mul_monomials` without the overflow factor l + 1: the
    product law of a model whose [x]^1 x^{[l]} would be x^{[l + 1]}."""
    l1, l2 = w1 // A.pe, w2 // A.pe
    coeff = comb(l1 + l2, l1) % A.q
    return (w1 + w2, coeff) if coeff else None


@pytest.mark.parametrize("p,e,n", [(3, 1, 1), (5, 2, 2), (7, 1, 1)])
def test_phi_pth_power_reads_false_without_the_overflow_factor(monkeypatch, p, e, n):
    # the mutation row of `phi_pth_power`: a monomial of level 0 with
    # L = floor(pw / p^e) >= 2 has phi(m) = L! t^{pw}, but m^p = t^{pw}
    # without the overflow factors, and L! is not 1 mod p for 2 <= L < p
    A = PDAlgebra(p, n, e)
    assert phi_pth_power_check(A, random.Random(0))
    assert phi_pth_power_check_per_monomial(A, random.Random(0))
    monkeypatch.setattr(PDAlgebra, "mul_monomials", _without_the_overflow_factor)
    assert not phi_pth_power_check(A, random.Random(0))
    assert not phi_pth_power_check_per_monomial(A, random.Random(0))
    payload = cli.cmd_acrys(cli.RunConfig(p=p, e=e, n=n, i=1))
    assert payload["phi_pth_power"] is False and payload["all_ok"] is False


def test_nygaard_image_reads_false_on_a_chain_read_off_its_levels(monkeypatch):
    # the mutation row of the level read-off: drop from the restricted
    # Fil^conj_i the target p r of a root r of level i, whose chain is read
    # off its levels; the check and its per-chain form read false, and
    # nothing else changes
    p, e, i = 2, 2, 1
    A = small_algebra(p=p, n=1, e=e)
    want = nygaard_graded_image_check(A, i)
    assert want["ok"] and want == nygaard_graded_image_check_per_chain(A, i)
    r = next(r for r in range(i * A.pe, (i + 1) * A.pe) if r % p and p * r < A.T)
    restricted = pdalg._restricted_conj
    assert p * r in restricted(A, i)
    monkeypatch.setattr(pdalg, "_restricted_conj", lambda A, i: restricted(A, i) - {p * r})
    assert nygaard_graded_image_check(A, i) == dict(want, image_matches_fil=False, ok=False)
    assert nygaard_graded_image_check_per_chain(A, i) == dict(want, image_matches_fil=False,
                                                              ok=False)
    payload = cli.cmd_acrys(cli.RunConfig(p=p, e=e, n=1, i=i))
    assert payload["nygaard_image"] is False and payload["all_ok"] is False


@pytest.mark.parametrize("p,e,n", [(p, e, n) for p in (2, 3, 5) for e in (0, 1, 2) for n in (1, 2)])
def test_the_law_reads_only_levels_and_the_pth_power_only_lambda(p, e, n):
    # `mul_monomials` reads w1 and w2 only through their levels and the
    # level of w1 + w2, and so phi(m) - m^p, or its raise, is a function of
    # lambda(w) = (floor(k w / p^e))_{k=1..p}, and the breakpoints of
    # `phi_pth_power_check` meet every class (module docstring)
    A = PDAlgebra(p, n, e, W=p + 1)
    pe = A.pe
    law = {}
    for w1, w2 in itertools.product(range(A.T), repeat=2):
        r = A.mul_monomials(w1, w2)
        assert r is None or r[0] == w1 + w2
        key = (w1 // pe, w2 // pe, (w1 + w2) // pe)
        assert law.setdefault(key, r and r[1]) == (r and r[1]), (w1, w2)
    assert e == 0 or len(law) < A.T**2
    cuts = {-(-j * pe // k) for k in range(1, p + 1) for j in range(k)}
    classes, met = {}, set()
    for w in range(A.T):
        lam = tuple(k * w // pe for k in range(1, p + 1))
        try:
            diff = A.add(A.frobenius({w: 1}), A.scale(-1, A.power({w: 1}, p)))
        except TruncationTooTight:
            diff = "raises"
        assert classes.setdefault(lam, diff if diff == "raises" else diff.get(p * w, 0)) == (
            diff if diff == "raises" else diff.get(p * w, 0)), w
        assert diff == "raises" or set(diff) <= {p * w}
        if w % pe in cuts:
            met.add(lam)
    assert met == set(classes)


@pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3, 5, 7) for e in (0, 1, 2, 3)])
def test_pth_power_check_raises_one_monomial_per_class(monkeypatch, p, e):
    # with no random element, the check raises exactly one monomial of each
    # class of lambda(w) below (W // p + 1) p^e to the p-th power
    A = PDAlgebra(p, 1, e, W=2 * p + 1)
    tested = []
    frobenius = PDAlgebra.frobenius

    def recorded(A, a):
        tested.append(a)
        return frobenius(A, a)

    monkeypatch.setattr(PDAlgebra, "frobenius", recorded)
    assert phi_pth_power_check(A, random.Random(0), trials=0)
    assert all(list(a.values()) == [1] for a in tested)

    def lam(w):
        return tuple(k * w // A.pe for k in range(1, p + 1))

    assert sorted(lam(w) for a in tested for w in a) == sorted(
        {lam(w) for w in range((A.W // p + 1) * A.pe)})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_level_walks_make_as_many_products_at_every_e(monkeypatch, p):
    # the description-(1) closure evaluates the law once per level it
    # walks, and the monomial part of the p-th power check raises one
    # monomial per class of lambda(w): neither count grows with p^e
    calls = []
    law = PDAlgebra.mul_monomials

    def counted(A, w1, w2):
        calls.append(1)
        return law(A, w1, w2)

    monkeypatch.setattr(PDAlgebra, "mul_monomials", counted)
    counts = []
    for e in range(2, 7):
        A = PDAlgebra(p, 1, e, W=2 * p + 1)
        del calls[:]
        assert conjugate_filtration_equality_check(A, nmax=2)["ok"]
        closure = len(calls)
        del calls[:]
        assert phi_pth_power_check(A, random.Random(0), trials=0)
        counts.append((closure, len(calls)))
    assert len(set(counts)) == 1 and min(counts[0]) > 0, counts


def test_pd_algebra_rejects_bad_parameters():
    for kw in ({"n": 0}, {"e": -1}, {"W": -1}):
        with pytest.raises(UsageError):
            PDAlgebra(2, **kw)
    with pytest.raises(UsageError):
        span_identity_check(small_algebra(), 0)


def test_nygaard_i0_everything():
    A = small_algebra(p=2)
    shifts = oracles.phi_shifts(A)
    assert shifts
    for idxs, c in shifts:
        assert pdalg._nygaard_exponents(c, 2, A.n, 0) == dict.fromkeys(range(len(idxs)), 0)


def test_p_in_nygaard_1():
    # p * 1 belongs to N^{>=1} (phi(p) = p), and 1 does not
    A = small_algebra(p=2, n=2)
    assert in_nygaard(A, 1, A.to_vector(A.monomial(0, 0, 2)))
    assert not in_nygaard(A, 1, A.to_vector(A.one()))


def test_x_pd_membership_via_legendre():
    # x^{[m]} lies in N^{>= v_p((pm)!/m!)} = N^{>= m} and no deeper at
    # the monomial level: cross-check with the valuation oracle
    # (W = 9 holds phi of the weight-4 monomials at precision 5)
    p = 2
    A = small_algebra(p=p, n=1, e=1, W=9)
    for m_exp in (1, 2, 3):
        v = vp_factorial(p * m_exp, p) - vp_factorial(m_exp, p)
        assert v == m_exp  # Legendre: v_p((pm)!/m!) = m for these sizes
        vec = A.to_vector(A.monomial(0, m_exp))
        assert in_nygaard(A, v, vec)
        assert not in_nygaard(A, v + 1, vec)


def test_nygaard_graded_image():
    for p in (2, 3):
        A = small_algebra(p=p, n=1, e=2)
        for i in (0, 1, 2):
            rep = nygaard_graded_image_check(A, i)
            assert rep["ok"], (p, i, rep)


def test_phi_divisibility_ladder():
    # phi_i(N^{>= i+1}) lies in p*A: phi_i restricted to N^{>= i+1} is p * phi_{i+1}
    A = small_algebra(p=2, n=1, e=1, W=8)
    for i in (0, 1):
        Acmp = PDAlgebra(2, A.n + i + 1, 1, A.W)
        images = 0
        for _, c in oracles.phi_shifts(Acmp):
            for k, a in pdalg._nygaard_exponents(c, 2, Acmp.n, i + 1).items():
                img = 2**a * c[k]  # phi of the generator 2^{a_k} e_k of N^{>= i+1}
                assert img % 2**(i + 1) == 0
                assert img // 2**i == 2 * (img // 2**(i + 1))
                images += bool(img)
        assert images


def _whole_algebra_as_nygaard(c, p, n, i):
    return dict.fromkeys(range(len(c)), 0)


@pytest.mark.parametrize("check", [
    lambda: nygaard_graded_image_check(small_algebra(p=2, n=1, e=1, W=6), 1),
    lambda: nygaard_graded_image_check(small_algebra(p=3, n=2, e=2), 2),
])
def test_phi_divisibility_checks_raise(monkeypatch, check):
    # hand the whole algebra in as N^{>=i}: the divided Frobenius of 1
    # fails, at level 1 and at level 2
    monkeypatch.setattr(pdalg, "_nygaard_exponents", _whole_algebra_as_nygaard)
    with pytest.raises(CompositeNonzero):
        check()


def test_phi_leaving_its_weight_chain_raises(monkeypatch):
    A = small_algebra(p=2, n=2, e=1, W=6)
    monkeypatch.setattr(pdalg, "_weight_chains",
                        lambda p, top, roots=None: [[t] for t in range(min(top, roots or top))])
    with pytest.raises(CompositeNonzero):
        oracles.phi_shifts(A)


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_points_i0():
    for p in (2, 3):
        A = small_algebra(p=p, n=2)
        assert fibre(A, 0) == PGroup(p, (2,))  # Z/p^2


def test_fixed_points_negative_twist():
    # the fibre group is defined for i >= 0; at i < 0 phi_i - can is
    # invertible, and the solver and the acrys command give the zero group
    A = small_algebra(p=2)
    with pytest.raises(UsageError):
        fibre(A, -1)
    rep = frobenius_fixed_points(A, -1)
    assert rep["group"] == PGroup.zero(2) and rep["certified_by"] == "i < 0"
    assert cli.cmd_acrys(cli.RunConfig(p=2, n=2, e=2, i=-1))["fixed_points"] == {
        "exponents": [], "free_rank": 0}


def test_fixed_points_name_the_case_that_certified_them():
    # the solver certified W >= n + i at the default window, where the fibre
    # group gives its answer, and the W + p comparison at W = 0, where the
    # fibre group raises; the syntomic payload carries neither name
    for p, e, n, i in ((2, 1, 1, 0), (3, 2, 2, 1), (5, 0, 1, 2)):
        A = PDAlgebra(p, n=n, e=e)
        assert A.W >= n + i
        rep = frobenius_fixed_points(A, i)
        assert rep["certified_by"] == "W >= n + i"
        assert rep["group"] == fibre(A, i)
        assert syntomic.syntomic_acrys(p, i, n, e=e).certificates == {}
    for i in (0, 1):
        A = PDAlgebra(2, n=1, e=0, W=0)
        assert frobenius_fixed_points(A, i)["certified_by"] == "W + p"
        with pytest.raises(TruncationTooTight, match=r"W >= n \+ i = %d, got W = 0" % (1 + i)):
            fibre(A, i)


def test_fixed_points_i1_cross_check():
    # independent dense-matrix kernel oracle on the full basis, at the same
    # internal precision n + i with projection to n
    p, n, i = 2, 1, 1
    A = small_algebra(p=p, n=n, e=1, W=6)
    Aint = PDAlgebra(p, n + i, 1, A.W)
    M = [[0] * Aint.T for _ in range(Aint.T)]
    for t in range(Aint.T):
        tt, cc = Aint.frobenius_monomial(t)
        if tt < Aint.T:
            M[t][tt] = cc % Aint.q
    for t in range(Aint.T):
        M[t][t] -= p**i
    K = howell_form(preimage_mod(M, [], p, n + i), p, n + i)
    proj = [[a % p**n for a in row] for row in K]
    proj = [row for row in proj if any(row)]
    dense = module_invariants_mod(proj, p, n) if proj else ()
    assert dense and tuple(sorted(dense, reverse=True)) == fibre(A, i).exponents


def test_stabilization_raises(monkeypatch):
    # the solver's fixed points at W + p disagree with those at W: not
    # stable; only W = 0 is compared with W + p, since 1 <= W < n + i raises
    # at W and W >= n + i provably gives the same answer at W + p
    fixed_points_at = oracles.fixed_points_at

    def one_more_at_the_wider_window(A, i, W):
        invs, gens = fixed_points_at(A, i, W)
        return (invs + (1,) if W > A.W else invs), gens

    monkeypatch.setattr(oracles, "fixed_points_at", one_more_at_the_wider_window)
    A = small_algebra(p=2, n=1, e=0, W=0)
    with pytest.raises(NotStabilized, match="W = 0 gives .*, W = 2 gives"):
        frobenius_fixed_points(A, 1)


def _fixed_points_at_w_and_w_plus_p(A, i):
    """Reference for the fibre group at i >= 0: solve at W and at W + p and
    compare, whatever W is."""
    inv1, _ = oracles.fixed_points_at(A, i, A.W)
    inv2, _ = oracles.fixed_points_at(A, i, A.W + A.p)
    if inv1 != inv2:
        raise NotStabilized("W = %d gives %s, W = %d gives %s" % (A.W, inv1, A.W + A.p, inv2))
    return inv1


STABILITY_GRID = [(p, e, n, i) for p in (2, 3, 5) for e in (0, 1, 2)
                  for n in (1, 2, 3) for i in (0, 1, 2, 3)]


def test_window_below_n_plus_i_raises_at_w():
    # 1 <= W < n + i cannot hold phi(x_1^{[W]}): the solver raises at W,
    # before W + p, and so does the fibre group
    for p, e, n, i in STABILITY_GRID:
        for W in range(1, n + i):
            A = PDAlgebra(p, n=n, e=e, W=W)
            with pytest.raises(TruncationTooTight):
                oracles.fixed_points_at(A, i, W)
            with pytest.raises(TruncationTooTight):
                fibre(A, i)


def test_window_from_n_plus_i_on_answers_as_at_w_plus_p():
    # for W >= n + i the fibre group gives what the solves at W and W + p
    # gave, errors included (the independence of W, `pdalg` docstring)
    answered = 0
    for p, e, n, i in STABILITY_GRID:
        for W in range(n + i, n + i + 2 * p + 1):
            A = PDAlgebra(p, n=n, e=e, W=W)
            want = _outcome(_fixed_points_at_w_and_w_plus_p, A, i)
            got = _outcome(lambda: fibre(A, i).exponents)
            assert got == want, (p, e, n, i, W)
            answered += want is not TruncationTooTight
    assert answered


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fiber_group_raises_exactly_where_the_solver_raised(p):
    # over every W in 0..3p^2 the fibre group raises TruncationTooTight
    # exactly when the solver did, and otherwise gives its group; at W = 0,
    # e = 0, where the solver answered by the W + p comparison, it raises
    solved_at_0 = 0
    for e, n, i in itertools.product((0, 1, 2), (1, 2), (0, 1, 2)):
        for W in range(3 * p * p + 1):
            A = PDAlgebra(p, n=n, e=e, W=W)
            old = _outcome(lambda: frobenius_fixed_points(A, i)["group"])
            new = _outcome(fibre, A, i)
            if W == 0 and old is not TruncationTooTight:
                assert e == 0 and new is TruncationTooTight
                solved_at_0 += 1
            else:
                assert new == old, (e, n, i, W)
    assert solved_at_0


def test_fiber_group_raises_at_a_chain_that_ends_short():
    # a chain whose last monomial has l < n + i: its phi image is nonzero
    # mod p^{n+i} and leaves the window; at l = n + i it stays
    n, i, W = 2, 3, 12
    with pytest.raises(TruncationTooTight, match="phi image of weight 4 leaves W = 12"):
        pdalg._fiber_exponent([0, 1, 4], n, i, W)
    assert pdalg._fiber_exponent([0, 1, 5], n, i, W) == n
    with pytest.raises(TruncationTooTight, match="phi image of weight 4 leaves W = 12"):
        pdalg._fiber_exponent([4], n, i, W)


def test_fiber_group_reads_the_pd_weight_table(monkeypatch):
    # each level l < i adds i - l to its chain's w, capped at n, and a chain
    # with every level at least i adds no factor; the group has one factor
    # per chain with w >= 1, and Z/p^n for the chain [1] at i = 0 only
    n, i, W = 2, 3, 12
    assert pdalg._fiber_exponent([3, 6, 12], n, i, W) == 0
    assert pdalg._fiber_exponent([2, 6, 12], n, i, W) == 1  # a level i - 1 adds Z/p
    assert pdalg._fiber_exponent([1, 2, 8], 4, i, W) == 3
    assert pdalg._fiber_exponent([0, 1, 2, 8], 4, i, W) == 4  # w = 6, capped at n
    chains = [[3, 6], [2, 6], [0, 1, 6]]
    monkeypatch.setattr(pdalg, "_root_levels", lambda p, e, W, roots: iter(chains))
    assert fiber_group(2, n, 1, W, i) == PGroup(2, (2, 1))
    assert fiber_group(2, n, 1, W, 0) == PGroup(2, (n,))


def _outcome_and_message(f, *args):
    """f's value, or the type and the message of the typed error it raises."""
    try:
        return f(*args)
    except (UsageError, TruncationTooTight) as ex:
        return type(ex), str(ex)


def _read_off_against_the_basis(p, n, e, W, i):
    """The read-off from the roots and the basis oracle at (p, n, e, W, i):
    the fibre group for i >= 0, the negative-twist series for i < 0."""
    if i >= 0:
        new, old = fiber_group, fiber_group_on_the_basis
    else:
        new, old = pdalg.negative_twist_series, negative_twist_series_by_blocks
    return (_outcome_and_message(new, p, n, e, W, i),
            _outcome_and_message(lambda: old(PDAlgebra(p, n, e, W), i)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_read_offs_match_the_basis_oracles(p):
    # values, raise types and messages agree over e <= 3, n <= 3,
    # -3 <= i <= 4 and windows around n + i, with T = (W + 1) p^e <= 60,000
    kinds = set()
    for e, n, i in itertools.product(range(4), (1, 2, 3), range(-3, 5)):
        for W in sorted({3 * p * p, 0, 1, 2, max(n + i, 0), n + i + 1, 7}):
            if (W + 1) * p**e > 60000:
                continue
            new, old = _read_off_against_the_basis(p, n, e, W, i)
            assert new == old, (e, n, i, W)
            kinds.add((i < 0, type(new) is tuple))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_read_offs_resolve_the_parameters_as_the_algebra_does():
    # the default window is the algebra's, V_used echoes it, and bad
    # parameters raise the algebra's UsageError on every path
    for p, e, r in ((2, 1, 1), (3, 2, 2), (5, 0, 3)):
        W = PDAlgebra(p, r, e).W
        assert pdalg.window(p, r, e) == W == 3 * p * p
        assert syntomic.syntomic_acrys(p, 1, r, e=e).V_used == W
        assert syntomic.syntomic_acrys(p, 1, r, e=e, W=W + 1).V_used == W + 1
    for n, e, W in ((0, 1, None), (1, -1, None), (1, 1, -1)):
        with pytest.raises(UsageError) as want:
            PDAlgebra(2, n, e, W)
        for i in (-1, 0, 2):
            for call in (lambda: syntomic.syntomic_acrys(2, i, n, e=e, W=W),
                         lambda: (fiber_group if i >= 0 else pdalg.negative_twist_series)(
                             2, n, e, W, i)):
                with pytest.raises(UsageError) as got:
                    call()
                assert str(got.value) == str(want.value)
    for f, i in ((fiber_group, -1), (pdalg.negative_twist_series, 0)):
        with pytest.raises(UsageError, match="got i = %d" % i):
            f(2, 1, 1, None, i)


# ---------------------------------------------------------------------------
# span identity and the completion warning example


def test_span_identity():
    for p in (2, 3):
        A = small_algebra(p=p, n=1, e=2)
        for j in (1, 2):
            assert span_identity_check(A, j)


def test_span_identity_reads_the_tables(monkeypatch):
    # a Fil^conj_{j-1} missing a monomial with l < pj: that monomial lies in
    # neither Fil^conj_{j-1} nor Fil^{pj}_pd
    p, j = 2, 1
    A = small_algebra(p=p, n=1, e=2)
    assert span_identity_check(A, j)
    spans = conjugate_filtration_spans

    def drop_the_last(A, nmax):
        fil = spans(A, nmax)
        fil[j - 1] = fil[j - 1] - {max(fil[j - 1])}
        return fil

    monkeypatch.setattr(pdalg, "conjugate_filtration_spans", drop_the_last)
    assert not span_identity_check(A, j)


def test_p2_completion_mismatch_documentation():
    # v_2(2^{2^n} / (2^n)!) = 2^n - (2^n - 1) = 1 for all n >= 1
    for n in (1, 2, 3, 4):
        assert 2**n - vp_factorial(2**n, 2) == 1
