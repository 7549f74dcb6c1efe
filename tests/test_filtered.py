import random
import subprocess
import sys

import pytest

from nygaard.complexes import (
    Complex,
    FilteredComplex,
    NotNonzerodivisor,
    beilinson_H0,
    beilinson_truncate,
    eta,
    eta_cohomology_law_check,
    f_adic_filtration,
    graded_law_check,
    graded_piece,
    trivial_filtration,
    underlying_complex_lattices,
)
from nygaard.errors import UsageError
from nygaard.linalg import (
    PGroup,
    hermite_form,
    identity,
    lattice_contains,
    lattice_eq,
    mat_mul,
    mat_scale,
    presented_complex_cohomology,
    row_mul,
)

from oracles import complex_cohomology, kernel_int, src_env


def mult_p_complex(p):
    return Complex({0: 1, 1: 1}, {0: [[p]]})


def random_complex(rng, max_deg=4, max_rank=4, lo=-3, hi=3):
    degs = list(range(max_deg + 1))
    ranks = {j: rng.randint(1, max_rank) for j in degs}
    diffs = {}
    nxt = None
    for j in reversed(degs[:-1]):
        if nxt is None:
            D = [[rng.randint(lo, hi) for _ in range(ranks[j + 1])] for _ in range(ranks[j])]
        else:
            K = kernel_int(nxt)
            if not K:
                D = [[0] * ranks[j + 1] for _ in range(ranks[j])]
            else:
                R = [[rng.randint(lo, hi) for _ in range(len(K))] for _ in range(ranks[j])]
                D = mat_mul(R, K)
        diffs[j] = D
        nxt = D
    return Complex(ranks, diffs)


def random_filtered_complex(rng, f, max_deg=3, max_rank=3, i1=3):
    """Random d-stable descending filtration inside a random complex.

    Built upward from Fil^{i1} = f^{i1} Z^r by adding d-closures of random
    vectors scaled by decreasing powers of f.
    """
    C = random_complex(rng, max_deg, max_rank)
    lat = {}
    for n in C.degrees():
        r = C.rank(n)
        lat[(i1, n)] = mat_scale(f**i1, identity(r)) if r else []
    for i in range(i1 - 1, -1, -1):
        # start from f * nothing-new: previous level is contained
        cur = {n: [row[:] for row in lat[(i + 1, n)]] for n in C.degrees()}
        for n in C.degrees():
            r = C.rank(n)
            if r == 0:
                continue
            for row in mat_scale(f**i, identity(r)):
                cur[n].append(row)
                continue
        # add a couple of random d-stable enlargements
        for _ in range(rng.randint(0, 2)):
            n = rng.choice(C.degrees())
            r = C.rank(n)
            if r == 0:
                continue
            v = [rng.randint(-2, 2) * f ** max(i - 1, 0) for _ in range(r)]
            chain = [v]
            deg = n
            while C.rank(deg + 1):
                v = row_mul(v, C.diff(deg))
                if not any(v):
                    break
                chain.append(v)
                deg += 1
            d0 = n
            for w in chain:
                cur[d0].append(w)
                d0 += 1
        for n in C.degrees():
            lat[(i, n)] = hermite_form([row for row in cur[n] if any(row)])
    F = FilteredComplex(C, 0, i1, lat, above=("f-adic", f))
    F.validate()
    return F


# ---------------------------------------------------------------------------
# eta


def test_eta_identity():
    C = mult_p_complex(5)
    E, incl = eta(1, C)
    assert E.ranks == C.ranks
    assert lattice_eq(incl[0], identity(1))
    assert E.diffs[0] == [[5]]


def test_eta_zero_rejected():
    with pytest.raises(NotNonzerodivisor):
        eta(0, mult_p_complex(3))


def test_eta_in_negative_degrees_is_exact_or_rejected():
    # f^{-1} C^{-1} contains C^{-1}: no integer coordinates unless f = +-1
    C = Complex({-1: 1, 0: 1, 1: 1}, {-1: [[0]], 0: [[3]]})
    with pytest.raises(UsageError, match="degree -1"):
        eta(2, C)
    for f in (1, -1):
        E, incl = eta(f, C)
        assert all(type(x) is int for rows in incl.values() for row in rows for x in row)
        assert E.invariants() == C.invariants()


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_complex_invariants_raise_typed_errors(flags):
    # the checks are raises, not asserts, so python -O keeps them
    code = """
from nygaard.cli import RunConfig
from nygaard.complexes import Complex, FilteredComplex
from nygaard.errors import CompositeNonzero, UsageError
from nygaard.linalg import PGroup, cocycles_boundaries_mod, mat_mul
from nygaard.qtorus import QTorusComplex
from nygaard.syntomic import syntomic_q
for make, exc in (
    # a window whose d*d = 2 is nonzero mod 4
    (lambda: cocycles_boundaries_mod({0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[2]]}, 2, 2),
     CompositeNonzero),
    (lambda: mat_mul([[1, 2]], [[1]]), UsageError),
    (lambda: QTorusComplex(2, 0), UsageError),
    (lambda: syntomic_q(2, 0, 1, 1), UsageError),
    (lambda: syntomic_q(2, 1, 1, 1, N=0), UsageError),
    (lambda: PGroup(2, (0,)), UsageError),
    (lambda: PGroup(2, (1, 2)), UsageError),
    (lambda: PGroup(2, (), -1), UsageError),
    (lambda: PGroup(2, (1,)) + PGroup(3, (1,)), UsageError),
    (lambda: Complex({0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]}), CompositeNonzero),
    (lambda: Complex({0: 1, 1: 2}, {0: [[1]]}), UsageError),
    (lambda: FilteredComplex(Complex({0: 1}, {}), 0, 1,
                             {(0, 0): [[2]], (1, 0): [[1]]}).validate(), CompositeNonzero),
    (lambda: RunConfig(n=0), UsageError),
    (lambda: RunConfig(p=4), UsageError),
    (lambda: RunConfig(threads=2), UsageError),
):
    try:
        make()
    except exc:
        continue
    raise SystemExit("no %s" % exc.__name__)
"""
    out = subprocess.run([sys.executable, *flags, "-c", code], env=src_env(),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr + out.stdout


def test_eta_mult_p():
    p = 3
    E, incl = eta(p, mult_p_complex(p))
    H = complex_cohomology(E.ranks, E.diffs, p)
    assert H[0] == H[1] == PGroup.zero(p)


def test_eta_law_examples():
    # H^1(C) = Z/p^2 (+) Z gives H^1(eta_p C) = Z/p (+) Z
    p = 2
    C = Complex({0: 2, 1: 3}, {0: [[p * p, 0, 0], [0, 0, 0]]})
    rep = eta_cohomology_law_check(p, C, p)
    assert all(r["match"] for r in rep.values())
    inv1 = rep[1]["eta"]
    assert inv1 == ([p], 2)  # Z/p + Z^2 (one Z from coker, one from extra rank)


def test_eta_law_random():
    rng = random.Random(41)
    p = 2
    for _ in range(20):
        C = random_complex(rng)
        for f in (p, p * p):
            rep = eta_cohomology_law_check(f, C, p)
            assert all(r["match"] for r in rep.values())


def test_eta_composite_law_random():
    # cohomology of eta_f(eta_g C) equals cohomology of eta_{fg} C
    rng = random.Random(43)
    p = 2
    for _ in range(12):
        C = random_complex(rng, max_deg=3, max_rank=3)
        f, g = p, p * p
        E1, _ = eta(g, C)
        E2, _ = eta(f, E1)
        E12, _ = eta(f * g, C)
        inv_a = E2.invariants()
        inv_b = E12.invariants()
        for j in C.degrees():
            a, b = inv_a.get(j, ([], 0)), inv_b.get(j, ([], 0))
            assert (sorted(a[0]), a[1]) == (sorted(b[0]), b[1])


def test_eta_torsion_free_cohomology_unchanged():
    # if H^j(C) is f-torsion-free, eta does not change it
    C = Complex({0: 1, 1: 1}, {0: [[0]]})  # H^0 = H^1 = Z
    E, _ = eta(7, C)
    inv = E.invariants()
    assert inv[0] == ([], 1) and inv[1] == ([], 1)


def test_eta_d_stability_invariant():
    rng = random.Random(47)
    for _ in range(10):
        C = random_complex(rng, max_deg=3, max_rank=3)
        E, incl = eta(2, C)
        for n in C.degrees():
            if not incl[n] or not C.rank(n + 1):
                continue
            for row in incl[n]:
                img = row_mul(row, C.diff(n))
                if any(img):
                    assert lattice_contains(incl[n + 1], [img])


# ---------------------------------------------------------------------------
# Beilinson truncation


def test_decalee_underlying_equals_eta():
    rng = random.Random(53)
    p = 2
    for _ in range(20):
        C = random_complex(rng, max_deg=3, max_rank=3)
        F = f_adic_filtration(p, C, i1=max(C.degrees()) + 1)
        T = beilinson_truncate(F)
        under = underlying_complex_lattices(T)
        _, incl = eta(p, C)
        for n in C.degrees():
            a = under[n]
            b = incl[n]
            if not a and not b:
                continue
            assert lattice_eq(a, b), (n, a, b)


def test_trivial_filtration_connective_cover():
    C = Complex({-1: 1, 0: 1, 1: 1}, {-1: [[0]], 0: [[3]]})
    F = trivial_filtration(C, i1=2)
    T = beilinson_truncate(F)
    # Fil^0 in degree 0 is ker(d) = 0 here (mult by 3 is injective);
    # in degree -1 it is everything, in degree 1 it is 0 (F(1) = 0)
    assert lattice_eq(T.fil(0, -1), identity(1))
    assert T.fil(0, 0) == []
    assert T.fil(0, 1) == []


def test_graded_law_on_random_filtered():
    rng = random.Random(59)
    p = 2
    for _ in range(12):
        F = random_filtered_complex(rng, p, max_deg=3, max_rank=2, i1=3)
        rep = graded_law_check(F, p)
        assert all(r["match"] for r in rep.values()), rep


def test_truncation_gr_vanishes_above_i():
    rng = random.Random(61)
    p = 3
    for _ in range(6):
        F = random_filtered_complex(rng, p, max_deg=3, max_rank=2, i1=3)
        T = beilinson_truncate(F)
        for i in range(F.i0, F.i1):
            terms, maps = graded_piece(T, i)
            coh = presented_complex_cohomology(terms, maps, p)
            for n, g in coh.items():
                if n > i:
                    assert g == PGroup.zero(p), (i, n, str(g))


# ---------------------------------------------------------------------------
# heart


def test_heart_p_adic_on_point():
    p = 2
    C = Complex({0: 1}, {})
    F = f_adic_filtration(p, C, i1=3)
    obj, table = beilinson_H0(F, p)
    # heart terms H^i(gr^i): Z/p in slot 0 only
    assert obj.slots[0] == ([p], 0)
    for i in range(1, 3):
        assert obj.slots[i] == ([], 0)
    # the graded table row H^0(gr^i) is Z/p in every slot
    for i in range(0, 3):
        assert table[i][0] == {"free_rank": 0, "exponents": [1]}
    # all heart differentials vanish
    for i, D in obj.diff.items():
        assert all(all(x == 0 for x in row) for row in D)


def test_heart_zero_complex():
    C = Complex({0: 0, 1: 0}, {})
    F = trivial_filtration(C, i1=2)
    obj, _ = beilinson_H0(F, 2)
    assert all(v == ([], 0) for v in obj.slots.values())


def test_heart_bockstein_mult_p():
    # p-adic filtration on [Z -p-> Z]: nonzero differential in exactly one slot
    p = 5
    C = mult_p_complex(p)
    F = f_adic_filtration(p, C, i1=3)
    obj, _ = beilinson_H0(F, p)
    assert obj.slots[0] == ([p], 0)
    assert obj.slots[1] == ([p], 0)
    nonzero = [i for i, D in obj.diff.items() if any(any(x % p for x in row) for row in D)]
    assert nonzero == [0], (obj.diff, obj.slots)
