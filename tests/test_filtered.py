import random
import subprocess
import sys

import pytest

from nygaard.complexes import (
    Complex,
    NotNonzerodivisor,
    eta,
    eta_cohomology_law_check,
)
from nygaard.errors import UsageError
from nygaard.linalg import (
    PGroup,
    identity,
    lattice_contains,
    lattice_eq,
    mat_mul,
    mat_scale,
    row_mul,
)

from oracles import complex_cohomology, kernel_int, preimage_lattice, src_env


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
from nygaard.complexes import Complex, eta
from nygaard.errors import CompositeNonzero, NotNonzerodivisor, UsageError
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
    (lambda: eta(0, Complex({0: 1}, {})), NotNonzerodivisor),
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


def test_eta_lattices_equal_scaled_preimages():
    # (eta_f C)^n = {f^n y : y d_n in f C^{n+1}}, since C^{n+1} is torsion
    # free; the preimage oracle is built on kernel_int, not restrict_lattice
    rng = random.Random(53)
    for p in (2, 3):
        for _ in range(10):
            C = random_complex(rng, max_deg=3, max_rank=3)
            top = max(C.degrees())
            for f in (p, p * p, -p):
                _, incl = eta(f, C)
                for n in C.degrees():
                    if n == top:
                        y = identity(C.rank(n))
                    else:
                        y = preimage_lattice(C.diff(n), mat_scale(f, identity(C.rank(n + 1))))
                    assert lattice_eq(incl[n], mat_scale(f**n, y)), (p, f, n)
