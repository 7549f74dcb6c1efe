"""Oracles the tests check live code against, kept out of the package
because no command uses them: enumerations that a proven symmetry replaces,
among them the d-dimensional torus models with their checks, a canonical
form, further coefficient rings, the universal polynomials of
Witt-vector arithmetic and the inverse of its ghost map on unreduced
coordinates, the kernel and the preimage of a lattice and the
solutions of x*M = y computed on their own, cohomology of a complex of free
Z-modules and, as groups, of a complex of presented groups over Z and mod
p^r, the syntomic windows presented from scratch and their stable images
certified by span(B_k) and span(pi B_k) carried apart, property checks of the
divided-power algebra, its powers by repeated multiplication, its weight
chains found by search, its two-variable model as the tensor square of the
one-variable one, its Frobenius on a weight chain as an exact coefficient
list, built monomial by monomial and as a dense block, its Nygaard check at a precision of its own per level
and with a list per chain, its p-th power check per monomial, its
description-(1) closure searched weight by weight, its Frobenius fixed
points solved by elimination and its syntomic fibre and negative-twist
series read off the whole basis.  `src_env` is the environment
of a python subprocess that imports the package from this source tree."""

import os
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb
from pathlib import Path

from nygaard.complexes import Complex, acyclic_mod, eta_lattices, presented_cone
from nygaard.errors import (
    CompositeNonzero,
    NotStabilized,
    PrecisionExhausted,
    RingError,
    UsageError,
)
from nygaard.linalg import (
    PGroup,
    _hnf_coordinates,
    _vp,
    block_diag,
    cocycles_boundaries_mod,
    cohomology_invariants,
    eliminate_mod,
    hermite_form,
    identity,
    lattice_contains,
    lattice_eq,
    mat_copy,
    mat_mul,
    mat_scale,
    preimage_mod,
    quotient_exponents_mod,
    quotient_invariants,
    restrict_lattice,
    row_mul,
    span_contains_mod,
    span_exponent_mod,
    zeros,
)
from nygaard import pdalg
from nygaard.pdalg import (
    PDAlgebra,
    TruncationTooTight,
    _weight_chains,
    conjugate_filtration_spans,
)
from nygaard.qbase import QBase, _binom
from nygaard.rings import PolyTrunc
from nygaard import syntomic
from nygaard.syntomic import _nilpotency_index
from nygaard.witt import witt


def src_env():
    """os.environ with the package's source directory first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(x for x in (src, env.get("PYTHONPATH")) if x)
    return env


def weights_box(d, M):
    """Every weight of Z^d with entries in [-M, M]: the box the de Rham and
    q-de Rham checks cover through `torus.weight_classes`."""
    return [tuple(w) for w in product(range(-M, M + 1), repeat=d)]


def q_pow(B, k):
    """q^k = (1+mu)^k in the truncated base B, for any integer k (binomial
    series, exact)."""
    return tuple(_binom(k, j) for j in range(B.N))


def primitive_weights(d, p, M):
    """The weights of the box of radius M not in pZ^d (so not 0): the orbit
    representatives that `syntomic._orbit_sum` counts in closed form."""
    return [m for m in weights_box(d, M) if any(a % p for a in m)]


def howell_form(M, p, n):
    """Canonical Howell form of the row span of M over Z/p^n.

    Two matrices over Z/p^n have the same row span iff their Howell forms are
    identical.  Pivots are p^v; entries above a pivot are reduced mod p^v.
    Pivoting picks the lowest p-valuation entry in the leftmost column.
    """
    q = p**n
    cols = len(M[0]) if M else 0
    pivots = {}
    work = [[a % q for a in row] for row in M]
    work = [row for row in work if any(row)]
    while work:
        r = work.pop()
        while True:
            c = next((j for j, a in enumerate(r) if a), None)
            if c is None:
                break
            v = _vp(r[c], p)
            if c in pivots:
                piv = pivots[c]
                vp_ = _vp(piv[c], p)
                if v >= vp_:
                    factor = r[c] // piv[c]  # exact: piv[c] = p^{vp}
                    r = [(a - factor * b) % q for a, b in zip(r, piv)]
                    continue
                u = r[c] // p**v
                uinv = pow(u, -1, q)
                r = [(a * uinv) % q for a in r]
                pivots[c] = r
                work.append(piv)
                ann = q // p**v
                if ann > 1:
                    work.append([(ann * a) % q for a in r])
                break
            u = r[c] // p**v
            uinv = pow(u, -1, q)
            r = [(a * uinv) % q for a in r]
            pivots[c] = r
            ann = q // p**v
            if ann > 1:
                work.append([(ann * a) % q for a in r])
            break
    # back-reduce entries above each pivot
    order = sorted(pivots)
    for c in order:
        piv = pivots[c]
        pv = piv[c]
        for c2 in order:
            if c2 >= c:
                break
            row = pivots[c2]
            factor = row[c] // pv
            if factor:
                pivots[c2] = [(a - factor * b) % q for a, b in zip(row, piv)]
    return [pivots[c] for c in sorted(pivots)]


# ---------------------------------------------------------------------------
# coefficient rings the Witt tests run on besides the truncated polynomials;
# each takes its pow, square and multiply over its mul and one, from PolyTrunc,
# and each exact cover its table of p-power rows


class ZRing:
    """The integers, their own exact cover."""

    zero = 0
    one = 0 + 1

    pow = PolyTrunc.pow
    pth_power_row = PolyTrunc.pth_power_row

    def __init__(self):
        self.pth_powers = {}

    def cover(self, L):
        return self

    def add(self, a, b):
        return a + b

    def combine(self, coeffs, elems):
        return sum(c * x for c, x in zip(coeffs, elems))

    def mul(self, a, b):
        return a * b

    def eq(self, a, b):
        return a == b

    def lift(self, a):
        return a

    def reduce(self, a):
        return a

    def exact_div_int(self, a, k):
        q, r = divmod(a, k)
        if r:
            raise RingError("inexact division by %d" % k)
        return q

    def random(self, rng, size=20):
        return rng.randint(-size, size)

    def __repr__(self):
        return "Z"


class ZModRing:
    """Z/m with lift to Z, its exact cover."""

    def __init__(self, m):
        if m <= 1:
            raise UsageError("Z/m needs m > 1, got %d" % m)
        self.m = m
        self.zero = 0
        self.one = 1 % m
        self._z = ZRing()

    pow = PolyTrunc.pow

    def cover(self, L):
        return self._z

    def add(self, a, b):
        return (a + b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def eq(self, a, b):
        return a % self.m == b % self.m

    def lift(self, a):
        return a % self.m

    def reduce(self, a):
        return a % self.m

    def random(self, rng, size=None):
        return rng.randrange(self.m)

    def __repr__(self):
        return "Z/%d" % self.m


class PerfTruncZ:
    """Z[x^{1/p^e}]/(x^k); exponents are a/p^e stored by their numerator a.

    Elements are sorted tuples of (a, coeff) with 0 <= a < k*p^e and
    coeff != 0.
    """

    def __init__(self, p, e, k):
        self.p = p
        self.e = e
        self.k = k
        self.bound = k * p**e
        self.zero = ()
        self.one = ((0, 1),)
        self.pth_powers = {}

    pow = PolyTrunc.pow
    pth_power_row = PolyTrunc.pth_power_row

    def cover(self, L):
        return self

    def monomial(self, a, c=1):
        if a < 0:
            raise UsageError("negative exponent %d" % a)
        if a >= self.bound or c == 0:
            return ()
        return ((a, c),)

    def x(self):
        return self.monomial(self.p**self.e)

    def _norm(self, d):
        return tuple(sorted((a, c) for a, c in d.items() if c))

    def add(self, u, v):
        d = dict(u)
        for a, c in v:
            d[a] = d.get(a, 0) + c
        return self._norm(d)

    def combine(self, coeffs, elems):
        d = {}
        for c0, u in zip(coeffs, elems):
            for a, c in u:
                d[a] = d.get(a, 0) + c0 * c
        return self._norm(d)

    def mul(self, u, v):
        d = {}
        for a, c in u:
            for b, c2 in v:
                t = a + b
                if t < self.bound:
                    d[t] = d.get(t, 0) + c * c2
        return self._norm(d)

    def eq(self, u, v):
        return u == v

    def lift(self, u):
        return u

    def reduce(self, u):
        return u

    def exact_div_int(self, u, m):
        out = []
        for a, c in u:
            q, r = divmod(c, m)
            if r:
                raise RingError("inexact division by %d" % m)
            out.append((a, q))
        return tuple(out)

    def frobenius(self, u):
        """x^{a/p^e} -> x^{pa/p^e}; exponents leaving the window truncate."""
        d = {}
        for a, c in u:
            t = a * self.p
            if t < self.bound:
                d[t] = d.get(t, 0) + c
        return self._norm(d)

    def __repr__(self):
        return "Z[x^{1/%d^%d}]/(x^%d)" % (self.p, self.e, self.k)


class PerfTruncFp:
    """F_p[x^{1/p^e}]/(x^k), lift to the integral perfect truncation, its
    exact cover."""

    def __init__(self, p, e, k):
        self.p = p
        self.e = e
        self.k = k
        self.bound = k * p**e
        self._z = PerfTruncZ(p, e, k)
        self.zero = ()
        self.one = ((0, 1),)

    pow = PolyTrunc.pow

    def cover(self, L):
        return self._z

    def monomial(self, a, c=1):
        c %= self.p
        if a >= self.bound or c == 0:
            return ()
        return ((a, c),)

    def x(self):
        return self.monomial(self.p**self.e)

    def exponent(self, a):
        """The exponent a/p^e as a Fraction."""
        return Fraction(a, self.p**self.e)

    def add(self, u, v):
        return self.reduce(self._z.add(u, v))

    def mul(self, u, v):
        return self.reduce(self._z.mul(u, v))

    def eq(self, u, v):
        return u == v

    def lift(self, u):
        return u

    def reduce(self, u):
        return tuple((a, c % self.p) for a, c in u if c % self.p)

    def frobenius(self, u):
        return self.reduce(self._z.frobenius(u))

    def inv_frobenius(self, u):
        """x^{a/p^e} -> x^{a/p^{e+1}}: fails when leaving the lattice."""
        out = []
        for a, c in u:
            if a % self.p:
                raise RingError("exponent denominator would exceed p^%d" % self.e)
            out.append((a // self.p, c))
        return tuple(out)

    def random(self, rng, terms=3):
        el = self.zero
        for _ in range(terms):
            el = self.add(el, self.monomial(rng.randrange(self.bound), rng.randrange(self.p)))
        return el

    def __repr__(self):
        return "F_%d[x^{1/%d^%d}]/(x^%d)" % (self.p, self.p, self.e, self.k)


# ---------------------------------------------------------------------------
# universal Witt polynomials: an independent route to the ghost arithmetic


def _poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
        if not out[e]:
            del out[e]
    return out


def _poly_scale(c0, a):
    return {e: c0 * c for e, c in a.items()} if c0 else {}


def _poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _poly_pow(a, k):
    nv = len(next(iter(a))) if a else 0
    out = {tuple([0] * nv): 1}
    base = a
    while k:
        if k & 1:
            out = _poly_mul(out, base)
        k >>= 1
        if k:
            base = _poly_mul(base, base)
    return out


def _poly_div_int(a, m):
    out = {}
    for e, c in a.items():
        q, r = divmod(c, m)
        if r:
            raise ArithmeticError("universal polynomial division not exact")
        out[e] = q
    return out


@lru_cache(maxsize=None)
def universal_witt_polynomials(p, n, op):
    """Sum ('add') or product ('mul') polynomials S_0..S_{n-1} over Z.

    Variables are x_0..x_{n-1}, y_0..y_{n-1}; exponent tuples have length 2n.
    Computed once by lifting to Z[x, y] and dividing exactly; cached.
    """
    nv = 2 * n

    def var(i):
        e = [0] * nv
        e[i] = 1
        return {tuple(e): 1}

    def ghost_poly(block, i):
        acc = {}
        for j in range(i + 1):
            acc = _poly_add(acc, _poly_scale(p**j, _poly_pow(var(block * n + j), p ** (i - j))))
        return acc

    S = []
    for i in range(n):
        if op == "add":
            g = _poly_add(ghost_poly(0, i), ghost_poly(1, i))
        else:
            g = _poly_mul(ghost_poly(0, i), ghost_poly(1, i))
        acc = g
        for j in range(i):
            acc = _poly_add(acc, _poly_scale(-(p**j), _poly_pow(S[j], p ** (i - j))))
        S.append(_poly_div_int(acc, p**i))
    return tuple(S)


def eval_universal(ring, poly, xs, ys):
    """Evaluate a universal polynomial on ring elements, as one linear
    combination of its monomials; each power of a variable is taken once."""
    vals = list(xs) + list(ys)
    powers = {}
    terms = []
    for e in poly:
        term = ring.one
        for i, k in enumerate(e):
            if k:
                if (i, k) not in powers:
                    powers[i, k] = ring.pow(vals[i], k)
                term = ring.mul(term, powers[i, k])
        terms.append(term)
    return ring.combine(list(poly.values()), terms)


# ---------------------------------------------------------------------------
# integer lattices


def from_ghost_by_powers(ring, p, g):
    """The inverse of the ghost map over ring.cover(len(g)) that keeps each
    coordinate unreduced in the cover and raises it to its p-th power once
    per step, reducing to the ring only at the end: the reference for
    `witt._from_ghost_cover`, which reduces each coordinate when it is found
    and reads its powers from the cover's table."""
    cover = ring.cover(len(g))
    weights = [1] + [-(p**j) for j in range(len(g))]
    coords, pows = [], []
    for i, acc in enumerate(g):
        pows = [cover.pow(x, p) for x in pows]
        coords.append(cover.exact_div_int(cover.combine(weights, [acc] + pows), p**i))
        pows.append(coords[-1])
    return witt(ring, p, [ring.reduce(c) for c in coords])


def kernel_int(M):
    """Basis (rows, HNF) of {x : x*M = 0} over Z."""
    H, U = hermite_form(M, transform=True)
    ker = U[len(H):]
    return hermite_form(ker) if ker else []


def preimage_lattice(D, L):
    """Basis of {x : x*D in span(L)}.

    D has shape (m, n), L spans a sublattice of Z^n.  The result is a full
    set of generators (HNF rows) in Z^m.
    """
    m = len(D)
    if m == 0:
        return []
    if L:
        stacked = mat_copy(D) + [[-a for a in row] for row in L]
    else:
        stacked = mat_copy(D)
    ker = kernel_int(stacked)
    proj = [row[:m] for row in ker]
    return hermite_form(proj) if proj else []


def solve_left(M, rows):
    """Per row y of rows, one solution x of x*M = y over Z, or None, through
    the Hermite transform of M: the reference `linalg.lattice_contains`,
    which builds no transform, and the solves of `complexes`, which read
    coordinates off a Hermite basis, replaced."""
    if not M or not rows:
        return [None if any(y) else [] for y in rows]
    H, U = hermite_form(M, transform=True)
    return [None if x is None else row_mul(x, U) for x in _hnf_coordinates(H, rows)]


# ---------------------------------------------------------------------------
# cohomology of a complex of free Z-modules, over Z or mod p^r


def complex_cohomology(ranks, diffs, p, modulus=None):
    """Cohomology as PGroups at the prime p, degree by degree: over Z, or of
    the complex tensored with Z/modulus for a modulus p^r (r >= 1)."""
    if modulus is None:
        inv = cohomology_invariants(ranks, diffs)
        return {j: PGroup.from_invariants(p, invs, free) for j, (invs, free) in inv.items()}
    if modulus < p or p ** _vp(modulus, p) != modulus:
        raise UsageError("modulus %d is not a positive power of p = %d" % (modulus, p))
    return cohomology_mod(ranks, diffs, p, _vp(modulus, p))


def cocycles_boundaries_rels_mod(ranks, diffs, p, r, rels=None):
    """Cocycle rows Z_t and boundary rows B_t per degree, over Z/p^r, of a
    complex of free Z/p^r-modules modulo relation rows.

    Degree t is (Z/p^r)^ranks[t] modulo span(rels[t]), and diffs[t] maps
    degree t to t+1.  B_t holds the nonzero rows of d_{t-1} and rels[t] in
    [0, p^r).  B_t is made of cocycles iff B_t*d_t lies in span(rels[t+1]):
    without relations there that is B_t*d_t = 0 mod p^r, and otherwise the
    order of span(rels[t+1]) must not grow.  CompositeNonzero if it fails.
    Z_t is preimage_mod(d_t, rels[t+1]), the identity when no differential
    leaves degree t."""
    q = p**r
    rels = rels or {}
    pres = {}
    for t in sorted(ranks):
        B = diffs.get(t - 1, []) if ranks[t] and ranks.get(t - 1, 0) else []
        B = [row for row in ([a % q for a in b] for b in B + rels.get(t, [])) if any(row)]
        D, R = diffs.get(t), rels.get(t + 1, [])
        if ranks[t] and D and ranks.get(t + 1, 0):
            BD = [row for row in ([a % q for a in b] for b in mat_mul(B, D)) if any(row)]
            if BD and (not R or span_exponent_mod(R + BD, p, r) != span_exponent_mod(R, p, r)):
                raise CompositeNonzero("degree %d: boundaries are not cocycles mod %d" % (t, q))
            Z = preimage_mod(D, R, p, r)
        else:
            Z = identity(ranks[t])
        pres[t] = (Z, B)
    return pres


def cohomology_mod(ranks, diffs, p, r, rels=None):
    """Cohomology of a complex of free Z/p^r-modules modulo relations: per
    degree the PGroup span(Z_t)/span(B_t) of cocycles_boundaries_rels_mod."""
    pres = cocycles_boundaries_rels_mod(ranks, diffs, p, r, rels)
    return {t: PGroup(p, quotient_exponents_mod(Z, B, p, r)) for t, (Z, B) in pres.items()}


def cocycles_boundaries(terms, maps):
    """Cocycle rows Z_j and boundary rows B_j per degree of a complex of
    presented groups, over Z.

    terms[j] = (gens, rels) with span(rels) ⊆ span(gens) in a common ambient
    Z^{n_j}; maps[j] is the ambient matrix from degree j to j+1.  Z_j is the
    Hermite basis of the elements of span(gens_j) that map into
    span(rels_{j+1}); B_j holds the nonzero rows of rels_j and of the image
    of gens_{j-1}, all in the ambient Z^{n_j}.  Whether B_j lies in Z_j is
    left to quotient_invariants(Z_j, B_j), which raises when it does not."""
    pres = {}
    for j in sorted(terms):
        gens, rels = terms[j]
        B = list(rels)
        if j + 1 in terms and maps.get(j) is not None:
            Z = restrict_lattice(gens, maps[j], terms[j + 1][1])
        else:
            Z = hermite_form(gens)
        if j - 1 in terms and maps.get(j - 1) is not None:
            B += mat_mul(terms[j - 1][0], maps[j - 1])
        pres[j] = (Z, [b for b in B if any(b)])
    return pres


def presented_complex_cohomology(terms, maps, p):
    """Cohomology over Z of a complex of presented groups, as PGroups: the
    reference the mod p^r routines on presented complexes are checked
    against.  terms and maps are as in cocycles_boundaries.
    CompositeNonzero when a boundary leaves the cocycles."""
    pres = cocycles_boundaries(terms, maps)
    return {j: PGroup.from_invariants(p, *quotient_invariants(Z, B)) for j, (Z, B) in pres.items()}


def presented_cohomology_mod(terms, maps, p, r):
    """Cohomology of a complex of presented groups tensored with Z/p^r, as
    groups: the rels and the images of the Hermite rows of the gens are
    written in the Hermite coordinates of the gens, and cohomology_mod does
    the rest.  terms and maps are as in cocycles_boundaries.
    CompositeNonzero when a row leaves its generator span, or a boundary
    leaves the cocycles."""
    H = {j: hermite_form(g) if g else [] for j, (g, _) in terms.items()}

    def coords(j, rows):
        xs = _hnf_coordinates(H[j], rows)
        if None in xs:
            raise CompositeNonzero("degree %d: a row leaves the generator span" % j)
        return xs

    rels = {j: coords(j, [row for row in R if any(row)]) for j, (_, R) in terms.items()}
    D = {
        j: coords(j + 1, [row_mul(h, maps[j]) for h in H[j]])
        for j in maps if j in terms and j + 1 in terms
    }
    return cohomology_mod({j: len(h) for j, h in H.items()}, D, p, r, rels)


# ---------------------------------------------------------------------------
# the d-dimensional torus models and their checks
#
# The Koszul complex of the d-torus, integral and over B = Z[q]/((q-1)^N),
# with the checks of `derham` and `qderham` and the weight-0 elimination of
# `syntomic` run on it whole.  The package runs the 1-torus only and reaches
# dimension d by the Künneth lemma of the `torus` docstring; these are the
# models it replaced, kept unchanged as the reference the lemma is tested
# against.


def subsets(d, j):
    return list(combinations(range(d), j))


def koszul_sign(I, a):
    return (-1) ** sum(1 for b in I if b < a)


@lru_cache(maxsize=None)
def koszul_pattern(d, j):
    """The weight-free incidence of the Koszul differential from degree j to
    j+1: a (row, column, a, sign) entry for each pair dlog T_I -> dlog T_{I+a}
    with a not in I.  The weight-m differential puts sign * m_a there."""
    cols = {J: c for c, J in enumerate(subsets(d, j + 1))}
    return tuple((r, cols[tuple(sorted(I + (a,)))], a, koszul_sign(I, a))
                 for r, I in enumerate(subsets(d, j)) for a in range(d) if a not in I)


def weight_classes(d, M):
    """The representatives c e_1, c = 0..M, of the weights of the box of
    radius M: by the lemma of the module docstring every per-weight check
    gives the same verdict at m as at gcd(m) e_1."""
    return [(c,) + (0,) * (d - 1) for c in range(M + 1)]


MAX_LEVEL = 62  # cap on the Nygaard level i


class TorusDeRham:
    def __init__(self, p, d):
        self.p, self.d = p, d

    def rank(self, j):
        return comb(self.d, j) if 0 <= j <= self.d else 0

    def basis(self, j):
        return subsets(self.d, j)

    def diff_matrix(self, m, j):
        """Koszul differential from degree j to j+1 in weight m."""
        D = zeros(self.rank(j), self.rank(j + 1))
        for r, c, a, sign in koszul_pattern(self.d, j):
            D[r][c] = sign * m[a]
        return D

    def weight_block(self, m):
        ranks = {j: self.rank(j) for j in range(self.d + 1)}
        diffs = {j: self.diff_matrix(m, j) for j in range(self.d)}
        return Complex(ranks, diffs)

    def nygaard_scale(self, i, j):
        return self.p ** max(i - j, 0)

    def divided_frobenius_matrix(self, i, j):
        """phi_i on degree j from the normalized Nygaard basis to the dlog
        basis: p^{max(i-j,0)} * p^j divided by p^i.  The quotient exponent
        max(i-j,0) + j - i = max(j-i,0) is never negative, so the division is
        exact for every i, i < 0 included."""
        e = max(j - i, 0)
        return mat_scale(self.p**e, identity(self.rank(j)))


def build_torus(p, d):
    if d < 1:
        raise UsageError("the torus needs d >= 1, got d = %d" % d)
    return TorusDeRham(p, d)


# ---------------------------------------------------------------------------
# conjugate filtration quasi-isomorphism (phi_i mod p on graded pieces)


def _nygaard_graded_terms(X, i, m):
    """N^i = N^{>=i}/N^{>=i+1} in weight m, in normalized coordinates.

    Degree j uses the basis p^{max(i-j,0)} e_I, so the graded piece is
    Z^r / p for j <= i and zero above; the normalized differential carries
    the scale ratio p^{max(i-j,0) - max(i-j-1,0)}."""
    terms = {}
    maps = {}
    p = X.p
    for j in range(X.d + 1):
        r = X.rank(j)
        if r == 0:
            terms[j] = ([], [])
            continue
        if j <= i:
            terms[j] = (identity(r), mat_scale(p, identity(r)))
        else:
            terms[j] = (identity(r), identity(r))
        if j < X.d:
            ratio = X.nygaard_scale(i, j) // X.nygaard_scale(i, j + 1)
            maps[j] = mat_scale(ratio, X.diff_matrix(m, j))
    return terms, maps


def _mod_p_truncated_terms(X, i, w):
    """tau^{<= i}(weight-w block mod p) as a presented complex over Z."""
    terms = {}
    maps = {}
    p = X.p
    for j in range(X.d + 1):
        r = X.rank(j)
        if j > i or r == 0:
            terms[j] = ([], [])
            continue
        gens = identity(r)
        rels = mat_scale(p, identity(r))
        if j == i and j < X.d:
            # canonical truncation: kernel of d mod p in degree i, lifted to
            # Z^r together with the relations p*Z^r
            gens = preimage_mod(X.diff_matrix(w, j), [], p, 1) + rels
        terms[j] = (gens, rels)
        if j < min(i, X.d):
            # no differential out of degree i in the truncation
            maps[j] = X.diff_matrix(w, j)
    return terms, maps


def conjugate_check(X, i, M):
    """Lemma-style check: phi_i mod p: N^i -> tau^{<=i} Omega is a
    quasi-isomorphism per weight class of the box of radius M, certified by
    the acyclicity of its cone mod p; weights outside the image of
    multiplication by p must have acyclic truncation.  Every term on both
    sides is killed by p, so the cohomology mod p is the cohomology itself.
    The report is keyed by the class representatives."""
    p = X.p
    report = {}
    for w in weight_classes(X.d, M):
        tgt = _mod_p_truncated_terms(X, i, w)
        if not all(a % p == 0 for a in w):
            report[w] = {"case": "acyclic", "ok": acyclic_mod(*tgt, p, 1)}
            continue
        m = tuple(a // p for a in w)
        # well-definedness: phi_i(N^{>= i+1}) lies in p * (target)
        well_defined = True
        for j in range(min(i, X.d) + 1):
            Phi = X.divided_frobenius_matrix(i, j)
            incl = X.nygaard_scale(i + 1, j) // X.nygaard_scale(i, j)
            img = mat_scale(incl, Phi)
            if any(x % p for row in img for x in row):
                well_defined = False
        # the ambient map: phi_i on the normalized Nygaard basis
        fmaps = {j: X.divided_frobenius_matrix(i, j) for j in range(X.d + 1)}
        cone = presented_cone(_nygaard_graded_terms(X, i, m), tgt, fmaps)
        report[w] = {"case": "phi_i", "ok": well_defined and acyclic_mod(*cone, p, 1)}
    report["all_ok"] = all(v["ok"] for k, v in report.items() if isinstance(k, tuple))
    return report


# ---------------------------------------------------------------------------
# Nygaard-Frobenius lattice identity (phi(N^{>=i}) = Fil^i eta_p)


def frobenius_eta_check(X, i, M):
    """Exact lattice identity per weight class of the box of radius M: the
    image of N^{>=i} in the weight p*m block equals p^i X  intersect  eta_p X
    there, degree by degree.  The report is keyed by the class
    representatives m.

    Verified over Z, which also gives the identity mod p^n: equal lattices
    have equal spans mod p^n.  PrecisionExhausted above level MAX_LEVEL."""
    if i > MAX_LEVEL:
        raise PrecisionExhausted("Nygaard level %d exceeds cap %d" % (i, MAX_LEVEL))
    p = X.p
    report = {}
    for m in weight_classes(X.d, M):
        block = X.weight_block(tuple(p * a for a in m))
        incl = eta_lattices(block, lambda j: mat_scale(p**j, identity(block.rank(j))))
        ok = True
        for j in range(X.d + 1):
            r = X.rank(j)
            if r == 0:
                continue
            phi_img = mat_scale(X.nygaard_scale(i, j) * p**j, identity(r))
            fil = restrict_lattice(mat_scale(p**i, identity(r)), None, incl[j])
            if not lattice_eq(phi_img, fil):
                ok = False
        report[m] = ok
    report["all_ok"] = all(v for k, v in report.items() if isinstance(k, tuple))
    return report


class QTorusComplex:
    def __init__(self, p, d, N):
        self.p, self.d, self.N = p, d, N
        self.B = QBase(p, N)

    def rank(self, j):
        return comb(self.d, j) if 0 <= j <= self.d else 0

    def exp_rank(self, j):
        return self.N * self.rank(j)

    def basis(self, j):
        return subsets(self.d, j)

    # -- expanded block matrices ---------------------------------------

    def diag(self, j, blk):
        """The N x N block blk on every B summand of degree j."""
        return block_diag(blk, self.rank(j))

    def diff_matrix(self, m, j):
        """Koszul differential on the weight-m block, degree j -> j+1: the
        block +-[m_a]_{q^p} from dlog T_I to dlog T_{I+a}."""
        N = self.N
        blocks = [self.B.mult_matrix(self._qp_integer(k)) for k in m]  # one per coordinate
        M = zeros(N * self.rank(j), N * self.rank(j + 1))
        for r, c, a, sign in koszul_pattern(self.d, j):
            for t, row in enumerate(blocks[a]):
                M[r * N + t][c * N:(c + 1) * N] = row if sign > 0 else [-x for x in row]
        return M

    def _qp_integer(self, k):
        """[k]_{q^p} expanded in the mu-basis: phi([k]_q)."""
        return self.B.phi(self.B.q_integer(k))

    def weight_block(self, m):
        ranks = {j: self.exp_rank(j) for j in range(self.d + 1)}
        diffs = {j: self.diff_matrix(m, j) for j in range(self.d)}
        return Complex(ranks, diffs)

    # -- Frobenius ------------------------------------------------------

    def frobenius_matrix(self, j):
        """phi on degree j (weight m to p*m): coefficientwise phi followed by
        multiplication by xi_tilde^j, blockwise on the dlog basis."""
        B = self.B
        return self.diag(j, mat_mul(B.phi_matrix(), B.mult_matrix(B.pow(B.xi_tilde, j))))

    def nygaard_scale_matrix(self, i, j):
        """Multiplication by xi^{max(i-j,0)} (N x N block)."""
        return self.B.mult_matrix(self.B.pow(self.B.xi, max(i - j, 0)))

    def nygaard_lattice_rows(self, i, j):
        """Rows spanning xi^{max(i-j,0)} B^{rank} inside the expanded block."""
        return self.diag(j, self.nygaard_scale_matrix(i, j))

    def divided_frobenius_matrix(self, i, j):
        """phi_i from normalized Nygaard coordinates to the expanded block at
        weight p*m: phi(xi^{max(i-j,0)} b) = xi_tilde^{max(i-j,0)} phi(b) and a
        twist xi_tilde^j, divided exactly by xi_tilde^i."""
        B = self.B
        # exponent of xi_tilde after division: max(i-j,0) + j - i = max(j-i,0)
        e = max(j - i, 0)
        return self.diag(j, mat_mul(B.phi_matrix(), B.mult_matrix(B.pow(B.xi_tilde, e))))

    def normalized_diff_matrix(self, i, m, j):
        """Nygaard-normalized differential: d(xi^a x) = xi^{a-a'} (x d)."""
        return self.normalize_diff(i, j, self.diff_matrix(m, j))

    def normalize_diff(self, i, j, D):
        """normalized_diff_matrix(i, m, j) from D = diff_matrix(m, j)."""
        a, a1 = max(i - j, 0), max(i - j - 1, 0)
        if a == a1:
            return D
        return mat_mul(D, self.diag(j + 1, self.B.mult_matrix(self.B.pow(self.B.xi, a - a1))))


def build_qtorus(p, d, N):
    if d < 1 or N < 1:
        raise UsageError("the q-torus needs d >= 1 and N >= 1, got d = %d, N = %d" % (d, N))
    return QTorusComplex(p, d, N)


# ---------------------------------------------------------------------------
# structural checks


def specialization_check(X, M=2):
    """q -> 1 collapse: constant coefficients of every block matrix equal the
    integral torus matrices, basis by basis, per weight class of the box of
    radius M (the lemma in the `torus` docstring)."""
    T = build_torus(X.p, X.d)
    for m in weight_classes(X.d, M):
        for j in range(X.d):
            Dq = X.diff_matrix(m, j)
            Dt = T.diff_matrix(m, j)
            rows = X.basis(j)
            cols = X.basis(j + 1)
            for r in range(len(rows)):
                for c in range(len(cols)):
                    # constant coefficient of the (r, c) block
                    got = Dq[r * X.N][c * X.N]
                    if got != Dt[r][c]:
                        return False
    return True


def frobenius_chain_map_check(X, weights):
    """phi is a chain map: phi then d at weight pm equals d at m then phi,
    for each m in weights (qderham passes `weight_classes`, at N >= 2 only).
    It can read false only at N >= 2: at N = 1, phi = p^j and d at pm is p
    times d at m, so both sides are p^{j+1} times the weight-m differential."""
    frob = {j: X.frobenius_matrix(j) for j in range(X.d + 1)}  # weight-free
    for m in weights:
        pm = tuple(X.p * a for a in m)
        for j in range(X.d):
            lhs = mat_mul(frob[j], X.diff_matrix(pm, j))
            rhs = mat_mul(X.diff_matrix(m, j), frob[j + 1])
            if lhs != rhs:
                return False
    return True


def q_nygaard_stability_check(X, i, M=2):
    """d-stability of the xi-power Nygaard lattices per weight class of the
    box of radius M, and their nesting."""
    B = X.B
    # N^{>=i} in degree j and the Hermite basis of N^{>=i} in degree j + 1
    # do not depend on the weight: build them once per degree
    rows = [X.nygaard_lattice_rows(i, j) for j in range(X.d)]
    nexts = [hermite_form(X.nygaard_lattice_rows(i, j + 1)) for j in range(X.d)]
    for m in weight_classes(X.d, M):
        for j in range(X.d):
            if None in _hnf_coordinates(nexts[j], mat_mul(rows[j], X.diff_matrix(m, j))):
                return False
    for j in range(X.d + 1):
        L = X.nygaard_lattice_rows(i, j)
        L1 = X.nygaard_lattice_rows(i + 1, j)
        if not lattice_contains(L, L1):
            return False
        # xi * N^{>= i} inside N^{>= i+1}
        if not lattice_contains(L1, mat_mul(L, X.diag(j, B.mult_matrix(B.xi)))):
            return False
    return True


def q_divided_frobenius_checks(X, i):
    """xi_tilde^i phi_i = phi on Nygaard generators; restriction identity
    phi_i|N^{>=i+1} = xi_tilde phi_{i+1} (matrix identities)."""
    B = X.B
    for j in range(X.d + 1):
        # lhs: normalized coords -> ambient, then multiply by xi_tilde^i
        lhs = mat_mul(X.divided_frobenius_matrix(i, j),
                      X.diag(j, B.mult_matrix(B.pow(B.xi_tilde, i))))
        # rhs: include normalized basis into ambient (xi-powers), apply phi
        incl = X.nygaard_lattice_rows(i, j)
        rhs = mat_mul(incl, X.frobenius_matrix(j))
        if lhs != rhs:
            return False
        # restriction identity in normalized coordinates
        a_i = max(i - j, 0)
        a_i1 = max(i + 1 - j, 0)
        ratio = B.pow(B.xi, a_i1 - a_i)
        lhs2 = mat_mul(X.diag(j, B.mult_matrix(ratio)), X.divided_frobenius_matrix(i, j))
        rhs2 = mat_mul(X.divided_frobenius_matrix(i + 1, j), X.diag(j, B.mult_matrix(B.xi_tilde)))
        if lhs2 != rhs2:
            return False
    return True


# ---------------------------------------------------------------------------
# eta over B and the Nygaard = decalage identification


def eta_lattices_B(X, m, f_elt):
    """Per-degree lattices of (eta_f block)^j = {x in f^j B^r : dx in f^{j+1}}
    for an element f_elt of B acting blockwise; returns dict j -> rows."""
    B = X.B
    return eta_lattices(X.weight_block(m), lambda j: X.diag(j, B.mult_matrix(B.pow(f_elt, j))))


def eta_filtration(X, eta_lat, i_top):
    """fils[i][j] = Fil^i = xi_tilde^i X  intersect  eta in degree j, for
    i = 0..i_top; eta_lat as returned by eta_lattices_B."""
    B = X.B
    fils = {}
    for i in range(i_top + 1):
        fils[i] = {}
        for j in range(X.d + 1):
            fils[i][j] = restrict_lattice(X.diag(j, B.mult_matrix(B.pow(B.xi_tilde, i))),
                                          None, eta_lat[j])
    return fils


def lnu_identification_check(X, i_max, M=2, n_prec=3):
    """Containments and graded quasi-isomorphisms identifying the Nygaard
    filtration with the decalage filtration of eta_{xi_tilde}.

    (a) phi(X_m) lies in eta_{xi_tilde}(X_{pm});
    (b) phi(N^{>=i}) lies in Fil^i = xi_tilde^i X  intersect  eta;
    (c) the graded maps N^i -> gr^i_Fil eta are quasi-isomorphisms at
        precision (n_prec, N): per class, the cone has zero cohomology
        mod p^n_prec after base change along q -> 1.

    Each statement is checked per weight class of the box of radius M (the
    lemma in the `torus` docstring); report["weights"] is keyed by the
    class representatives.
    """
    B = X.B
    report = {"containment": True, "graded": True, "weights": {}}
    # phi and phi on the normalized N^{>=i} coordinates do not depend on the
    # weight: build them once per degree
    frob = {j: X.frobenius_matrix(j) for j in range(X.d + 1)}
    phi_N = {i: {j: mat_mul(X.nygaard_lattice_rows(i, j), frob[j]) for j in frob}
             for i in range(i_max + 1)}
    for m in weight_classes(X.d, M):
        pm = tuple(X.p * a for a in m)
        eta_lat = eta_lattices_B(X, pm, B.xi_tilde)
        # (a) phi of the full block; eta_lat and fils are Hermite bases
        # (`restrict_lattice`), so membership is read off their pivots
        ok_a = True
        for j in range(X.d + 1):
            if X.rank(j) == 0:
                continue
            if None in _hnf_coordinates(eta_lat[j], frob[j]):
                ok_a = False
        fils = eta_filtration(X, eta_lat, i_max + 1)
        ok_b = True
        for i in range(i_max + 1):
            for j in range(X.d + 1):
                if X.rank(j) == 0:
                    continue
                if None in _hnf_coordinates(fils[i][j], phi_N[i][j]):
                    ok_b = False
        # (c) graded quasi-isomorphism via cone acyclicity
        ok_c = True
        for i in range(i_max + 1):
            if not _graded_map_quasi_iso(X, i, m, pm, fils, phi_N[i], n_prec):
                ok_c = False
        report["weights"][m] = {"a": ok_a, "b": ok_b, "c": ok_c}
        if not (ok_a and ok_b):
            report["containment"] = False
        if not ok_c:
            report["graded"] = False
    report["all_ok"] = report["containment"] and report["graded"]
    return report


def _graded_map_quasi_iso(X, i, m, pm, fils, phi_N, n_prec):
    """Whether the cone of phi_i: N^i(m) -> Fil^i/Fil^{i+1} at weight pm is
    acyclic mod p^n_prec after base change along q -> 1; phi_N[j] is phi on
    the normalized N^{>=i} coordinates of degree j.

    Exact cohomology over the non-domain B itself is avoided; the strict
    Z-level statements are the containments (a) and (b).  The q -> 1 fibre
    has finite cohomology, so its rank over Q is 0 and needs no check: once
    mu is killed, every cone term E is killed by p.  Indeed xi = [p]_q and
    xi_tilde = [p]_{q^p} are both p mod mu.  On the source, p*x lies in
    xi*x + mu*B^r, inside the relations.  On the target, xi_tilde*Fil^i lies
    in Fil^{i+1}, because Fil^i = xi_tilde^i X  intersect  eta is a
    B-module, so p*y lies in Fil^{i+1} + mu*Fil^i.  Hence E/p^n E = E for
    n >= 1, and the groups mod p^n_prec are the groups of the fibre over Z."""
    return acyclic_mod(*_graded_cone(X, i, m, pm, fils, phi_N), X.p, n_prec)


def _graded_cone(X, i, m, pm, fils, phi_N):
    """The cone of phi_i: N^i(m) -> Fil^i/Fil^{i+1} at weight pm, with
    mu*gens added to the relations of every term (base change along
    q -> 1)."""
    B = X.B
    # source: normalized N^i presentation
    src_terms = {}
    src_maps = {}
    for j in range(X.d + 1):
        r = X.exp_rank(j)
        if r == 0:
            src_terms[j] = ([], [])
            continue
        if j <= i:
            rels = X.diag(j, B.mult_matrix(B.xi))
        else:
            rels = identity(r)
        src_terms[j] = (identity(r), rels)
        if j < X.d:
            src_maps[j] = X.normalized_diff_matrix(i, m, j)
    tgt_terms = {}
    tgt_maps = {}
    for j in range(X.d + 1):
        tgt_terms[j] = (fils[i][j], fils[i + 1][j])
        if j < X.d and X.rank(j):
            tgt_maps[j] = X.diff_matrix(pm, j)
    # the filtered morphism is phi itself: N^{>=i} -> Fil^i eta; on the
    # normalized source coordinates that is inclusion followed by phi
    terms, maps = presented_cone((src_terms, src_maps), (tgt_terms, tgt_maps), phi_N)
    # the cone ambient is a source block and a target block, both expanded
    # B-modules, so mu acts on it blockwise
    for j, (gens, rels) in terms.items():
        mu = block_diag(B.mult_matrix(B.mu), len(gens[0]) // X.N) if gens else []
        terms[j] = (gens, rels + [row_mul(g, mu) for g in gens])
    return terms, maps


def weight0_on_the_d_torus(X, i, r):
    """The groups of the weight-0 block and its dlog flags.

    ker(A_j) and coker(A_j) are both a Z/p^v per pivot v > 0 of A_j and a
    Z/p^r per missing rank.  The dlog class is e_0 in N^i, the constant
    coefficient of dlog T_1 ^ ... ^ dlog T_i: present when the cocycles
    ker(A_i) + X^{i-1} are nonzero, as for every i >= 1; a cocycle iff row 0
    of A_i is 0 mod p^r.  It is nonzero in H^i whenever present, since the
    boundaries, the image of A_{i-1}, lie in X^{i-1}: nonzero_in_H holds by
    this proof, not by a computation."""
    p, d = X.p, X.d
    exps, A = {}, {}
    for j in range(d + 1):
        A[j] = [[f - c for f, c in zip(fr, cr)] for fr, cr in
                zip(X.divided_frobenius_matrix(i, j), X.nygaard_lattice_rows(i, j))]
        vals, _ = eliminate_mod(A[j], p, r)
        exps[j] = [v for v in vals if v] + [r] * (len(A[j]) - len(vals))
    groups = {t: PGroup(p, tuple(sorted(exps.get(t, []) + exps.get(t - 1, []), reverse=True)))
              for t in range(d + 2)}
    if not 0 <= i <= d or not (i or exps[0]):
        return groups, {"degree": i, "present": False}
    return groups, {"degree": i, "present": True,
                    "cocycle": not any(a % p**r for a in A[i][0]),
                    "nonzero_in_H": True,
                    "phi_fixed": q_dlog_fixed(X.divided_frobenius_matrix(i, i), X.N)}


def q_dlog_fixed(Phi, N):
    """Whether Phi fixes every constant dlog vector: row k*N, the constant
    coefficient of the k-th basis vector dlog T_I, is its own unit vector."""
    I = identity(len(Phi))
    return all(Phi[k] == I[k] for k in range(0, len(Phi), N))


# ---------------------------------------------------------------------------
# syntomic windows in the N-then-X basis order, each presented from scratch


def window_n_then_x(X, i, V, m0=None, top=None):
    """Total complex of fib(phi_i - can) on the window W_V of the orbit of
    m0, in the basis order N^t_0..N^t_V, then X^{t-1}_0..X^{t-1}_{V+1}.

    Degrees t = 0..top, top = d+1 unless given.  Without m0 it is the
    weight-0 block (call it with V = 0): no differentials, and phi maps each
    step to itself.  Every block is fetched from X.  Returns (ranks, diffs,
    basis_info) with basis_info[t] listing labels ("N", s, k) and
    ("X", s, k), as `syntomic._assemble_window` does."""
    d, p = X.d, X.p
    top = d + 1 if top is None else top
    rk = {j: X.exp_rank(j) for j in range(-1, d + 2)}
    orbit = m0 is not None
    steps = {"N": V + 1, "X": V + 2 if orbit else V + 1}
    basis_info = {
        t: [(side, s, k) for side, j in (("N", t), ("X", t - 1))
            for s in range(steps[side]) for k in range(rk[j])]
        for t in range(top + 1)
    }
    ranks = {t: len(labels) for t, labels in basis_info.items()}
    diffs = {}
    for t in range(top):
        # (first source row, target block, matrix, sign) for every block
        placed = []
        phi, can = X.divided_frobenius_matrix(i, t), X.nygaard_lattice_rows(i, t)
        for s in range(steps["N"]):
            row0 = s * rk[t]
            if orbit and t < d:
                m = tuple(p**s * a for a in m0)
                placed.append((row0, ("N", s), X.normalized_diff_matrix(i, m, t), 1))
            placed.append((row0, ("X", s + 1 if orbit else s), phi, 1))
            placed.append((row0, ("X", s), can, -1))
        if orbit and t >= 1:
            for s in range(steps["X"]):
                row0 = steps["N"] * rk[t] + s * rk[t - 1]
                m = tuple(p**s * a for a in m0)
                placed.append((row0, ("X", s), X.diff_matrix(m, t - 1), -1))
        pos = {lab: c for c, lab in enumerate(basis_info[t + 1])}
        D = zeros(ranks[t], ranks[t + 1])
        for row0, (side, s), mat, sign in placed:
            col0 = pos.get((side, s, 0))
            if col0 is None:
                continue  # the target block is outside the window or empty
            for k, row in enumerate(mat):
                for c, a in enumerate(row):
                    if a:
                        D[row0 + k][col0 + c] += sign * a
        diffs[t] = D
    return ranks, diffs, basis_info


def embed_rows(rows, labs_small, labs_big):
    """Rows over the basis labs_small written over labs_big, which holds
    every label of labs_small."""
    pos = {lab: c for c, lab in enumerate(labs_big)}
    out = []
    for row in rows:
        v = [0] * len(labs_big)
        for c, a in enumerate(row):
            if a:
                v[pos[labs_small[c]]] = a
        out.append(v)
    return out


def orbit_contribution_from_scratch(X, m0, i, r, V):
    """The per-degree groups and widenings of `syntomic._orbit_contribution`,
    with every window W_{V+k} assembled and presented from scratch and the
    exponents of consecutive images compared.  Raises NotStabilized with the
    same message."""
    p = X.p
    top = min(i + 2, X.d + 1)
    ranks, diffs, basis0 = window_n_then_x(X, i, V, m0, top)
    K0 = {t: Z for t, (Z, _) in cocycles_boundaries_mod(ranks, diffs, p, r).items()}
    out, k_used, prev = {}, {}, {}
    pending = []
    for t in range(min(top, i + 1) + 1):
        if K0[t]:
            pending.append(t)
        else:
            out[t], k_used[t] = PGroup.zero(p), 0
    k = 1
    while pending and k <= 4:
        ranks, diffs, basis_k = window_n_then_x(X, i, V + k, m0, top)
        pres = cocycles_boundaries_mod(ranks, diffs, p, r)
        for t in list(pending):
            emb = embed_rows(K0[t], basis0[t], basis_k[t])
            cur = quotient_exponents_mod(emb, pres[t][1], p, r)
            if prev.get(t) == cur:
                out[t], k_used[t] = PGroup(p, cur), k
                pending.remove(t)
            else:
                prev[t] = cur
        k += 1
    if pending:
        raise NotStabilized("image chain did not stabilize in degrees %s" % pending, pending)
    return out, k_used


def orbit_contribution_by_two_spans(X, i, r, V, orders=None):
    """`syntomic._orbit_contribution` with span(B_k) and span(pi B_k)
    carried apart: each widening eliminates the pivot rows of both,
    zero-padded by one step group, with the new rows; the order
    -log_p |B_k ∩ W_V| is log_p |pi B_k| - log_p |B_k|, and the group is
    the quotient of K_V, zero-padded to the width of W_{V+k}, by span(B_k).
    The window, its blocks, its new rows and the d*d = 0 check on them are
    those of `syntomic`, looked up at call time, so a test that patches
    `syntomic._tail_rows` patches both.  orders, when given, receives
    (t, order) at every widening, in the engine's order of k, then t."""
    p, q = X.p, X.p**r
    blocks = syntomic._window_blocks(X, i)
    top = min(i + 2, 2)
    rk = {j: X.rank(j) for j in range(-1, 3)}
    ranks, diffs, _ = syntomic._assemble_window(X, i, V, blocks, top)
    pres = cocycles_boundaries_mod(ranks, diffs, p, r)
    out, k_used, prev, pending = {}, {}, {}, []
    for t in range(min(top, i + 1) + 1):
        if pres[t][0]:
            pending.append(t)
        else:
            out[t], k_used[t] = PGroup.zero(p), 0
    span = {t: (pres[t][1], []) for t in pending}
    k = 1
    while pending and k <= 4:
        s = V + k
        for t in list(pending):
            g = rk[t] + rk[t - 1]
            width = ranks[t] + k * g
            new = syntomic._tail_rows(blocks, rk, t - 1, s) if t else []
            if new and t < top:
                D = [[-a for a in x] + [0] * (rk[t + 1] + rk[t]) for x in blocks("X", s, t - 1)]
                D += syntomic._tail_rows(blocks, rk, t, s)
                if any(a % q for row in mat_mul(new, D) for a in row):
                    raise CompositeNonzero(
                        "degree %d: boundaries are not cocycles mod %d" % (t, q))
            new = [[0] * (width - len(row)) + row for row in new]
            pad = [0] * g
            B, piB = ([row + pad for row in rows] for rows in span[t])
            vals, B = eliminate_mod(B + new, p, r)
            pvals, piB = eliminate_mod(piB + [row[ranks[t]:] for row in new], p, r)
            span[t] = B, piB
            order = r * (len(pvals) - len(vals)) - sum(pvals) + sum(vals)
            if orders is not None:
                orders.append((t, order))
            if prev.get(t) == order:
                K = [row + [0] * (width - ranks[t]) for row in pres[t][0]]
                out[t], k_used[t] = PGroup(p, quotient_exponents_mod(K, B, p, r)), k
                pending.remove(t)
            else:
                prev[t] = order
        k += 1
    if pending:
        raise NotStabilized("image chain did not stabilize in degrees %s" % pending, pending)
    return out, k_used


def weight0_from_scratch(X, i, r):
    """`syntomic._weight0` on the d-dimensional model X from its
    presentation in the N-then-X order: the groups, and the dlog flags of
    e_0, the first N-side basis vector of degree i."""
    p = X.p
    ranks, diffs, _ = window_n_then_x(X, i, 0)
    groups = cohomology_mod(ranks, diffs, p, r)
    if not 0 <= i <= X.d:
        return groups, {"degree": i, "present": False}
    K, B = cocycles_boundaries_mod(ranks, diffs, p, r)[i]
    if not K:
        return groups, {"degree": i, "present": False}
    vec = [1] + [0] * (ranks[i] - 1)
    return groups, {"degree": i, "present": True, "cocycle": span_contains_mod(K, vec, p, r),
                    "nonzero_in_H": not span_contains_mod(B, vec, p, r),
                    "phi_fixed": q_dlog_fixed(X.divided_frobenius_matrix(i, i), X.N)}


def orbit_sum_by_the_d_window(X, i, r, M, V):
    """`syntomic._orbit_sum` on the d-dimensional model X from the window of
    the orbit of e_1 on the d-torus itself, presented from scratch, with no
    Künneth sum and no read-off: the weight-0 block plus the window's groups
    once per primitive weight of the box.  Returns (total, dlog, k_used,
    V_used), k_used None at N = 1 as there, and raises NotStabilized as the
    package does, from the image chain first and then from the tail test."""
    d, p = X.d, X.p
    n = len(primitive_weights(d, p, M))
    total, dlog = weight0_from_scratch(X, i, r)
    if not n:
        return total, dlog, {} if X.N > 1 else None, 0
    e1 = (1,) + (0,) * (d - 1)
    contrib, k_used = orbit_contribution_from_scratch(X, e1, i, r, V)
    tail = (X.diff_matrix(tuple(p ** (V + 1) * a for a in e1), t) for t in range(d))
    if any(a % p**r for D in tail for row in D for a in row):
        raise NotStabilized("orbit windows did not certify at V = %d" % V)
    for t, g in contrib.items():
        total[t] = total[t] + n * g
    return total, dlog, k_used if X.N > 1 else None, V + 1


# ---------------------------------------------------------------------------
# property checks of the divided-power algebra


def vp_factorial(m, p):
    """Legendre: v_p(m!) = sum_k floor(m/p^k)."""
    v = 0
    q = p
    while q <= m:
        v += m // q
        q *= p
    return v


def filtration_multiplicativity_check(A, rng, trials=20, nmax=2):
    """Fil_a * Fil_b lies in Fil_{a+b} on random pairs, mod p; the
    conjugate level of a weight w is w // p^{e+1}."""
    fil = conjugate_filtration_spans(A, 2 * nmax + 1)
    for _ in range(trials):
        a = rng.randint(0, nmax)
        b = rng.randint(0, nmax)
        ta = rng.choice(sorted(fil[a])) if fil[a] else None
        tb = rng.choice(sorted(fil[b])) if fil[b] else None
        if ta is None or tb is None:
            continue
        prod = A.mul({ta: 1}, {tb: 1})
        for w in prod:
            if w // (A.pe * A.p) > a + b:
                return False
    return True


def power_by_repeated_multiplication(A, a, k):
    """a^k as k products from one: the reference `PDAlgebra.power`, which
    squares and multiplies, replaced."""
    out = A.one()
    for _ in range(k):
        out = A.mul(out, a)
    return out


def phi_multiplicative_check(A, rng, trials=50):
    """phi(ab) = phi(a) phi(b) on random retained pairs: pairs whose product
    leaves the weight window, read off `mul_monomials`, are skipped."""
    basis = [w for w in A.monomials() if w // A.pe <= A.W // A.p // 2]
    if not basis:
        return True
    for _ in range(trials):
        ma, ca = rng.choice(basis), rng.randrange(1, A.q)
        mb, cb = rng.choice(basis), rng.randrange(1, A.q)
        a, b = {ma: ca}, {mb: cb}
        r = A.mul_monomials(ma, mb)
        if r and r[0] >= A.T and r[1] * ca * cb % A.q:
            continue
        try:
            lhs = A.frobenius(A.mul(a, b))
            rhs = A.mul(A.frobenius(a), A.frobenius(b))
        except TruncationTooTight:
            continue
        if lhs != rhs:
            return False
    return True


def weight_chains_by_search(A):
    """Maximal phi-chains of basis indices, found by searching the set of
    the integer weights l p^e + c of the basis: the reference
    `pdalg._weight_chains`, which writes them in closed form, replaced.  A
    chain starts at each weight that is not p times another weight of the
    basis; weight 0 is fixed by phi and is a chain of its own."""
    p, pe = A.p, A.p**A.e
    weights = {l * pe + c for l in range(A.W + 1) for c in range(pe)}
    chains = []
    for w in sorted(weights):
        if w and not w % p and w // p in weights:
            continue  # not a chain root
        chain = [w]
        while w:
            w *= p
            if w not in weights:
                break
            chain.append(w)
        chains.append(chain)
    return chains


class TwoVariablePD(PDAlgebra):
    """A_crys(S)/p^n for S = F_p[x^{1/p^e}, y^{1/p^e}] / (x, y), truncated
    at total divided-power exponent W: the tensor square of the one-variable
    model, whose product and Frobenius it applies variable by variable.

    A monomial [x^{c/p^e}] x^{[l]} [y^{c'/p^e}] y^{[l']} is the pair (u, v)
    of its weights in each variable, and it is stored as its index t in
    `pairs`, the pairs with l + l' <= W.  T is the number of pairs, and
    the index T stands for every pair beyond the window.  So the bilinear
    `mul`, `power`, `frobenius` and the vectors of `PDAlgebra`, which
    compare indices with T, are inherited."""

    def __init__(self, p, n=1, e=1, W=None):
        W = W if W is not None else 3 * p * p
        self.p, self.n, self.e, self.W = p, n, e, W
        self.pe, self.q = p**e, p**n
        # each variable's phi image weighs below p (W + 1) p^e, so the
        # window of the one-variable factor never cuts it; the total is
        # checked here
        self.factor = PDAlgebra(p, n, e, p * (W + 1))
        one = range((W + 1) * self.pe)
        self.pairs = [(u, v) for u in one for v in one
                      if u // self.pe + v // self.pe <= W]
        self.T = len(self.pairs)
        self._index = {m: t for t, m in enumerate(self.pairs)}
        # per index: the total divided-power exponent, and the total
        # conjugate level, the sum of each variable's floor(l / p)
        self.pd = [u // self.pe + v // self.pe for u, v in self.pairs]
        self.conj = [u // self.pe // p + v // self.pe // p for u, v in self.pairs]

    def index(self, u, v):
        """The index of the pair of weights (u, v), T beyond the window."""
        return self._index.get((u, v), self.T)

    def monomial(self, c, l, coeff=1):
        t = self.index(l[0] * self.pe + c[0], l[1] * self.pe + c[1])
        return {t: coeff % self.q} if t < self.T and coeff % self.q else {}

    def mul_monomials(self, t1, t2):
        (u1, v1), (u2, v2) = self.pairs[t1], self.pairs[t2]
        ru = self.factor.mul_monomials(u1, u2)
        rv = self.factor.mul_monomials(v1, v2)
        if ru is None or rv is None:
            return None
        coeff = ru[1] * rv[1] % self.q
        return (self.index(ru[0], rv[0]), coeff) if coeff else None

    def frobenius_monomial(self, t):
        # v_p of the coefficient is the total exponent, so the image
        # vanishes mod p^n iff that is at least n
        (u, cu), (v, cv) = map(self.factor.frobenius_monomial, self.pairs[t])
        image, l = self.index(u, v), self.pd[t]
        if image == self.T and l < self.n:
            raise TruncationTooTight("phi image of level %d leaves W = %d" % (l, self.W))
        return image, cu * cv


# ---------------------------------------------------------------------------
# the Frobenius on a weight chain as its exact coefficient list
#
# On a weight chain t_0 -> t_1 -> ..., phi is a weighted shift, stored as its
# coefficient list c = (c_0, ..., c_{m-1}): phi(e_k) = c_k e_{k+1}, or
# phi(e_0) = c_0 e_0 with c_0 = 1 on the weight-0 chain [1].  The list is
# exact, not reduced mod p^n, so one list serves every precision:
#
# - phi of the last monomial of a chain other than [1] leaves the window, and
#   the list holds c_{m-1} = 0 there.  At precision N that is right when the
#   monomial has l >= N, since phi of it vanishes mod p^N.  When l < N, phi
#   of it is nonzero mod p^N, and a read at precision N raises
#   TruncationTooTight at the first such chain in root order, as
#   `frobenius_monomial` would.  So each precision decides its own raise from
#   the chain levels.
# - `frobenius_table` builds the lists once for every level of a run.
#
# Over Z/p^n, {x : phi(x) = 0 mod p^i} on a chain is the sum of the
# p^{a_k} Z/p^n e_k with a_k = max(0, i - v_p(c_k)) (i capped at n, v_p(0)
# taken as n): the terms x_k c_k of phi(x) sit on distinct basis vectors.
# `nygaard_exponents` returns the exponent map {k: a_k}.  Whether
# phi(x) = 0 mod p^i depends only on x mod p^i, so one exponent map per level
# serves the precisions n + i and n + i + 1.  These lists are what
# `pdalg.nygaard_graded_image_check`, `pdalg.fiber_group` and
# `pdalg.negative_twist_series` read off the chain levels instead.


def phi_shift(A, idxs):
    """phi on the chain of basis indices idxs as its exact coefficient list
    c, from `frobenius_monomial`: phi(e_k) = c_k e_{k+1}, or c_0 e_0 on a
    chain of one index.  c_k stays 0 where phi(e_k), of weight p t, leaves
    the window; the precision decides whether that is zero or a raise.
    CompositeNonzero when phi leaves the chain or is no such shift."""
    pos = {t: k for k, t in enumerate(idxs)}
    c = [0] * len(idxs)
    for k, t in enumerate(idxs):
        if A.p * t < A.T:
            tt, c[k] = A.frobenius_monomial(t)
            if tt not in pos:
                raise CompositeNonzero("phi leaked out of its weight chain")
            if pos[tt] != (k + 1 if len(idxs) > 1 else 0):
                raise CompositeNonzero("phi-block of a weight chain is not a weighted shift")
    return c


def frobenius_table(A, top):
    """(indices, exact coefficient list) for the weight chain [1] and each
    weight chain of A whose root has l < top, top >= 0, in chain order:
    built once, and read at every level up to top.  Only those roots are
    walked: l < top iff the root lies below top p^e.  At top = 0 the table
    is [1] alone, with phi(1) = 1."""
    return [(idxs, phi_shift(A, idxs)) for idxs in pdalg._weight_chains(A.p, A.T, top * A.pe)]


def nygaard_exponents(c, p, n, i):
    """{k: a_k}: over Z/p^n, {x : phi(x) = 0 mod p^i} on the chain with
    coefficient list c, reduced mod p^n, is the sum of the p^{a_k} Z/p^n e_k,
    with a_k = max(0, i - v_p(c_k)), i capped at n and v_p(0) taken as n; a
    k with a_k = n, whose summand is zero, is left out."""
    i = min(i, n)
    out = {}
    for k, ck in enumerate(c):
        a = max(0, i - _vp(ck, p)) if ck else 0
        if a < n:
            out[k] = a
    return out


def phi_shifts(A, n=None, table=None):
    """(indices, coefficient list mod p^n) for each weight chain of A on
    which phi is nonzero mod p^n, n = A.n unless given, in chain order: those
    whose root has l < n.  The lists come from `table`, a `frobenius_table`
    of A at some top >= n, built here when None.  TruncationTooTight at the
    first of these chains that ends at l < n: phi of its last monomial is
    nonzero mod p^n and leaves the window.  The step the Nygaard check took
    before it read the chains off their levels."""
    n = A.n if n is None else n
    pe, q = A.pe, A.p**n
    out = []
    for idxs, c in frobenius_table(A, n) if table is None else table:
        if idxs[0] // pe < n:
            if idxs[0] and idxs[-1] // pe < n:
                raise TruncationTooTight("phi image of level %d leaves W = %d"
                                         % (idxs[-1] // pe, A.W))
            out.append((idxs, [a % q for a in c]))
    return out


def nygaard_graded_image_check_per_chain(A, i, table=None):
    """`pdalg.nygaard_graded_image_check` as it ran before the level
    read-off: every chain whose root has l < n + i + 1 is read from its
    coefficient list, so `table` must be a `frobenius_table` of A at some
    top >= n + i + 1 (built here when None), and the image is compared with
    the restricted filtration chain by chain."""
    p = A.p
    n, pi = A.n + i + 1, p**i
    fil_idx = pdalg._restricted_conj(A, i)
    shifts = phi_shifts(A, n, table)
    # a chain on which phi is zero has no image and no graded piece, so the
    # image matches the filtration there iff the chain holds none of it
    same = fil_idx <= {t for idxs, _ in shifts for t in idxs}
    dim_src = 0
    dim_img = 0
    for idxs, c in shifts:
        src, src1 = nygaard_exponents(c, p, n, i), nygaard_exponents(c, p, n, i + 1)
        if any(p**a * c[k] % pi for k, a in src.items()):
            raise CompositeNonzero("Nygaard generator not phi-divisible")
        img = {k + 1 if len(c) > 1 else 0 for k, a in src.items() if p**a * c[k] // pi % p}
        if img != {k for k, t in enumerate(idxs) if t in fil_idx}:
            same = False
        dim_img += len(img)
        if any(b < src.get(k, n) for k, b in src1.items()):
            raise CompositeNonzero("N^{>=%d} is not inside N^{>=%d}" % (i + 1, i))
        dim_src += sum(src1.get(k, n) > a for k, a in src.items())
    return {
        "image_matches_fil": same,
        "dim_graded": dim_src,
        "dim_image": dim_img,
        "injective": dim_src == dim_img,
        "ok": same and dim_src == dim_img,
    }


def phi_pth_power_check_per_monomial(A, rng, trials=30):
    """`pdalg.phi_pth_power_check` as it ran before the classes of
    lambda(w): every monomial with l <= W // p is tested, then the same
    random elements, from the same draws."""
    basis, bound = A.monomials(), (A.W // A.p + 1) * A.pe
    elements = [{m: 1} for m in basis[:bound]]
    for _ in range(trials):
        a = {}
        for _ in range(3):
            t = rng.randrange(len(basis))
            if t < bound:
                a = A.add(a, {basis[t]: rng.randrange(A.q)})
        elements.append(a)
    for a in elements:
        try:
            diff = A.add(A.frobenius(a), A.scale(-1, A.power(a, A.p)))
        except TruncationTooTight:
            continue
        if any(c % A.p for c in diff.values()):
            return False
    return True


def conjugate_filtration_description1_per_weight(A, nn, below=None):
    """`pdalg.conjugate_filtration_description1` as it ran before the walk
    by levels: a search over weights from the seeds x^{[l]}, l < (n + 1) p,
    multiplying each new monomial by [x^{1/p^e}] and x, and keeping a
    product inside the window whose coefficient is nonzero mod p."""
    p = A.p
    reached = set(below or ())
    frontier = []
    for l in range(min((nn + 1) * p - 1, A.W) + 1):
        w = l * A.pe
        if w not in reached:
            reached.add(w)
            frontier.append(w)
    multipliers = [1, A.pe] if A.e else [1]
    while frontier:
        nxt = []
        for w in frontier:
            for v in multipliers:
                r = A.mul_monomials(w, v)
                if r and r[0] < A.T and r[1] % p and r[0] not in reached:
                    reached.add(r[0])
                    nxt.append(r[0])
        frontier = nxt
    return reached


def phi_shift_by_monomials(A, idxs):
    """`phi_shift` reduced mod p^n, as it was built before the
    exact lists: `frobenius_monomial` at the precision of A on every index
    of the chain, the last one included, so that TruncationTooTight comes
    from it.  An image beyond the window that does not raise vanishes mod
    p^n.  CompositeNonzero when phi is no weighted shift of the chain."""
    pos = {t: k for k, t in enumerate(idxs)}
    c = []
    for k, t in enumerate(idxs):
        tt, a = A.frobenius_monomial(t)
        if tt < A.T and pos.get(tt) != (k + 1 if len(idxs) > 1 else 0):
            raise CompositeNonzero("phi-block of a weight chain is not a weighted shift")
        c.append(a % A.q)
    return c


def nygaard_graded_image_check_per_level(A, i):
    """`pdalg.nygaard_graded_image_check` as it ran before the shared
    Frobenius table: an algebra at the level's precision n + i + 1, whose
    coefficient lists are built anew by `phi_shift_by_monomials` on the
    chains whose root has l < n + i + 1, so that each raise is the one
    `frobenius_monomial` makes at that precision."""
    p = A.p
    Acmp = PDAlgebra(p, A.n + i + 1, A.e, A.W)
    n, pi = Acmp.n, p**i
    fil_idx = {w for w in range(A.T) if w // (A.pe * p) <= i and w % A.pe % p == 0}
    shifts = [(idxs, phi_shift_by_monomials(Acmp, idxs)) for idxs in _weight_chains(p, Acmp.T)
              if idxs[0] // Acmp.pe < n]
    # a chain on which phi is zero has no image and no graded piece, so the
    # image matches the filtration there iff the chain holds none of it
    same = fil_idx <= {t for idxs, _ in shifts for t in idxs}
    dim_src = 0
    dim_img = 0
    for idxs, c in shifts:
        src, src1 = nygaard_exponents(c, p, n, i), nygaard_exponents(c, p, n, i + 1)
        if any(p**a * c[k] % pi for k, a in src.items()):
            raise CompositeNonzero("Nygaard generator not phi-divisible")
        # the span mod p of the image: the targets of the unit coefficients
        img = {k + 1 if len(c) > 1 else 0 for k, a in src.items() if p**a * c[k] // pi % p}
        if img != {k for k, t in enumerate(idxs) if t in fil_idx}:
            same = False
        dim_img += len(img)
        # an absent k has exponent n, the common precision
        if any(b < src.get(k, n) for k, b in src1.items()):
            raise CompositeNonzero("N^{>=%d} is not inside N^{>=%d}" % (i + 1, i))
        dim_src += sum(src1.get(k, n) > a for k, a in src.items())
    return {
        "image_matches_fil": same,
        "dim_graded": dim_src,
        "dim_image": dim_img,
        "injective": dim_src == dim_img,
        "ok": same and dim_src == dim_img,
    }


# ---------------------------------------------------------------------------
# the Frobenius fixed points of the divided-power algebra, solved


def phi_block(c):
    """The dense phi-block (row convention) of a weight chain with
    coefficient list c (`phi_shift`): row k holds c_k in column
    k + 1, or in column 0 on a chain of one index."""
    m = len(c)
    M = zeros(m, m)
    for k, a in enumerate(c):
        if a:
            M[k][k + 1 if m > 1 else 0] = a
    return M


def module_invariants_mod(gens, p, n):
    """Invariant exponents (largest first) of the Z/p^n-module spanned by
    gens in (Z/p^n)^c: one Z/p^{n-v} per pivot of valuation v."""
    vals, _ = eliminate_mod(gens, p, n)
    return tuple(sorted((n - v for v in vals), reverse=True))


def fixed_points_at(A, i, W):
    """Solve phi(x) = p^i x at internal precision n + i, project to n.

    The internal lift implements the restriction to Nygaard representatives:
    solutions mod p^{n+i} that die mod p^n are window artifacts and vanish
    under the projection.  Returns the invariants and the generators as
    (chain indices, chain-local row) pairs; the generators are the kernel
    rows of `preimage_mod` reduced mod p^n, so only their span is fixed."""
    p = A.p
    n_int = A.n + i
    Aw = PDAlgebra(p, n_int, A.e, W)
    invs = []
    gens = []
    # a zero chain is left out: ker(-p^i) mod p^{n+i} projects to 0 mod p^n
    for idxs, c in phi_shifts(Aw):
        M = phi_block(c)
        for t in range(len(M)):
            M[t][t] -= p**i
        K = preimage_mod(M, [], p, n_int)
        proj = [[a % A.q for a in row] for row in K]
        proj = [row for row in proj if any(row)]
        if proj:
            invs.extend(module_invariants_mod(proj, p, A.n))
            gens.extend((idxs, row) for row in proj)
    return tuple(sorted(invs, reverse=True)), gens


def frobenius_fixed_points(A, i):
    """ker(phi - p^i) on A/p^n within the weight window W, solved chain by
    chain: the reference `pdalg.fiber_group` replaced.

    For i < 0 the group is zero.  For i >= 0 the answer at W is also the
    answer at W + p once W >= n + i, so it is solved once; below that it is
    compared with W + p, and NotStabilized is raised when the invariants
    differ.  At 1 <= W < n + i the solve at W raises TruncationTooTight
    (phi of x_1^{[W]} leaves the window), so only W = 0 reaches the
    comparison.  `certified_by` names the case: "i < 0", "W >= n + i" or
    "W + p"."""
    p = A.p
    if i < 0:
        return {"group": PGroup.zero(p), "generators": [], "certified_by": "i < 0"}
    inv1, K1 = fixed_points_at(A, i, A.W)
    case = "W >= n + i"
    if A.W < A.n + i:
        inv2, _ = fixed_points_at(A, i, A.W + p)
        if inv1 != inv2:
            raise NotStabilized("W = %d gives %s, W = %d gives %s" % (A.W, inv1, A.W + p, inv2))
        case = "W + p"
    gens = [{t: a for t, a in zip(idxs, row) if a} for idxs, row in K1]
    return {"group": PGroup(p, inv1, 0), "generators": gens, "certified_by": case}


# ---------------------------------------------------------------------------
# the syntomic fibre and the negative-twist series, read off the whole basis


def fiber_group_on_the_basis(A, i):
    """`pdalg.fiber_group` at (A.p, A.n, A.e, A.W), read off every weight
    chain of A's basis and the divided-power exponent w // p^e of each
    weight: the reference the read-off from the roots replaced."""
    if i < 0:
        raise UsageError("the fibre group needs i >= 0, got i = %d" % i)
    n, W = A.n, A.W
    if W < n + i:
        raise TruncationTooTight("phi images need W >= n + i = %d, got W = %d" % (n + i, W))
    exps = []
    for idxs in _weight_chains(A.p, A.T):
        if not idxs[0]:  # the weight-0 chain [1]
            if i == 0:
                exps.append(n)
            continue
        end = idxs[-1] // A.pe
        if end < n + i:
            raise TruncationTooTight("phi image of level %d leaves W = %d" % (end, W))
        w = sum(max(0, i - t // A.pe) for t in idxs)
        if w:
            exps.append(min(n, w))
    return PGroup(A.p, tuple(sorted(exps, reverse=True)))


def negative_twist_series_by_blocks(A, i):
    """`pdalg.negative_twist_series` at (A.p, A.n, A.e, A.W), for i < 0:
    the least k with T^k = 0 mod p^n, T = p^{-i} phi, over the dense
    phi-blocks of the chains `phi_shifts` builds, whose raises it
    keeps: the reference the valuation rule replaced."""
    return max([1] + [_nilpotency_index([[A.p**-i * a for a in row] for row in phi_block(c)],
                                        A.p, A.n)
                      for _, c in phi_shifts(A)])
