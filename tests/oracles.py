"""Oracles the tests check live code against, kept out of the package
because no command uses them: enumerations that a proven symmetry replaces,
a canonical form, further coefficient rings and the universal polynomials of
Witt-vector arithmetic, the kernel and the preimage of a lattice and the
solutions of x*M = y computed on their own, cohomology of a complex of free
Z-modules and, as groups, of a complex of presented groups mod p^r, the
syntomic windows presented from scratch, property checks of the
divided-power algebra, its powers by repeated multiplication, its weight
chains found by search, its two-variable model as the tensor square of the
one-variable one, its Frobenius on a weight chain built monomial by monomial
and as a dense block, its Nygaard check at a precision of its own per level,
its Frobenius fixed points solved by elimination and its syntomic fibre and
negative-twist series read off the whole basis.  `src_env` is the environment
of a python subprocess that imports the package from this source tree."""

import os
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path
from types import SimpleNamespace

from nygaard.errors import CompositeNonzero, NotStabilized, RingError, UsageError
from nygaard.linalg import (
    PGroup,
    _hnf_coordinates,
    _vp,
    cocycles_boundaries_mod,
    cohomology_invariants,
    eliminate_mod,
    hermite_form,
    identity,
    mat_copy,
    mat_mul,
    preimage_mod,
    quotient_exponents_mod,
    row_mul,
    span_exponent_mod,
    zeros,
)
from nygaard.pdalg import (
    PDAlgebra,
    TruncationTooTight,
    _nygaard_exponents,
    _phi_shifts,
    conjugate_filtration_spans,
    orbit_blocks,
)
from nygaard.qbase import _binom
from nygaard.rings import PolyTrunc
from nygaard.syntomic import (
    _nilpotency_index,
    _orbit_contribution,
    _q_tail_vanishes,
    _weight0,
    _window_blocks,
)


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
# each takes its pow, square and multiply over its mul and one, from PolyTrunc


class ZRing:
    """The integers, their own exact cover."""

    zero = 0
    one = 0 + 1

    pow = PolyTrunc.pow

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

    pow = PolyTrunc.pow

    def cover(self, L):
        return ZRing()

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

    pow = PolyTrunc.pow

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


def presented_cohomology_mod(terms, maps, p, r):
    """Cohomology of a complex of presented groups tensored with Z/p^r, as
    groups: the rels and the images of the Hermite rows of the gens are
    written in the Hermite coordinates of the gens, and cohomology_mod does
    the rest.  terms and maps are as in linalg.presented_complex_cohomology.
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
        raise NotStabilized("image chain did not stabilize in degrees %s" % pending)
    return out, k_used


def orbit_sum_by_the_d_window(X, i, r, M, V):
    """`syntomic._orbit_sum` from the window of the orbit of e_1 on the
    d-torus itself, with no Künneth sum and no read-off: the weight-0 block
    plus the engine's groups once per primitive weight of the box.  Returns
    (total, dlog, k_used, V_used), k_used None at N = 1 as there, and raises
    NotStabilized as the engine does, from the image chain first and then
    from the tail test."""
    d = X.d
    n = len(primitive_weights(d, X.p, M))
    total, dlog = _weight0(X, i, r)
    if not n:
        return total, dlog, {} if X.N > 1 else None, 0
    e1 = (1,) + (0,) * (d - 1)
    blocks = _window_blocks(X, i, e1)
    contrib, k_used = _orbit_contribution(X, e1, i, r, V, blocks=blocks)
    if not _q_tail_vanishes(X, r, V, blocks):
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
    basis = [w for w in A.basis() if w // A.pe <= A.W // A.p // 2]
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
        pd = self.factor._basis.pd
        one = range((W + 1) * self.pe)
        self.pairs = [(u, v) for u in one for v in one if pd[u] + pd[v] <= W]
        self.T = len(self.pairs)
        self._index = {m: t for t, m in enumerate(self.pairs)}
        self._basis = SimpleNamespace(
            monomials=range(self.T),
            pd=[pd[u] + pd[v] for u, v in self.pairs],
            conj=[pd[u] // p + pd[v] // p for u, v in self.pairs],
        )

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
        image, l = self.index(u, v), self._basis.pd[t]
        if image == self.T and l < self.n:
            raise TruncationTooTight("phi image of weight %d leaves W = %d" % (l, self.W))
        return image, cu * cv


def phi_shift_by_monomials(A, idxs):
    """`pdalg._phi_shift` reduced mod p^n, as it was built before the
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
    fil_idx = {w for w, lv in enumerate(A._basis.conj) if lv <= i and w % A.pe % p == 0}
    shifts = [(idxs, phi_shift_by_monomials(Acmp, idxs)) for idxs in orbit_blocks(Acmp)
              if Acmp._basis.pd[idxs[0]] < n]
    # a chain on which phi is zero has no image and no graded piece, so the
    # image matches the filtration there iff the chain holds none of it
    same = fil_idx <= {t for idxs, _ in shifts for t in idxs}
    dim_src = 0
    dim_img = 0
    for idxs, c in shifts:
        src, src1 = _nygaard_exponents(c, p, n, i), _nygaard_exponents(c, p, n, i + 1)
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
    coefficient list c (`pdalg._phi_shift`): row k holds c_k in column
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
    for idxs, c in _phi_shifts(Aw):
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
    basis = A.basis()
    gens = [{basis[t]: a for t, a in zip(idxs, row) if a} for idxs, row in K1]
    return {"group": PGroup(p, inv1, 0), "generators": gens, "certified_by": case}


# ---------------------------------------------------------------------------
# the syntomic fibre and the negative-twist series, read off the whole basis


def fiber_group_on_the_basis(A, i):
    """`pdalg.fiber_group` at (A.p, A.n, A.e, A.W), read off every weight
    chain of A's basis and its table of divided-power exponents: the
    reference the read-off from the roots replaced."""
    if i < 0:
        raise UsageError("the fibre group needs i >= 0, got i = %d" % i)
    n, W = A.n, A.W
    if W < n + i:
        raise TruncationTooTight("phi images need W >= n + i = %d, got W = %d" % (n + i, W))
    pd = A._basis.pd
    exps = []
    for idxs in orbit_blocks(A):
        if not idxs[0]:  # the weight-0 chain [1]
            if i == 0:
                exps.append(n)
            continue
        end = pd[idxs[-1]]
        if end < n + i:
            raise TruncationTooTight("phi image of weight %d leaves W = %d" % (end, W))
        w = sum(max(0, i - pd[t]) for t in idxs)
        if w:
            exps.append(min(n, w))
    return PGroup(A.p, tuple(sorted(exps, reverse=True)))


def negative_twist_series_by_blocks(A, i):
    """`pdalg.negative_twist_series` at (A.p, A.n, A.e, A.W), for i < 0:
    the least k with T^k = 0 mod p^n, T = p^{-i} phi, over the dense
    phi-blocks of the chains `pdalg._phi_shifts` builds, whose raises it
    keeps: the reference the valuation rule replaced."""
    return max([1] + [_nilpotency_index([[A.p**-i * a for a in row] for row in phi_block(c)],
                                        A.p, A.n)
                      for _, c in _phi_shifts(A)])
