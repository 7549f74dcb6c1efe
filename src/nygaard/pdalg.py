"""Truncated divided-power algebras and the crystalline period ring model.

For the quasiregular semiperfect ring S = F_p[x^{1/p^e}] / (x), the model of
the (p-completed) divided-power envelope is the free Z/p^n-module on the
monomials

    [x^{c/p^e}] * x^{[l]},    0 <= c < p^e,  0 <= l <= W:

a Teichmuller part of the perfect base times a divided power of x, truncated
at l <= W.  Multiplication merges the integer overflow of the Teichmuller
exponents into the divided power by the exact binomial bookkeeping;
Frobenius acts by p-th powers on the base and by
phi(x^{[l]}) = ((pl)!/l!) x^{[pl]}.

Weight chains.  Scaled by p^e, the weight of [x^{c/p^e}] x^{[l]} is the
integer l p^e + c.  The basis is ordered by l, then by c, so the monomial of
weight w sits at index w, and the weights of the basis are exactly
0, 1, ..., T - 1 with T = (W + 1) p^e.  Frobenius multiplies weights by p
(`frobenius_monomial`).  So phi maps each basis monomial to a multiple of
the monomial of p times its weight, and the basis splits into maximal chains
t_0 -> t_1 -> ..., along which every kernel computation shards.  In closed
form (`_weight_chains`) the chains are [0] and, for each r in 1..T-1 prime
to p, the chain r, rp, rp^2, ... of the r p^k < T.  Proof:

- phi(1) = 1, so weight 0 is a chain of its own.
- A nonzero weight w starts a chain iff it is not p times a weight of the
  basis.  When p divides w, w/p < w < T is a weight of the basis.  So the
  roots are exactly the weights prime to p.
- From a root r the chain runs through the r p^k < T, since every weight
  below T is in the basis, and stops at the first r p^k >= T.
- Every nonzero weight is r p^k for exactly one r prime to p and one k, so
  the chains partition the basis.

The chains depend only on (p, e, W), not on the precision n, so they are
computed once per basis and shared by the copies of an algebra at n, n + i
and n + i + 1.

The phi-block of a chain is therefore a weighted shift: row k has at most one
nonzero entry c_k, in column k + 1.  The one exception is the weight-0 chain,
whose block is the 1x1 block [1].  `_phi_block_matrix` checks this shape when
it builds a block (CompositeNonzero otherwise), and a check builds each block
once and reads every kernel and image of the chain from it.  Four facts about
a chain save work:

- The Nygaard kernel is diagonal.  Over Z/p^n, {x : x M = 0 mod p^i} is
  generated by p^{max(0, i - v_p(c_k))} e_k, one per row k (i capped at n,
  v_p(0) taken as n, rows with exponent n dropped).  Proof: the rows of M
  have their entries in distinct columns, so x M = 0 mod p^i iff
  x_k c_k = 0 mod p^i for every k, i.e. v_p(x_k) >= i - v_p(c_k).  No
  elimination is needed (`_shift_kernel`).
- Whether phi(x) = 0 mod p^i depends only on x mod p^i, because phi is given
  by an integer matrix.  So the generators of {x : phi(x) = 0 mod p^i} at
  precision n + i + 1, reduced mod p^{n+i}, generate the same module at
  precision n + i, and one kernel per level serves both precisions.
- v_p of phi's coefficient on [x^{c/p^e}] x^{[l]} is exactly l
  (`frobenius_monomial`), and l only grows along a chain.  So a chain's
  phi-block vanishes mod p^n iff its root has l >= n, and such a chain is
  known in closed form without building its block (`_phi_blocks` leaves it
  out).  Its Nygaard kernel is the identity at every level and phi_i is zero
  on it.  So in `nygaard_graded_image_check` it has no image and no graded
  piece, and the image matches Fil^conj_i on it iff it holds no index of
  the restricted filtration.
- Description (1) of the conjugate filtration is a closure of seed monomials
  under multiplication.  The seeds of level n contain those of level n - 1,
  and what a closure reaches is the union of what each seed reaches, so
  `conjugate_filtration_equality_check` grows one reached set level by level,
  searching only from the new seeds.

Per-basis tables.  The divided-power exponent l and the conjugate level
floor(l / p) of a basis monomial depend only on the monomial, so `_Basis`
holds them in the lists `pd` and `conj`, indexed like the basis and filled
once where it is built.  The checks below read these lists and recompute
neither.

Spans over Z/p^n come in two kinds.  The conjugate and divided-power
filtrations are spanned by monomials, and so is every span built from them by
multiplying monomials: these are sets of basis indices and are compared as
sets.  The Nygaard filtration and the image of phi_i are read off the
weighted shifts, again without elimination.  A diagonal kernel row
p^a e_k, and its divided image p^{a-i} c_k e_{k+1}, has at most one entry,
and the entries of distinct rows lie in distinct columns.  A set of such
one-entry rows spans the direct sum of p^{a_c} Z/p^n e_c over its columns c,
with a_c the least v_p of an entry in column c (`_single_entries`, which
raises CompositeNonzero on a row with two entries).  So in
`nygaard_graded_image_check`:

- the image of phi_i mod p is spanned by the unit vectors of the columns
  whose entry is a unit mod p, and it equals the restricted Fil^conj_i on a
  chain iff those columns are the chain's filtration indices;
- N^{>=i+1} lies in N^{>=i} iff every column's exponent in the level-(i+1)
  kernel is at least its exponent in the level-i kernel (n + i + 1 when the
  column is absent);
- N^i / N^{i+1} is the sum of the Z/p^{b_c - a_c} over the columns, so its
  number of cyclic factors is the number of columns whose exponent grows.

The syntomic fibre.  Z/p^n(i) on this model is the fibre of
phi_i - can: N^{>=i} -> A over Z/p^n, so H^0 and H^1 are the kernel and the
cokernel of phi_i - can.  Both maps preserve the chains, so the fibre shards
by chain, and `fiber_group` reads it off each chain's Nygaard exponents:

- Setup.  On a chain, phi(e_k) = c_k e_{k+1}, with v_p(c_k) = lambda_k = l_k
  non-decreasing (the facts above).
- The block is square.  N^{>=i} tensor Z/p^n is free on g_k = p^{a_k} e_k,
  with a_k = max(0, i - lambda_k) <= i (the diagonal Nygaard kernel).  So
  the block of phi_i - can is square, and row k is
  -p^{a_k} e_k + unit * p^{max(0, lambda_k - i)} e_{k+1}.
- Kernel and cokernel agree.  A square matrix over Z/p^n has a Smith form
  diag(p^{v_k}), and both its kernel and its cokernel are the sum of the
  Z/p^{v_k}.  So H^0 = H^1.
- The cokernel.  When nothing raises, the last monomial has
  l >= n + i, so phi_i of it vanishes mod p^n and the last row is
  -e_{m-1}.  The e_k with lambda_k >= i form a tail of the chain; row k
  there says e_k = unit * p^{lambda_k - i} e_{k+1}, so each of them is 0.
  Below that, row k says e_{k+1} = unit * p^{i - lambda_k} e_k.  The
  cokernel is therefore cyclic on e_0, of order p^{min(n, w)} with
  w = sum_k max(0, i - lambda_k).  The weight-0 chain [1] is the exception:
  its block is [1 - p^i], which is 0 at i = 0 (giving Z/p^n) and a unit at
  i >= 1 (giving nothing).
- The image mod p.  Mod p, row k is a unit times e_{k+1} when
  lambda_k < i, -e_k + unit * e_{k+1} when lambda_k = i, and -e_k when
  lambda_k > i.  So on a chain other than [1] the image mod p misses
  exactly the root, and only when the root has l < i.  It therefore
  contains Fil^{i+1}_pd, whose monomials have l > i.  It contains
  Fil^conj_{i-1} restricted to the numerators divisible by p unless a root
  with l < i has c divisible by p.  For e >= 1 no root but [1] does: a root
  has weight r prime to p, and c = r mod p^e.  For e = 0 the root x^{[1]}
  does, at every i >= 2.
- Independence of W.  Only monomials with l < i contribute to w, and all
  of them lie in the window once W >= n + i.  A wider window adds only
  monomials with l > W: tails of old chains, and new chains whose roots
  have l > W.  Neither changes any w, and the old tails end at l > W
  too, so every wider window gives the same group.  For W >= 1 a chain end
  with l < n + i raises already, since x^{[W]} ends its chain.  So the
  test W >= n + i adds only W = 0 at e = 0, where the basis is [1] alone and
  x^{[1]} would be missed.
"""

import weakref
from math import comb, factorial
from typing import NamedTuple

from .errors import CompositeNonzero, TruncationTooTight, UsageError
from .linalg import PGroup, _vp, row_mul


class Monomial(NamedTuple):
    """[x^{c/p^e}] * x^{[l]}."""

    c: int  # the Teichmuller numerator, 0 <= c < p^e
    l: int  # the divided-power exponent, >= 0


def _weight_chains(p, top):
    """Maximal phi-chains of the weights 0..top-1, which are the basis
    indices: [0], and r, rp, rp^2, ... below top for each r prime to p
    (module docstring)."""
    chains = [[0]]
    for r in range(1, top):
        if r % p:
            chain = []
            while r < top:
                chain.append(r)
                r *= p
            chains.append(chain)
    return chains


class _Basis:
    """The monomials of one (p, e, W) and what is read off them once."""

    def __init__(self, monomials, p):
        self.monomials = monomials
        self.chains = _weight_chains(p, len(monomials))  # see `orbit_blocks`
        self.pd = [m.l for m in monomials]  # divided-power exponent per index
        self.conj = [m.l // p for m in monomials]  # conjugate level per index


# (p, e, W) -> _Basis.  The basis does not depend on the precision n, so the
# copies of an algebra at n, n + i and n + i + 1 share it.  An entry lives
# exactly as long as some algebra holds its basis.
_BASES = weakref.WeakValueDictionary()


class PDAlgebra:
    """The truncated model of A_crys(S)/p^n, the divided-power envelope with
    Frobenius, for S = F_p[x^{1/p^e}] / (x)."""

    def __init__(self, p, n=1, e=1, W=None):
        W = W if W is not None else 3 * p * p
        if n < 1 or e < 0 or W < 0:
            raise UsageError("PD algebra needs n >= 1, e >= 0, W >= 0; got n=%d e=%d W=%d"
                             % (n, e, W))
        self.p = p
        self.n = n
        self.e = e
        self.W = W
        self.pe = p**e
        self.q = p**n
        key = (p, e, W)
        self._basis = _BASES.get(key)
        if self._basis is None:
            self._basis = _BASES[key] = _Basis(self.monomials(), p)

    # -- monomial basis --------------------------------------------------

    def monomials(self):
        """The basis, ordered by l and then by c: index = weight."""
        return [Monomial(c, l) for l in range(self.W + 1) for c in range(self.pe)]

    def basis(self):
        return self._basis.monomials

    def index(self, m):
        """The basis index of m, which is its weight l p^e + c; None when m
        lies beyond the window."""
        return m.l * self.pe + m.c if m.l <= self.W else None

    def one(self):
        return {Monomial(0, 0): 1}

    def monomial(self, c, l, coeff=1):
        if l > self.W:
            return {}
        return {Monomial(c, l): coeff % self.q} if coeff % self.q else {}

    # -- ring operations --------------------------------------------------

    def add(self, a, b):
        out = dict(a)
        for m, c in b.items():
            v = (out.get(m, 0) + c) % self.q
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return out

    def scale(self, c0, a):
        out = {}
        for m, c in a.items():
            v = (c0 * c) % self.q
            if v:
                out[m] = v
        return out

    def mul_monomials(self, m1, m2):
        """The binomial law: ([x^{c1/p^e}] x^{[l1]}) * ([x^{c2/p^e}] x^{[l2]})
        = (l1 + l2 choose l1) [x]^k [x^{c/p^e}] x^{[l1 + l2]}, with
        c1 + c2 = k p^e + c, and [x]^k x^{[l]} = ((l + k)!/l!) x^{[l + k]},
        where k <= 1.  Returns (monomial, coefficient mod p^n), or None when
        the product vanishes mod p^n.  The monomial may lie beyond weight W;
        callers decide what that means."""
        k, c = divmod(m1.c + m2.c, self.pe)
        l = m1.l + m2.l
        coeff = comb(l, m1.l) * (l + 1 if k else 1) % self.q
        return (Monomial(c, l + k), coeff) if coeff else None

    def mul(self, a, b):
        """Bilinear extension of `mul_monomials`; monomials beyond weight W
        are dropped."""
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                r = self.mul_monomials(m1, m2)
                if r is None:
                    continue
                m, coeff = r[0], r[1] * c1 * c2 % self.q
                if not coeff:
                    continue
                if m.l > self.W:
                    continue
                v = (out.get(m, 0) + coeff) % self.q
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return out

    def power(self, a, k):
        """a^k by square and multiply, as `rings.PolyTrunc.pow`.  Regrouping
        is sound though `mul` drops the monomials with l > W: l never drops
        under the binomial law (`mul_monomials`), so they span an ideal, and
        the truncated product, modulo that ideal, is associative."""
        if not k:
            return self.one()
        while not k & 1:
            a = self.mul(a, a)
            k >>= 1
        out = a
        k >>= 1
        while k:
            a = self.mul(a, a)
            if k & 1:
                out = self.mul(out, a)
            k >>= 1
        return out

    # -- Frobenius --------------------------------------------------------

    def frobenius_monomial(self, m):
        """phi([x^{c/p^e}] x^{[l]}) = ((pl + k)!/l!) [x^{c'/p^e}] x^{[pl + k]},
        where pc = k p^e + c': phi(x^{[l]}) = ((pl)!/l!) x^{[pl]}, and the
        overflow [x]^k merges as in `mul_monomials`.  The image has p times
        the weight.  TruncationTooTight when the image is nonzero mod p^n but
        leaves the window.

        v_p of the coefficient is l: v_p((pl)!/l!) = l by Legendre, and
        (pl + 1)...(pl + k) is a unit, since k < p.  So the image vanishes
        mod p^n iff l >= n, which is tested first."""
        if m.l >= self.n:
            return {}
        k, c = divmod(self.p * m.c, self.pe)
        l = self.p * m.l + k
        if l > self.W:
            raise TruncationTooTight("phi image of weight %d leaves W = %d" % (m.l, self.W))
        return {Monomial(c, l): factorial(l) // factorial(m.l) % self.q}

    def frobenius(self, a):
        out = {}
        for m, c in a.items():
            img = self.frobenius_monomial(m)
            for mm, cc in img.items():
                v = (out.get(mm, 0) + c * cc) % self.q
                if v:
                    out[mm] = v
                else:
                    out.pop(mm, None)
        return out

    # -- vectors -----------------------------------------------------------

    def to_vector(self, a):
        v = [0] * len(self.basis())
        for m, c in a.items():
            v[self.index(m)] = c % self.q
        return v

    def from_vector(self, v):
        return {m: c % self.q for m, c in zip(self.basis(), v) if c % self.q}


# ---------------------------------------------------------------------------
# conjugate filtration


def conjugate_filtration_spans(A, nmax):
    """Fil_n for n <= nmax as monomial index sets, via description (2):
    A-multiples of x^{[pk]} with k <= n."""
    levels = [[] for _ in range(nmax + 1)]
    for t, lv in enumerate(A._basis.conj):
        if lv <= nmax:
            levels[lv].append(t)
    fil = {-1: set()}
    for nn in range(nmax + 1):
        fil[nn] = fil[nn - 1].union(levels[nn])
    return fil


def conjugate_filtration_description1(A, nn, below=None):
    """Fil_n via description (1): the span of the divided powers x^{[l]} of
    the ideal generator with l < (n+1)p, closed under multiplication by base
    monomials.

    Returns the set of basis indices the closure reaches; Fil_n mod p is
    spanned by their unit vectors.  This is exact: every seed and every
    multiplier is a single monomial, so each product is a single monomial
    times a coefficient, and a unit factor mod p never decides whether a later
    product vanishes mod p.  Each monomial is therefore expanded once, with
    coefficient 1, and kept when its coefficient is nonzero mod p.

    `below`, when given, is the closure of level n - 1: the search starts
    from it and expands only the new seeds (module docstring).

    The base monomials [x^{1/p^e}] and x generate the rest, so they are the
    only multipliers: the closure under all [x^{a/p^e}], 0 < a < p^e, is the
    same set.  Proof: [x^{a/p^e}] is the a-th power of [x^{1/p^e}] for
    a < p^e, so a steps by [x^{1/p^e}] from [x^{c/p^e}] x^{[l]} end where one
    step by a does.  Since c + a < 2 p^e, those steps overflow at most once,
    when c + 1 reaches p^e, with the factor l + 1 of `mul_monomials`, the
    factor of the single step; every other step has factor 1.  Every
    intermediate monomial has divided-power exponent l or l + 1, no larger
    than the product's, so it lies in the window whenever the product does.
    Hence the single step keeps its product (a unit mod p, inside the window)
    iff every unit step does."""
    p = A.p
    reached = set(below or ())
    frontier = []
    for l in range(min((nn + 1) * p - 1, A.W) + 1):
        t = l * A.pe  # the index of x^{[l]}
        if t not in reached:
            reached.add(t)
            frontier.append(Monomial(0, l))
    # close under multiplication by [x^{1/p^e}] and x = 1! * x^{[1]}; a
    # product beyond the window has no index and is dropped
    multipliers = [Monomial(1, 0)] if A.e else []
    multipliers.append(Monomial(0, 1))
    while frontier:
        nxt = []
        for m in frontier:
            for v in multipliers:
                r = A.mul_monomials(m, v)
                t = A.index(r[0]) if r else None
                if t is not None and r[1] % p and t not in reached:
                    reached.add(t)
                    nxt.append(r[0])
        frontier = nxt
    return reached


def conjugate_filtration_equality_check(A, nmax=2):
    """Prop-8.11-style: descriptions (1) and (2) span the same submodule mod p
    at every level within the truncation.  Both spans are monomial, so they
    are equal iff their index sets are.  Description (1) grows level by level
    from one closure (module docstring)."""
    fil2 = conjugate_filtration_spans(A, nmax)
    details = {}
    reached = None
    for nn in range(0, nmax + 1):
        reached = conjugate_filtration_description1(A, nn, reached)
        details[nn] = reached == fil2[nn]
    return {"ok": all(details.values()), "levels": details}


# ---------------------------------------------------------------------------
# graded comparison with the divided-power algebra of I/I^2


def conj_graded_map_check(A, nn):
    """Gamma^n_S(I/I^2) -> gr_n^conj(A/p) is bijective up to the truncation.

    Gamma^n has basis x^{[r]} xbar^{[n]} over Fil_0, whose basis is the
    [x^{c/p^e}] x^{[r]} with r < p.  The map scales by the unit
    (pn)!/(p^n n!) and sends x^{[r]} xbar^{[n]} to a unit times
    x^{[r + pn]}, since (r + pn choose r) = 1 mod p by Lucas.  Within the
    truncation both sides are monomial: the source is enumerated from this
    definition, (c, r) with r < p and r + pn <= W, and the target is the
    basis monomials of conjugate level n.  Bijectivity is checked by rank.
    The scaling factor needs no check: the multiples of p in [1, pn]
    multiply to p^n n!, so (pn)!/(p^n n!) is the product of the integers in
    [1, pn] prime to p, a unit mod p."""
    p = A.p
    # target: monomials of conjugate level exactly nn, i.e. floor(l/p) = n,
    # presented as gr = Fil_n / Fil_{n-1}
    tgt = A._basis.conj.count(nn)
    src = [(c, r) for r in range(p) if r + p * nn <= A.W for c in range(A.pe)]
    if len(src) != tgt:
        return {"ok": False, "reason": "rank mismatch", "src": len(src), "tgt": tgt}
    return {"ok": True, "rank": len(src)}


# ---------------------------------------------------------------------------
# Frobenius checks


def phi_pth_power_check(A, rng, trials=30):
    """phi(a) = a^p mod p for monomial generators and random elements."""
    basis, pd, top = A.basis(), A._basis.pd, A.W // A.p
    elements = [{m: 1} for m, lam in zip(basis, pd) if lam <= top]
    for _ in range(trials):
        a = {}
        for _ in range(3):
            t = rng.randrange(len(basis))  # draws as rng.choice(basis) does
            if pd[t] <= top:
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


# ---------------------------------------------------------------------------
# weight chains (module docstring)


def orbit_blocks(A):
    """Lists of basis indices, one per maximal phi-chain of weights; computed
    once per basis and shared, so callers must not modify them."""
    return A._basis.chains


def _phi_block_matrix(A, idxs):
    """phi restricted to the span of the given chain of basis indices (row
    conv.): a weighted shift, checked (module docstring)."""
    basis = A.basis()
    pos = {t: k for k, t in enumerate(idxs)}
    M = [[0] * len(idxs) for _ in idxs]
    for k, t in enumerate(idxs):
        img = A.frobenius_monomial(basis[t])
        for m, c in img.items():
            tt = A.index(m)
            if tt not in pos:
                raise CompositeNonzero("phi leaked out of its weight chain")
            if pos[tt] != (k + 1 if len(idxs) > 1 else 0):
                raise CompositeNonzero("phi-block of a weight chain is not a weighted shift")
            M[k][pos[tt]] = c
    return M


def _phi_vanishes(A, idxs):
    """phi is zero mod p^n on the chain: its root has l >= n (module
    docstring)."""
    return A._basis.pd[idxs[0]] >= A.n


def _phi_blocks(A):
    """(indices, phi-block) for each weight chain of A whose phi-block is
    nonzero, in chain order; the other chains are known in closed form, and
    their blocks are never built (module docstring)."""
    return [(idxs, _phi_block_matrix(A, idxs)) for idxs in orbit_blocks(A)
            if not _phi_vanishes(A, idxs)]


def _divided_phi_rows(rows, Mphi, p, i):
    """phi(x)/p^i for each row x, with phi given by its block matrix Mphi;
    CompositeNonzero when some phi(x) is not divisible by p^i."""
    pi = p**i
    out = []
    for row in rows:
        img = row_mul(row, Mphi)
        if any(a % pi for a in img):
            raise CompositeNonzero("Nygaard generator not phi-divisible")
        out.append([a // pi for a in img])
    return out


def _shift_kernel(M, p, n, i):
    """Generators over Z/p^n of {x : x M = 0 mod p^i} for a phi-block M with
    at most one nonzero entry per row and per column: the diagonal rows
    p^{max(0, i - v_p(M_k))} e_k (module docstring), without elimination."""
    q = p**n
    i = min(i, n)
    out = []
    for k, row in enumerate(M):
        c = next((a % q for a in row if a % q), 0)
        a = max(0, i - _vp(c, p)) if c else 0
        if a < n:
            v = [0] * len(M)
            v[k] = p**a
            out.append(v)
    return out


def _nygaard_kernel_blocks(A2, i, blocks):
    """Per weight chain: (indices, block-local generators over Z/p^{A2.n} of
    {x : phi(x) = 0 mod p^i}), read off the chain's phi-block.  `blocks`
    are the (indices, phi-block) pairs of `_phi_blocks(A2)`, built once by a
    caller that reads the blocks too.  The chains left out there have a zero
    phi-block, whose kernel is the whole chain."""
    return [(idxs, _shift_kernel(M, A2.p, A2.n, i)) for idxs, M in blocks]


def _single_entries(rows, q, p):
    """{column: least v_p} over rows that each have at most one entry
    nonzero mod q, i.e. their span over Z/q, read off without elimination;
    CompositeNonzero when a row has two (module docstring)."""
    out = {}
    for row in rows:
        hits = [(c, a % q) for c, a in enumerate(row) if a % q]
        if len(hits) > 1:
            raise CompositeNonzero("row with two entries where a weighted shift has one")
        if hits:
            c, v = hits[0][0], _vp(hits[0][1], p)
            out[c] = min(out.get(c, v), v)
    return out


def nygaard_graded_image_check(A, i):
    """phi_i mod p on N^i is injective with image Fil^conj_i (within W).

    At finite perfection depth e the Frobenius image only reaches Teichmuller
    numerators divisible by p (depth e-1), so the comparison intersects the
    conjugate filtration with that sublattice; at e = infinity (genuine
    semiperfect base) the restriction is vacuous.  Everything shards by
    weight chain: phi preserves the chains and the filtration is monomial.
    Per chain, the image and the filtration are compared mod p, and the
    graded piece N^i / N^{i+1} is read off at the common precision n + i + 1,
    where N^{i+1} must lie inside N^i.  Two kernels per level suffice:
    phi(x) = 0 mod p^i depends only on x mod p^i, so the level-i kernel at
    n + i + 1 reduced mod p^{n+i} is the level-i kernel at n + i, and the
    image phi(x)/p^i mod p, which depends only on x mod p^{i+1}, is read off
    from it directly.  Both kernels and the image come from one phi-block per
    chain, and every span is read off their one-entry rows, with no
    elimination (module docstring)."""
    p = A.p
    Acmp = PDAlgebra(p, A.n + i + 1, A.e, A.W)
    fil_idx = {
        t for t, (m, lv) in enumerate(zip(A.basis(), A._basis.conj))
        if lv <= i and m.c % p == 0
    }
    blocks = _phi_blocks(Acmp)
    # a chain whose phi-block is zero has no image and no graded piece, so
    # the image matches the filtration there iff the chain holds none of it
    same = fil_idx <= {t for idxs, _ in blocks for t in idxs}
    dim_src = 0
    dim_img = 0
    for (idxs, Ki), (_, Ki1), (_, M) in zip(_nygaard_kernel_blocks(Acmp, i, blocks),
                                             _nygaard_kernel_blocks(Acmp, i + 1, blocks), blocks):
        src, src1 = _single_entries(Ki, Acmp.q, p), _single_entries(Ki1, Acmp.q, p)
        # the span mod p of the image: the columns holding a unit
        img = set(_single_entries(_divided_phi_rows(Ki, M, p, i), p, p))
        if img != {k for k, t in enumerate(idxs) if t in fil_idx}:
            same = False
        dim_img += len(img)
        # graded dimension at the common precision n+i+1: an absent column
        # has exponent n+i+1
        if any(v < src.get(c, Acmp.n) for c, v in src1.items()):
            raise CompositeNonzero("N^{>=%d} is not inside N^{>=%d}" % (i + 1, i))
        dim_src += sum(src1.get(c, Acmp.n) > v for c, v in src.items())
    return {
        "image_matches_fil": same,
        "dim_graded": dim_src,
        "dim_image": dim_img,
        "injective": dim_src == dim_img,
        "ok": same and dim_src == dim_img,
    }


# ---------------------------------------------------------------------------
# the syntomic fibre


def fiber_group(A, i):
    """H^0 = H^1 of fib(phi_i - can: N^{>=i} -> A) over Z/p^n, for i >= 0:
    the sum over the weight chains of Z/p^{min(n, w)}, with
    w = sum_k max(0, i - l_k) over the chain's monomials, where the
    weight-0 chain [1] gives Z/p^n at i = 0 and nothing at i >= 1 (module
    docstring).  No phi-block is built and nothing is eliminated.

    TruncationTooTight when W < n + i, or when a chain other than [1] ends
    at a monomial with l < n + i: phi of that monomial is nonzero mod
    p^{n+i} and leaves the window."""
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
        # l does not decrease along the chain
        w = 0
        for t in idxs:
            lam = pd[t]
            if lam >= i:
                break
            w += i - lam
        if w:
            exps.append(min(n, w))
    return PGroup(A.p, tuple(sorted(exps, reverse=True)))


# ---------------------------------------------------------------------------
# the span identity behind the surjectivity of phi_i - 1


def span_identity_check(A, j):
    """Fil^conj_{j-1} + Fil^{pj}_pd covers the whole algebra mod p.

    Both sides are monomial spans: a monomial escapes Fil^conj_{j-1} exactly
    when floor(l/p) >= j, which forces l >= pj."""
    if j < 1:
        raise UsageError("span identity needs j >= 1, got %d" % j)
    return all(lv <= j - 1 or lam >= A.p * j for lv, lam in zip(A._basis.conj, A._basis.pd))
