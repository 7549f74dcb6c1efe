"""Truncated divided-power algebras and the crystalline period ring model.

For a quasiregular semiperfect presentation S = F_p[x_1^{1/p^e},...,x_g^{1/p^e}]
/ (x_1,...,x_g), the model of the (p-completed) divided-power envelope is the
free Z/p^n-module on monomials

    [x^c] * prod_j x_j^{[l_j]},

where c has fractional entries a/p^e in [0,1) (Teichmuller part of the perfect
base) and l_j >= 0 are the divided-power exponents, truncated at total weight
sum(l) <= W.  Multiplication merges integer overflow of Teichmuller exponents
into divided powers via the exact binomial bookkeeping; Frobenius acts by
p-th powers on the base and by phi(x^{[l]}) = ((pl)!/l!) x^{[pl]}.

Weight chains.  Scaled by p^e, the weight of a monomial is the integer vector
c + l * p^e, one entry per variable; distinct monomials have distinct
weights, and Frobenius multiplies weights by p.  So phi maps each basis
monomial to a multiple of the monomial of p times its weight, and the basis
splits into maximal chains t -> phi(t) -> ..., along which every kernel
computation shards.  The chains depend only on (p, g, e, W), not on the
precision n, so they are computed once per basis and shared by the copies of
an algebra at n, n + i and n + i + 1.  Two facts about a chain save work:

- Whether phi(x) = 0 mod p^i depends only on x mod p^i, because phi is given
  by an integer matrix.  So the generators of {x : phi(x) = 0 mod p^i} at
  precision n + i + 1, reduced mod p^{n+i}, generate the same module at
  precision n + i, and one kernel per level serves both precisions.
- When the phi-block of a chain vanishes at the working precision, every x
  satisfies phi(x) = 0 mod p^i, so the Nygaard kernel of the chain is the
  identity (which is what elimination returns), and ker(phi - p^i) =
  ker(-p^i) mod p^{n+i} is p^n times the chain, which projects to 0 mod p^n.
  Such chains skip elimination.

Spans over Z/p^n come in two kinds.  The conjugate and divided-power
filtrations are spanned by monomials, and so is every span built from them by
multiplying monomials: these are sets of basis indices and are compared as
sets.  The Nygaard filtration and the images of phi_i - 1 are general
submodules; they are computed per weight chain by the local-ring routines of
`linalg` (`preimage_mod`, `span_exponent_mod`, `quotient_exponents_mod`) and
compared by order: span(A) = span(B) iff |A| = |B| = |A + B|.
"""

import weakref
from dataclasses import dataclass
from math import comb, factorial

from .errors import (
    CompositeNonzero,
    NotStabilized,
    PrecisionExhausted,
    TruncationTooTight,
    UsageError,
)
from .linalg import (
    PGroup,
    howell_form,
    identity,
    kernel_mod,
    mat_is_zero,
    mat_scale,
    module_invariants_mod,
    preimage_mod,
    quotient_exponents_mod,
    row_mul,
    span_exponent_mod,
)


def vp_factorial(m, p):
    """Legendre: v_p(m!) = sum_k floor(m/p^k)."""
    v = 0
    q = p
    while q <= m:
        v += m // q
        q *= p
    return v


@dataclass(frozen=True)
class Monomial:
    """[x^c] * prod x_j^{[l_j]}; c entries are numerators over p^e."""

    c: tuple  # length g, integers 0 <= c_j < p^e
    l: tuple  # length g, integers >= 0

    def total_pd_weight(self):
        return sum(self.l)


@dataclass(eq=False)
class _Basis:
    monomials: list
    index: dict  # monomial -> its position in monomials
    chains: list  # maximal phi-chains of basis indices, see `orbit_blocks`


# (p, g, e, W) -> _Basis, held only while an algebra uses it.  The basis does
# not depend on the precision n, so the copies of an algebra at n + i and
# n + i + 1 share it.
_BASES = weakref.WeakValueDictionary()


class PDAlgebra:
    """The truncated model of the divided-power envelope, with Frobenius."""

    def __init__(self, p, g=1, n=1, e=1, W=None):
        if n < 1 or e < 0 or g < 1:
            raise UsageError("PD algebra needs n >= 1, e >= 0, g >= 1; got n=%d e=%d g=%d"
                             % (n, e, g))
        self.p = p
        self.g = g
        self.n = n
        self.e = e
        self.W = W if W is not None else 3 * p * p
        self.q = p**n
        key = (p, g, e, self.W)
        self._basis = _BASES.get(key)
        if self._basis is None:
            basis = self.monomials()
            self._basis = _BASES[key] = _Basis(
                basis, {m: t for t, m in enumerate(basis)}, _weight_chains(basis, p, e)
            )

    # -- monomial basis --------------------------------------------------

    def monomials(self):
        out = []
        pe = self.p**self.e

        def rec(j, c, l, wleft):
            if j == self.g:
                out.append(Monomial(tuple(c), tuple(l)))
                return
            for lj in range(wleft + 1):
                for cj in range(pe):
                    rec(j + 1, c + [cj], l + [lj], wleft - lj)

        rec(0, [], [], self.W)
        return out

    def basis(self):
        return self._basis.monomials

    def index(self):
        return self._basis.index

    def zero(self):
        return {}

    def one(self):
        return {Monomial((0,) * self.g, (0,) * self.g): 1}

    def monomial(self, c, l, coeff=1):
        m = Monomial(tuple(c), tuple(l))
        if m.total_pd_weight() > self.W:
            return {}
        return {m: coeff % self.q} if coeff % self.q else {}

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

    def _merge_var(self, c1, l1, c2, l2):
        """Combine one variable: ([x^{c1/p^e}] x^{[l1]}) * ([x^{c2/p^e}] x^{[l2]}).

        Returns (c, l, coeff) or None when truncated away."""
        p, e = self.p, self.e
        pe = p**e
        c = c1 + c2
        k, c = divmod(c, pe)  # integer overflow k goes into divided powers
        coeff = comb(l1 + l2, l1)
        l = l1 + l2
        if k:
            # [x]^k * x^{[l]} = ((l+k)!/l!) x^{[l+k]}
            num_v = vp_factorial(l + k, p) - vp_factorial(l, p)
            if num_v >= self.n:
                return None  # the coefficient vanishes mod p^n
            coeff *= factorial(l + k) // factorial(l)
            l += k
        return c, l, coeff

    def mul(self, a, b, strict=False):
        """Bilinear extension of the binomial law; monomials beyond weight W
        are dropped (flagged when strict)."""
        out = {}
        truncated = False
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                coeff = c1 * c2
                cs, ls = [], []
                dead = False
                for j in range(self.g):
                    r = self._merge_var(m1.c[j], m1.l[j], m2.c[j], m2.l[j])
                    if r is None:
                        dead = True
                        break
                    cj, lj, extra = r
                    coeff *= extra
                    cs.append(cj)
                    ls.append(lj)
                if dead or coeff % self.q == 0:
                    continue
                m = Monomial(tuple(cs), tuple(ls))
                if m.total_pd_weight() > self.W:
                    truncated = True
                    continue
                v = (out.get(m, 0) + coeff) % self.q
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        if strict and truncated:
            raise TruncationTooTight("product leaves the weight window")
        return out

    def eq(self, a, b):
        return a == b

    def power(self, a, k):
        out = self.one()
        for _ in range(k):
            out = self.mul(out, a)
        return out

    # -- Frobenius --------------------------------------------------------

    def frobenius_monomial(self, m):
        """phi([x^c] prod x^{[l]}) as an element; may raise TruncationTooTight
        when a non-vanishing image leaves the weight window."""
        p = self.p
        out_c, out_l, coeff = [], [], 1
        for j in range(self.g):
            cj = m.c[j] * p
            pe = p**self.e
            k, cj = divmod(cj, pe)
            lj = m.l[j]
            # phi(x^{[l]}) = ((pl)!/l!) x^{[pl]}
            v = vp_factorial(p * lj, p) - vp_factorial(lj, p)  # = lj
            newl = p * lj
            if v >= self.n:
                return {}
            coeff *= factorial(p * lj) // factorial(lj)
            if k:
                num_v = vp_factorial(newl + k, p) - vp_factorial(newl, p)
                if v + num_v >= self.n:
                    return {}
                coeff *= factorial(newl + k) // factorial(newl)
                newl += k
            out_c.append(cj)
            out_l.append(newl)
        mm = Monomial(tuple(out_c), tuple(out_l))
        if mm.total_pd_weight() > self.W:
            if coeff % self.q:
                raise TruncationTooTight(
                    "phi image of weight %d leaves W = %d" % (m.total_pd_weight(), self.W)
                )
            return {}
        return {mm: coeff % self.q} if coeff % self.q else {}

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

    def to_vector(self, a, basis=None, index=None):
        basis = basis or self.basis()
        index = index or self.index()
        v = [0] * len(basis)
        for m, c in a.items():
            v[index[m]] = c % self.q
        return v

    def from_vector(self, v, basis=None):
        basis = basis or self.basis()
        return {m: c % self.q for m, c in zip(basis, v) if c % self.q}


def acrys(p, g=1, n=1, e=1, W=None):
    """The truncated model of A_crys(S)/p^n for S = perfect truncation mod
    the regular sequence of variables."""
    return PDAlgebra(p, g, n, e, W)


# ---------------------------------------------------------------------------
# conjugate filtration


def conj_level(m, p):
    """The conjugate level of a monomial: sum_j floor(l_j / p)."""
    return sum(lj // p for lj in m.l)


def conjugate_filtration_spans(A, nmax=None):
    """Fil_n as monomial index sets, via description (2): A-multiples of
    prod x^{[p k_j]} with sum k <= n."""
    nmax = nmax if nmax is not None else A.W // A.p + 1
    fil = {}
    for nn in range(-1, nmax + 1):
        fil[nn] = set()
    for t, m in enumerate(A.basis()):
        lv = conj_level(m, A.p)
        for nn in range(lv, nmax + 1):
            fil[nn].add(t)
    fil[-1] = set()
    return fil


def conjugate_filtration_description1(A, nn):
    """Fil_n via description (1): the span of divided-power products
    a_1^{[l_1]} ... a_m^{[l_m]} with a_i ideal generators and sum l < (n+1)p,
    closed under multiplication by base monomials.

    Returns the set of basis indices the closure reaches; Fil_n mod p is
    spanned by their unit vectors.  This is exact: every seed and every
    multiplier is a single monomial, so each product is a single monomial
    times a coefficient, and a unit factor mod p never decides whether a later
    product vanishes mod p.  Each monomial is therefore expanded once, with
    coefficient 1, and kept when its coefficient is nonzero mod p."""
    p = A.p
    index = A.index()

    def gen_products(j, l_acc, budget):
        if j == A.g:
            yield tuple(l_acc)
            return
        for lj in range(budget + 1):
            yield from gen_products(j + 1, l_acc + [lj], budget - lj)

    frontier = []
    for l in gen_products(0, [], min((nn + 1) * p - 1, A.W)):
        frontier.extend(A.monomial((0,) * A.g, l))
    # close under multiplication by the variables and Teichmuller monomials
    multipliers = []
    pe = p**A.e
    for j in range(A.g):
        for a in range(1, pe):
            c = [0] * A.g
            c[j] = a
            multipliers.append(A.monomial(c, (0,) * A.g))
        c = [0] * A.g
        l = [0] * A.g
        l[j] = 1
        # x_j itself = 1! * x_j^{[1]}
        multipliers.append(A.monomial(c, l))
    reached = {index[m] for m in frontier}
    while frontier:
        nxt = []
        for m in frontier:
            for v in multipliers:
                for mm, c in A.mul({m: 1}, v).items():
                    t = index[mm]
                    if c % p and t not in reached:
                        reached.add(t)
                        nxt.append(mm)
        frontier = nxt
    return reached


def conjugate_filtration_equality_check(A, nmax=2):
    """Prop-8.11-style: descriptions (1) and (2) span the same submodule mod p
    at every level within the truncation.  Both spans are monomial, so they
    are equal iff their index sets are."""
    fil2 = conjugate_filtration_spans(A, nmax)
    details = {nn: conjugate_filtration_description1(A, nn) == fil2[nn]
               for nn in range(0, nmax + 1)}
    return {"ok": all(details.values()), "levels": details}


def filtration_multiplicativity_check(A, rng, trials=20, nmax=2):
    """Fil_a * Fil_b lies in Fil_{a+b} on random pairs, mod p."""
    fil = conjugate_filtration_spans(A, 2 * nmax + 1)
    basis = A.basis()
    for _ in range(trials):
        a = rng.randint(0, nmax)
        b = rng.randint(0, nmax)
        ta = rng.choice(sorted(fil[a])) if fil[a] else None
        tb = rng.choice(sorted(fil[b])) if fil[b] else None
        if ta is None or tb is None:
            continue
        prod = A.mul({basis[ta]: 1}, {basis[tb]: 1})
        for m in prod:
            if conj_level(m, A.p) > a + b:
                return False
    return True


# ---------------------------------------------------------------------------
# graded comparison with the divided-power algebra of I/I^2


def conj_graded_map_check(A, nn):
    """Gamma^n_S(I/I^2) -> gr_n^conj(A/p) is bijective up to the truncation.

    Gamma^n has basis [x^c] prod xbar_j^{[k_j]} with sum k = n; the map scales
    by the units (pk)!/(p^k k!) and sends xbar^{[k]} to x^{[pk]}.  Within the
    truncation both sides are monomial; bijectivity is checked stratum by
    stratum together with the unit property of the scaling factors."""
    p = A.p
    basis = A.basis()
    # target: monomials of conjugate level exactly nn, i.e. sum floor(l/p) = n,
    # presented as gr = Fil_n / Fil_{n-1}
    tgt = [m for m in basis if conj_level(m, p) == nn]
    # source: [x^c] prod xbar^{[k]} with sum k = nn and l-part < p free;
    # a Gamma-basis element corresponds to (c, r, k) with l = r + p k, r_j < p
    src = []
    for m in basis:
        if all(lj // p >= 0 for lj in m.l):
            k = tuple(lj // p for lj in m.l)
            r = tuple(lj % p for lj in m.l)
            if sum(k) == nn:
                src.append((m.c, r, k))
    if len(src) != len(tgt):
        return {"ok": False, "reason": "rank mismatch", "src": len(src), "tgt": len(tgt)}
    # unit scaling factors must be p-adic units
    for k in {kk for (_, _, kk) in src}:
        for kj in k:
            u = factorial(p * kj) // (p**kj * factorial(kj))
            if u % p == 0:
                return {"ok": False, "reason": "scaling factor not a unit"}
    return {"ok": True, "rank": len(src)}


# ---------------------------------------------------------------------------
# Frobenius checks


def phi_pth_power_check(A, rng, trials=30):
    """phi(a) = a^p mod p for monomial generators and random elements."""
    basis = A.basis()
    for m in basis:
        if m.total_pd_weight() > A.W // A.p:
            continue
        a = {m: 1}
        try:
            lhs = A.frobenius(a)
        except TruncationTooTight:
            continue
        rhs = A.power(a, A.p)
        diff = A.add(lhs, A.scale(-1, rhs))
        if any(c % A.p for c in diff.values()):
            return False
    for _ in range(trials):
        a = {}
        for _ in range(3):
            m = rng.choice(basis)
            if m.total_pd_weight() <= A.W // A.p:
                a = A.add(a, {m: rng.randrange(A.q)})
        try:
            lhs = A.frobenius(a)
        except TruncationTooTight:
            continue
        rhs = A.power(a, A.p)
        diff = A.add(lhs, A.scale(-1, rhs))
        if any(c % A.p for c in diff.values()):
            return False
    return True


def phi_multiplicative_check(A, rng, trials=50):
    """phi(ab) = phi(a) phi(b) on random retained pairs."""
    basis = [m for m in A.basis() if m.total_pd_weight() <= A.W // A.p // 2]
    if not basis:
        return True
    for _ in range(trials):
        a = {rng.choice(basis): rng.randrange(1, A.q)}
        b = {rng.choice(basis): rng.randrange(1, A.q)}
        try:
            lhs = A.frobenius(A.mul(a, b, strict=True))
            rhs = A.mul(A.frobenius(a), A.frobenius(b))
        except TruncationTooTight:
            continue
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# weight chains (module docstring)


def _weight_chains(monomials, p, e):
    """Maximal phi-chains of basis indices, by the integer weight c + l * p^e.

    A chain starts at each weight that is not p times another weight of the
    basis; weight 0 is fixed by phi and is a chain of its own."""
    pe = p**e
    index_of = {
        tuple(cj + lj * pe for cj, lj in zip(m.c, m.l)): t for t, m in enumerate(monomials)
    }
    chains = []
    for w, t in index_of.items():
        if any(w) and not any(wj % p for wj in w) and tuple(wj // p for wj in w) in index_of:
            continue  # not a chain root
        chain = [t]
        while any(w):
            w = tuple(p * wj for wj in w)
            if w not in index_of:
                break
            chain.append(index_of[w])
        chains.append(chain)
    return chains


def orbit_blocks(A):
    """Lists of basis indices, one per maximal phi-chain of weights; computed
    once per basis and shared, so callers must not modify them."""
    return A._basis.chains


def _phi_block_matrix(A, idxs):
    """phi restricted to the span of the given basis indices (row conv.)."""
    basis = A.basis()
    pos = {t: k for k, t in enumerate(idxs)}
    M = [[0] * len(idxs) for _ in idxs]
    index = A.index()
    for k, t in enumerate(idxs):
        img = A.frobenius_monomial(basis[t])
        for m, c in img.items():
            tt = index[m]
            if tt not in pos:
                raise CompositeNonzero("phi leaked out of its weight chain")
            M[k][pos[tt]] = c
    return M


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


def _nygaard_kernel_blocks(A2, i):
    """Per weight chain: (indices, block-local generators over Z/p^{A2.n} of
    {x : phi(x) = 0 mod p^i}).  A chain whose phi-block is zero gets the
    identity without elimination (module docstring)."""
    p = A2.p
    out = []
    for idxs in orbit_blocks(A2):
        K = identity(len(idxs))
        if i:
            M = _phi_block_matrix(A2, idxs)
            if not mat_is_zero(M):
                K = preimage_mod(M, mat_scale(p**i, K), p, A2.n)
        out.append((idxs, K))
    return out


def _nygaard_kernel_at(A2, i):
    """Rows spanning {x : phi(x) = 0 mod p^i} inside A2 at its own precision,
    computed per weight chain."""
    nbasis = len(A2.basis())
    if i == 0:
        return identity(nbasis)
    rows = []
    for idxs, K in _nygaard_kernel_blocks(A2, i):
        for row in K:
            full = [0] * nbasis
            for k, t in enumerate(idxs):
                full[t] = row[k]
            rows.append(full)
    return rows


def nygaard_acrys(A, i):
    """Generators (Howell form, mod p^n) of N^{>=i} = ker(A/p^{n+i} -phi->
    A/p^{n+i} -> A/p^i), projected to precision n; computed per weight chain."""
    p = A.p
    if i == 0:
        return howell_form(identity(len(A.basis())), p, A.n)
    n_int = A.n + i
    if n_int > 64:
        raise PrecisionExhausted("internal precision %d" % n_int)
    Ahi = PDAlgebra(p, A.g, n_int, A.e, A.W)
    rows = _nygaard_kernel_at(Ahi, i)
    return howell_form(rows, p, A.n) if rows else []


def divided_frobenius_on_gens(A, i, gens):
    """phi(x)/p^i mod p^n on Nygaard generators, computed per weight chain at
    precision n+i; chains the generators do not touch contribute zero."""
    Ahi = PDAlgebra(A.p, A.g, A.n + i, A.e, A.W)
    out = [[0] * len(row) for row in gens]
    for idxs in orbit_blocks(Ahi):
        sub = [[row[t] for t in idxs] for row in gens]
        if not any(map(any, sub)):
            continue
        imgs = _divided_phi_rows(sub, _phi_block_matrix(Ahi, idxs), A.p, i)
        for full, img in zip(out, imgs):
            for t, a in zip(idxs, img):
                full[t] = a % A.q
    return out


def nygaard_graded_image_check(A, i):
    """phi_i mod p on N^i is injective with image Fil^conj_i (within W).

    At finite perfection depth e the Frobenius image only reaches Teichmuller
    numerators divisible by p (depth e-1), so the comparison intersects the
    conjugate filtration with that sublattice; at e = infinity (genuine
    semiperfect base) the restriction is vacuous.  Everything shards by
    weight chain: phi preserves the chains and the filtration is monomial.
    Per chain, the image and the filtration are compared by order mod p, and
    the graded piece N^i / N^{i+1} is read off at the common precision
    n + i + 1, where N^{i+1} must lie inside N^i.  Two kernels per level
    suffice: phi(x) = 0 mod p^i depends only on x mod p^i, so the level-i
    kernel at n + i + 1 reduced mod p^{n+i} is the level-i kernel at n + i,
    and the image phi(x)/p^i mod p, which depends only on x mod p^{i+1}, is
    read off from it directly."""
    p = A.p
    Acmp = PDAlgebra(p, A.g, A.n + i + 1, A.e, A.W)
    fil = conjugate_filtration_spans(A, i + 1)
    basis = A.basis()
    fil_idx = {
        t for t in fil[i] if not any(cj % p for cj in basis[t].c)
    }
    deeper = _nygaard_kernel_blocks(Acmp, i + 1)
    same = True
    dim_src = 0
    dim_img = 0
    for (idxs, Ki), (_, Ki1) in zip(_nygaard_kernel_blocks(Acmp, i), deeper):
        imgs = _divided_phi_rows(Ki, _phi_block_matrix(Acmp, idxs), p, i)
        width = len(idxs)
        fil_rows = []
        for k, t in enumerate(idxs):
            if t in fil_idx:
                v = [0] * width
                v[k] = 1
                fil_rows.append(v)
        e_img = span_exponent_mod(imgs, p, 1)
        if not e_img == len(fil_rows) == span_exponent_mod(imgs + fil_rows, p, 1):
            same = False
        dim_img += e_img
        # graded dimension at the common precision n+i+1
        if span_exponent_mod(Ki + Ki1, p, Acmp.n) != span_exponent_mod(Ki, p, Acmp.n):
            raise CompositeNonzero("N^{>=%d} is not inside N^{>=%d}" % (i + 1, i))
        dim_src += len(quotient_exponents_mod(Ki, Ki1, p, Acmp.n))
    return {
        "image_matches_fil": same,
        "dim_graded": dim_src,
        "dim_image": dim_img,
        "injective": dim_src == dim_img,
        "ok": same and dim_src == dim_img,
    }


def phi_divisibility_ladder_check(A, i):
    """phi_i(N^{>= i+1}) lies in p*A (divided-Frobenius divisibility)."""
    gens = nygaard_acrys(A, i + 1)
    imgs = divided_frobenius_on_gens(A, i, gens)
    return all(a % A.p == 0 for row in imgs for a in row)


# ---------------------------------------------------------------------------
# Frobenius fixed points


def _fixed_points_at(A, i, W):
    """Solve phi(x) = p^i x at internal precision n + i, project to n.

    The internal lift implements the restriction to Nygaard representatives:
    solutions mod p^{n+i} that die mod p^n are window artifacts and vanish
    under the projection."""
    p = A.p
    n_int = A.n + i
    Aw = PDAlgebra(p, A.g, n_int, A.e, W)
    invs = []
    gens = []
    nbasis = len(Aw.basis())
    for idxs in orbit_blocks(Aw):
        M = _phi_block_matrix(Aw, idxs)
        if mat_is_zero(M):
            continue  # ker(-p^i) mod p^{n+i} projects to 0 mod p^n
        for t in range(len(M)):
            M[t][t] -= p**i
        K = kernel_mod(M, p, n_int)
        if not K:
            continue
        proj = [[a % A.q for a in row] for row in K]
        proj = [row for row in proj if any(row)]
        if proj:
            invs.extend(module_invariants_mod(proj, p, A.n))
            for row in proj:
                full = [0] * nbasis
                for k, t in enumerate(idxs):
                    full[t] = row[k]
                gens.append(full)
    return Aw, tuple(sorted(invs, reverse=True)), gens


def frobenius_fixed_points(A, i, stab_step=None):
    """ker(phi - p^i) on A/p^n within the weight window, with stabilization.

    Computed at W and W + step; NotStabilized when the invariants differ.
    For i < 0 the operator phi - p^i is injective by p-adic contraction and
    the group is zero."""
    p = A.p
    if i < 0:
        return {"group": PGroup.zero(p), "generators": [], "stable": True}
    step = stab_step if stab_step is not None else p
    A1, inv1, K1 = _fixed_points_at(A, i, A.W)
    _, inv2, _ = _fixed_points_at(A, i, A.W + step)
    if inv1 != inv2:
        raise NotStabilized("W = %d gives %s, W = %d gives %s" % (A.W, inv1, A.W + step, inv2))
    gens = [A1.from_vector(row) for row in K1]
    return {"group": PGroup(p, inv1, 0), "generators": gens, "stable": True}


# ---------------------------------------------------------------------------
# the span identity behind the surjectivity of phi_i - 1


def span_identity_check(A, j):
    """Fil^conj_{j-1} + Fil^{pj}_pd covers the whole algebra mod p.

    Both sides are monomial spans: a monomial escapes Fil^conj_{j-1} exactly
    when sum floor(l/p) >= j, which forces sum l >= pj."""
    if j < 1:
        raise UsageError("span identity needs j >= 1, got %d" % j)
    for m in A.basis():
        in_conj = conj_level(m, A.p) <= j - 1
        in_pd = m.total_pd_weight() >= A.p * j
        if not (in_conj or in_pd):
            return False
    return True
