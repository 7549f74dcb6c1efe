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

Weights.  Scaled by p^e, the weight of [x^{c/p^e}] x^{[l]} is the integer
w = l p^e + c, and a monomial is stored as its weight: l = w // p^e and
c = w mod p^e.  An element is a dict {weight: coefficient}, and the basis is
range(T), T = (W + 1) p^e, the weights with l <= W.  A product of two
monomials has weight w1 + w2 (`mul_monomials`), and phi of a monomial has
weight p w (`frobenius_monomial`); either may be T or more, beyond the
window.

The monomials as powers of t.  Put t = [x^{1/p^e}] and E = p^e.  The
monomial of weight w is t^w / floor(w/E)!, and phi maps it to
floor(pw/E)! / floor(w/E)! times the monomial of weight pw, a coefficient of
valuation exactly floor(w/E).  Proof:

- With w = lE + c, 0 <= c < E, the monomial is t^c x^{[l]} =
  t^c (t^E)^l / l! = t^w / l!, and l = floor(w/E).
- phi(t) = t^p, so phi(t^w / l!) = t^{pw} / l! = (L!/l!) t^{pw} / L!, with
  L = floor(pw/E), and t^{pw} / L! is the monomial of weight pw.
- Write pc = kE + c' with 0 <= c' < E.  Then k < p, since c < E, and
  L = pl + k.  By Legendre v_p(m!) is the sum over j >= 1 of
  floor(m / p^j), and floor((pl + k) / p^j) = floor(l / p^{j-1}) for
  j >= 1, since k / p < 1.  So v_p(L!) = l + v_p(l!), and v_p(L!/l!) = l.

So phi of a monomial vanishes mod p^n iff its l is at least n.

Weight chains.  Frobenius multiplies weights by p.  So phi maps each basis
monomial to a multiple of the monomial of p times its weight, and the basis
splits into maximal chains t_0 -> t_1 -> ..., along which every kernel
computation shards.  In closed form (`_weight_chains`) the chains are [0]
and, for each r in 1..T-1 prime to p, the chain r, rp, rp^2, ... of the
r p^k < T.  Proof:

- phi(1) = 1, so weight 0 is a chain of its own.
- A nonzero weight w starts a chain iff it is not p times a weight of the
  basis.  When p divides w, w/p < w < T is a weight of the basis.  So the
  roots are exactly the weights prime to p.
- From a root r the chain runs through the r p^k < T, since every weight
  below T is in the basis, and stops at the first r p^k >= T.
- Every nonzero weight is r p^k for exactly one r prime to p and one k, so
  the chains partition the basis.

The chains depend only on (p, e, W), not on the precision n.  No check
walks them all: each walks only the roots its bound needs, from
`_weight_chains` with a root bound (`frobenius_table` the roots with
l < top, `fiber_group` those below (n + i) p^e).

On a chain, phi is therefore a weighted shift, stored as its coefficient
list c = (c_0, ..., c_{m-1}): phi(e_k) = c_k e_{k+1}.  The one exception is
the weight-0 chain [1], where phi(e_0) = c_0 e_0 with c_0 = 1.  `_phi_shift`
builds a list from `frobenius_monomial` and checks this shape
(CompositeNonzero otherwise).  The list is exact, not reduced mod p^n, so one
list serves every precision:

- phi of the last monomial of a chain other than [1] leaves the window, and
  the list holds c_{m-1} = 0 there.  At precision N that is right when the
  monomial has l >= N, since phi of it vanishes mod p^N.  When l < N, phi of
  it is nonzero mod p^N and TruncationTooTight is raised.
- So `_phi_shifts` at precision N reduces the lists mod p^N and raises at
  the first chain that ends at l < N: the chain and the message that
  `frobenius_monomial` at precision N would raise on.  A higher precision
  can raise where a lower one does not, so each precision decides its own
  raise from the chain levels.
- `frobenius_table` builds the lists once for every precision up to a
  bound, and the Nygaard check of each level reads them (`cli.cmd_acrys`).

A check reads every kernel and image of a chain from its list.  Four facts
about a chain save work:

- The Nygaard kernel is diagonal.  Over Z/p^n, {x : phi(x) = 0 mod p^i} is
  the sum of the p^{a_k} Z/p^n e_k with a_k = max(0, i - v_p(c_k)) (i capped
  at n, v_p(0) taken as n).  Proof: the terms x_k c_k of phi(x) sit on
  distinct basis vectors, so phi(x) = 0 mod p^i iff x_k c_k = 0 mod p^i for
  every k, i.e. v_p(x_k) >= i - v_p(c_k).  No elimination is needed:
  `_nygaard_exponents` returns the exponent map {k: a_k}, leaving out the k
  with a_k = n, whose summand is zero.  a_k does not drop as i grows, since
  i - v_p(c_k), the max with 0 and the cap at n are all monotone in i.
- Whether phi(x) = 0 mod p^i depends only on x mod p^i, because phi has
  integer coefficients.  So {x : phi(x) = 0 mod p^i} at precision n + i + 1,
  reduced mod p^{n+i}, is the same module at precision n + i, and one
  exponent map per level serves both precisions.
- v_p of phi's coefficient on [x^{c/p^e}] x^{[l]} is exactly l (the
  powers of t above), and l only grows along a chain.  So phi vanishes
  mod p^n on a chain iff its root has l >= n, and such a chain is known in
  closed form without building its list (`_phi_shifts` leaves it out).  Its
  Nygaard kernel is the whole chain at every level and phi_i is zero on it.
  So in `nygaard_graded_image_check` it has no image and no graded piece,
  and the image matches Fil^conj_i on it iff it holds no index of the
  restricted filtration.
- Description (1) of the conjugate filtration is a closure of seed monomials
  under multiplication.  The seeds of level n contain those of level n - 1,
  and what a closure reaches is the union of what each seed reaches, so
  `conjugate_filtration_equality_check` grows one reached set level by level,
  searching only from the new seeds.

Levels by arithmetic.  The divided-power exponent of the monomial of
weight w is l = w // p^e, and its conjugate level floor(l / p) is
w // p^{e+1}, since floor(floor(w / p^e) / p) = floor(w / p^{e+1}).  The
checks read both off the weight; no table holds them.  So each filtration
by a level is a range of weights:

- Fil^conj_n, the monomials of conjugate level at most n, is the weights
  below min(T, (n + 1) p^{e+1}): w // p^{e+1} <= n iff w < (n + 1) p^{e+1};
- Fil^m_pd, the monomials with l >= m, is the weights from m p^e on.

Spans over Z/p^n come in two kinds.  The conjugate and divided-power
filtrations are spanned by monomials, and so is every span built from them by
multiplying monomials: these are sets of weights and are compared as sets.
The Nygaard filtration and the image of phi_i are read off the coefficient
lists and exponent maps, again without elimination.  N^{>=i} on
a chain is the sum of the p^{a_k} Z/p^n e_k, and phi_i = phi / p^i sends
the summand of k onto that of p^{a_k - i} c_k e_{k+1} (e_0 on [1]), a
multiple of a single basis vector, with distinct k going to distinct
targets.  So in `nygaard_graded_image_check`:

- phi is divisible by p^i on N^{>=i} iff p^i divides every p^{a_k} c_k
  (CompositeNonzero otherwise);
- the image of phi_i mod p is spanned by the targets of the k with
  p^{a_k - i} c_k a unit mod p, and it equals the restricted Fil^conj_i on a
  chain iff those targets are the chain's filtration indices;
- N^{>=i+1} lies in N^{>=i} iff b_k >= a_k for every k, with b the
  level-(i+1) exponent map and an absent k at exponent n + i + 1, the
  precision;
- N^i / N^{i+1} is the sum of the Z/p^{b_k - a_k}, so its number of cyclic
  factors is the number of k whose exponent grows.

The syntomic fibre.  Z/p^n(i) on this model is the fibre of
phi_i - can: N^{>=i} -> A over Z/p^n, so H^0 and H^1 are the kernel and the
cokernel of phi_i - can.  Both maps preserve the chains, so the fibre shards
by chain, and `fiber_group` reads it off the levels of the chains:

- The block is square.  On a chain, phi(e_k) = c_k e_{k+1} with
  v_p(c_k) = l_k non-decreasing (the facts above), and N^{>=i} tensor
  Z/p^n is free on p^{a_k} e_k, a_k = max(0, i - l_k) <= i.  So the block
  of phi_i - can is square, with row k equal to
  -p^{a_k} e_k + unit * p^{max(0, l_k - i)} e_{k+1}.  Over Z/p^n a square
  matrix has a Smith form diag(p^{v_k}), and both its kernel and its
  cokernel are the sum of the Z/p^{v_k}.  So H^0 = H^1.
- The cokernel.  When nothing raises, the last monomial has l >= n + i, so
  phi_i of it vanishes mod p^n and the last row is -e_{m-1}.  The e_k with
  l_k >= i form a tail of the chain; row k there says
  e_k = unit * p^{l_k - i} e_{k+1}, so each of them is 0.  Below that, row
  k says e_{k+1} = unit * p^{i - l_k} e_k.  The cokernel is therefore
  cyclic on e_0, of order p^{min(n, w)} with w = sum_k max(0, i - l_k).
  The weight-0 chain [1] is the exception: its block is [1 - p^i], 0 at
  i = 0 (giving Z/p^n) and a unit at i >= 1 (giving nothing).
- The image mod p.  Mod p, row k is a unit times e_{k+1} when l_k < i,
  -e_k + unit * e_{k+1} when l_k = i, and -e_k when l_k > i.  So on a
  chain other than [1] the image mod p misses exactly the root, and only
  when the root has l < i.  It therefore contains Fil^{i+1}_pd, whose
  monomials have l > i.  It contains Fil^conj_{i-1} restricted to the
  numerators divisible by p unless a root with l < i has c divisible by p.
  For e >= 1 no root but [1] does: a root has weight r prime to p, and
  c = r mod p^e.  For e = 0 the root x^{[1]} does, at every i >= 2.
- Independence of W; the roots read.  The chain of a root r has the levels
  l_k = floor(r p^k / p^e).  Only monomials with l < i contribute to w, and
  a root r >= (n + i) p^e has every l_k >= n + i: w = 0, and its end
  cannot raise.  So `fiber_group` reads only the roots below (n + i) p^e,
  all in the window once W >= n + i, and builds no basis.  A wider window
  adds only monomials with l > W: tails of old chains, and chains whose
  roots have l > W, which change no w and end at l > W.  For W >= 1 a
  chain end with l < n + i raises already, since x^{[W]} ends its chain,
  so the test W >= n + i adds only W = 0 at e = 0, where the basis is [1]
  alone and x^{[1]} would be missed.
- The series at i < 0.  There phi_i - can = T - 1, T = p^{-i} phi, with
  inverse -(1 + T + T^2 + ...), which ends at the least k with T^k = 0 mod
  p^n.  On a chain T e_j = p^{-i} c_j e_{j+1}, so the only entries of T^k
  are (j, j + k), j + k < m: p^{-ik} c_j ... c_{j+k-1}, of valuation
  -ik + l_j + ... + l_{j+k-1}.  On [1], T = p^{-i}, whose series ends at
  exactly ceil(n / -i).  No chain needs more, since levels are >= 0: at
  k = ceil(n / -i) every entry of T^k has valuation >= -ik >= n.  So the
  series ends at ceil(n / -i) (`negative_twist_series`).  A root with
  l >= n has T = 0 mod p^n on its chain and is not read.  A chain end with
  l < n raises: phi of it is nonzero mod p^n and leaves the window
  (`frobenius_monomial`).
"""

from math import comb, factorial

from .errors import CompositeNonzero, TruncationTooTight, UsageError
from .linalg import PGroup, _vp
from .rings import power


def _weight_chains(p, top, roots=None):
    """Maximal phi-chains of the weights 0..top-1, which are the basis
    indices: [0], and r, rp, rp^2, ... below top for each r prime to p
    (module docstring), only for the r below roots when that is given."""
    chains = [[0]]
    for r in range(1, top if roots is None else min(top, roots)):
        if r % p:
            chain = []
            while r < top:
                chain.append(r)
                r *= p
            chains.append(chain)
    return chains


def window(p, n, e, W=None):
    """The window W of the model at (p, n, e), 3p^2 when W is None.  The
    one check of the parameters, for `PDAlgebra` and the read-offs of the
    syntomic fibre: UsageError unless n >= 1, e >= 0 and W >= 0."""
    W = W if W is not None else 3 * p * p
    if n < 1 or e < 0 or W < 0:
        raise UsageError("PD algebra needs n >= 1, e >= 0, W >= 0; got n=%d e=%d W=%d"
                         % (n, e, W))
    return W


class PDAlgebra:
    """The truncated model of A_crys(S)/p^n, the divided-power envelope with
    Frobenius, for S = F_p[x^{1/p^e}] / (x)."""

    def __init__(self, p, n=1, e=1, W=None):
        self.p, self.n, self.e = p, n, e
        self.W = W = window(p, n, e, W)
        self.pe, self.q, self.T = p**e, p**n, (W + 1) * p**e

    # -- monomial basis --------------------------------------------------

    def monomials(self):
        """The basis: the weights 0, 1, ..., T - 1."""
        return range(self.T)

    def one(self):
        return {0: 1}

    def monomial(self, c, l, coeff=1):
        """coeff [x^{c/p^e}] x^{[l]}, at its weight l p^e + c."""
        if l > self.W:
            return {}
        return {l * self.pe + c: coeff % self.q} if coeff % self.q else {}

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

    def mul_monomials(self, w1, w2):
        """The binomial law: ([x^{c1/p^e}] x^{[l1]}) * ([x^{c2/p^e}] x^{[l2]})
        = (l1 + l2 choose l1) [x]^k [x^{c/p^e}] x^{[l1 + l2]}, with
        c1 + c2 = k p^e + c, and [x]^k x^{[l]} = ((l + k)!/l!) x^{[l + k]},
        where k <= 1.  The product has weight w1 + w2, and its divided-power
        exponent l = l1 + l2 + k tells k.  Returns (w1 + w2, coefficient mod
        p^n), or None when the product vanishes mod p^n.  The weight may be
        T or more, beyond the window; callers decide what that means."""
        pe = self.pe
        l1, l2, l = w1 // pe, w2 // pe, (w1 + w2) // pe
        coeff = comb(l1 + l2, l1) * (l if l > l1 + l2 else 1) % self.q
        return (w1 + w2, coeff) if coeff else None

    def mul(self, a, b):
        """Bilinear extension of `mul_monomials`; monomials beyond the
        window are dropped."""
        out = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                r = self.mul_monomials(w1, w2)
                if r is None:
                    continue
                w, coeff = r[0], r[1] * c1 * c2 % self.q
                if not coeff or w >= self.T:
                    continue
                v = (out.get(w, 0) + coeff) % self.q
                if v:
                    out[w] = v
                else:
                    out.pop(w, None)
        return out

    def power(self, a, k):
        """a^k by the square and multiply of `rings.power`.  Regrouping is
        sound though `mul` drops the monomials with l > W: l never drops
        under the binomial law (`mul_monomials`), so they span an ideal, and
        the truncated product, modulo that ideal, is associative."""
        return power(self.mul, a, k) if k else self.one()

    # -- Frobenius --------------------------------------------------------

    def frobenius_monomial(self, w):
        """phi([x^{c/p^e}] x^{[l]}) = ((pl + k)!/l!) [x^{c'/p^e}] x^{[pl + k]},
        where pc = k p^e + c': phi(x^{[l]}) = ((pl)!/l!) x^{[pl]}, and the
        overflow [x]^k merges as in `mul_monomials`.  Returns
        (p w, (pl + k)!/l!): the image has p times the weight, pl + k is
        floor(p w / p^e), and the coefficient is exact, not reduced mod p^n.
        Its v_p is l (module docstring), so the image vanishes mod p^n iff
        l >= n.  TruncationTooTight when it does not vanish and leaves the
        window."""
        l = w // self.pe
        if self.p * w >= self.T and l < self.n:
            raise TruncationTooTight("phi image of weight %d leaves W = %d" % (l, self.W))
        return self.p * w, factorial(self.p * w // self.pe) // factorial(l)

    def frobenius(self, a):
        """Linear extension of `frobenius_monomial`.  An image beyond the
        window that does not raise vanishes mod p^n, so it adds nothing."""
        out = {}
        for w, c in a.items():
            ww, cc = self.frobenius_monomial(w)
            v = (out.get(ww, 0) + c * cc) % self.q
            if v:
                out[ww] = v
            else:
                out.pop(ww, None)
        return out

    # -- vectors -----------------------------------------------------------

    def to_vector(self, a):
        v = [0] * self.T
        for w, c in a.items():
            v[w] = c % self.q
        return v

    def from_vector(self, v):
        return {w: c % self.q for w, c in enumerate(v) if c % self.q}


# ---------------------------------------------------------------------------
# conjugate filtration


def conjugate_filtration_spans(A, nmax):
    """Fil_n for n <= nmax as monomial index sets, via description (2):
    A-multiples of x^{[pk]} with k <= n, the weights of conjugate level at
    most n, which are those below min(T, (n + 1) p^{e+1}) (module
    docstring)."""
    step = A.pe * A.p
    return {nn: set(range(min(A.T, (nn + 1) * step))) for nn in range(-1, nmax + 1)}


def conjugate_filtration_description1(A, nn, below=None):
    """Fil_n via description (1): the span of the divided powers x^{[l]} of
    the ideal generator with l < (n+1)p, closed under multiplication by base
    monomials.

    Returns the set of weights the closure reaches; Fil_n mod p is
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
        w = l * A.pe  # the weight of x^{[l]}
        if w not in reached:
            reached.add(w)
            frontier.append(w)
    # close under multiplication by [x^{1/p^e}] and x = 1! * x^{[1]}, of
    # weights 1 and p^e; a product of weight T or more leaves the window
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
    basis monomials of conjugate level n, read off
    `conjugate_filtration_spans` as Fil_n minus Fil_{n-1}.  Bijectivity is
    checked by rank.
    The scaling factor needs no check: the multiples of p in [1, pn]
    multiply to p^n n!, so (pn)!/(p^n n!) is the product of the integers in
    [1, pn] prime to p, a unit mod p."""
    p = A.p
    # target: monomials of conjugate level exactly nn, i.e. floor(l/p) = n,
    # presented as gr = Fil_n / Fil_{n-1}
    fil = conjugate_filtration_spans(A, nn)
    tgt = len(fil[nn]) - len(fil[nn - 1])
    src = [(c, r) for r in range(p) if r + p * nn <= A.W for c in range(A.pe)]
    if len(src) != tgt:
        return {"ok": False, "reason": "rank mismatch", "src": len(src), "tgt": tgt}
    return {"ok": True, "rank": len(src)}


# ---------------------------------------------------------------------------
# Frobenius checks


def phi_pth_power_check(A, rng, trials=30):
    """phi(a) = a^p mod p for the monomials with l <= W // p, the weights
    below (W // p + 1) p^e, and random elements of their span."""
    basis, bound = A.monomials(), (A.W // A.p + 1) * A.pe
    elements = [{m: 1} for m in basis[:bound]]
    for _ in range(trials):
        a = {}
        for _ in range(3):
            t = rng.randrange(len(basis))  # draws as rng.choice(basis) does
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


# ---------------------------------------------------------------------------
# weight chains (module docstring)


def _phi_shift(A, idxs):
    """phi on the chain of basis indices idxs as its exact coefficient list
    c, from `frobenius_monomial`: phi(e_k) = c_k e_{k+1}, or c_0 e_0 on a
    chain of one index.  c_k stays 0 where phi(e_k), of weight p t, leaves
    the window; the precision decides whether that is zero or a raise
    (`_phi_shifts`).  CompositeNonzero when phi leaves the chain or is no
    such shift (module docstring)."""
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
    """(indices, exact coefficient list) for each weight chain of A whose
    root has l < top, top >= 1, in chain order: every list that
    `_phi_shifts` reads at a precision up to top, built once.  Only those
    roots are walked: l < top iff the root lies below top p^e (module
    docstring)."""
    return [(idxs, _phi_shift(A, idxs)) for idxs in _weight_chains(A.p, A.T, top * A.pe)]


def _phi_shifts(A, n=None, table=None):
    """(indices, coefficient list mod p^n) for each weight chain of A on
    which phi is nonzero mod p^n, n = A.n unless given, in chain order: those
    whose root has l < n.  phi is zero on the others, and their lists are
    never read.  The lists come from `table`, a `frobenius_table` of A at
    some top >= n, built here when None.  TruncationTooTight at the first
    of these chains that ends at l < n: phi of its last monomial is nonzero
    mod p^n and leaves the window (module docstring)."""
    n = A.n if n is None else n
    pe, q = A.pe, A.p**n
    out = []
    for idxs, c in frobenius_table(A, n) if table is None else table:
        if idxs[0] // pe < n:
            if idxs[0]:
                _chain_end((idxs[-1] // pe,), n, A.W)
            out.append((idxs, [a % q for a in c]))
    return out


def _nygaard_exponents(c, p, n, i):
    """{k: a_k}: over Z/p^n, {x : phi(x) = 0 mod p^i} on the chain with
    coefficient list c, reduced mod p^n, is the sum of the p^{a_k} Z/p^n e_k,
    with a_k = max(0, i - v_p(c_k)), i capped at n and v_p(0) taken as n; a
    k with a_k = n, whose summand is zero, is left out (module docstring)."""
    i = min(i, n)
    out = {}
    for k, ck in enumerate(c):
        a = max(0, i - _vp(ck, p)) if ck else 0
        if a < n:
            out[k] = a
    return out


def _restricted_conj(A, i):
    """Fil^conj_i restricted to the numerators divisible by p, as weights:
    those below min(T, (i + 1) p^{e+1}) with p dividing w mod p^e.  For
    e >= 1, p divides p^e, so these are the multiples of p; for e = 0 every
    numerator is 0."""
    return set(range(0, min(A.T, (i + 1) * A.pe * A.p), A.p if A.e else 1))


def nygaard_graded_image_check(A, i, table=None):
    """phi_i mod p on N^i is injective with image Fil^conj_i (within W).

    At finite perfection depth e the Frobenius image only reaches Teichmuller
    numerators divisible by p (depth e-1), so the comparison intersects the
    conjugate filtration with that sublattice; at e = infinity (genuine
    semiperfect base) the restriction is vacuous.  Everything shards by
    weight chain: phi preserves the chains and the filtration is monomial.
    Per chain, the image and the filtration are compared mod p, and the
    graded piece N^i / N^{i+1} is read off at the common precision n + i + 1,
    where N^{i+1} must lie inside N^i.  Two exponent maps per chain suffice:
    phi(x) = 0 mod p^i depends only on x mod p^i, so the level-i kernel at
    n + i + 1 reduced mod p^{n+i} is the level-i kernel at n + i, and the
    image phi(x)/p^i mod p, which depends only on x mod p^{i+1}, is read off
    from it directly.  Both maps and the image come from one coefficient
    list per chain, reduced mod p^{n+i+1}, with no elimination.  `table` is
    a `frobenius_table` of A at some top >= n + i + 1, shared by the levels
    of one run; it is built here when None (module docstring)."""
    p = A.p
    n, pi = A.n + i + 1, p**i
    fil_idx = _restricted_conj(A, i)
    shifts = _phi_shifts(A, n, table)
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
# the syntomic fibre


def _root_levels(p, e, W, roots):
    """The levels l_k = floor(w_k / p^e) of each weight chain other than [1]
    of the model at (p, e, W) whose root lies below roots, in root order."""
    pe = p**e
    for chain in _weight_chains(p, (W + 1) * pe, roots)[1:]:
        yield [w // pe for w in chain]


def _chain_end(levels, bound, W):
    """TruncationTooTight when the chain with levels l_k ends at l < bound:
    phi of its last monomial is nonzero mod p^bound and leaves the window W.
    Only the last level is read."""
    if levels[-1] < bound:
        raise TruncationTooTight("phi image of weight %d leaves W = %d" % (levels[-1], W))


def _fiber_exponent(levels, n, i, W):
    """min(n, w), w = sum_k max(0, i - l_k), on a chain other than [1] with
    levels l_k; TruncationTooTight when it ends at l < n + i."""
    _chain_end(levels, n + i, W)
    return min(n, sum(max(0, i - l) for l in levels))


def fiber_group(p, n, e, W, i):
    """H^0 = H^1 of fib(phi_i - can: N^{>=i} -> A) over Z/p^n on the model
    at (p, n, e, W), for i >= 0: a Z/p^{min(n, w)} per chain, and Z/p^n for
    [1] at i = 0, read off the roots below (n + i) p^e (module docstring).
    TruncationTooTight when W < n + i, or when a chain other than [1] ends
    at l < n + i: phi of that monomial leaves the window."""
    W = window(p, n, e, W)
    if i < 0:
        raise UsageError("the fibre group needs i >= 0, got i = %d" % i)
    if W < n + i:
        raise TruncationTooTight("phi images need W >= n + i = %d, got W = %d" % (n + i, W))
    exps = [n] if i == 0 else []
    for levels in _root_levels(p, e, W, (n + i) * p**e):
        a = _fiber_exponent(levels, n, i, W)
        if a:
            exps.append(a)
    return PGroup(p, tuple(sorted(exps, reverse=True)))


def negative_twist_series(p, r, e, W, i):
    """For i < 0, the least k with T^k = 0 mod p^r, T = p^{-i} phi, on the
    model over Z/p^r: where the series inverting phi_i - can = T - 1 ends.
    That is ceil(r / -i), the length on [1], which no other chain exceeds
    (module docstring); TruncationTooTight when a chain with root below
    r p^e ends at l < r."""
    W = window(p, r, e, W)
    if i >= 0:
        raise UsageError("the series needs i < 0, got i = %d" % i)
    for levels in _root_levels(p, e, W, r * p**e):
        _chain_end(levels, r, W)
    return -(r // i)


# ---------------------------------------------------------------------------
# the span identity behind the surjectivity of phi_i - 1


def span_identity_check(A, j):
    """Fil^conj_{j-1} + Fil^{pj}_pd covers the whole algebra mod p.

    Both sides are monomial spans: a monomial escapes Fil^conj_{j-1} exactly
    when floor(l/p) >= j, which forces l >= pj.  Fil^conj_{j-1} is read off
    `conjugate_filtration_spans`, and a monomial lies outside Fil^{pj}_pd
    iff l = w // p^e < pj, i.e. w < pj p^e."""
    if j < 1:
        raise UsageError("span identity needs j >= 1, got %d" % j)
    fil = conjugate_filtration_spans(A, j - 1)[j - 1]
    return all(w in fil for w in range(min(A.T, A.p * j * A.pe)))
