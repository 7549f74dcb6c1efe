"""Exact integer and Z/p^n linear algebra.

Matrices are lists of lists of Python ints (arbitrary precision), acting on
row vectors: a matrix M with shape (m, n) sends x (length m) to x*M (length n).

Two kinds of row spans are handled, with one elimination routine each.
Lattices in Z^n, for answers that really live over Z (free ranks, eta,
complexes of free abelian groups), are reduced by `hermite_form`, the row
Hermite normal form, which also canonicalises them; kernels, solutions,
restrictions and invariant factors over Z are all read off it.  Submodules
of (Z/p^r)^n are never lifted to Z: `eliminate_mod` reduces their
generators over the local ring Z/p^r with entries kept in [0, p^r), and
kernels, preimages, orders and quotient invariants are read off its pivot
valuations and row transform.  Two such spans are compared by order:
span(A) = span(B) iff |A| = |B| = |A + B|.  No canonical row set (Howell
form) is computed over Z/p^r, since every answer is read off orders and
invariants, which depend on the span only.

Cohomology mod p^r has one presentation: `cocycles_boundaries_mod` gives
each degree of a complex of free Z/p^r-modules its boundary rows B, checked
by the matrix product B*d = 0 mod p^r, and its cocycle rows Z, one
`preimage_mod` per degree.  The orbit windows of `syntomic` start from it.
`complexes.acyclic_mod` decides whether a complex of presented groups is
acyclic mod p^r from span orders alone, with no cocycles and no quotient.

The side over Z mirrors it: `cocycles_boundaries` presents each degree of a
complex of presented groups by cocycle rows Z and boundary rows B, and
`quotient_invariants(Z, B)` reads the group off one Hermite form of Z,
raising when a row of B leaves span(Z); that raise is the only check of B
in Z over Z.  The invariant factors of the coordinates of B come from
Hermite forms of their columns and rows in turn, with no transforms.
`cohomology_invariants` (gens = I, no relations), `complexes.beilinson_H0`
and `presented_complex_cohomology` all read from it; the last is reached
only through the Beilinson code of `complexes`.  Membership queries take a
block of rows; `_hnf_coordinates` finds the pivots of a Hermite form once
per block and builds no transform.  `lattice_contains` reads from it, and so
do the solves of `complexes`, whose lattices are Hermite bases already.

Every sublattice cut out by a condition is one restriction:
`restrict_lattice(G, D, L)` = {x in span(G) : x*D in span(L)} is one
integer kernel, that of [G*D; -L], cut to its G coordinates and written back
through G.  With D = None it is span(G) ∩ span(L); with G = I and L = []
it is the kernel of D.  The cocycles of `cocycles_boundaries`, eta and the
Beilinson truncation in `complexes`, the decalage filtrations of `torus` and
`qtorus` and the random fixture complexes of `cli` all come from it.
`block_diag(blk, copies)` puts one square block on every summand of a free
module, e.g. multiplication by an element of B = Z[q]/((q-1)^N) on B^k.
"""

from math import gcd

from .errors import CompositeNonzero, UsageError


# ---------------------------------------------------------------------------
# basic matrix helpers


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    M = zeros(n, n)
    for i in range(n):
        M[i][i] = 1
    return M


def mat_copy(M):
    return [row[:] for row in M]


def mat_mul(A, B):
    if not A:
        return []
    n, k = len(A[0]), len(B[0]) if B else 0
    if len(B) != n:
        raise UsageError("shape mismatch: %d columns times %d rows" % (n, len(B)))
    out = zeros(len(A), k)
    for i, arow in enumerate(A):
        orow = out[i]
        for t, a in enumerate(arow):
            if a:
                brow = B[t]
                for j in range(k):
                    orow[j] += a * brow[j]
    return out


def mat_scale(c, A):
    return [[c * a for a in row] for row in A]


def mat_is_zero(A):
    return all(a == 0 for row in A for a in row)


def row_mul(x, M):
    """Row vector times matrix."""
    out = [0] * (len(M[0]) if M else 0)
    for t, c in enumerate(x):
        if c:
            for j, m in enumerate(M[t]):
                out[j] += c * m
    return out


def block_diag(blk, copies):
    """The block-diagonal matrix with copies of the square block blk."""
    n = len(blk)
    out = zeros(n * copies, n * copies)
    for c in range(copies):
        for a, row in enumerate(blk):
            out[c * n + a][c * n:(c + 1) * n] = row
    return out


# ---------------------------------------------------------------------------
# Hermite form, kernels, lattice arithmetic over Z


def hermite_form(M, transform=False):
    """Row Hermite normal form.

    Returns H (same shape, zero rows dropped) with positive pivots, entries
    above each pivot reduced into [0, pivot). With transform=True returns
    (H, U), U unimodular with U*M having the rows of H on top (zero rows
    below), so the rows of U past len(H) span the kernel of M.
    """
    A = mat_copy(M)
    m = len(A)
    n = len(A[0]) if m else 0
    U = identity(m) if transform else None
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if A[i][c]:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        if transform:
            U[r], U[piv] = U[piv], U[r]
        # gcd loop below the pivot
        for i in range(r + 1, m):
            while A[i][c]:
                q = A[r][c] and A[i][c] // A[r][c]
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                if transform:
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                if A[i][c]:
                    A[r], A[i] = A[i], A[r]
                    if transform:
                        U[r], U[i] = U[i], U[r]
        if A[r][c] < 0:
            A[r] = [-a for a in A[r]]
            if transform:
                U[r] = [-a for a in U[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                if transform:
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
        r += 1
    H = A[:r]
    return (H, U) if transform else H


def _hnf_coordinates(H, rows):
    """Per row y of rows, the x with x*H = y for H in Hermite form
    (independent rows), or None.  The pivot columns of H are found once for
    the whole block."""
    cols = [next(j for j, a in enumerate(h) if a) for h in H]

    def coordinates(y):
        x, rem = [], list(y)
        for c, h in zip(cols, H):
            if rem[c] % h[c]:
                return None
            q = rem[c] // h[c]
            if q:
                rem = [a - q * b for a, b in zip(rem, h)]
            x.append(q)
        return None if any(rem) else x

    return [coordinates(y) for y in rows]


def lattice_contains(L, rows):
    """Whether every row of rows lies in span(L), read off one Hermite form
    of L; no transform is built."""
    return None not in _hnf_coordinates(hermite_form(L), rows)


def lattice_eq(L1, L2):
    return hermite_form(L1) == hermite_form(L2)


def restrict_lattice(G, D, L):
    """Hermite basis of {x in span(G) : x*D in span(L)}, with D = None the
    identity (so span(G) ∩ span(L)).  One integer kernel: the rows of U past
    the rank in U*[G*D; -L] = [H; 0] span the (y, z) with y*G*D = z*L; their
    first len(G) coordinates y span the preimage P, and P*G is the answer.
    Two Hermite forms; [] when G or the set is 0."""
    GD = G if D is None else mat_mul(G, D)
    if not GD:
        return []
    H, U = hermite_form(GD + [[-a for a in row] for row in L], transform=True)
    return hermite_form(mat_mul([row[:len(G)] for row in U[len(H):]], G))


# ---------------------------------------------------------------------------
# finitely generated abelian groups


class PGroup:
    """Finite abelian p-group plus free rank: (+) Z/p^{e_i} (+) Z^free_rank.

    A value: equal and hashed by (p, exponents, free_rank)."""

    __slots__ = ("p", "exponents", "free_rank")

    def __init__(self, p, exponents, free_rank=0):
        exps = list(exponents)
        if free_rank < 0 or exps != sorted(exps, reverse=True) or exps and exps[-1] <= 0:
            raise UsageError("not a PGroup: exponents %s, free rank %d" % (exps, free_rank))
        self.p, self.exponents, self.free_rank = p, exponents, free_rank

    def __eq__(self, other):
        if type(other) is not PGroup:
            return NotImplemented
        return (self.p == other.p and self.exponents == other.exponents
                and self.free_rank == other.free_rank)

    def __hash__(self):
        return hash((self.p, self.exponents, self.free_rank))

    def __repr__(self):
        return "PGroup(%r, %r, %r)" % (self.p, self.exponents, self.free_rank)

    @classmethod
    def from_invariants(cls, p, invariants, free_rank=0):
        exps = []
        for d in invariants:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                exps.append(e)
        return cls(p, tuple(sorted(exps, reverse=True)), free_rank)

    @classmethod
    def zero(cls, p):
        return cls(p, (), 0)

    def __add__(self, other):
        if self.p != other.p:
            raise UsageError("cannot add a %d-group to a %d-group" % (self.p, other.p))
        exps = tuple(sorted(self.exponents + other.exponents, reverse=True))
        return PGroup(self.p, exps, self.free_rank + other.free_rank)

    def __rmul__(self, count):
        """count * G, the direct sum of count copies of G."""
        exps = tuple(e for e in self.exponents for _ in range(count))
        return PGroup(self.p, exps, self.free_rank * count)

    def __str__(self):
        parts = ["Z"] * self.free_rank
        parts += ["Z/%d" % self.p**e for e in self.exponents]
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"free_rank": self.free_rank, "exponents": list(self.exponents)}


def quotient_invariants(L, M):
    """Invariant factors (those > 1, each dividing the next) and free rank of
    span(L)/span(M).

    One Hermite form H of L; each row of M is written in its coordinates,
    and CompositeNonzero is raised when a row of M leaves span(L).  Hermite
    forms of the columns and of the rows of this coordinate matrix C, in
    turn, leave only diagonal entries (Cohen, A Course in Computational
    Algebraic Number Theory, §2.4).  This ends: from the second pass on,
    each pass makes the first pivot the gcd of the line it heads, which
    holds the last pivot; either that is a proper divisor, or the pass
    clears the pivot's row and column for good and the same argument runs
    on the rest.  A gcd/lcm sweep of the nonzero diagonal gives the
    invariant factors of C, and its length is the rank of C."""
    H = hermite_form(L)
    A = _hnf_coordinates(H, M)
    if None in A:
        raise CompositeNonzero("relation rows must lie in the generator span")
    while any(a for i, row in enumerate(A) for j, a in enumerate(row) if i != j):
        A = hermite_form([list(col) for col in zip(*A)])
    d = [abs(a) for row in A for a in row if a]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return [a for a in d if a > 1], len(H) - len(d)


# ---------------------------------------------------------------------------
# cochain complexes of free modules (row convention)


def cohomology_invariants(ranks, diffs):
    """Per-degree (invariant factors, free rank) of a complex of free
    Z-modules: the presented complex with gens = I and no relations."""
    terms = {j: (identity(r), []) for j, r in ranks.items()}
    pres = cocycles_boundaries(terms, diffs)
    return {j: quotient_invariants(Z, B) for j, (Z, B) in pres.items()}


# ---------------------------------------------------------------------------
# presented modules and presented complexes (subquotients of Z^n)


def presented_complex_cohomology(terms, maps, p):
    """Cohomology over Z of a complex of presented groups, as PGroups.

    terms[j] = (gens, rels) with span(rels) ⊆ span(gens) in a common ambient
    Z^{n_j}; maps[j] is the ambient matrix from degree j to j+1.
    CompositeNonzero when a boundary leaves the cocycles."""
    pres = cocycles_boundaries(terms, maps)
    return {j: PGroup.from_invariants(p, *quotient_invariants(Z, B)) for j, (Z, B) in pres.items()}


def cocycles_boundaries(terms, maps):
    """Cocycle rows Z_j and boundary rows B_j per degree, over Z.

    terms and maps are as in presented_complex_cohomology.  Z_j is the
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


def cocycles_boundaries_mod(ranks, diffs, p, r):
    """Cocycle rows Z_t and boundary rows B_t per degree of a complex of free
    Z/p^r-modules, where diffs[t] maps degree t to t+1.

    B_t holds the nonzero rows of d_{t-1} in [0, p^r); CompositeNonzero
    unless B_t*d_t = 0 mod p^r, a matrix product.  Z_t is the kernel
    preimage_mod(d_t, []), the identity when no differential leaves degree
    t."""
    q = p**r
    pres = {}
    for t in sorted(ranks):
        B = diffs.get(t - 1, []) if ranks[t] and ranks.get(t - 1, 0) else []
        B = [row for row in ([a % q for a in b] for b in B) if any(row)]
        D = diffs.get(t)
        if ranks[t] and D and ranks.get(t + 1, 0):
            if any(a % q for row in mat_mul(B, D) for a in row):
                raise CompositeNonzero("degree %d: boundaries are not cocycles mod %d" % (t, q))
            Z = preimage_mod(D, [], p, r)
        else:
            Z = identity(ranks[t])
        pres[t] = (Z, B)
    return pres


# ---------------------------------------------------------------------------
# elimination over the local ring Z/p^r


def _vp(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def eliminate_mod(M, p, r, T=None, whole=False):
    """Smith-style elimination of the rows of M over Z/p^r.

    Each step takes an entry of least p-valuation v among the rows not yet
    used as pivots (a unit times p^v), and clears its column in those rows
    by row operations.  A row's least valuation is read by one gcd with
    p^r over its M-part.  Clearing the rest of the pivot row is a column
    operation that changes no other row, because the pivot column is then
    zero in every other row; it is left implicit.  Entries stay in [0, p^r).

    Returns (vals, T'): vals lists the pivot valuations (each < r) in pivot
    order.  When T is given (one row per row of M), the same row operations
    are applied to it, and T' holds its rows in pivot order followed by the
    rows whose M-part ended at zero.  With T = identity, T' = U is
    invertible and U*M*V is diagonal with entries unit*p^vals, then zero
    rows, for some invertible V.  With whole=True each row of T' keeps its
    M-part in front of its T-part, so pivot rows can be carried into a
    later elimination (the orbit widenings of `syntomic`).  When T is None,
    T' holds the len(vals) pivot rows: the row operations are invertible and
    the other rows end at zero, so they span span(M).
    """
    q = p**r
    n = len(M[0]) if M else 0
    qs = [q] * n
    # low[k] = gcd(p^r, M-part of row k) = p^(least valuation of the
    # M-part), since every gcd(a, p^r) is a power of p; p^r means the M-part
    # is zero and the row leaves the elimination.  The slice to the M-part
    # keeps the tracked T columns from choosing a pivot
    active, low, null = [], [], []
    for k, row in enumerate(M):
        row = [a % q for a in row]
        if T is not None:
            row += [a % q for a in T[k]]
        g = gcd(q, *row[:n])
        if g < q:
            active.append(row)
            low.append(g)
        else:
            null.append(row)
    vals, pivots = [], []
    while active:
        best = min(low)
        at = low.index(best)
        P = active[at]
        active[at], low[at] = active[-1], low[-1]
        active.pop()
        low.pop()
        c = list(map(gcd, P, qs)).index(best)
        uinv = pow(P[c] // best, -1, q)
        vals.append(_vp(best, p))
        pivots.append(P)
        for k in [k for k, row in enumerate(active) if row[c]]:
            row = active[k]
            f = (row[c] // best) * uinv % q
            active[k] = row = [(x - f * y) % q for x, y in zip(row, P)]
            low[k] = gcd(q, *row[:n])
        if q in low:
            null += [row for row, g in zip(active, low) if g == q]
            active = [row for row, g in zip(active, low) if g < q]
            low = [g for g in low if g < q]
    if T is None:
        return vals, pivots
    return vals, pivots + null if whole else [row[n:] for row in pivots + null]


def preimage_mod(D, L, p, r):
    """Generators of {x : x*D in span(L)} over Z/p^r (the kernel of D when L
    is empty).

    Eliminating [D; L] with the D-coordinates tracked gives U; the relation
    module is spanned by p^{r-v}*U_t for each pivot row t and by U_t for
    each row past the rank."""
    m = len(D)
    if not m:
        return []
    q = p**r
    T = identity(m) + zeros(len(L), m)
    vals, U = eliminate_mod(D + L, p, r, T)
    out = [[p ** (r - v) * a % q for a in row] for v, row in zip(vals, U) if v]
    out += U[len(vals):]
    return [row for row in out if any(row)]


def span_exponent_mod(rows, p, r):
    """e with |span(rows)| = p^e over Z/p^r: the sum of r - v over the
    pivots."""
    vals, _ = eliminate_mod(rows, p, r)
    return r * len(vals) - sum(vals)


def span_contains_mod(L, v, p, r):
    """Whether v lies in span(L) over Z/p^r, i.e. adding v keeps the order."""
    return span_exponent_mod(L + [v], p, r) == span_exponent_mod(L, p, r)


def quotient_exponents_mod(L, B, p, r):
    """Exponents (largest first) of span(L + B)/span(B) over Z/p^r.

    The quotient is (Z/p^r)^len(L) modulo the relations R = {x : x*L in
    span(B)}; eliminating R leaves a Z/p^v for each pivot of valuation v > 0
    and a Z/p^r for each row of L past the rank of R."""
    if not L:
        return ()
    vals, _ = eliminate_mod(preimage_mod(L, B, p, r), p, r)
    exps = [v for v in vals if v] + [r] * (len(L) - len(vals))
    return tuple(sorted(exps, reverse=True))
