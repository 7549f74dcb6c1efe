"""Filtered complexes, the Beilinson t-structure, and the decalage eta_f.

Complexes are bounded cochain complexes of finite free Z-modules in the row
convention of linalg.  Filtrations are stored on a finite index window with a
declared extension pattern; operations refuse inputs whose result would
depend on indices outside the declared pattern.
"""

from .errors import CompositeNonzero, NotNonzerodivisor, UsageError, WindowTooSmall
from .linalg import (
    PGroup,
    _hnf_coordinates,
    cocycles_boundaries,
    cohomology_invariants,
    hermite_form,
    identity,
    lattice_contains,
    mat_is_zero,
    mat_mul,
    mat_scale,
    presented_complex_cohomology,
    quotient_invariants,
    restrict_lattice,
    row_mul,
    span_exponent_mod,
    zeros,
)


class Complex:
    """ranks: degree -> rank; diffs[n]: matrix (ranks[n] x ranks[n+1])."""

    def __init__(self, ranks, diffs):
        self.ranks, self.diffs = ranks, diffs
        for n, D in diffs.items():
            if len(D) != ranks.get(n, 0) or (D and len(D[0]) != ranks.get(n + 1, 0)):
                raise UsageError("differential %d does not match the ranks" % n)
        for n in diffs:
            if n + 1 in diffs:
                D1, D2 = diffs[n], diffs[n + 1]
                if D1 and D2 and D1[0] and D2[0] and not mat_is_zero(mat_mul(D1, D2)):
                    raise CompositeNonzero("d*d != 0 at degree %d" % n)

    def degrees(self):
        return sorted(self.ranks)

    def rank(self, n):
        return self.ranks.get(n, 0)

    def diff(self, n):
        D = self.diffs.get(n)
        if D is None:
            return zeros(self.rank(n), self.rank(n + 1))
        return D

    def invariants(self):
        return cohomology_invariants(self.ranks, self.diffs)


# ---------------------------------------------------------------------------
# decalage


def eta_lattices(C, fpow):
    """Hermite rows of (eta_f C)^n = {x in f^n C^n : dx in f^{n+1} C^{n+1}}
    per degree n of C, where fpow(n) gives rows spanning f^n C^n."""
    return {n: restrict_lattice(fpow(n), C.diff(n), fpow(n + 1)) for n in C.degrees()}


def eta(f, C):
    """The subcomplex eta_f C of eta_lattices, for f^n C^n = f^n * I.

    f is a nonzero integer (nonzerodivisor on free Z-modules iff f != 0).
    Returns (Complex, inclusions) where inclusions[n] expresses the chosen
    basis of (eta_f C)^n in the coordinates of C^n.  In a degree n < 0 that
    lattice contains C^n, so it has such coordinates only for f = +-1, where
    f^n = f^{-n}; any other f raises UsageError.
    """
    if f == 0:
        raise NotNonzerodivisor("f = 0")
    degs = C.degrees()
    for n in degs:
        if n < 0 and C.rank(n) and abs(f) != 1:
            raise UsageError("eta_%d in degree %d: f^%d C^%d is not a sublattice of C^%d"
                             % (f, n, n, n, n))
    incl = eta_lattices(C, lambda n: mat_scale(f ** abs(n), identity(C.rank(n))))
    ranks = {n: len(incl[n]) for n in degs}
    diffs = {}
    for n in degs:
        if n + 1 not in ranks or not incl[n]:
            continue
        # incl[n + 1] is a Hermite basis, so coordinates are read off its pivots
        D = _hnf_coordinates(incl[n + 1], mat_mul(incl[n], C.diff(n)))
        if None in D:
            raise CompositeNonzero("degree %d: the eta image leaves the eta lattice" % n)
        if ranks.get(n + 1, 0):
            diffs[n] = D
    return Complex(ranks, diffs), incl


def torsion_quotient_invariants(invs, free, f):
    """Invariants of H/H[f] given invariants of H (exact group arithmetic)."""
    from math import gcd

    out = []
    for d in invs:
        q = d // gcd(d, f)
        if q > 1:
            out.append(q)
    return sorted(out), free


def eta_cohomology_law_check(f, C, p):
    """Assert H^j(eta_f C) = H^j(C)/H^j(C)[f] degree by degree."""
    E, _ = eta(f, C)
    lhs = E.invariants()
    rhs_src = C.invariants()
    report = {}
    for j in C.degrees():
        invs, free = rhs_src.get(j, ([], 0))
        expect = torsion_quotient_invariants(invs, free, f)
        got = lhs.get(j, ([], 0))
        got = (sorted(got[0]), got[1])
        report[j] = {
            "eta": got,
            "quotient_by_torsion": expect,
            "match": got == expect,
            "pgroup": PGroup.from_invariants(p, got[0], got[1]).to_json(),
        }
    return report


# ---------------------------------------------------------------------------
# filtered complexes


class FilteredComplex:
    """Descending filtration by sub-lattices over a finite index window.

    lat[(i, n)] holds generator rows of Fil^i in degree n.  Below the window
    the filtration is constant; above it follows `above`, either ("zero",)
    or ("f-adic", f) meaning Fil^{i1+k} = f^k * Fil^{i1}.
    """

    def __init__(self, C, i0, i1, lat, above=("zero",)):
        self.C, self.i0, self.i1, self.lat, self.above = C, i0, i1, lat, above

    def fil(self, i, n):
        if i <= self.i0:
            return self.lat[(self.i0, n)]
        if i <= self.i1:
            return self.lat[(i, n)]
        if self.above[0] == "zero":
            return []
        if self.above[0] == "f-adic":
            f = self.above[1]
            base = self.lat[(self.i1, n)]
            c = f ** (i - self.i1)
            return [[c * a for a in row] for row in base]
        raise WindowTooSmall("no extension pattern above index %d" % self.i1)

    def validate(self):
        for i in range(self.i0, self.i1 + 1):
            for n in self.C.degrees():
                G = self.fil(i, n)
                Gn = self.fil(i + 1, n)
                if not lattice_contains(G, Gn):
                    raise CompositeNonzero("Fil^%d not inside Fil^%d in degree %d" % (i + 1, i, n))
                img = mat_mul(G, self.C.diff(n))
                if self.C.rank(n + 1) and not lattice_contains(self.fil(i, n + 1), img):
                    raise CompositeNonzero("d does not preserve Fil^%d in degree %d" % (i, n))
        return True


def f_adic_filtration(f, C, i1):
    """The filtration f^* (x) C: Fil^i = f^max(i,0) C, f-adic above i1."""
    lat = {}
    for i in range(0, i1 + 1):
        for n in C.degrees():
            r = C.rank(n)
            lat[(i, n)] = mat_scale(f**i, identity(r)) if r else []
    return FilteredComplex(C, 0, i1, lat, above=("f-adic", f))


def trivial_filtration(C, i1=1):
    """Fil^0 = all, Fil^i = 0 for i >= 1."""
    lat = {}
    for n in C.degrees():
        r = C.rank(n)
        lat[(0, n)] = identity(r) if r else []
        for i in range(1, i1 + 1):
            lat[(i, n)] = []
    return FilteredComplex(C, 0, i1, lat, above=("zero",))


def beilinson_truncate(F):
    """Connective cover for the Beilinson t-structure (filtration decalee).

    (tau F)(i)^n = {x in F(max(i,n))^n : dx in F(max(i,n)+1)^{n+1}}; for
    n < i the d-condition is automatic.  The graded-piece law
    gr^i(tau F) = tau^{<=i} gr^i(F) then holds degreewise.
    """
    C = F.C
    degs = C.degrees()
    top = max(degs) if degs else 0
    if F.above[0] not in ("zero", "f-adic"):
        raise WindowTooSmall("need an extension pattern above the window")
    lat = {}
    for i in range(F.i0, F.i1 + 1):
        for n in degs:
            j = max(i, n)
            if n >= i and C.rank(n + 1):
                # the d-condition dx in F(n+1) only bites in degrees n >= i;
                # below it d(F(i)) lies in F(i) already
                lat[(i, n)] = restrict_lattice(F.fil(j, n), C.diff(n), F.fil(j + 1, n + 1))
            else:
                lat[(i, n)] = hermite_form(F.fil(j, n))
    return FilteredComplex(C, F.i0, F.i1, lat, above=F.above)


def underlying_complex_lattices(F):
    """Per-degree lattice of the i -> -infinity colimit of (tau_B F): for
    i <= n the degree-n piece is {x in F(n)^n : dx in F(n+1)^{n+1}}."""
    C = F.C
    return {
        n: restrict_lattice(F.fil(n, n), C.diff(n), F.fil(n + 1, n + 1))
        if C.rank(n + 1) else hermite_form(F.fil(n, n))
        for n in C.degrees()
    }


def graded_piece(F, i):
    """gr^i F as a presented complex: terms (Fil^i gens, Fil^{i+1} rels)."""
    terms = {}
    maps = {}
    for n in F.C.degrees():
        terms[n] = (F.fil(i, n), F.fil(i + 1, n))
        if F.C.rank(n + 1):
            maps[n] = F.C.diff(n)
    return terms, maps


def truncated_graded_cohomology(F, i, p):
    """Cohomology of tau^{<=i} gr^i(F) as PGroups (zero above degree i)."""
    terms, maps = graded_piece(F, i)
    full = presented_complex_cohomology(terms, maps, p)
    return {n: (g if n <= i else PGroup.zero(p)) for n, g in full.items()}


def graded_law_check(F, p):
    """gr^i(beilinson_truncate(F)) vs tau^{<=i} gr^i(F), via cohomology."""
    T = beilinson_truncate(F)
    report = {}
    for i in range(F.i0, F.i1):
        terms, maps = graded_piece(T, i)
        got = presented_complex_cohomology(terms, maps, p)
        expect = truncated_graded_cohomology(F, i, p)
        ok = all(got.get(n, PGroup.zero(p)) == expect.get(n, PGroup.zero(p)) for n in F.C.degrees())
        report[i] = {"match": ok, "got": {n: str(g) for n, g in got.items()},
                     "expected": {n: str(g) for n, g in expect.items()}}
    return report


# ---------------------------------------------------------------------------
# cones of maps of presented complexes


def presented_cone(src, tgt, fmaps):
    """Cone of a chain map f: src -> tgt of presented complexes.

    src and tgt are (terms, maps) pairs as in presented_complex_cohomology;
    fmaps[j] is f in degree j on the ambients.  E^n = src^{n+1} (+) tgt^n
    with d(x, y) = (-x d_src, x f + y d_tgt), so f is a quasi-isomorphism
    iff the cone is acyclic."""
    (s_terms, s_maps), (t_terms, t_maps) = src, tgt

    def width(terms, j):
        gens = terms.get(j, ([], []))[0]
        return len(gens[0]) if gens else 0

    def pad(rows, left, right):
        return [[0] * left + list(row) + [0] * right for row in rows]

    degs = sorted({j - 1 for j in s_terms} | set(t_terms))
    terms, maps = {}, {}
    for n in degs:
        gs, rs = s_terms.get(n + 1, ([], []))
        gt, rt = t_terms.get(n, ([], []))
        a_s, a_t = width(s_terms, n + 1), width(t_terms, n)
        terms[n] = (pad(gs, 0, a_t) + pad(gt, a_s, 0), pad(rs, 0, a_t) + pad(rt, a_s, 0))
    for n in degs:
        a_s, a_t = width(s_terms, n + 1), width(t_terms, n)
        b_s, b_t = width(s_terms, n + 2), width(t_terms, n + 1)
        if n + 1 not in terms or a_s + a_t == 0 or b_s + b_t == 0:
            continue
        M = zeros(a_s + a_t, b_s + b_t)
        Ds, f, Dt = s_maps.get(n + 1), fmaps.get(n + 1), t_maps.get(n)
        for r in range(a_s):
            if Ds is not None and b_s:
                M[r][:b_s] = [-a for a in Ds[r]]
            if f is not None and b_t:
                M[r][b_s:] = f[r]
        if Dt is not None and b_t:
            for r in range(a_t):
                M[a_s + r][b_s:] = Dt[r]
        maps[n] = M
    return terms, maps


def acyclic_mod(terms, maps, p, r):
    """Whether a complex of presented groups has zero cohomology mod p^r;
    terms and maps are as in presented_complex_cohomology.  False as well
    when it is not one: a row leaves its generator span, or a relation or a
    boundary does not map into the next relations.

    The rels of degree t and the images of the Hermite rows of degree t-1
    are written in the Hermite coordinates of the gens of degree t (the one
    step over Z; gens may be unsaturated), so C^t = (Z/p^r)^{n_t}/span(R_t)
    with map rows D_t.  With |span(X)| = p^e(X), e = span_exponent_mod:
    log_p |C^t| = r n_t - e(R_t) and log_p |im d_t| = e(R_{t+1} + D_t) -
    e(R_{t+1}), 0 when no map leaves degree t.  The rows of D_{t-1} and R_t
    times D_t must not grow e(R_{t+1}): d∘d = 0 and relations mapping into
    relations at once.  Then H = 0 iff |C^t| = |im d_{t-1}| |im d_t| in
    every degree t.  Proof: C^t/ker d_t ≅ im d_t, so |ker d_t| =
    |C^t|/|im d_t|, and the subgroup im d_{t-1} of ker d_t is all of it iff
    their orders agree.  At most three eliminations per degree, none with a
    transform."""
    q = p**r
    H = {t: hermite_form(g) if g else [] for t, (g, _) in terms.items()}
    R, D = {}, {}
    for t, (_, rels) in terms.items():
        rels = [row for row in rels if any(row)]
        into = t - 1 in maps and t - 1 in terms
        img = [row_mul(h, maps[t - 1]) for h in H[t - 1]] if into else []
        xs = _hnf_coordinates(H[t], rels + img)
        if None in xs:
            return False
        xs = [[a % q for a in x] for x in xs]
        R[t] = xs[:len(rels)]
        if into:
            D[t - 1] = xs[len(rels):]
    e = {t: span_exponent_mod(R[t], p, r) for t in R}
    im = {t: span_exponent_mod(R[t + 1] + D[t], p, r) - e[t + 1] for t in D}
    for t in D:
        BD = [row for row in mat_mul(D.get(t - 1, []) + R[t], D[t]) if any(a % q for a in row)]
        if BD and (not R[t + 1] or span_exponent_mod(R[t + 1] + BD, p, r) != e[t + 1]):
            return False
    return all(r * len(H[t]) - e[t] == im.get(t - 1, 0) + im.get(t, 0) for t in H)


# ---------------------------------------------------------------------------
# the heart: chain complexes from filtered complexes


class ChainComplexObject:
    """Heart object: slot i carries H^i(gr^i F) with the boundary map.

    slots: i -> (invariants, free rank); diff: i -> matrix from the slot i
    generators to the slot i+1 generators; gens: i -> generator rows
    (ambient)."""

    def __init__(self, slots, diff, gens):
        self.slots, self.diff, self.gens = slots, diff, gens


def beilinson_H0(F, p):
    """The heart object (H^i(gr^i F), Bockstein-style boundary), d^2 = 0.

    Also returns the full graded cohomology table H^n(gr^i F) for reporting.
    Slot i and row i of the table come from one presentation of gr^i F.
    """
    C = F.C
    cocycles = {}
    boundaries = {}
    slots = {}
    table = {}
    for i in range(F.i0, F.i1 + 1):
        pres = cocycles_boundaries(*graded_piece(F, i))
        inv = {n: quotient_invariants(Z, B) for n, (Z, B) in pres.items()}
        table[i] = {n: PGroup.from_invariants(p, *iv).to_json() for n, iv in inv.items()}
        cocycles[i], boundaries[i] = pres.get(i, ([], []))
        slots[i] = inv.get(i, ([], 0))
    diff = {}
    for i in sorted(cocycles):
        if i + 1 not in cocycles or not cocycles[i] or not cocycles[i + 1]:
            continue
        # the cocycle rows are a Hermite basis (`cocycles_boundaries`)
        rows = _hnf_coordinates(cocycles[i + 1], mat_mul(cocycles[i], C.diff(i)))
        if None in rows:
            raise CompositeNonzero("slot %d: the boundary image is not a graded cocycle" % i)
        diff[i] = rows
    # d^2 = 0 in the presented sense: composite lands in boundaries
    for i in diff:
        if i + 1 in diff:
            amb = mat_mul(mat_mul(diff[i], diff[i + 1]), cocycles[i + 2])
            if not lattice_contains(boundaries[i + 2], amb):
                raise CompositeNonzero("heart differential does not square to zero at %d" % i)
    return ChainComplexObject(slots, diff, cocycles), table
