"""Complexes of free Z-modules, the decalage eta_f, and acyclicity of
presented complexes mod p^r.

Complexes are bounded cochain complexes of finite free Z-modules in the row
convention of linalg; `eta` certifies H^j(eta_f C) = H^j(C)/H^j(C)[f]
degree by degree.  A presented complex is a pair (terms, maps): terms[j] =
(gens, rels) with span(rels) ⊆ span(gens) in a common ambient Z^{n_j}, and
maps[j] the ambient matrix from degree j to j+1.  The checks of `torus` and
`qtorus` build such complexes and their cones, and ask only whether they
are acyclic mod p^r.
"""

from .errors import CompositeNonzero, NotNonzerodivisor, UsageError
from .linalg import (
    PGroup,
    _hnf_coordinates,
    cohomology_invariants,
    hermite_form,
    identity,
    mat_is_zero,
    mat_mul,
    mat_scale,
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
        raise NotNonzerodivisor("f must be nonzero")
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
# cones of maps of presented complexes


def presented_cone(src, tgt, fmaps):
    """Cone of a chain map f: src -> tgt of presented complexes.

    src and tgt are presented complexes (terms, maps), as in the module
    docstring; fmaps[j] is f in degree j on the ambients.  E^n = src^{n+1}
    (+) tgt^n with d(x, y) = (-x d_src, x f + y d_tgt), so f is a
    quasi-isomorphism iff the cone is acyclic."""
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
    """Whether a presented complex (terms, maps), as in the module
    docstring, has zero cohomology mod p^r.  False as well when it is not
    one: a row leaves its generator span, or a relation or a boundary does
    not map into the next relations.

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

