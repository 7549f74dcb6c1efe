"""The lifted coordinate model of de Rham-Witt cohomology of tori.

The d-torus over the length-n Witt ring is modeled per character weight
m in Z^d: the weight block is the Koszul complex on (m_1, ..., m_d) with
basis T^m dlog T_I in degree |I|, differential

    T^m dlog T_I  ->  sum_{a not in I} m_a (-1)^{#{b in I : b < a}}
                      T^m dlog T_{I + a},

Frobenius phi(T^m dlog T_I) = p^{|I|} T^{pm} dlog T_I, and Nygaard lattices
p^{max(i - deg, 0)}.  All coefficients are exact integers, and every check
is made over Z, which gives it mod p^n for every n.

Weight classes.  Every per-weight check of this module and of `qtorus`
gives the same verdict at m as at gcd(m) e_1, with e_1 = (1, 0, ..., 0).
So the checks run over `weight_classes(d, M)`, the representatives c e_1
for c = 0..M.  Each of them lies in the box of radius M, and every weight of
the box has gcd at most M, so the verdict over the representatives is the
verdict over the box.  The proof is written for the q-de Rham model of
`qtorus` over B = Z[q]/((q-1)^N), whose weight-m block is the Koszul complex
on ([m_1]_{q^p}, ..., [m_d]_{q^p}); this model is its case N = 1.  Let
c = gcd(m).

1. The Euclid step [a]_x = [a-b]_x + x^{a-b} [b]_x, with
   [-a]_x = -x^{-a} [a]_x, gives g(x) in GL_d(Z[x^{+-1}]) with
   g ([m_1]_x, ..., [m_d]_x) = ([c]_x, 0, ..., 0).  Euclid on p^s m makes
   the same steps as on m, so one g serves the Frobenius orbit of m; this
   covers the pair (w, w/p) of `conjugate_check`.
2. The weight p^s m has the blocks [p^s m_a]_{q^p} = [p^s]_{q^p} [m_a]_x
   with x = q^{p^{s+1}}: at m use g(q^p), at pm use g(q^{p^2}).  q is a unit
   of B, so Lambda^j(g(q^{p^{s+1}})) is a B-linear automorphism of the
   weight-p^s m block in Koszul degree j.  It carries the Koszul
   differential (the wedge with the vector of blocks) to that of
   p^s c e_1.  No rescaling by [c]_x is needed, because the representative
   is c e_1, not e_1.
3. phi is q -> q^p on coefficients times the scalar xi_tilde^j, so it
   carries g(q^p) to g(q^{p^2}): the maps at m and at pm commute with phi
   and with phi_i.  Being B-linear, they preserve every B-submodule given by
   a scalar of B in each Koszul degree, and every construction made from
   such submodules and the differential: the xi-power Nygaard lattices,
   eta_{xi_tilde}, Fil^i = xi_tilde^i X  intersect  eta, the normalised
   differential and the mu-relations of `qtorus._graded_cone`.  Along
   q -> 1 they reduce to the maps of this model, so the specialisation
   check transfers too.
4. At N = 1, and for `TorusDeRham`, every [k]_x is the integer k and g lies
   in GL_d(Z).  The maps are then isomorphisms of complexes over Z that
   commute with the scalar Frobenius p^j and with multiplication by p.  So
   the identities of lattices over Z transfer (eta_p, p^i X  intersect
   eta_p and the Nygaard-Frobenius image), and so do the mod-p cones of
   `conjugate_check`; its case split agrees, since p | w exactly when
   p | gcd(w).
"""

from functools import lru_cache
from itertools import combinations
from math import comb

from .complexes import Complex, acyclic_mod, eta_lattices, presented_cone
from .errors import PrecisionExhausted, UsageError
from .linalg import (
    identity,
    lattice_eq,
    mat_scale,
    preimage_mod,
    restrict_lattice,
    zeros,
)


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
