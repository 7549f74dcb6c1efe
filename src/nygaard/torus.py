"""The lifted coordinate model of de Rham-Witt cohomology of tori.

The d-torus over the length-n Witt ring is modeled per character weight
m in Z^d: the weight block is the Koszul complex on (m_1, ..., m_d) with
basis T^m dlog T_I in degree |I|, differential

    T^m dlog T_I  ->  sum_{a not in I} m_a (-1)^{#{b in I : b < a}}
                      T^m dlog T_{I + a},

Frobenius phi(T^m dlog T_I) = p^{|I|} T^{pm} dlog T_I, and Nygaard lattices
p^{max(i - deg, 0)}.  All coefficients are exact integers; p^n-precision
enters at comparison time.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb

from .complexes import Complex, acyclic_mod, eta, presented_cone
# DivisionFailure is re-exported: torus.DivisionFailure is a public import path
from .errors import DivisionFailure, PrecisionExhausted, UsageError  # noqa: F401
from .linalg import (
    identity,
    lattice_eq,
    lattice_sum,
    mat_mul,
    mat_scale,
    preimage_lattice,
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


def weights_box(d, M):
    return [tuple(w) for w in product(range(-M, M + 1), repeat=d)]


@dataclass
class TorusDeRham:
    p: int
    d: int
    n: int  # coefficient precision Z/p^n at report time
    max_internal: int = 64  # cap on internal precision n + i

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

    def frobenius_matrix(self, j):
        """phi on degree j in the dlog basis (weight m goes to p*m)."""
        return mat_scale(self.p**j, identity(self.rank(j)))

    def nygaard_scale(self, i, j):
        return self.p ** max(i - j, 0)

    def nygaard_lattice(self, i):
        if self.n + i > self.max_internal:
            raise PrecisionExhausted("internal precision %d exceeds cap" % (self.n + i))
        return NygaardLattice(self, i)

    def divided_frobenius_matrix(self, i, j):
        """phi_i on degree j from the normalized Nygaard basis to the dlog
        basis: p^{max(i-j,0)} * p^j divided by p^i.  The quotient exponent
        max(i-j,0) + j - i = max(j-i,0) is never negative, so the division is
        exact for every i, i < 0 included."""
        e = max(j - i, 0)
        return mat_scale(self.p**e, identity(self.rank(j)))


@dataclass
class NygaardLattice:
    X: TorusDeRham
    i: int

    def scale(self, j):
        return self.X.nygaard_scale(self.i, j)


def build_torus(p, d, n, max_internal=64):
    if d < 1 or n < 1:
        raise UsageError("the torus needs d >= 1 and n >= 1, got d = %d, n = %d" % (d, n))
    return TorusDeRham(p, d, n, max_internal)


def frobenius_chain_map_check(X, m_box):
    """phi is a chain map: phi then d at weight pm equals d at m then phi."""
    frob = {j: X.frobenius_matrix(j) for j in range(X.d + 1)}  # weight-free
    for m in m_box:
        pm = tuple(X.p * a for a in m)
        for j in range(X.d):
            lhs = mat_mul(frob[j], X.diff_matrix(pm, j))
            rhs = mat_mul(X.diff_matrix(m, j), frob[j + 1])
            if lhs != rhs:
                return False
    return True


def divided_frobenius_identity_check(X, i):
    """The two matrix identities of the divided Frobenius in each degree:
    p^i * phi_i equals phi restricted to the Nygaard lattice, and phi_i
    restricted to N^{>= i+1} equals p * phi_{i+1}.  In normalized bases the
    inclusion N^{>=i+1} -> N^{>=i} is the scale ratio
    scale(i+1,j)/scale(i,j)."""
    N = X.nygaard_lattice(i)
    for j in range(X.d + 1):
        lhs = mat_scale(X.p**i, X.divided_frobenius_matrix(i, j))
        # phi on the normalized basis p^{max(i-j,0)} e_I
        rhs = mat_scale(N.scale(j), X.frobenius_matrix(j))
        if lhs != rhs:
            return False
        incl = X.nygaard_scale(i + 1, j) // N.scale(j)
        lhs = mat_scale(incl, X.divided_frobenius_matrix(i, j))
        rhs = mat_scale(X.p, X.divided_frobenius_matrix(i + 1, j))
        if lhs != rhs:
            return False
    return True


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
            # canonical truncation: kernel of d mod p in degree i
            D = X.diff_matrix(w, j)
            K = preimage_lattice(D, mat_scale(p, identity(X.rank(j + 1))))
            gens = K
            rels = mat_scale(p, identity(r))
        terms[j] = (gens, rels)
        if j < min(i, X.d):
            # no differential out of degree i in the truncation
            maps[j] = X.diff_matrix(w, j)
    return terms, maps


def conjugate_check(X, i, M):
    """Lemma-style check: phi_i mod p: N^i -> tau^{<=i} Omega is a
    quasi-isomorphism per weight in the box, certified by the acyclicity of
    its cone mod p; weights outside the image of multiplication by p must
    have acyclic truncation.  Every term on both sides is killed by p, so
    the cohomology mod p is the cohomology itself."""
    p = X.p
    report = {}
    for w in weights_box(X.d, M):
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
    """Exact per-weight lattice identity: the image of N^{>=i} in the weight
    p*m block equals p^i X  intersect  eta_p X there, degree by degree.

    Verified over Z, which also gives the identity mod p^n: equal lattices
    have equal spans mod p^n."""
    p = X.p
    N = X.nygaard_lattice(i)
    report = {}
    for m in weights_box(X.d, M):
        w = tuple(p * a for a in m)
        block = X.weight_block(w)
        E, incl = eta(p, block)
        ok = True
        for j in range(X.d + 1):
            r = X.rank(j)
            if r == 0:
                continue
            phi_img = mat_scale(N.scale(j) * p**j, identity(r))
            fil = restrict_lattice(mat_scale(p**i, identity(r)), None, incl[j])
            if not lattice_eq(phi_img, fil):
                ok = False
        report[m] = ok
    report["all_ok"] = all(v for k, v in report.items() if isinstance(k, tuple))
    return report


# ---------------------------------------------------------------------------
# Hodge quotient exactness


def hodge_quotient_check(X, i):
    """Degreewise exactness of X/N^{>=i} -p-> X/N^{>=i+1} -> sigma^{<=i}(X/p).

    The terms are scalar quotients Z^r/p^a (weight independent); both maps
    are scalar and commute with every weight differential, so the check is a
    per-degree finite-module computation: injectivity of p, image = kernel
    of the reduction, surjectivity of the reduction."""
    p = X.p
    ok = True
    details = {}
    for j in range(X.d + 1):
        r = X.rank(j)
        if r == 0:
            continue
        a = max(i - j, 0)
        a1 = max(i + 1 - j, 0)
        Ir = identity(r)
        if a1 == 0:
            # j > i: all three terms vanish
            details[j] = {"inj": a == 0, "mid": True, "surj": True}
            if a != 0:
                ok = False
            continue
        # ker(p: Z^r/p^a -> Z^r/p^{a1}) = p^{a1-1} Z^r / p^a Z^r
        inj = a1 - 1 >= a
        # image rows: p times the source generators (plus target relations)
        im_m1 = lattice_sum(mat_scale(p, Ir), mat_scale(p**a1, Ir))
        # kernel of the reduction, via the generic preimage machinery
        ker_m2 = lattice_sum(
            preimage_lattice(Ir, mat_scale(p, Ir)), mat_scale(p**a1, Ir)
        )
        mid = lattice_eq(im_m1, ker_m2)
        surj = a1 >= 1
        details[j] = {"inj": inj, "mid": mid, "surj": surj}
        if not (inj and mid and surj):
            ok = False
    return {"ok": ok, "details": details}
