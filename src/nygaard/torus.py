"""The lifted coordinate model of de Rham-Witt cohomology of tori.

`TorusDeRham(p)` is the 1-torus over the length-n Witt ring, weight by
weight: in weight m in Z the block is Z --m--> Z in Koszul degrees 0 and 1,
on the basis T^m and T^m dlog T.  Frobenius is phi(T^m dlog T^j) =
p^j T^{pm} dlog T^j, and the Nygaard lattice of level i in degree j is
p^{max(i - j, 0)}.  All coefficients are exact integers, and every check is
made over Z, which gives it mod p^n for every n.  The d-torus enters only
through the Künneth lemma, step 5 below: every command on the d-torus runs
1-torus checks.

The d-torus.  Its weight-m block, m in Z^d, is the Koszul complex on
(m_1, ..., m_d): basis T^m dlog T_I in degree |I|, differential

    T^m dlog T_I  ->  sum_{a not in I} m_a (-1)^{#{b in I : b < a}}
                      T^m dlog T_{I + a},

phi(dlog T_I) = p^{|I|} dlog T_I and the Nygaard lattices
p^{max(i - |I|, 0)}.  The q-de Rham model of `qtorus` over
B = Z[q]/((q-1)^N) is the Koszul complex on ([m_1]_{q^p}, ...,
[m_d]_{q^p}), with phi(dlog T_I) = xi_tilde^{|I|} dlog T_I and the lattices
xi^{max(i - |I|, 0)}; this model is its case N = 1.  No command builds a
d-dimensional block; `tests/oracles.py` keeps them as the reference.

Weight classes.  Every per-weight check gives the same verdict at m as at
gcd(m) e_1, with e_1 = (1, 0, ..., 0).  So the checks run over
`weight_classes(M)`, the integers c = 0..M standing for c e_1.  Each c e_1
lies in the box of radius M, and every weight of the box has gcd at most M,
so the verdict over the representatives is the verdict over the box.  The
proof is written for the q-de Rham model.  Let c = gcd(m).

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
4. At N = 1, and for this model, every [k]_x is the integer k and g lies
   in GL_d(Z).  The maps are then isomorphisms of complexes over Z that
   commute with the scalar Frobenius p^j and with multiplication by p.  So
   the identities of lattices over Z transfer (eta_p, p^i X  intersect
   eta_p and the Nygaard-Frobenius image), and so do the mod-p cones of
   `conjugate_check`; its case split agrees, since p | w exactly when
   p | gcd(w).
5. Künneth.  At c e_1 the d-torus block is the direct sum, over the
   subsets J of {2..d}, of the 1-torus block at c shifted by t2 = |J|.
   The entries [m_a]_x, a >= 2, are [0]_x = 0.  So dlog T_J and
   dlog T_1 ^ dlog T_J span a summand closed under d: d(dlog T_J) =
   [c]_{q^p} dlog T_1 ^ dlog T_J (coordinate 1 comes first, so the Koszul
   sign is +), and d(dlog T_1 ^ dlog T_J) = 0.  That summand is the
   1-torus block C with Koszul degree t1 placed in degree t = t1 + t2,
   C[-t2].  In Koszul degree t, can is the inclusion of the Nygaard
   lattice xi^{max(i-t,0)}, phi_i in the normalised coordinates is
   xi_tilde^{max(t-i,0)} times the coefficient Frobenius, and the ratio of
   consecutive xi-scales is xi^{max(i-t,0) - max(i-t-1,0)}.  These depend
   on (t, i) only through t - i = t1 - (i - t2): on the summand of J they
   are the maps of the 1-torus at level i - t2.  phi itself is xi_tilde^t
   times the coefficient Frobenius, xi_tilde^{t2} times that of the
   1-torus.  Three facts carry each check across the sum; f is p, or
   xi_tilde, whose multiplication matrix on B is triangular with p on the
   diagonal, so multiplication by f^k is injective on every B^r:
   (a) eta_f(C[-k]) = f^k eta_f(C)[-k].  In degree t,
       {x in f^t C^{t-k} : dx in f^{t+1}} is f^k times
       {y in f^{t-k} C^{t-k} : dy in f^{t-k+1}}, because f^k is injective
       and commutes with d.  For the same reason, for L inside C^{t-k},
       f^i C^{t-k}  intersect  f^k L is f^k (f^{i-k} C^{t-k}  intersect  L)
       if i >= k, and f^k L if i < k.
   (b) Canonical truncation splits over the summands:
       tau^{<=i}(C[-k]) = (tau^{<=i-k} C)[-k], and kernels, cones and their
       cohomology split over a direct sum.
   (c) A summand with t2 > i is vacuous.  Its Koszul degrees t >= t2 are
       all above i, where the Nygaard scale is 1 at the levels i and i + 1
       and phi_i is xi_tilde^{t-i} times the coefficient Frobenius.  So
       N^i = N^{>=i}/N^{>=i+1} is 0 there, and tau^{<=i} of it is 0.

What each command runs, at the class c e_1, by step 5:
- `derham` at level i.  The cone of phi_i mod p: N^i -> tau^{<=i} splits
  by (b) into the 1-torus cones at the levels i - t2, shifted, and a
  summand with t2 > i has source and target 0 by (c).  Well-definedness
  reads the degrees t <= i, which lie in summands with t2 <= i.  In degree
  t of the summand of J, phi(N^{>=i}) = p^{max(i-t,0)+t} X is p^{t2} times
  the 1-torus image at level i - t2 in degree t1, and
  p^i X  intersect  eta_p is, by (a), p^{t2} times the 1-torus lattice at
  level i - t2.  Multiplication by p^{t2} is injective, so the identity
  holds exactly when the 1-torus identity does.  For t2 > i both sides are
  p^t X: every entry of d at the weight pc is divisible by p, so
  eta_p(C)^{t1} = p^{t1} C^{t1}.  A J with |J| = t2 exists exactly when
  t2 <= d - 1, and J = {} is the 1-torus itself.  So the verdict at d is
  the conjunction of the 1-torus verdicts at the levels i - t2,
  0 <= t2 <= min(d - 1, i): `summand_levels(d, i)`.
- `qderham`.  The specialisation and chain-map checks read no level: the
  blocks [0]_{q^p} = 0 agree with 0, phi is xi_tilde^{t2} times the 1-torus
  phi on the summand of J, and xi_tilde^{t2} is injective, so phi d = d phi
  there exactly when it holds on the 1-torus.  The Nygaard stability,
  divided Frobenius and L eta checks run at every level i' = 0..i.  On the
  summand of J at level i' with t2 <= i' they are the 1-torus checks at
  level i' - t2, which lies in 0..i: the lattices and maps by step 5, the
  eta lattices and Fil by (a), each identity multiplied by the injective
  xi_tilde^{t2}, and the graded cones by (b).  With t2 > i' they hold
  outright by (c): the lattices are all of X, both sides of each
  divided-Frobenius identity are xi_tilde^t times the coefficient
  Frobenius, Fil^{i'} = Fil^{i'+1} = eta_{xi_tilde} in the degrees t > i'
  (by (a), eta lies in xi_tilde^{t2} X), so both ends of the graded cone
  are 0, and phi(N^{>=i'}) = phi(X) lies in eta because the 1-torus
  containment (a) of `qtorus.lnu_identification_check`, multiplied by
  xi_tilde^{t2}, says so.  The summand J = {} runs every 1-torus check at
  the levels 0..i, so the verdict at d is the 1-torus verdict at the same
  i, and `qderham` reads -d only for its config.
- `syntomic`.  At the weight 0, phi_i - can in Koszul degree j is C(d, j)
  copies of one N x N block, a function of j - i; the methods of both
  models take any degree j for it.  The orbits are the Künneth sum of the
  `syntomic` docstring.
"""

from .complexes import Complex, acyclic_mod, eta_lattices, presented_cone
from .errors import PrecisionExhausted
from .linalg import lattice_eq, preimage_mod, restrict_lattice


def weight_classes(M):
    """The representatives c e_1, c = 0..M, of the weights of the box of
    radius M, as the integers c: by the lemma of the module docstring every
    per-weight check gives the same verdict at m as at gcd(m) e_1."""
    return list(range(M + 1))


def summand_levels(d, i):
    """The levels i - t2, 0 <= t2 <= min(d - 1, i), of the 1-torus summands
    of the d-torus at level i that are not vacuous (step 5)."""
    return [i - t2 for t2 in range(min(d - 1, i) + 1)]


MAX_LEVEL = 62  # cap on the Nygaard level i


class TorusDeRham:
    """The integral 1-torus, weight by weight; every matrix is 1 x 1."""

    def __init__(self, p):
        self.p = p

    def diff_matrix(self, m):
        """The Koszul differential from degree 0 to 1 in weight m."""
        return [[m]]

    def weight_block(self, m):
        return Complex({0: 1, 1: 1}, {0: self.diff_matrix(m)})

    def nygaard_scale(self, i, j):
        return self.p ** max(i - j, 0)

    def divided_frobenius_matrix(self, i, j):
        """phi_i on degree j from the normalized Nygaard basis to the dlog
        basis: p^{max(i-j,0)} * p^j divided by p^i.  The quotient exponent
        max(i-j,0) + j - i = max(j-i,0) is never negative, so the division is
        exact for every i, i < 0 included."""
        return [[self.p ** max(j - i, 0)]]


# ---------------------------------------------------------------------------
# conjugate filtration quasi-isomorphism (phi_i mod p on graded pieces)


def _nygaard_graded_terms(X, i, m):
    """N^i = N^{>=i}/N^{>=i+1} in weight m, in normalized coordinates.

    Degree j uses the basis p^{max(i-j,0)} T^m dlog T^j, so the graded piece
    is Z/p for j <= i and zero above; the normalized differential carries
    the scale ratio p^{max(i,0) - max(i-1,0)}."""
    terms = {j: ([[1]], [[X.p if j <= i else 1]]) for j in (0, 1)}
    ratio = X.nygaard_scale(i, 0) // X.nygaard_scale(i, 1)
    return terms, {0: [[ratio * a for a in row] for row in X.diff_matrix(m)]}


def _mod_p_truncated_terms(X, i, w):
    """tau^{<= i}(weight-w block mod p) as a presented complex over Z."""
    p = X.p
    terms = {j: ([], []) if j > i else ([[1]], [[p]]) for j in (0, 1)}
    if i == 0:
        # canonical truncation: kernel of d mod p in degree 0, lifted to Z
        # together with the relations p*Z
        terms[0] = (preimage_mod(X.diff_matrix(w), [], p, 1) + [[p]], [[p]])
    # no differential out of degree i in the truncation
    maps = {0: X.diff_matrix(w)} if i >= 1 else {}
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
    for w in weight_classes(M):
        tgt = _mod_p_truncated_terms(X, i, w)
        if w % p:
            report[w] = {"case": "acyclic", "ok": acyclic_mod(*tgt, p, 1)}
            continue
        # well-definedness: phi_i(N^{>= i+1}) lies in p * (target)
        well_defined = True
        for j in range(min(i, 1) + 1):
            incl = X.nygaard_scale(i + 1, j) // X.nygaard_scale(i, j)
            if any(incl * x % p for row in X.divided_frobenius_matrix(i, j) for x in row):
                well_defined = False
        # the ambient map: phi_i on the normalized Nygaard basis
        fmaps = {j: X.divided_frobenius_matrix(i, j) for j in (0, 1)}
        cone = presented_cone(_nygaard_graded_terms(X, i, w // p), tgt, fmaps)
        report[w] = {"case": "phi_i", "ok": well_defined and acyclic_mod(*cone, p, 1)}
    report["all_ok"] = all(v["ok"] for v in report.values())
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
    for m in weight_classes(M):
        block = X.weight_block(p * m)
        incl = eta_lattices(block, lambda j: [[p**j]] * block.rank(j))
        report[m] = all(
            lattice_eq([[X.nygaard_scale(i, j) * p**j]],
                       restrict_lattice([[p**i]], None, incl[j]))
            for j in (0, 1))
    report["all_ok"] = all(report.values())
    return report
