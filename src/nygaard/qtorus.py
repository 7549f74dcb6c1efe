"""The q-de Rham model of the 1-torus over B = Z[q]/((q-1)^N).

The weight-m block is B --[m]_{q^p}--> B in Koszul degrees 0 and 1, the
operator T^m -> [m]_{q^p} T^m (the Frobenius-pushforward normalization: with
it the Frobenius twist phi(dlog T) = xi_tilde * dlog T is an exact chain
map, the Nygaard filtration is by xi-powers, and the divided Frobenius
xi_tilde^{-i} phi is integral; specializing q -> 1 recovers the integral
torus model).  The d-torus enters only through the Künneth lemma of the
`torus` docstring: its weight-class block is a sum of shifted copies of
this one, and each command runs these checks at the 1-torus levels.

B is `qbase.QBase`, the truncated polynomial ring `rings.PolyTrunc(N)` in
mu = q - 1.  B-modules are expanded over Z: each Koszul degree is Z^N with
B acting through multiplication matrices, so all lattice machinery from
linalg applies unchanged.  The matrices of the Nygaard scales and of phi_i
take any Koszul degree j: they depend on j - i only, and by the lemma they
are the blocks of the d-torus in degree j.

N >= 1.  At N = 1, B = Z, mu = 0 and xi = xi_tilde = p, every block is a
scalar, and the model is the integral torus model of `torus.TorusDeRham`
matrix by matrix: the crystalline prism (Z_p, (p)) is the q-de Rham prism
(Z_p[[q-1]], [p]_q) at q = 1.  So `syntomic.syntomic_q` runs this one model
for characteristic p (N = 1) and for the q-model (N >= 2).
"""

from .complexes import Complex, acyclic_mod, eta_lattices, presented_cone
from .linalg import (
    _hnf_coordinates,
    block_diag,
    hermite_form,
    identity,
    lattice_contains,
    mat_mul,
    restrict_lattice,
    row_mul,
)
from .qbase import QBase
from .torus import weight_classes


class QTorusComplex:
    def __init__(self, p, N):
        self.p, self.N = p, N
        self.B = QBase(p, N)

    def rank(self, j):
        """The rank over Z of Koszul degree j: one copy of B in degrees 0
        and 1."""
        return self.N if j in (0, 1) else 0

    # -- block matrices ---------------------------------------------------

    def diff_matrix(self, m):
        """The Koszul differential on the weight-m block, degree 0 -> 1:
        multiplication by [m]_{q^p}."""
        return self.B.mult_matrix(self._qp_integer(m))

    def _qp_integer(self, k):
        """[k]_{q^p} expanded in the mu-basis: phi([k]_q)."""
        return self.B.phi(self.B.q_integer(k))

    def weight_block(self, m):
        return Complex({0: self.N, 1: self.N}, {0: self.diff_matrix(m)})

    # -- Frobenius ------------------------------------------------------

    def frobenius_matrix(self, j):
        """phi on degree j (weight m to p*m): coefficientwise phi followed by
        multiplication by xi_tilde^j."""
        B = self.B
        return mat_mul(B.phi_matrix(), B.mult_matrix(B.pow(B.xi_tilde, j)))

    def nygaard_scale_matrix(self, i, j):
        """Multiplication by xi^{max(i-j,0)} (N x N block)."""
        return self.B.mult_matrix(self.B.pow(self.B.xi, max(i - j, 0)))

    def nygaard_lattice_rows(self, i, j):
        """Rows spanning N^{>=i} = xi^{max(i-j,0)} B in degree j: the scale
        block itself, as each degree is one copy of B."""
        return self.nygaard_scale_matrix(i, j)

    def divided_frobenius_matrix(self, i, j):
        """phi_i from normalized Nygaard coordinates to the block at weight
        p*m: phi(xi^{max(i-j,0)} b) = xi_tilde^{max(i-j,0)} phi(b) and a twist
        xi_tilde^j, divided exactly by xi_tilde^i."""
        B = self.B
        # exponent of xi_tilde after division: max(i-j,0) + j - i = max(j-i,0)
        e = max(j - i, 0)
        return mat_mul(B.phi_matrix(), B.mult_matrix(B.pow(B.xi_tilde, e)))

    def normalized_diff_matrix(self, i, m):
        """Nygaard-normalized differential: d(xi^a x) = xi^{a-a'} (x d)."""
        return self.normalize_diff(i, self.diff_matrix(m))

    def normalize_diff(self, i, D):
        """normalized_diff_matrix(i, m) from D = diff_matrix(m): the scales
        xi^{max(i,0)} and xi^{max(i-1,0)} of the degrees 0 and 1 differ by xi
        exactly when i >= 1."""
        if i < 1:
            return D
        return mat_mul(D, self.B.mult_matrix(self.B.xi))


# ---------------------------------------------------------------------------
# structural checks


def specialization_check(X, M=2):
    """q -> 1 collapse: the constant coefficient of [m]_{q^p} is m, the
    integral torus differential, per weight class of the box of radius M
    (the lemma in the `torus` docstring)."""
    return all(X.diff_matrix(m)[0][0] == m for m in weight_classes(M))


def frobenius_chain_map_check(X, weights):
    """phi is a chain map: phi then d at weight pm equals d at m then phi,
    for each m in weights (qderham passes `weight_classes`, at N >= 2 only).
    It can read false only at N >= 2: at N = 1, phi = p^j and d at pm is p
    times d at m, so both sides are p times the weight-m differential."""
    frob = [X.frobenius_matrix(j) for j in (0, 1)]  # weight-free
    return all(mat_mul(frob[0], X.diff_matrix(X.p * m)) == mat_mul(X.diff_matrix(m), frob[1])
               for m in weights)


def q_nygaard_stability_check(X, i, M=2):
    """d-stability of the xi-power Nygaard lattices per weight class of the
    box of radius M, and their nesting."""
    B = X.B
    # N^{>=i} in degree 0 and the Hermite basis of N^{>=i} in degree 1 do
    # not depend on the weight: build them once
    rows, nxt = X.nygaard_lattice_rows(i, 0), hermite_form(X.nygaard_lattice_rows(i, 1))
    for m in weight_classes(M):
        if None in _hnf_coordinates(nxt, mat_mul(rows, X.diff_matrix(m))):
            return False
    for j in (0, 1):
        L = X.nygaard_lattice_rows(i, j)
        L1 = X.nygaard_lattice_rows(i + 1, j)
        if not lattice_contains(L, L1):
            return False
        # xi * N^{>= i} inside N^{>= i+1}
        if not lattice_contains(L1, mat_mul(L, B.mult_matrix(B.xi))):
            return False
    return True


def q_divided_frobenius_checks(X, i):
    """xi_tilde^i phi_i = phi on Nygaard generators; restriction identity
    phi_i|N^{>=i+1} = xi_tilde phi_{i+1} (matrix identities)."""
    B = X.B
    for j in (0, 1):
        # lhs: normalized coords -> ambient, then multiply by xi_tilde^i
        lhs = mat_mul(X.divided_frobenius_matrix(i, j), B.mult_matrix(B.pow(B.xi_tilde, i)))
        # rhs: include normalized basis into ambient (xi-powers), apply phi
        rhs = mat_mul(X.nygaard_lattice_rows(i, j), X.frobenius_matrix(j))
        if lhs != rhs:
            return False
        # restriction identity in normalized coordinates
        ratio = B.pow(B.xi, max(i + 1 - j, 0) - max(i - j, 0))
        lhs2 = mat_mul(B.mult_matrix(ratio), X.divided_frobenius_matrix(i, j))
        rhs2 = mat_mul(X.divided_frobenius_matrix(i + 1, j), B.mult_matrix(B.xi_tilde))
        if lhs2 != rhs2:
            return False
    return True


# ---------------------------------------------------------------------------
# eta over B and the Nygaard = decalage identification


def eta_lattices_B(X, m, f_elt):
    """Per-degree lattices of (eta_f block)^j = {x in f^j B : dx in f^{j+1} B}
    for an element f_elt of B; returns dict j -> rows."""
    B = X.B
    return eta_lattices(X.weight_block(m),
                        lambda j: B.mult_matrix(B.pow(f_elt, j)) if X.rank(j) else [])


def eta_filtration(X, eta_lat, i_top):
    """fils[i][j] = Fil^i = xi_tilde^i X  intersect  eta in degree j, for
    i = 0..i_top; eta_lat as returned by eta_lattices_B."""
    B = X.B
    return {i: {j: restrict_lattice(B.mult_matrix(B.pow(B.xi_tilde, i)), None, eta_lat[j])
                for j in (0, 1)}
            for i in range(i_top + 1)}


def lnu_identification_check(X, i_max, M=2, n_prec=3):
    """Containments and graded quasi-isomorphisms identifying the Nygaard
    filtration with the decalage filtration of eta_{xi_tilde}.

    (a) phi(X_m) lies in eta_{xi_tilde}(X_{pm});
    (b) phi(N^{>=i}) lies in Fil^i = xi_tilde^i X  intersect  eta;
    (c) the graded maps N^i -> gr^i_Fil eta are quasi-isomorphisms at
        precision (n_prec, N): per class, the cone has zero cohomology
        mod p^n_prec after base change along q -> 1.

    Each statement is checked per weight class of the box of radius M (the
    lemma in the `torus` docstring); report["weights"] is keyed by the
    class representatives.
    """
    B = X.B
    report = {"containment": True, "graded": True, "weights": {}}
    # phi and phi on the normalized N^{>=i} coordinates do not depend on the
    # weight: build them once per degree
    frob = {j: X.frobenius_matrix(j) for j in (0, 1)}
    phi_N = {i: {j: mat_mul(X.nygaard_lattice_rows(i, j), frob[j]) for j in frob}
             for i in range(i_max + 1)}
    for m in weight_classes(M):
        pm = X.p * m
        eta_lat = eta_lattices_B(X, pm, B.xi_tilde)
        # (a) phi of the full block; eta_lat and fils are Hermite bases
        # (`restrict_lattice`), so membership is read off their pivots
        ok_a = all(None not in _hnf_coordinates(eta_lat[j], frob[j]) for j in (0, 1))
        fils = eta_filtration(X, eta_lat, i_max + 1)
        ok_b = all(None not in _hnf_coordinates(fils[i][j], phi_N[i][j])
                   for i in range(i_max + 1) for j in (0, 1))
        # (c) graded quasi-isomorphism via cone acyclicity
        ok_c = all(_graded_map_quasi_iso(X, i, m, pm, fils, phi_N[i], n_prec)
                   for i in range(i_max + 1))
        report["weights"][m] = {"a": ok_a, "b": ok_b, "c": ok_c}
        if not (ok_a and ok_b):
            report["containment"] = False
        if not ok_c:
            report["graded"] = False
    report["all_ok"] = report["containment"] and report["graded"]
    return report


def _graded_map_quasi_iso(X, i, m, pm, fils, phi_N, n_prec):
    """Whether the cone of phi_i: N^i(m) -> Fil^i/Fil^{i+1} at weight pm is
    acyclic mod p^n_prec after base change along q -> 1; phi_N[j] is phi on
    the normalized N^{>=i} coordinates of degree j.

    Exact cohomology over the non-domain B itself is avoided; the strict
    Z-level statements are the containments (a) and (b).  The q -> 1 fibre
    has finite cohomology, so its rank over Q is 0 and needs no check: once
    mu is killed, every cone term E is killed by p.  Indeed xi = [p]_q and
    xi_tilde = [p]_{q^p} are both p mod mu.  On the source, p*x lies in
    xi*x + mu*B^r, inside the relations.  On the target, xi_tilde*Fil^i lies
    in Fil^{i+1}, because Fil^i = xi_tilde^i X  intersect  eta is a
    B-module, so p*y lies in Fil^{i+1} + mu*Fil^i.  Hence E/p^n E = E for
    n >= 1, and the groups mod p^n_prec are the groups of the fibre over Z."""
    return acyclic_mod(*_graded_cone(X, i, m, pm, fils, phi_N), X.p, n_prec)


def _graded_cone(X, i, m, pm, fils, phi_N):
    """The cone of phi_i: N^i(m) -> Fil^i/Fil^{i+1} at weight pm, with
    mu*gens added to the relations of every term (base change along
    q -> 1)."""
    B = X.B
    # source: normalized N^i presentation, B/xi in the degrees j <= i
    src_terms = {j: (identity(X.N), B.mult_matrix(B.xi) if j <= i else identity(X.N))
                 for j in (0, 1)}
    src = (src_terms, {0: X.normalized_diff_matrix(i, m)})
    tgt = ({j: (fils[i][j], fils[i + 1][j]) for j in (0, 1)}, {0: X.diff_matrix(pm)})
    # the filtered morphism is phi itself: N^{>=i} -> Fil^i eta; on the
    # normalized source coordinates that is inclusion followed by phi
    terms, maps = presented_cone(src, tgt, phi_N)
    # the cone ambient is a source block and a target block, both expanded
    # B-modules, so mu acts on it blockwise
    for j, (gens, rels) in terms.items():
        mu = block_diag(B.mult_matrix(B.mu), len(gens[0]) // X.N) if gens else []
        terms[j] = (gens, rels + [row_mul(g, mu) for g in gens])
    return terms, maps
