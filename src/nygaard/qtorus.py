"""The q-de Rham model of the torus over B = Z[q]/((q-1)^N).

Weight-m blocks are Koszul complexes on the operators T^m -> [m_a]_{q^p} T^m
(the Frobenius-pushforward normalization: with it the Frobenius twist
phi(dlog T_a) = xi_tilde * dlog T_a is an exact chain map, the Nygaard
filtration is by xi-powers, and the divided Frobenius xi_tilde^{-i} phi is
integral; specializing q -> 1 recovers the integral torus model).

B is `qbase.QBase`, the truncated polynomial ring `rings.PolyTrunc(N)` in
mu = q - 1.  B-modules are expanded over Z: the weight block in degree j is
Z^{N * C(d,j)} with B acting through multiplication matrices, so all lattice
machinery from linalg applies unchanged.

N >= 1.  At N = 1, B = Z, mu = 0 and xi = xi_tilde = p, every block is a
scalar, and the model is the integral torus model of `torus.TorusDeRham`
matrix by matrix: the crystalline prism (Z_p, (p)) is the q-de Rham prism
(Z_p[[q-1]], [p]_q) at q = 1.  So `syntomic.syntomic_q` runs this one model
for characteristic p (N = 1) and for the q-model (N >= 2).
"""

from math import comb

from .complexes import Complex, acyclic_mod, eta_lattices, presented_cone
from .errors import UsageError
from .linalg import (
    _hnf_coordinates,
    block_diag,
    hermite_form,
    identity,
    lattice_contains,
    mat_mul,
    restrict_lattice,
    row_mul,
    zeros,
)
from .qbase import QBase
from .torus import build_torus, koszul_pattern, subsets, weight_classes


class QTorusComplex:
    def __init__(self, p, d, N):
        self.p, self.d, self.N = p, d, N
        self.B = QBase(p, N)

    def rank(self, j):
        return comb(self.d, j) if 0 <= j <= self.d else 0

    def exp_rank(self, j):
        return self.N * self.rank(j)

    def basis(self, j):
        return subsets(self.d, j)

    # -- expanded block matrices ---------------------------------------

    def diag(self, j, blk):
        """The N x N block blk on every B summand of degree j."""
        return block_diag(blk, self.rank(j))

    def diff_matrix(self, m, j):
        """Koszul differential on the weight-m block, degree j -> j+1: the
        block +-[m_a]_{q^p} from dlog T_I to dlog T_{I+a}."""
        N = self.N
        blocks = [self.B.mult_matrix(self._qp_integer(k)) for k in m]  # one per coordinate
        M = zeros(N * self.rank(j), N * self.rank(j + 1))
        for r, c, a, sign in koszul_pattern(self.d, j):
            for t, row in enumerate(blocks[a]):
                M[r * N + t][c * N:(c + 1) * N] = row if sign > 0 else [-x for x in row]
        return M

    def _qp_integer(self, k):
        """[k]_{q^p} expanded in the mu-basis: phi([k]_q)."""
        return self.B.phi(self.B.q_integer(k))

    def weight_block(self, m):
        ranks = {j: self.exp_rank(j) for j in range(self.d + 1)}
        diffs = {j: self.diff_matrix(m, j) for j in range(self.d)}
        return Complex(ranks, diffs)

    # -- Frobenius ------------------------------------------------------

    def frobenius_matrix(self, j):
        """phi on degree j (weight m to p*m): coefficientwise phi followed by
        multiplication by xi_tilde^j, blockwise on the dlog basis."""
        B = self.B
        return self.diag(j, mat_mul(B.phi_matrix(), B.mult_matrix(B.pow(B.xi_tilde, j))))

    def nygaard_scale_matrix(self, i, j):
        """Multiplication by xi^{max(i-j,0)} (N x N block)."""
        return self.B.mult_matrix(self.B.pow(self.B.xi, max(i - j, 0)))

    def nygaard_lattice_rows(self, i, j):
        """Rows spanning xi^{max(i-j,0)} B^{rank} inside the expanded block."""
        return self.diag(j, self.nygaard_scale_matrix(i, j))

    def divided_frobenius_matrix(self, i, j):
        """phi_i from normalized Nygaard coordinates to the expanded block at
        weight p*m: phi(xi^{max(i-j,0)} b) = xi_tilde^{max(i-j,0)} phi(b) and a
        twist xi_tilde^j, divided exactly by xi_tilde^i."""
        B = self.B
        # exponent of xi_tilde after division: max(i-j,0) + j - i = max(j-i,0)
        e = max(j - i, 0)
        return self.diag(j, mat_mul(B.phi_matrix(), B.mult_matrix(B.pow(B.xi_tilde, e))))

    def normalized_diff_matrix(self, i, m, j):
        """Nygaard-normalized differential: d(xi^a x) = xi^{a-a'} (x d)."""
        return self.normalize_diff(i, j, self.diff_matrix(m, j))

    def normalize_diff(self, i, j, D):
        """normalized_diff_matrix(i, m, j) from D = diff_matrix(m, j)."""
        a, a1 = max(i - j, 0), max(i - j - 1, 0)
        if a == a1:
            return D
        return mat_mul(D, self.diag(j + 1, self.B.mult_matrix(self.B.pow(self.B.xi, a - a1))))


def build_qtorus(p, d, N):
    if d < 1 or N < 1:
        raise UsageError("the q-torus needs d >= 1 and N >= 1, got d = %d, N = %d" % (d, N))
    return QTorusComplex(p, d, N)


# ---------------------------------------------------------------------------
# structural checks


def specialization_check(X, M=2):
    """q -> 1 collapse: constant coefficients of every block matrix equal the
    integral torus matrices, basis by basis, per weight class of the box of
    radius M (the lemma in the `torus` docstring)."""
    T = build_torus(X.p, X.d)
    for m in weight_classes(X.d, M):
        for j in range(X.d):
            Dq = X.diff_matrix(m, j)
            Dt = T.diff_matrix(m, j)
            rows = X.basis(j)
            cols = X.basis(j + 1)
            for r in range(len(rows)):
                for c in range(len(cols)):
                    # constant coefficient of the (r, c) block
                    got = Dq[r * X.N][c * X.N]
                    if got != Dt[r][c]:
                        return False
    return True


def frobenius_chain_map_check(X, weights):
    """phi is a chain map: phi then d at weight pm equals d at m then phi,
    for each m in weights (qderham passes `weight_classes`, at N >= 2 only).
    It can read false only at N >= 2: at N = 1, phi = p^j and d at pm is p
    times d at m, so both sides are p^{j+1} times the weight-m differential."""
    frob = {j: X.frobenius_matrix(j) for j in range(X.d + 1)}  # weight-free
    for m in weights:
        pm = tuple(X.p * a for a in m)
        for j in range(X.d):
            lhs = mat_mul(frob[j], X.diff_matrix(pm, j))
            rhs = mat_mul(X.diff_matrix(m, j), frob[j + 1])
            if lhs != rhs:
                return False
    return True


def q_nygaard_stability_check(X, i, M=2):
    """d-stability of the xi-power Nygaard lattices per weight class of the
    box of radius M, and their nesting."""
    B = X.B
    # N^{>=i} in degree j and the Hermite basis of N^{>=i} in degree j + 1
    # do not depend on the weight: build them once per degree
    rows = [X.nygaard_lattice_rows(i, j) for j in range(X.d)]
    nexts = [hermite_form(X.nygaard_lattice_rows(i, j + 1)) for j in range(X.d)]
    for m in weight_classes(X.d, M):
        for j in range(X.d):
            if None in _hnf_coordinates(nexts[j], mat_mul(rows[j], X.diff_matrix(m, j))):
                return False
    for j in range(X.d + 1):
        L = X.nygaard_lattice_rows(i, j)
        L1 = X.nygaard_lattice_rows(i + 1, j)
        if not lattice_contains(L, L1):
            return False
        # xi * N^{>= i} inside N^{>= i+1}
        if not lattice_contains(L1, mat_mul(L, X.diag(j, B.mult_matrix(B.xi)))):
            return False
    return True


def q_divided_frobenius_checks(X, i):
    """xi_tilde^i phi_i = phi on Nygaard generators; restriction identity
    phi_i|N^{>=i+1} = xi_tilde phi_{i+1} (matrix identities)."""
    B = X.B
    for j in range(X.d + 1):
        # lhs: normalized coords -> ambient, then multiply by xi_tilde^i
        lhs = mat_mul(X.divided_frobenius_matrix(i, j),
                      X.diag(j, B.mult_matrix(B.pow(B.xi_tilde, i))))
        # rhs: include normalized basis into ambient (xi-powers), apply phi
        incl = X.nygaard_lattice_rows(i, j)
        rhs = mat_mul(incl, X.frobenius_matrix(j))
        if lhs != rhs:
            return False
        # restriction identity in normalized coordinates
        a_i = max(i - j, 0)
        a_i1 = max(i + 1 - j, 0)
        ratio = B.pow(B.xi, a_i1 - a_i)
        lhs2 = mat_mul(X.diag(j, B.mult_matrix(ratio)), X.divided_frobenius_matrix(i, j))
        rhs2 = mat_mul(X.divided_frobenius_matrix(i + 1, j), X.diag(j, B.mult_matrix(B.xi_tilde)))
        if lhs2 != rhs2:
            return False
    return True


# ---------------------------------------------------------------------------
# eta over B and the Nygaard = decalage identification


def eta_lattices_B(X, m, f_elt):
    """Per-degree lattices of (eta_f block)^j = {x in f^j B^r : dx in f^{j+1}}
    for an element f_elt of B acting blockwise; returns dict j -> rows."""
    B = X.B
    return eta_lattices(X.weight_block(m), lambda j: X.diag(j, B.mult_matrix(B.pow(f_elt, j))))


def eta_filtration(X, eta_lat, i_top):
    """fils[i][j] = Fil^i = xi_tilde^i X  intersect  eta in degree j, for
    i = 0..i_top; eta_lat as returned by eta_lattices_B."""
    B = X.B
    fils = {}
    for i in range(i_top + 1):
        fils[i] = {}
        for j in range(X.d + 1):
            fils[i][j] = restrict_lattice(X.diag(j, B.mult_matrix(B.pow(B.xi_tilde, i))),
                                          None, eta_lat[j])
    return fils


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
    frob = {j: X.frobenius_matrix(j) for j in range(X.d + 1)}
    phi_N = {i: {j: mat_mul(X.nygaard_lattice_rows(i, j), frob[j]) for j in frob}
             for i in range(i_max + 1)}
    for m in weight_classes(X.d, M):
        pm = tuple(X.p * a for a in m)
        eta_lat = eta_lattices_B(X, pm, B.xi_tilde)
        # (a) phi of the full block; eta_lat and fils are Hermite bases
        # (`restrict_lattice`), so membership is read off their pivots
        ok_a = True
        for j in range(X.d + 1):
            if X.rank(j) == 0:
                continue
            if None in _hnf_coordinates(eta_lat[j], frob[j]):
                ok_a = False
        fils = eta_filtration(X, eta_lat, i_max + 1)
        ok_b = True
        for i in range(i_max + 1):
            for j in range(X.d + 1):
                if X.rank(j) == 0:
                    continue
                if None in _hnf_coordinates(fils[i][j], phi_N[i][j]):
                    ok_b = False
        # (c) graded quasi-isomorphism via cone acyclicity
        ok_c = True
        for i in range(i_max + 1):
            if not _graded_map_quasi_iso(X, i, m, pm, fils, phi_N[i], n_prec):
                ok_c = False
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
    # source: normalized N^i presentation
    src_terms = {}
    src_maps = {}
    for j in range(X.d + 1):
        r = X.exp_rank(j)
        if r == 0:
            src_terms[j] = ([], [])
            continue
        if j <= i:
            rels = X.diag(j, B.mult_matrix(B.xi))
        else:
            rels = identity(r)
        src_terms[j] = (identity(r), rels)
        if j < X.d:
            src_maps[j] = X.normalized_diff_matrix(i, m, j)
    tgt_terms = {}
    tgt_maps = {}
    for j in range(X.d + 1):
        tgt_terms[j] = (fils[i][j], fils[i + 1][j])
        if j < X.d and X.rank(j):
            tgt_maps[j] = X.diff_matrix(pm, j)
    # the filtered morphism is phi itself: N^{>=i} -> Fil^i eta; on the
    # normalized source coordinates that is inclusion followed by phi
    terms, maps = presented_cone((src_terms, src_maps), (tgt_terms, tgt_maps), phi_N)
    # the cone ambient is a source block and a target block, both expanded
    # B-modules, so mu acts on it blockwise
    for j, (gens, rels) in terms.items():
        mu = block_diag(B.mult_matrix(B.mu), len(gens[0]) // X.N) if gens else []
        terms[j] = (gens, rels + [row_mul(g, mu) for g in gens])
    return terms, maps
