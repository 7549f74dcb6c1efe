"""The q-de Rham model of the torus over B = Z[q]/((q-1)^N).

Weight-m blocks are Koszul complexes on the operators T^m -> [m_a]_{q^p} T^m
(the Frobenius-pushforward normalization: with it the Frobenius twist
phi(dlog T_a) = xi_tilde * dlog T_a is an exact chain map, the Nygaard
filtration is by xi-powers, and the divided Frobenius xi_tilde^{-i} phi is
integral; specializing q -> 1 recovers the integral torus model).

B-modules are expanded over Z: the weight block in degree j is Z^{N * C(d,j)}
with B acting through multiplication matrices, so all lattice machinery from
linalg applies unchanged.
"""

from dataclasses import dataclass

from .complexes import Complex
from .linalg import (
    hermite_form,
    solve_left,
    identity,
    intersect_lattices,
    lattice_contains,
    mat_mul,
    mat_scale,
    preimage_lattice,
    presented_complex_cohomology,
    row_mul,
    zeros,
)
from .qbase import QBase
from .torus import DivisionFailure, build_torus, koszul_sign, subsets, weights_box


@dataclass
class QTorusComplex:
    p: int
    d: int
    N: int

    def __post_init__(self):
        self.B = QBase(self.p, self.N)

    def rank(self, j):
        from math import comb

        return comb(self.d, j) if 0 <= j <= self.d else 0

    def exp_rank(self, j):
        return self.N * self.rank(j)

    def basis(self, j):
        return subsets(self.d, j)

    # -- expanded block matrices ---------------------------------------

    def _block(self, j, jn, entries):
        """Assemble an expanded matrix from B-valued blocks.

        entries: dict (row_subset, col_subset) -> N x N integer matrix."""
        rows = self.basis(j)
        cols = self.basis(jn)
        M = zeros(self.N * len(rows), self.N * len(cols))
        for (I, J), blk in entries.items():
            r0 = rows.index(I) * self.N
            c0 = cols.index(J) * self.N
            for a in range(self.N):
                for b in range(self.N):
                    M[r0 + a][c0 + b] = blk[a][b]
        return M

    def diff_matrix(self, m, j):
        """Koszul differential on the weight-m block, degree j -> j+1."""
        B = self.B
        entries = {}
        for I in self.basis(j):
            for a in range(self.d):
                if a in I:
                    continue
                J = tuple(sorted(I + (a,)))
                entries[(I, J)] = mat_scale(koszul_sign(I, a), B.mult_matrix(self._qp_integer(m[a])))
        return self._block(j, j + 1, entries)

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
        blk = mat_mul(B.phi_matrix(), B.mult_matrix(B.pow(B.xi_tilde, j)))
        entries = {(I, I): blk for I in self.basis(j)}
        return self._block(j, j, entries)

    def nygaard_scale_matrix(self, i, j):
        """Multiplication by xi^{max(i-j,0)} (N x N block)."""
        return self.B.mult_matrix(self.B.pow(self.B.xi, max(i - j, 0)))

    def nygaard_lattice_rows(self, i, j):
        """Rows spanning xi^{max(i-j,0)} B^{rank} inside the expanded block."""
        blk = self.nygaard_scale_matrix(i, j)
        entries = {(I, I): blk for I in self.basis(j)}
        return self._block(j, j, entries)

    def divided_frobenius_matrix(self, i, j):
        """phi_i from normalized Nygaard coordinates to the expanded block at
        weight p*m: phi(xi^{max(i-j,0)} b) = xi_tilde^{max(i-j,0)} phi(b) and a
        twist xi_tilde^j, divided exactly by xi_tilde^i."""
        B = self.B
        # exponent of xi_tilde after division: max(i-j,0) + j - i = max(j-i,0)
        e = max(j - i, 0)
        blk = mat_mul(B.phi_matrix(), B.mult_matrix(B.pow(B.xi_tilde, e)))
        entries = {(I, I): blk for I in self.basis(j)}
        return self._block(j, j, entries)

    def normalized_diff_matrix(self, i, m, j):
        """Nygaard-normalized differential: d(xi^a x) = xi^{a-a'} (x d)."""
        a = max(i - j, 0)
        a1 = max(i - j - 1, 0)
        D = self.diff_matrix(m, j)
        if a == a1:
            return D
        scale = self.B.mult_matrix(self.B.pow(self.B.xi, a - a1))
        entries = {(I, I): scale for I in self.basis(j + 1)}
        return mat_mul(D, self._block(j + 1, j + 1, entries))


def build_qtorus(p, d, N):
    assert d >= 1 and N >= 2
    return QTorusComplex(p, d, N)


# ---------------------------------------------------------------------------
# structural checks


def specialization_check(X, M=2):
    """q -> 1 collapse: constant coefficients of every block matrix equal the
    integral torus matrices, basis by basis."""
    T = build_torus(X.p, X.d, 1)
    for m in weights_box(X.d, M):
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


def q_frobenius_chain_map_check(X, M=2):
    """Frob_j . D_j(pm) = D_j(m) . Frob_{j+1} on expanded matrices."""
    for m in weights_box(X.d, M):
        pm = tuple(X.p * a for a in m)
        for j in range(X.d):
            lhs = mat_mul(X.frobenius_matrix(j), X.diff_matrix(pm, j))
            rhs = mat_mul(X.diff_matrix(m, j), X.frobenius_matrix(j + 1))
            if lhs != rhs:
                return False
    return True


def q_nygaard_stability_check(X, i, M=2):
    """d-stability and nesting of the xi-power Nygaard lattices."""
    B = X.B
    for m in weights_box(X.d, M):
        for j in range(X.d):
            L = X.nygaard_lattice_rows(i, j)
            Lnext = X.nygaard_lattice_rows(i, j + 1)
            D = X.diff_matrix(m, j)
            for row in L:
                img = row_mul(row, D)
                if any(img) and not lattice_contains(Lnext, img):
                    return False
    for j in range(X.d + 1):
        L = X.nygaard_lattice_rows(i, j)
        L1 = X.nygaard_lattice_rows(i + 1, j)
        for row in L1:
            if not lattice_contains(L, row):
                return False
        # xi * N^{>= i} inside N^{>= i+1}
        xiL = [row_mul(row, X._block(j, j, {(I, I): B.mult_matrix(B.xi) for I in X.basis(j)})) for row in L]
        for row in xiL:
            if not lattice_contains(L1, row):
                return False
    return True


def q_divided_frobenius_checks(X, i):
    """xi_tilde^i phi_i = phi on Nygaard generators; restriction identity
    phi_i|N^{>=i+1} = xi_tilde phi_{i+1} (matrix identities)."""
    B = X.B
    for j in range(X.d + 1):
        # lhs: normalized coords -> ambient, then multiply by xi_tilde^i
        lhs = mat_mul(
            X.divided_frobenius_matrix(i, j),
            X._block(j, j, {(I, I): B.mult_matrix(B.pow(B.xi_tilde, i)) for I in X.basis(j)}),
        )
        # rhs: include normalized basis into ambient (xi-powers), apply phi
        incl = X.nygaard_lattice_rows(i, j)
        rhs = mat_mul(incl, X.frobenius_matrix(j))
        if lhs != rhs:
            return False
        # restriction identity in normalized coordinates
        a_i = max(i - j, 0)
        a_i1 = max(i + 1 - j, 0)
        ratio = B.pow(B.xi, a_i1 - a_i)
        incl_norm = X._block(j, j, {(I, I): B.mult_matrix(ratio) for I in X.basis(j)})
        lhs2 = mat_mul(incl_norm, X.divided_frobenius_matrix(i, j))
        rhs2 = mat_mul(
            X.divided_frobenius_matrix(i + 1, j),
            X._block(j, j, {(I, I): B.mult_matrix(B.xi_tilde) for I in X.basis(j)}),
        )
        if lhs2 != rhs2:
            return False
    return True


def q_divided_frobenius_exactness(X, i, m):
    """phi on each Nygaard generator must be exactly divisible by
    xi_tilde^i (solved in B; failure raises DivisionFailure)."""
    B = X.B
    for j in range(X.d + 1):
        incl = X.nygaard_lattice_rows(i, j)
        img = mat_mul(incl, X.frobenius_matrix(j))
        xit_i = X._block(j, j, {(I, I): B.mult_matrix(B.pow(B.xi_tilde, i)) for I in X.basis(j)})
        for row in img:
            if solve_left(xit_i, row) is None:
                raise DivisionFailure("phi image not divisible by xi_tilde^%d" % i)
    return True


# ---------------------------------------------------------------------------
# eta over B and the Nygaard = decalage identification


def eta_lattices_B(X, m, f_elt):
    """Per-degree lattices of (eta_f block)^j = {x in f^j B^r : dx in f^{j+1}}.

    f_elt is an element of B acting blockwise; returns dict j -> rows."""
    B = X.B
    out = {}
    for j in range(X.d + 1):
        r = X.rank(j)
        if r == 0:
            out[j] = []
            continue
        fj = X._block(j, j, {(I, I): B.mult_matrix(B.pow(f_elt, j)) for I in X.basis(j)})
        if j < X.d:
            fj1 = X._block(
                j + 1, j + 1,
                {(I, I): B.mult_matrix(B.pow(f_elt, j + 1)) for I in X.basis(j + 1)},
            )
            K = preimage_lattice(X.diff_matrix(m, j), fj1)
            out[j] = intersect_lattices(fj, K) if K else []
        else:
            out[j] = hermite_form(fj)
    return out


def lnu_identification_check(X, i_max, M=2, n_prec=3):
    """Containments and graded quasi-isomorphisms identifying the Nygaard
    filtration with the decalage filtration of eta_{xi_tilde}.

    (a) phi(X_m) lies in eta_{xi_tilde}(X_{pm});
    (b) phi(N^{>=i}) lies in Fil^i = xi_tilde^i X  intersect  eta;
    (c) the graded maps N^i -> gr^i_Fil eta are quasi-isomorphisms at
        precision (n_prec, N): cone cohomology vanishes mod p^n_prec and has
        rank zero over Q, per weight.
    """
    B = X.B
    report = {"containment": True, "graded": True, "weights": {}}
    for m in weights_box(X.d, M):
        pm = tuple(X.p * a for a in m)
        eta_lat = eta_lattices_B(X, pm, B.xi_tilde)
        # (a) phi of the full block
        ok_a = True
        for j in range(X.d + 1):
            if X.rank(j) == 0:
                continue
            img = X.frobenius_matrix(j)
            for row in img:
                if any(row) and not lattice_contains(eta_lat[j], row):
                    ok_a = False
        fils = {}
        for i in range(i_max + 2):
            fils[i] = {}
            for j in range(X.d + 1):
                if X.rank(j) == 0:
                    fils[i][j] = []
                    continue
                xit = X._block(
                    j, j, {(I, I): B.mult_matrix(B.pow(B.xi_tilde, i)) for I in X.basis(j)}
                )
                fils[i][j] = intersect_lattices(xit, eta_lat[j]) if eta_lat[j] else []
        ok_b = True
        for i in range(i_max + 1):
            for j in range(X.d + 1):
                if X.rank(j) == 0:
                    continue
                img = mat_mul(X.nygaard_lattice_rows(i, j), X.frobenius_matrix(j))
                for row in img:
                    if any(row) and not lattice_contains(fils[i][j], row):
                        ok_b = False
        # (c) graded quasi-isomorphism via cone acyclicity
        ok_c = True
        for i in range(i_max + 1):
            if not _graded_map_quasi_iso(X, i, m, pm, fils, n_prec):
                ok_c = False
        report["weights"][m] = {"a": ok_a, "b": ok_b, "c": ok_c}
        if not (ok_a and ok_b):
            report["containment"] = False
        if not ok_c:
            report["graded"] = False
    report["all_ok"] = report["containment"] and report["graded"]
    return report


def _graded_map_quasi_iso(X, i, m, pm, fils, n_prec):
    """Cone of phi_i: N^i(m) -> Fil^i/Fil^{i+1} at weight pm: quasi-iso at
    precision (n_prec, N).

    Precision semantics: B carries a unique map to Z/p^n (q -> 1) and to Q;
    the cone must have vanishing cohomology after base change along q -> 1
    mod p^n (rels enriched by mu*gens and p^n*gens) and rank zero over Q
    (free part after killing mu).  Exact cohomology over the non-domain B
    itself is avoided; the strict Z-level statements are the containments
    (a) and (b)."""
    B = X.B
    p = X.p
    q = p**n_prec
    # source: normalized N^i presentation
    src_terms = {}
    src_maps = {}
    for j in range(X.d + 1):
        r = X.exp_rank(j)
        if r == 0:
            src_terms[j] = ([], [])
            continue
        if j <= i:
            gens = identity(r)
            rels = X._block(j, j, {(I, I): B.mult_matrix(B.xi) for I in X.basis(j)})
        else:
            gens = identity(r)
            rels = identity(r)
        src_terms[j] = (gens, rels)
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
    fmaps = {
        j: mat_mul(X.nygaard_lattice_rows(i, j), X.frobenius_matrix(j))
        for j in range(X.d + 1)
    }
    cone_terms, cone_maps = _presented_cone(src_terms, src_maps, tgt_terms, tgt_maps, fmaps)
    mu_half = _cone_mu_rows(X, cone_terms)
    # base change along q -> 1 composed with reduction mod p^n
    coll_q = {
        j: (g, _enrich(rels_, [mu_half[j], _scaled(g, q)]))
        for j, (g, rels_) in cone_terms.items()
    }
    coh_q = presented_complex_cohomology(coll_q, cone_maps, p)
    if not all(g.is_zero() for g in coh_q.values()):
        return False
    # rank over Q of the q -> 1 fiber
    coll_z = {j: (g, _enrich(rels_, [mu_half[j]])) for j, (g, rels_) in cone_terms.items()}
    coh_z = presented_complex_cohomology(coll_z, cone_maps, p)
    for g in coh_z.values():
        if g.free_rank != 0:
            return False
    return True


def _cone_mu_rows(X, cone_terms):
    """mu * gens for each cone term: the cone ambient splits as a source
    block and a target block, both expanded B-modules."""
    B = X.B
    out = {}
    for j, (gens, _) in cone_terms.items():
        mu = B.block_mult_matrix(B.mu, len(gens[0])) if gens else []
        out[j] = [row_mul(g, mu) for g in gens]
    return out


def _scaled(gens, c):
    return [[c * a for a in row] for row in gens]


def _enrich(rels, extras):
    rows = [r[:] for r in rels] if rels else []
    for e in extras:
        rows.extend(r[:] for r in e if any(r))
    return rows


def _presented_cone(src_terms, src_maps, tgt_terms, tgt_maps, fmaps):
    """Cone of a map of presented complexes, shifted so acyclicity of the
    cone certifies the quasi-isomorphism.

    E^n = src^{n+1} (+) tgt^n, d(x, y) = (-x d_src, x f + y d_tgt)."""
    degs = sorted({d - 1 for d in src_terms} | set(tgt_terms))
    cone_terms = {}
    cone_maps = {}

    def amb(terms, j):
        g, _ = terms.get(j, ([], []))
        return len(g[0]) if g else 0

    for nn in degs:
        gs, rs = src_terms.get(nn + 1, ([], []))
        gt, rt = tgt_terms.get(nn, ([], []))
        a_s = len(gs[0]) if gs else 0
        a_t = len(gt[0]) if gt else 0
        gens = []
        for row in gs:
            gens.append(list(row) + [0] * a_t)
        for row in gt:
            gens.append([0] * a_s + list(row))
        rels = []
        for row in rs:
            rels.append(list(row) + [0] * a_t)
        for row in rt:
            rels.append([0] * a_s + list(row))
        cone_terms[nn] = (gens, rels)
    for nn in degs:
        if nn + 1 not in cone_terms:
            continue
        a_s = amb(src_terms, nn + 1)
        a_t = amb(tgt_terms, nn)
        b_s = amb(src_terms, nn + 2)
        b_t = amb(tgt_terms, nn + 1)
        if a_s + a_t == 0 or b_s + b_t == 0:
            continue
        M = zeros(a_s + a_t, b_s + b_t)
        Ds = src_maps.get(nn + 1)
        Dt = tgt_maps.get(nn)
        f = fmaps.get(nn + 1)
        for r in range(a_s):
            if Ds is not None and b_s:
                for c in range(b_s):
                    M[r][c] = -Ds[r][c]
            if f is not None and b_t:
                for c in range(b_t):
                    M[r][b_s + c] = f[r][c]
        for r in range(a_t):
            if Dt is not None and b_t:
                for c in range(b_t):
                    M[a_s + r][b_s + c] = Dt[r][c]
        cone_maps[nn] = M
    return cone_terms, cone_maps
