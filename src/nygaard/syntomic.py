"""Syntomic complexes Z/p^r(i) as fibers of (divided Frobenius - can).

One torus model computes them, through one entry point, `syntomic_q`: the
q-de Rham 1-torus `QTorusComplex` over B = Z[q]/((q-1)^N), which reaches the
d-torus by the Künneth sums below.  Nygaard coordinates are normalized by
powers of xi, so the Nygaard-side differential is the normalized Koszul
differential and can embeds the xi-power lattice rows.

Characteristic p is the same model at N = 1, reported as model "charp".
There B = B/mu = Z is the crystalline prism (Z_p, (p)), the q = 1 fibre of
the q-de Rham prism (Z_p[[q-1]], [p]_q) (Bhatt-Scholze, Prisms and
prismatic cohomology, §16): mu = 0, xi = xi_tilde = p, and every block is
the scalar block of the integral torus model `torus.TorusDeRham`.  The
Nygaard lattice in Koszul degree t is p^{max(i-t,0)} times the full term,
and can is that scale.  So the collapse of the q-model along mu is the
N = 1 model: Z/p^r(i) of the F_p-torus, which BMS2 §8 identifies with
W_r Omega^i_log[-i].  For N >= 2 (model "q") the answer is relative to the
truncated q-de Rham base.

The torus model decomposes by Frobenius orbits of weights {m, pm, ...} (m
primitive).  Step s of an orbit has the weight p^s m, a Nygaard-side term
N_s and a full-side term X_s; can maps N_s to X_s, phi_i maps N_s to
X_{s+1}.  The window W_K holds N_s, s <= K, and X_s, s <= K+1, each degree's
basis ordered by step: X_0, then (N_s, X_{s+1}) for s = 0..K.  So W_K is a
prefix of W_{K+1} and a subcomplex (d maps N_s into N_s + X_s + X_{s+1} and
X_s into X_s): d_t of W_K is the top-left block of that of W_{K+1}, zero in
the new columns.  A widening appends one step group per degree; its new
boundary rows are the rows of d_{t-1} at that group.  Every block is
fetched once per orbit, and everything is computed over Z/p^r.

The orbit group in degree t is the stable image I_k of H(W_V) in
H(W_{V+k}), span(K_V + B_k)/span(B_k) for the cocycles K_V of W_V and the
boundaries B_k of W_{V+k}.  I_{k+1} is the image of I_k, so equal orders
|I_{k+1}| = |I_k| mean an isomorphism and end the search.  Lemma:
I_k = K_V / (B_k ∩ W_V), and B_k ∩ W_V = ker(pi on B_k), pi dropping the
W_V coordinates.  Proof: I_k = K_V / (K_V ∩ B_k); a boundary with
pi b = 0 lies in the subcomplex W_V, where its differential is zero, so it
lies in K_V, all of W_V's cocycles; so K_V ∩ B_k = ker(pi on B_k).  So
log_p |I_k| is log_p |K_V| - log_p |B_k ∩ W_V| (the same number as
log_p |K_V| + log_p |pi B_k| - log_p |B_k|), and I_k is a quotient in the
W_V coordinates.

Each widening keeps, per degree, the pivot rows P_k of an elimination of
the pi-parts of B_k, each row written [pi-part | W_V-part], and rows
spanning B_k ∩ W_V.  Lemma: with P_k zero-padded by one step group and R
the new rows, B_{k+1} ∩ W_V = (B_k ∩ W_V) + ker(pi on span[P_k; R]).
Proof: the elimination of B_k leaves P_k and null rows whose pi-parts are
zero (P_0 is empty: B_0 lies in W_V), so B_k = span(P_k) + (B_k ∩ W_V);
padding keeps pi b = 0, so B_{k+1} = span[P_k; R] + (B_k ∩ W_V), and
B_k ∩ W_V lies in B_{k+1} ∩ W_V.  For b = x + y with x in span[P_k; R]
and y in B_k ∩ W_V, pi b = pi x, so pi b = 0 iff pi x = 0.  The second
summand is read off one elimination of the pi-parts of [P_k; R] with the
W_V-parts tracked, by the argument of
`preimage_mod`: after column operations on the pi-parts, which change no
kernel, the pivot rows are unit * p^v times distinct unit vectors and the
null rows are zero, so sum c_j x_j has pi-part 0 iff p^{r-v_j} divides
c_j at each pivot j.  So ker(pi) is spanned by the W_V-parts of the null
rows and p^{r-v} times the W_V-parts of the pivot rows, and the pivot rows
are P_{k+1}.  These rows and those of B_k ∩ W_V are eliminated together,
ranks of W_V wide, and the order is read off that elimination.  Where it
certifies, I_k is `quotient_exponents_mod`(K_V, B_k ∩ W_V) in the W_V
coordinates.  In the top degree presented no differential leaves W_V, so
K_V is all of W_V^t and I_k = W_V^t / (B_k ∩ W_V) is read off the same
elimination: a Z/p^v per pivot of valuation v > 0 and a Z/p^r per missing
rank.  Each widening checks d*d = 0 mod p^r on the new rows only (the old
ones were checked before).  Beyond the window every Koszul entry vanishes
mod p^r (valuations are monotone along the orbit).  Degrees j > i are also
covered by the geometric-series invertibility of the twisted Frobenius.

The weight-0 block has no Koszul differential: d_t = A_t = phi_i - can from
N^t to X^t, square, so H^t = ker(A_t) + coker(A_{t-1}).  On the d-torus A_t
is C(d, t) copies of the N x N block of the 1-torus model in degree t
(the `torus` docstring), one elimination each.

Every primitive weight has the orbit window of e_1 = (1, 0, ..., 0), at
every N.  So `_orbit_sum` adds the groups of the orbit of e_1 once for each
of the n = (2M+1)^d - (2 floor(M/p) + 1)^d primitive weights of the box (the
box less its weights in pZ^d).  The proof, in the normalised coordinates of
`qtorus`, for a primitive m0 with c = gcd(m0) > 0; c is prime to p because
m0 is primitive:

1-2. Step s of the orbit of m0 carries the weight p^s m0.  By steps 1 and 2
   of the weight-class lemma in the `torus` docstring, with
   x = q^{p^{s+1}}, Lambda^t(g(x)) is an automorphism of step s in Koszul
   degree t that carries the Koszul differential of p^s m0 to that of
   p^s c e_1.
3. It is B-linear, so it commutes with can, the Nygaard xi-scales and the
   normalised differential, which are xi-powers, scalars in each Koszul
   degree.  phi is q -> q^p on coefficients times the scalar xi_tilde^t; it
   carries g at step s to g at step s+1, so it commutes with phi_i, which
   maps step s to step s+1.
4. [c]_x = c mod (x - 1), and x - 1 lies in (q - 1), which is nilpotent in
   B.  So [c]_x is a unit of B/p^r.  Rescaling dlog T_I with 1 in I by its
   inverse at step s carries the step s of c e_1 to that of e_1, and
   commutes with the same maps for the same reasons: phi carries the scale
   at step s to the scale at step s+1.
5. Both maps act step by step, so they commute with the window inclusions
   W_V -> W_{V+k}.  They carry every window of m0 to that of e_1 over
   Z/p^r: the stable images agree and stabilise at the same depth.  The
   tail test agrees too: a coordinate with p not dividing m_a makes [m_a]_x
   a unit, so the blocks at step V+1 all vanish mod p^r exactly when
   [p^{V+1}]_{q^p} does, which is the test at e_1.

At N = 1 every [k]_x is the integer k: g lies in GL_d(Z), and the rescaling
is by c^{-1} mod p^r.

Künneth: the orbit of e_1 is a sum of d = 1 orbits.  Write G_t(j) for the
group in degree t of the orbit of e_1 = (1) on the 1-torus at twist j, and
G(j) = 0 for j < 0.  Then the orbit of e_1 on the d-torus has, in degree t,

    sum over t2 = 0..d-1 of C(d-1, t2) copies of G_{t-t2}(i - t2).

Proof.  At the weight p^s e_1 the Koszul entries of the coordinates 2..d are
[0]_x = 0.  So for each subset J of {2..d}, dlog T_J and dlog T_1 ^ dlog T_J
span, on both sides and at every step, a summand closed under d:
d(dlog T_J) = [p^s]_x dlog T_1 ^ dlog T_J (coordinate 1 comes first, so the
Koszul sign is +), and d(dlog T_1 ^ dlog T_J) = 0.  Can, phi_i, the
xi-scales and the normalised differential are scalars in each Koszul
degree t: xi^{max(i-t,0)}, xi_tilde^{max(t-i,0)} phi and xi^{a-a'} with
a = max(i-t,0), a' = max(i-t-1,0).  They depend on i and t only through
t - i.  So the summand of J, with |J| = t2, is the orbit of e_1 on the
1-torus at twist i - t2, with Koszul degree t1 placed in degree t1 + t2:
every window, widening and boundary row splits the same way, and so do the
images I_k and their orders.  The tail test at e_1 reads the blocks
+-[p^{V+1}]_x and 0, which is the test on the d = 1 block.  A summand with
twist j = i - t2 < 0 vanishes: in every Koszul degree t1 >= 0 > j, can is 1
and phi_j - can = xi_tilde^{t1-j} phi - 1 is invertible by the terminating
series of `degree_bound_inverse_certificate`, and the fibre of a map that is
an isomorphism in each Koszul degree is acyclic (filter by Koszul degree).
The d = 1 engine certifies the degrees t1 <= min(j + 1, 2), so the sum
covers every degree t <= i + 1.

One engine run per twist i - t2 >= 0, on the 1-torus, replaces the window
of the d-torus, whose ranks grow like 2^d; the engine takes no weight, as it
runs at e_1 = 1 only.  An engine on the d-torus window would certify degree
t at the first widening where every summand's order is stable at once;
`_orbit_sum` reports the largest of the summands' own widenings.  The two
agree when a summand's order stays stable once it is; this is checked
against the d-dimensional window of `tests/oracles.py`, not proved.  A
degree t1 that a summand could not certify is reported as degree t1 + t2.

The d = 1 orbit in characteristic p: at N = 1, G_1(0) = Z/p^r and every
other G_t(j) is 0.  Proof.  At d = 1 and N = 1 every block is 1 x 1.  At
step s the full-side differential is p^s, the Nygaard-side one p^{s+1} if
j >= 1 and p^s if j = 0; in Koszul degree t, can is p^{max(j-t,0)} and
phi_j is p^{max(t-j,0)}.  On finite sequences (global sections are sums
over finitely many steps), F_t = phi_j - can from N^t to X^t sends (n_s) to
(a n_{s-1} - c n_s), with a = p^{max(t-j,0)}, c = p^{max(j-t,0)} and
n_{-1} = 0.  If a = 1, F_t is injective (look at the last nonzero n_s), and
x -> sum_s c^s x_s maps its cokernel isomorphically onto Z/p^r: it kills
every F_t(e_s) = e_{s+1} - c e_s, and these give e_s = c^s e_0 modulo the
image.  If c = 1 and a = p, F_t = -(1 - pS) for the shift S is invertible,
as (pS)^r = 0 mod p^r.  The orbit complex C is the total complex of the
square of F_0 and F_1 joined by d, so 0 -> fib(F_1)[-1] -> C -> fib(F_0)
-> 0 is exact.  At j = 0, F_0 = S - 1 and F_1 = -(1 - pS), so
H(C) = H(fib F_0): Z/p^r in degree 1, spanned by e_0 in X^0_0, and 0
elsewhere.  At j >= 1, F_0 = S - p^j and F_1 = S - p^{j-1} are both
injective with cokernel Z/p^r, and the connecting map between the cokernels
is induced by the full-side d, which sends e_0 in X^0_0 to the e_0 in X^1_0
([1] = 1 at step 0): generator to generator.  So C is acyclic.  The windows
are subcomplexes whose union is C, so H(C) is the colimit of the H(W_V).
H(W_V) is finite, so its image in H(W_{V+k}) is, for large k, its image in
H(C); that is all of H(C), as e_0 lies in every window.  With the Künneth
sum the charp orbit part is n C(d-1, i) copies of Z/p^r in degree i + 1
(the summand t2 = i) and 0 elsewhere.  With the weight-0 block,
H^i = (Z/p^r)^{C(d,i)}, the dlog T_I of W_r Omega^i_log, and
H^{i+1} = (Z/p^r)^{C(d,i) + C(d-1,i) n}, its Artin-Schreier-Witt cokernel.
The charp path reads this off, with no window and no elimination; it keeps
the tail test, so NotStabilized is raised exactly when the box has a
primitive weight and V + 1 < r.  Its V_used is V + 1 (0 without primitive weights),
the window the tail test certified, though no window is built.

The A_crys model, `syntomic_acrys`, is fib(phi_i - can: N^{>=i} -> A) on
the divided-power algebra A of `pdalg` over Z/p^r.  H^0 = H^1 is read off
the roots of the weight chains (`pdalg.fiber_group`); for i < 0 both vanish,
by a series of length ceil(r / -i), whose raises are read off the same way
(`pdalg.negative_twist_series`).  The proofs are in the `pdalg` docstring.

Global sections of the torus are Laurent polynomials, not their completion;
kernels computed here are faithful, while cokernels in the Artin-Schreier
direction carry an explicit "global model" flag.
"""

from math import comb

from .errors import BoundViolated, CompositeNonzero, NotStabilized, UsageError
from .linalg import (  # noqa: F401 (the tracer self-test in bench/tests reaches hermite_form here)
    PGroup,
    cocycles_boundaries_mod,
    eliminate_mod,
    hermite_form,
    identity,
    mat_is_zero,
    mat_mul,
    quotient_exponents_mod,
)
from .pdalg import fiber_group, negative_twist_series, window
from .qtorus import QTorusComplex


class SyntomicResult:
    def __init__(self, model, p, i, r, M, V_used, groups, dlog=None, certificates=None):
        self.model, self.p, self.i, self.r, self.M, self.V_used = model, p, i, r, M, V_used
        self.groups = groups  # degree -> PGroup
        self.dlog = {} if dlog is None else dlog
        self.certificates = {} if certificates is None else certificates
        self.global_model = True
        self.evidence = {}

    def to_json(self):
        return {
            "model": self.model,
            "p": self.p,
            "i": self.i,
            "r": self.r,
            "weight_box": self.M,
            "V_used": self.V_used,
            "groups": {str(k): g.to_json() for k, g in sorted(self.groups.items())},
            "dlog": self.dlog,
            "certificates": self.certificates,
            "global_model": self.global_model,
            "evidence": self.evidence,
        }


# ---------------------------------------------------------------------------
# the torus pipeline: windows, orbits, the entry point


def _window_blocks(X, i, koszul=None):
    """The blocks of the windows of the orbit of e_1 = 1 on the 1-torus X,
    each fetched once and read by every window of the orbit:
    blocks("phi", 0, t) and blocks("can", 0, t) are phi_i and can in Koszul
    degree t, blocks("X", s, 0) is the Koszul differential 0 -> 1 at the
    weight p^s, and blocks("N", s, 0) its Nygaard-normalized form.  The "X"
    blocks do not depend on i and are kept in koszul, which the windows of
    several twists may share."""
    memo = {}
    koszul = {} if koszul is None else koszul
    fetch = {
        "phi": lambda s, t: X.divided_frobenius_matrix(i, t),
        "can": lambda s, t: X.nygaard_lattice_rows(i, t),
        "X": lambda s, t: X.diff_matrix(X.p**s),
        "N": lambda s, t: X.normalize_diff(i, blocks("X", s, t)),
    }

    def blocks(kind, s, t):
        cache, key = koszul if kind == "X" else memo, (kind, s, t)
        if key not in cache:
            cache[key] = fetch[kind](s, t)
        return cache[key]

    return blocks


def _tail_rows(blocks, rk, t, s):
    """The rows of d_t at step group s (N^t_s, X^{t-1}_{s+1}) on the columns
    X^t_s, N^{t+1}_s, X^t_{s+1} they reach."""
    Ns = blocks("N", s, t) if rk[t + 1] else [[]] * rk[t]
    rows = [[-a for a in c] + n + f
            for c, n, f in zip(blocks("can", 0, t), Ns, blocks("phi", 0, t))]
    if t:
        pad = [0] * (rk[t] + rk[t + 1])
        rows += [pad + [-a for a in x] for x in blocks("X", s + 1, t - 1)]
    return rows


def _assemble_window(X, i, V, blocks=None, top=None):
    """Total complex of fib(phi_i - can) on the window W_V of the orbit of
    e_1 on the 1-torus X.

    Degrees t = 0..top, top = 2 unless given, with the differentials out of
    the degrees below top, in the step order of the module docstring.
    blocks is the orbit's `_window_blocks`, made here when not given.
    Returns (ranks, diffs, basis_info) with basis_info[t] listing labels
    ("N", s, k) and ("X", s, k)."""
    top = 2 if top is None else top
    rk = {j: X.rank(j) for j in range(-1, 3)}
    blocks = blocks or _window_blocks(X, i)
    basis_info = {
        t: [("X", 0, k) for k in range(rk[t - 1])]
        + [(side, s + (side == "X"), k) for s in range(V + 1)
           for side, j in (("N", t), ("X", t - 1)) for k in range(rk[j])]
        for t in range(top + 1)
    }
    ranks = {t: len(labels) for t, labels in basis_info.items()}
    diffs = {}
    for t in range(top):
        g = rk[t + 1] + rk[t]
        D = [[-a for a in x] + [0] * ((V + 1) * g) for x in blocks("X", 0, t - 1)] if t else []
        for s in range(V + 1):
            D += [[0] * (s * g) + row + [0] * ((V - s) * g) for row in _tail_rows(blocks, rk, t, s)]
        diffs[t] = D
    return ranks, diffs, basis_info


def _orbit_contribution(X, i, r, V, blocks=None):
    """Certified per-degree groups of the orbit of e_1 on the 1-torus X in
    degrees <= i+1: the stable image of H(W_V), certified at the first
    k >= 2 with |I_k| = |I_{k-1}| (module docstring), and per degree that k
    (0 when H^t(W_V) has no cocycles).  Raises NotStabilized after four
    widenings.

    Per pending degree each widening makes one elimination of the pi-parts
    of the carried pivot rows and the new rows, with the W_V-parts tracked,
    and one of the rows of B_k ∩ W_V, whose valuations give the order and,
    in the top degree, the group (module docstring).  W_V is presented up
    to degree min(i+2, 2), which the cocycles of degree i+1 need.  blocks
    is the orbit's `_window_blocks`, made here when not given."""
    p, q = X.p, X.p**r
    blocks = blocks or _window_blocks(X, i)
    top = min(i + 2, 2)
    rk = {j: X.rank(j) for j in range(-1, 3)}
    ranks, diffs, _ = _assemble_window(X, i, V, blocks, top)
    pres = cocycles_boundaries_mod(ranks, diffs, p, r)
    out, k_used, prev, pending = {}, {}, {}, []
    for t in range(min(top, i + 1) + 1):
        if pres[t][0]:
            pending.append(t)
        else:
            out[t], k_used[t] = PGroup.zero(p), 0
    # per pending degree: the pivot rows of B_k, each written [pi-part |
    # W_V-part], and rows spanning B_k ∩ W_V; every boundary of W_V lies in
    # W_V, so at k = 0 there are no pivots
    piv = {t: [] for t in pending}
    meet = {t: pres[t][1] for t in pending}
    k = 1
    while pending and k <= 4:
        s = V + k
        for t in list(pending):
            g, w = rk[t] + rk[t - 1], ranks[t]
            n, m = (k - 1) * g, k * g  # widths of the pi-parts before and after
            new = _tail_rows(blocks, rk, t - 1, s) if t else []
            if new and t < top:
                # the new boundary rows reach the rows X^{t-1}_s of d_t and
                # the rows of d_t at step group s
                D = [[-a for a in x] + [0] * (rk[t + 1] + rk[t]) for x in blocks("X", s, t - 1)]
                if any(a % q for row in mat_mul(new, D + _tail_rows(blocks, rk, t, s)) for a in row):
                    raise CompositeNonzero(
                        "degree %d: boundaries are not cocycles mod %d" % (t, q))
            # the new rows start at X^{t-1}_s, which closes W_V when k = 1
            new = [[0] * (w + m - len(row)) + row for row in new]
            pad = [0] * g
            vals, rows = eliminate_mod(
                [row[:n] + pad for row in piv[t]] + [row[w:] for row in new], p, r,
                [row[n:] for row in piv[t]] + [row[:w] for row in new], whole=True)
            piv[t] = rows[:len(vals)]
            # ker(pi) on these rows, as in preimage_mod: p^{r-v} times the
            # W_V-part of each pivot of valuation v, and the W_V-part of each
            # null row
            kernel = [[p ** (r - v) * a % q for a in row[m:]] for v, row in zip(vals, rows) if v]
            kernel += [row[m:] for row in rows[len(vals):]]
            mvals, meet[t] = eliminate_mod(meet[t] + kernel, p, r)
            # -log_p |B_k ∩ W_V| = log_p |I_k| - log_p |K_V|
            order = sum(mvals) - r * len(mvals)
            if prev.get(t) == order:
                if t == top:
                    # K_V is all of W_V^t: I_k = W_V^t / (B_k ∩ W_V)
                    exps = [v for v in mvals if v] + [r] * (w - len(mvals))
                    out[t] = PGroup(p, tuple(sorted(exps, reverse=True)))
                else:
                    out[t] = PGroup(p, quotient_exponents_mod(pres[t][0], meet[t], p, r))
                k_used[t] = k
                pending.remove(t)
            else:
                prev[t] = order
        k += 1
    if pending:
        raise NotStabilized("image chain did not stabilize in degrees %s" % pending, pending)
    return out, k_used


def _weight0(X, d, i, r):
    """The groups of the weight-0 block of the d-torus and its dlog flags.

    In Koszul degree j, A_j = phi_i - can is C(d, j) copies of the N x N
    block of X in degree j (the `torus` docstring), so ker(A_j) and
    coker(A_j) are C(d, j) copies of a Z/p^v per pivot v > 0 of that block
    and a Z/p^r per missing rank.  The dlog class is e_0 in N^i, the
    constant coefficient of dlog T_1 ^ ... ^ dlog T_i: present when the
    cocycles ker(A_i) + X^{i-1} are nonzero, as for every i >= 1; a cocycle
    iff row 0 of A_i is 0 mod p^r.  It is nonzero in H^i whenever present,
    since the boundaries, the image of A_{i-1}, lie in X^{i-1}: nonzero_in_H
    holds by this proof, not by a computation.  phi_fixed: phi_i fixes the
    constant coefficient of every dlog T_I of degree i, which is row 0 of
    the block of phi_i in degree i."""
    p = X.p
    exps, A = {}, {}
    for j in range(d + 1):
        A[j] = [[f - c for f, c in zip(fr, cr)] for fr, cr in
                zip(X.divided_frobenius_matrix(i, j), X.nygaard_lattice_rows(i, j))]
        vals, _ = eliminate_mod(A[j], p, r)
        exps[j] = comb(d, j) * ([v for v in vals if v] + [r] * (len(A[j]) - len(vals)))
    groups = {t: PGroup(p, tuple(sorted(exps.get(t, []) + exps.get(t - 1, []), reverse=True)))
              for t in range(d + 2)}
    if not 0 <= i <= d or not (i or exps[0]):
        return groups, {"degree": i, "present": False}
    return groups, {"degree": i, "present": True,
                    "cocycle": not any(a % p**r for a in A[i][0]),
                    "nonzero_in_H": True,
                    "phi_fixed": X.divided_frobenius_matrix(i, i)[0] == identity(X.N)[0]}


def _charp_orbit(p, j, r):
    """The groups of the orbit of e_1 on the 1-torus at N = 1 and twist
    j >= 0, by the lemma of the module docstring: Z/p^r in degree 1 at
    j = 0, and 0 otherwise."""
    return {1: PGroup(p, (r,))} if j == 0 else {}


def _orbit_sum(X, d, i, r, M, V):
    """fib(phi_i - can) on the d-torus summed over the primitive orbits of
    the weight box of radius M, plus the weight-0 block; X is the 1-torus.

    The orbit of e_1 is added once for each of the n primitive weights of
    the box, and it is the Künneth sum of orbits of e_1 on the 1-torus at
    the twists i - t2 >= 0 (module docstring).  At N >= 2 each of those is
    `_orbit_contribution`; at N = 1 it is read off by the lemma.  Returns
    (total, dlog, k_used, V_used): the groups per degree, the weight-0 dlog
    flags, per degree the largest widening k at which a summand certified
    (None at N = 1, where no window runs), and V + 1.  When the box holds no
    primitive weight k_used is {} (None at N = 1) and V_used is 0.  Raises
    NotStabilized when a summand does not stabilise, or when the tail test
    fails at e_1."""
    p = X.p
    n = (2 * M + 1) ** d - (2 * (M // p) + 1) ** d
    total, dlog = _weight0(X, d, i, r)
    k_used = {} if X.N > 1 else None
    if not n:
        return total, dlog, k_used, 0
    koszul, pending = {}, []
    # the summand of dlog T_J, |J| = t2, at twist i - t2; those with
    # negative twist vanish.  Degrees <= i+1 are certified by the stable
    # window images; degrees >= i+2 lie in the invertibility zone (Koszul
    # degrees > i), where the twisted Frobenius minus one is invertible by
    # a terminating series, so the orbit contributes nothing there
    for t2 in range(min(d - 1, i) + 1):
        blocks = _window_blocks(X, i - t2, koszul)
        if k_used is None:
            contrib = _charp_orbit(p, i - t2, r)
        else:
            try:
                contrib, k = _orbit_contribution(X, i - t2, r, V, blocks=blocks)
            except NotStabilized as ex:
                pending += [t + t2 for t in ex.degrees]
                continue
            for t, kt in k.items():
                k_used[t + t2] = max(k_used.get(t + t2, 0), kt)
        for t, g in contrib.items():
            total[t + t2] = total[t + t2] + n * comb(d - 1, t2) * g
    if pending:
        pending = sorted(set(pending))
        raise NotStabilized("image chain did not stabilize in degrees %s" % pending, pending)
    # the tail test reads the Koszul blocks, which every twist shares
    if not _q_tail_vanishes(X, r, V, blocks):
        raise NotStabilized("orbit windows did not certify at V = %d" % V)
    return total, dlog, k_used, V + 1


def _q_tail_vanishes(X, r, V, blocks):
    """All entries of the Koszul block at step V+1 vanish mod p^r; blocks is
    the orbit's `_window_blocks`, whose widenings fetched most of them."""
    q = X.p**r
    return not any(a % q for row in blocks("X", V + 1, 0) for a in row)


def _nilpotency_index(T, p, r):
    """The least k >= 1 with T^k = 0 mod p^r, the powers reduced mod p^r at
    each step: where the series -(1 + T + T^2 + ...) inverting T - 1 ends.
    BoundViolated past k = r * len(T): if T is nilpotent mod p^r, it is
    mod p, so T^len(T) = 0 mod p and T^(r len(T)) = 0 mod p^r."""
    q = p**r
    T = [[a % q for a in row] for row in T]
    Tk, k = T, 1
    while not mat_is_zero(Tk):
        if k >= r * len(T):
            raise BoundViolated("T^%d != 0 mod %d: the series does not terminate" % (k, q))
        Tk = [[a % q for a in row] for row in mat_mul(Tk, T)]
        k += 1
    return k


def degree_bound_inverse_certificate(X, d, i, r):
    """In Koszul degrees j > i (and j >= 0) the operator xi_tilde^{j-i} phi - 1
    is invertible: the series -(1 + A + A^2 + ...) terminates because A^k = 0
    mod (p^r, mu^N).  Returns the termination exponents; at N = 1 the least
    k with p^{(j-i)k} = 0 mod p^r."""
    B = X.B
    phi = B.phi_matrix()
    return {j: _nilpotency_index(mat_mul(phi, B.mult_matrix(B.pow(B.xi_tilde, j - i))), X.p, r)
            for j in range(max(i + 1, 0), d + 1)}


def syntomic_q(p, d, i, r, N=4, M=4, V=None):
    """Cohomology of fib(phi_i - can) on the d-torus in the q-model over
    B/p^r, B = Z[q]/((q-1)^N), the orbit of e_1 for all primitive weights,
    summed over orbits on the 1-torus (module docstring), with the
    degree-bound invertibility certificate.

    N = 1 is characteristic p (model "charp"): B = Z, the crystalline prism.
    For N >= 2 (model "q") it reports the module structure of the truncated
    model.  That answer depends on the orbit window V (r + 1 when None),
    which the charp answer does not: `syntomic --model q -p2 -d1 -i1 -r1
    -N2 -M1` has 7, 9 and 11 cyclic factors in H^0, and 10, 12 and 14 in
    H^1, at V = 2, 3 and 4, each run certified stable at k = 2; 32 of the
    48 q configs of the benchmark's q-windows grid change their groups
    between V = r + 1 and V = r + 3 (ROADMAP item 6).  For i < 0 every
    Koszul degree j >= 0 lies in the zone j > i, where xi_tilde^{j-i} phi - 1
    is invertible by a terminating series, so all groups vanish, no window
    is tested and V_used is 0; the certificate reports the termination
    exponent per degree."""
    if d < 1 or N < 1:
        raise UsageError("the q-torus needs d >= 1 and N >= 1, got d = %d, N = %d" % (d, N))
    X = QTorusComplex(p, N)
    if r < 1:
        raise UsageError("the syntomic complex needs r >= 1, got r = %d" % r)
    if M < 0:
        raise UsageError("the weight box needs M >= 0, got M = %d" % M)
    model = "charp" if N == 1 else "q"
    if i < 0:
        groups = {t: PGroup.zero(p) for t in range(d + 2)}
        return SyntomicResult(
            model, p, i, r, M, 0, groups,
            certificates={"negative_twist_series": degree_bound_inverse_certificate(X, d, i, r)})
    V = r + 1 if V is None else V
    total, dlog, k_used, V_used = _orbit_sum(X, d, i, r, M, V)
    certificates = {"degree_bound_series": degree_bound_inverse_certificate(X, d, i, r)}
    if k_used is not None:
        certificates["stabilized"] = k_used
    return SyntomicResult(model, p, i, r, M, V_used, total, dlog=dlog,
                          certificates=certificates)


# ---------------------------------------------------------------------------
# acrys model


def syntomic_acrys(p, i, r, e=2, W=None):
    """Z/p^r(i) = fib(phi_i - can) on the A_crys model: H^0 = H^1 is
    `pdalg.fiber_group`; for i < 0 both vanish, and the certificate is where
    the series of `pdalg.negative_twist_series` ends (module docstring)."""
    W = window(p, r, e, W)
    if i < 0:
        return SyntomicResult(
            "acrys", p, i, r, 0, 0,
            {0: PGroup.zero(p), 1: PGroup.zero(p)},
            certificates={"negative_twist_series": negative_twist_series(p, r, e, W, i)},
        )
    G = fiber_group(p, r, e, W, i)
    return SyntomicResult("acrys", p, i, r, 0, W, {0: G, 1: G})
