"""Syntomic complexes Z/p^r(i) as fibers of (divided Frobenius - can).

One torus model computes them, through one entry point, `syntomic_q`: the
q-de Rham torus `QTorusComplex` over B = Z[q]/((q-1)^N).  Nygaard
coordinates are normalized by powers of xi, so the Nygaard-side differential
is the normalized Koszul differential and can embeds the xi-power lattice
rows.

Characteristic p is the same model at N = 1, reported as model "charp".
There B = B/mu = Z is the crystalline prism (Z_p, (p)), the q = 1 fibre of
the q-de Rham prism (Z_p[[q-1]], [p]_q) (Bhatt-Scholze, Prisms and
prismatic cohomology, §16): mu = 0, xi = xi_tilde = p, and every block is
the scalar block of the integral torus model `TorusDeRham`.  The Nygaard
lattice in Koszul degree t is p^{max(i-t,0)} times the full term, and can is
that scale.  So the collapse of the q-model along mu is the N = 1 model:
Z/p^r(i) of the F_p-torus, which BMS2 §8 identifies with
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
|I_k| = |K_V| |pi B_k| / |B_k|, pi dropping the W_V coordinates.  Proof:
|I_k| = |K_V| / |K_V ∩ B_k|; a boundary with pi b = 0 lies in the
subcomplex W_V, where its differential is zero, so it lies in K_V, all of
W_V's cocycles; so K_V ∩ B_k = ker(pi on B_k), of order |B_k| / |pi B_k|.
Each widening eliminates the pivot rows of span(B_k) and span(pi B_k)
carried from the last, zero-padded, with the new rows, and checks
d*d = 0 mod p^r on the new rows only (the old ones were checked before);
the group is read off once, where it certifies.  Beyond the window every
Koszul entry vanishes mod p^r (valuations are monotone along the orbit).
Degrees j > i are also covered by the geometric-series invertibility of the
twisted Frobenius.

The weight-0 block has no Koszul differential: d_t = A_t = phi_i - can from
N^t to X^t, square, so H^t = ker(A_t) + coker(A_{t-1}).

Every primitive weight has the orbit window of e_1 = (1, 0, ..., 0), at
every N.  So `_orbit_sum` builds one window, at e_1, and adds its groups once
for each of the n = (2M+1)^d - (2 floor(M/p) + 1)^d primitive weights of the
box (the box less its weights in pZ^d).  The proof, in the normalised
coordinates of `qtorus`, for a primitive m0 with c = gcd(m0) > 0; c is prime
to p because m0 is primitive:

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

The A_crys model, `syntomic_acrys`, is fib(phi_i - can: N^{>=i} -> A) on
the divided-power algebra A of `pdalg` over Z/p^r.  H^0 = H^1 is read off
the roots of the weight chains (`pdalg.fiber_group`); for i < 0 both vanish,
by a series of length ceil(r / -i), whose raises are read off the same way
(`pdalg.negative_twist_series`).  The proofs are in the `pdalg` docstring.

Global sections of the torus are Laurent polynomials, not their completion;
kernels computed here are faithful, while cokernels in the Artin-Schreier
direction carry an explicit "global model" flag.
"""

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
from .qtorus import build_qtorus


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


def _window_blocks(X, i, m0):
    """The blocks of the windows of the orbit of m0, each fetched once and
    read by every window of the orbit: blocks("phi", 0, t) and
    blocks("can", 0, t) are phi_i and can in Koszul degree t,
    blocks("X", s, t) is the Koszul differential t -> t+1 at the weight
    p^s m0, and blocks("N", s, t) its Nygaard-normalized form."""
    memo = {}
    fetch = {
        "phi": lambda s, t: X.divided_frobenius_matrix(i, t),
        "can": lambda s, t: X.nygaard_lattice_rows(i, t),
        "X": lambda s, t: X.diff_matrix(tuple(X.p**s * a for a in m0), t),
        "N": lambda s, t: X.normalize_diff(i, t, blocks("X", s, t)),
    }

    def blocks(kind, s, t):
        key = (kind, s, t)
        if key not in memo:
            memo[key] = fetch[kind](s, t)
        return memo[key]

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


def _assemble_window(X, i, V, m0, blocks=None, top=None):
    """Total complex of fib(phi_i - can) on the window W_V of the orbit of m0.

    Degrees t = 0..top, top = d+1 unless given, with the differentials out of
    the degrees below top, in the step order of the module docstring.
    blocks is the orbit's `_window_blocks`, made here when not given.
    Returns (ranks, diffs, basis_info) with basis_info[t] listing labels
    ("N", s, k) and ("X", s, k)."""
    top = X.d + 1 if top is None else top
    rk = {j: X.exp_rank(j) for j in range(-1, X.d + 2)}
    blocks = blocks or _window_blocks(X, i, m0)
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


def _orbit_contribution(X, m0, i, r, V, blocks=None):
    """Certified per-degree groups of the orbit of m0 in degrees <= i+1: the
    stable image of H(W_V), certified at the first k >= 2 with
    |I_k| = |I_{k-1}| (module docstring), and per degree that k (0 when
    H^t(W_V) has no cocycles).  Raises NotStabilized after four widenings.

    W_V is presented up to degree min(i+2, d+1), which the cocycles of degree
    i+1 need.  blocks is the orbit's `_window_blocks`, made here when not
    given."""
    p, q = X.p, X.p**r
    blocks = blocks or _window_blocks(X, i, m0)
    top = min(i + 2, X.d + 1)
    rk = {j: X.exp_rank(j) for j in range(-1, X.d + 2)}
    ranks, diffs, _ = _assemble_window(X, i, V, m0, blocks, top)
    pres = cocycles_boundaries_mod(ranks, diffs, p, r)
    out, k_used, prev, pending = {}, {}, {}, []
    for t in range(min(top, i + 1) + 1):
        if pres[t][0]:
            pending.append(t)
        else:
            out[t], k_used[t] = PGroup.zero(p), 0
    # per pending degree, rows spanning B_t and pi(B_t) in the latest window
    span = {t: (pres[t][1], []) for t in pending}
    k = 1
    while pending and k <= 4:
        s = V + k
        for t in list(pending):
            g = rk[t] + rk[t - 1]
            width = ranks[t] + k * g
            new = _tail_rows(blocks, rk, t - 1, s) if t else []
            if new and t < top:
                # the new boundary rows reach the rows X^{t-1}_s of d_t and
                # the rows of d_t at step group s
                D = [[-a for a in x] + [0] * (rk[t + 1] + rk[t]) for x in blocks("X", s, t - 1)]
                if any(a % q for row in mat_mul(new, D + _tail_rows(blocks, rk, t, s)) for a in row):
                    raise CompositeNonzero(
                        "degree %d: boundaries are not cocycles mod %d" % (t, q))
            new = [[0] * (width - len(row)) + row for row in new]
            pad = [0] * g
            B, piB = ([row + pad for row in rows] for rows in span[t])
            vals, B = eliminate_mod(B + new, p, r)
            pvals, piB = eliminate_mod(piB + [row[ranks[t]:] for row in new], p, r)
            span[t] = B, piB
            # log_p |pi B_k| - log_p |B_k| = log_p |I_k| - log_p |K_V|
            order = r * (len(pvals) - len(vals)) - sum(pvals) + sum(vals)
            if prev.get(t) == order:
                K = [row + [0] * (width - ranks[t]) for row in pres[t][0]]
                out[t], k_used[t] = PGroup(p, quotient_exponents_mod(K, B, p, r)), k
                pending.remove(t)
            else:
                prev[t] = order
        k += 1
    if pending:
        raise NotStabilized("image chain did not stabilize in degrees %s" % pending)
    return out, k_used


def _weight0(X, i, r):
    """The groups of the weight-0 block and its dlog flags.

    ker(A_j) and coker(A_j) are both a Z/p^v per pivot v > 0 of A_j and a
    Z/p^r per missing rank.  The dlog class is e_0 in N^i, the constant
    coefficient of dlog T_1 ^ ... ^ dlog T_i: present when the cocycles
    ker(A_i) + X^{i-1} are nonzero, as for every i >= 1; a cocycle iff row 0
    of A_i is 0 mod p^r.  It is nonzero in H^i whenever present, since the
    boundaries, the image of A_{i-1}, lie in X^{i-1}: nonzero_in_H holds by
    this proof, not by a computation."""
    p, d = X.p, X.d
    exps, A = {}, {}
    for j in range(d + 1):
        A[j] = [[f - c for f, c in zip(fr, cr)] for fr, cr in
                zip(X.divided_frobenius_matrix(i, j), X.nygaard_lattice_rows(i, j))]
        vals, _ = eliminate_mod(A[j], p, r)
        exps[j] = [v for v in vals if v] + [r] * (len(A[j]) - len(vals))
    groups = {t: PGroup(p, tuple(sorted(exps.get(t, []) + exps.get(t - 1, []), reverse=True)))
              for t in range(d + 2)}
    if not 0 <= i <= d or not (i or exps[0]):
        return groups, {"degree": i, "present": False}
    return groups, {"degree": i, "present": True,
                    "cocycle": not any(a % p**r for a in A[i][0]),
                    "nonzero_in_H": True,
                    "phi_fixed": _q_dlog_fixed(X.divided_frobenius_matrix(i, i), X.N)}


def _orbit_sum(X, i, r, M, V):
    """fib(phi_i - can) summed over the primitive orbits of the weight box of
    radius M, plus the weight-0 block.

    One window, at e_1: its groups are added once for each of the n
    primitive weights of the box (module docstring).  Returns (total, dlog,
    k_used, V_used): the groups per degree, the weight-0 dlog flags, the
    widening k per degree at which the stable image of the e_1 window
    certified, and V + 1.  When the box holds no primitive weight no window
    is built: k_used is {} and V_used is 0.  Raises NotStabilized when the
    tail test fails at e_1."""
    p, d = X.p, X.d
    n = (2 * M + 1) ** d - (2 * (M // p) + 1) ** d
    total, dlog = _weight0(X, i, r)
    if not n:
        return total, dlog, {}, 0
    e1 = (1,) + (0,) * (d - 1)
    blocks = _window_blocks(X, i, e1)
    # degrees <= i+1 are certified by the stable window image; degrees >= i+2
    # lie in the invertibility zone (Koszul degrees > i) where the twisted
    # Frobenius minus one is invertible by a terminating series, so the orbit
    # contributes nothing there
    contrib, k_used = _orbit_contribution(X, e1, i, r, V, blocks=blocks)
    if not _q_tail_vanishes(X, r, V, blocks):
        raise NotStabilized("orbit windows did not certify at V = %d" % V)
    for t, g in contrib.items():
        total[t] = total[t] + n * g
    return total, dlog, k_used, V + 1


def _q_tail_vanishes(X, r, V, blocks):
    """All Koszul block entries at step V+1 vanish mod p^r; blocks is the
    orbit's `_window_blocks`, whose widenings fetched most of them."""
    q = X.p**r
    return not any(a % q for t in range(X.d) for row in blocks("X", V + 1, t) for a in row)


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


def degree_bound_inverse_certificate(X, i, r):
    """In Koszul degrees j > i (and j >= 0) the operator xi_tilde^{j-i} phi - 1
    is invertible: the series -(1 + A + A^2 + ...) terminates because A^k = 0
    mod (p^r, mu^N).  Returns the termination exponents; at N = 1 the least
    k with p^{(j-i)k} = 0 mod p^r."""
    B = X.B
    phi = B.phi_matrix()
    return {j: _nilpotency_index(mat_mul(phi, B.mult_matrix(B.pow(B.xi_tilde, j - i))), X.p, r)
            for j in range(max(i + 1, 0), X.d + 1)}


def _q_dlog_fixed(Phi, N):
    """Whether Phi fixes every constant dlog vector: row k*N, the constant
    coefficient of the k-th basis vector dlog T_I, is its own unit vector."""
    I = identity(len(Phi))
    return all(Phi[k] == I[k] for k in range(0, len(Phi), N))


def orbit_window(r, V=None):
    """The orbit window of `syntomic_q` at precision r: V, or r + 1 if None."""
    return V if V is not None else r + 1


def syntomic_q(p, d, i, r, N=4, M=4, V=None):
    """Cohomology of fib(phi_i - can) on the d-torus in the q-model over
    B/p^r, B = Z[q]/((q-1)^N), one window for all primitive weights (module
    docstring), with the degree-bound invertibility certificate.

    N = 1 is characteristic p (model "charp"): B = Z, the crystalline prism.
    For N >= 2 (model "q") it reports the module structure of the truncated
    model.  For i < 0 every Koszul degree j >= 0 lies in the zone j > i,
    where xi_tilde^{j-i} phi - 1 is invertible by a terminating series, so
    all groups vanish; the certificate reports the termination exponent per
    degree."""
    X = build_qtorus(p, d, N)
    if r < 1:
        raise UsageError("the syntomic complex needs r >= 1, got r = %d" % r)
    if M < 0:
        raise UsageError("the weight box needs M >= 0, got M = %d" % M)
    model = "charp" if N == 1 else "q"
    if i < 0:
        groups = {t: PGroup.zero(p) for t in range(d + 2)}
        return SyntomicResult(
            model, p, i, r, M, 0, groups,
            certificates={"negative_twist_series": degree_bound_inverse_certificate(X, i, r)})
    V = orbit_window(r, V)
    total, dlog, k_used, V_used = _orbit_sum(X, i, r, M, V)
    return SyntomicResult(
        model, p, i, r, M, V_used, total, dlog=dlog,
        certificates={
            "stabilized": k_used,
            "degree_bound_series": degree_bound_inverse_certificate(X, i, r),
        },
    )


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
