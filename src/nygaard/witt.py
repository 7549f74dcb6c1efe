"""p-typical Witt vectors over effective base rings.

Arithmetic goes through ghost components on `ring.cover(L)`, for vectors
of length L: the coordinates are lifted, the ghost vectors combined, and the
result recovered by dividing out powers of p.  Z[x]/(x^k) is its own cover,
where the divisions are exact by functoriality.  For an F_p-algebra such as
F_p[x]/(x^k) the cover is Z/p^L[x]/(x^k), so no coefficient reaches p^L:

- If a = b mod p^s with s >= 1, then a^p = b^p mod p^{s+1}.  So
  p^j c^{p^{i-j}} mod p^{i+1} depends only on c mod p.
- So the ghost components mod p^L fix every coordinate mod p: the i-th is
  (g_i - sum_{j<i} p^j c_j^{p^{i-j}}) / p^i mod p, whose numerator is
  known mod p^{i+1}, i < L.  (Over Z/p^s, from a = b mod p^s, the same
  needs p^{s+L-1}, which divides the cover's p^{sL}.)
- p^i divides a residue mod p^L exactly when it divides the integer, so
  `exact_div_int` makes the same check as over Z and still raises RingError.
- So the inverse may reduce each coordinate to the ring as soon as it is
  found, and raise the reduced one, when the ring is Z or an algebra over
  Z/p^s for the Witt prime p.  Over Z/p^s, s >= 1: if a = b mod p^s,
  then a^{p^m} = b^{p^m} mod p^{s+m}, so p^j a^{p^{i-j}} = p^j b^{p^{i-j}}
  mod p^{s+i}.  Each numerator changes by a multiple of p^{s+i}, and
  p^{s+i} divides the cover's modulus p^{sL}, if it has one, for i < L;
  so each division by p^i is exact, or raises, as before, and each
  coordinate changes by a multiple of p^s, the same ring element.  By
  induction on i this holds for every coordinate.  Over Z nothing is
  reduced.

Each cover keeps a table `pth_powers`, (p, c) -> [c, c^p, c^{p^2}, ...],
filled on first use by its `pth_power_row`; the ghost map and its inverse
read p^j c_j^{p^{i-j}} from it.  The inverse looks up reduced coordinates, so
over a finite ring the table has at most |R| keys per prime: p^3 for the
F_p[x]/(x^3) of the `witt` command.  The exact cover Z serves every length
and every prime, hence p in the key.  The table lives on the cover, which
the run's ring builds, so it ends with the run.

Each ghost component, and each step of its inverse, is one linear
combination with integer coefficients (`combine`).  A WittVector, never
changed once built, computes its ghost once from its coordinates, never from the ghosts
of the vectors it came from, so FV = p and the projection formula stay
checks.  The universal sum and product polynomials, an independent route
for small (p, n), are a test oracle.

The module also builds the two graded-ring presentation squares over a
perfectoid base: the homotopy-style square (phi-linear top map u -> sigma,
v -> xi_tilde * sigma^{-1}, theta-linear left map u -> u, v -> 0) and the
canonical map u -> xi*sigma, v -> sigma^{-1}.
"""

from functools import cached_property

from .errors import LengthMismatch, UsageError
from .linalg import span_contains_mod
from .qbase import QBase


class WittVector:
    def __init__(self, ring, p, coords):
        self.ring, self.p, self.coords = ring, p, coords

    def __len__(self):
        return len(self.coords)

    def __eq__(self, other):
        return (
            self.p == other.p
            and len(self.coords) == len(other.coords)
            and all(self.ring.eq(a, b) for a, b in zip(self.coords, other.coords))
        )

    @cached_property
    def ghost(self):
        """g_i = sum_{j<=i} p^j w_j^{p^{i-j}} over ring.cover(len(self)), the
        powers w_j^{p^{i-j}} read from the cover's table."""
        ring, p, L = self.ring, self.p, len(self.coords)
        cover = ring.cover(L)
        weights = [p**j for j in range(L)]
        rows = [cover.pth_power_row(p, ring.lift(c), L - j) for j, c in enumerate(self.coords)]
        return tuple(cover.combine(weights, [rows[j][i - j] for j in range(i + 1)])
                     for i in range(L))


def witt(ring, p, coords):
    return WittVector(ring, p, tuple(coords))


def witt_zero(ring, p, n):
    return witt(ring, p, [ring.zero] * n)


def witt_one(ring, p, n):
    return witt(ring, p, [ring.one] + [ring.zero] * (n - 1))


def teichmuller(ring, p, a, n):
    return witt(ring, p, [a] + [ring.zero] * (n - 1))


def _from_ghost_cover(ring, p, g):
    """Invert the ghost map over ring.cover(len(g)); each coordinate is
    reduced to the ring as soon as it is found, and its powers are read from
    the cover's table (module docstring)."""
    L = len(g)
    cover = ring.cover(L)
    weights = [1] + [-(p**j) for j in range(L)]
    coords, rows = [], []
    for i, acc in enumerate(g):
        pows = [row[i - j] for j, row in enumerate(rows)]
        coords.append(ring.reduce(cover.exact_div_int(cover.combine(weights, [acc] + pows), p**i)))
        rows.append(cover.pth_power_row(p, ring.lift(coords[-1]), L - i))
    return witt(ring, p, coords)


def _check_compatible(w, w2):
    if len(w.coords) != len(w2.coords):
        raise LengthMismatch("%d vs %d" % (len(w.coords), len(w2.coords)))
    if w.p != w2.p or w.ring is not w2.ring:
        raise UsageError("Witt vectors over different primes or rings")


def witt_add(w, w2):
    _check_compatible(w, w2)
    cover = w.ring.cover(len(w))
    return _from_ghost_cover(w.ring, w.p, tuple(cover.combine((1, 1), ab)
                                                for ab in zip(w.ghost, w2.ghost)))


def witt_mul(w, w2):
    _check_compatible(w, w2)
    cover = w.ring.cover(len(w))
    return _from_ghost_cover(w.ring, w.p, tuple(cover.mul(a, b)
                                                for a, b in zip(w.ghost, w2.ghost)))


def witt_scalar(c, w):
    """Multiplication by the integer c (image of c in W(ring))."""
    cover = w.ring.cover(len(w))
    return _from_ghost_cover(w.ring, w.p, tuple(cover.combine((c,), (a,)) for a in w.ghost))


def frobenius_W(w):
    """F: W_n -> W_{n-1}, ghost(Fw)_i = ghost(w)_{i+1}."""
    return _from_ghost_cover(w.ring, w.p, w.ghost[1:])


def verschiebung(w):
    """V: W_n -> W_{n+1}, prepends a zero coordinate."""
    return witt(w.ring, w.p, (w.ring.zero,) + w.coords)


# ---------------------------------------------------------------------------
# perfectoid presentation squares


class QSquareModel:
    """A_inf modeled by Z[q]/((q-1)^N) at p-precision n; xi = [p]_q."""

    def __init__(self, p, n, N):
        self.p = p
        self.n = n
        self.B = QBase(p, N)
        self.xi = self.B.xi
        self.xi_tilde = self.B.xi_tilde
        self.mu = self.B.mu

    def phi(self, a):
        return self.B.phi(a)

    def base_mul(self, a, b):
        return self.B.mul(a, b)

    def base_eq(self, a, b):
        return self.B.eq(a, b, p_prec=self.n)

    def residue_eq_xi_tilde(self, a, b):
        """a = b modulo (xi_tilde, p^n), as span membership over Z/p^n."""
        diff = [x - y for x, y in zip(a, b)]
        return span_contains_mod(self.B.mult_matrix(self.xi_tilde), diff, self.p, self.n)

    def one(self):
        return self.B.one

    def xi_pow(self, k):
        return self.B.pow(self.xi, k)


class FpSquareModel(QSquareModel):
    """A_inf = W(F_p) = Z_p truncated to Z/p^n: the q-model at N = 1, where
    B = Z, xi = xi_tilde = p and phi = id (`qbase` docstring).  The class
    keeps its name because `bench/tracer.py` METHODS names it."""

    def __init__(self, p, n):
        super().__init__(p, n, 1)


class PerfectoidPresentation:
    """The square of graded rings and its four maps, as verifiable data.

    Elements of A[u,v]/(uv-xi) and A[sigma^{+-1}] are (weight, coefficient)
    pairs: weight k >= 0 means coefficient * u^k (resp. sigma^k), k < 0 means
    coefficient * v^{-k} (resp. sigma^k).
    """

    def __init__(self, model):
        self.model = model

    def mul_uv(self, x, y):
        (k1, c1), (k2, c2) = x, y
        c = self.model.base_mul(c1, c2)
        if k1 * k2 < 0:
            t = min(abs(k1), abs(k2))
            c = self.model.base_mul(c, self.model.xi_pow(t))
        return (k1 + k2, c)

    def mul_sigma(self, x, y):
        (k1, c1), (k2, c2) = x, y
        return (k1 + k2, self.model.base_mul(c1, c2))

    def can(self, x):
        """Canonical map: u -> xi*sigma, v -> sigma^{-1}."""
        k, c = x
        if k >= 0:
            return (k, self.model.base_mul(c, self.model.xi_pow(k)))
        return (k, c)

    def phi_map(self, x):
        """phi-linear map: u -> sigma, v -> xi_tilde*sigma^{-1}."""
        k, c = x
        c = self.model.phi(c)
        if k < 0:
            t = self.model.one()
            for _ in range(-k):
                t = self.model.base_mul(t, self.model.xi_tilde)
            c = self.model.base_mul(c, t)
        return (k, c)

    def theta_map(self, x):
        """theta-linear map to R[u]: u -> u, v -> 0; coefficients mod xi."""
        k, c = x
        if k < 0:
            return None  # zero in R[u]
        return (k, c)

    def bottom_map(self, x):
        """R[u] -> R[sigma^{+-1}], u -> sigma; identity on R is coefficient
        phi in coordinates (theta-route vs theta-tilde-route bookkeeping)."""
        if x is None:
            return None
        k, c = x
        return (k, self.model.phi(c))

    def right_map(self, x):
        """A[sigma^{+-1}] -> R[sigma^{+-1}]: reduce coefficients mod xi_tilde."""
        return x

    def _zero_coeff(self):
        return tuple(0 for _ in self.model.one())

    def check_all(self):
        """The eight generator relations plus base sanity; all must hold."""
        m = self.model
        u = (1, m.one())
        v = (-1, m.one())
        out = {}
        # (1) uv = xi in the top-left ring
        k, c = self.mul_uv(u, v)
        out["uv_equals_xi"] = k == 0 and m.base_eq(c, m.xi)
        # (2),(3) canonical map on generators
        cu = self.can(u)
        cv = self.can(v)
        out["can_u_is_xi_sigma"] = cu[0] == 1 and m.base_eq(cu[1], m.xi)
        out["can_v_is_sigma_inv"] = cv[0] == -1 and m.base_eq(cv[1], m.one())
        # (4) multiplicativity of can: can(u)can(v) = can(xi)
        prod = self.mul_sigma(cu, cv)
        out["can_multiplicative_on_uv"] = prod[0] == 0 and m.base_eq(prod[1], m.xi)
        # (5),(6) phi-linear map on generators
        pu, pv = self.phi_map(u), self.phi_map(v)
        out["phi_u_is_sigma"] = pu == (1, m.one()) or (pu[0] == 1 and m.base_eq(pu[1], m.one()))
        out["phi_v_is_xitilde_sigma_inv"] = pv[0] == -1 and m.base_eq(pv[1], m.xi_tilde)
        # (7) phi-route multiplicativity: phi(u)phi(v) = phi(xi) = xi_tilde
        prod = self.mul_sigma(pu, pv)
        out["phi_multiplicative_on_uv"] = prod[0] == 0 and m.base_eq(prod[1], m.xi_tilde)
        # (8) square commutes on u and v: right(phi(x)) = bottom(theta(x))
        sq_u = self._square_commutes(u)
        sq_v = self._square_commutes(v)
        out["square_commutes_on_u_and_v"] = sq_u and sq_v
        return out

    def _square_commutes(self, x):
        route1 = self.right_map(self.phi_map(x))
        route2 = self.bottom_map(self.theta_map(x))
        m = self.model
        if route2 is None:
            # bottom-left route gives zero; the other coefficient must lie
            # in (xi_tilde) + p^n
            return m.residue_eq_xi_tilde(route1[1], self._zero_coeff())
        return route1[0] == route2[0] and m.residue_eq_xi_tilde(route1[1], route2[1])
