"""The truncated q-deformation base B = Z[q]/((q-1)^N).

Elements are integer coefficient tuples in the basis 1, mu, mu^2, ..., with
mu = q - 1.  Coefficients stay exact integers: p-power truncation happens only
at comparison time, since xi = [p]_q is a zerodivisor mod p^n and division by
it must be performed over Z.
"""

from math import comb

from .errors import UsageError
from .linalg import det_sign


def _binom(k, j):
    """Generalized binomial C(k, j) for any integer k, j >= 0."""
    if j == 0:
        return 1
    if k >= 0:
        return comb(k, j)
    return (-1) ** j * comb(-k + j - 1, j)


class QBase:
    """Arithmetic in B = Z[q]/((q-1)^N) with the distinguished elements
    mu = q-1, xi = [p]_q, xi_tilde = [p]_{q^p} = phi(xi)."""

    def __init__(self, p, N):
        if N < 2:
            raise UsageError("B = Z[q]/((q-1)^N) needs N >= 2, got %d" % N)
        self.p = p
        self.N = N
        self.zero = (0,) * N
        self.one = tuple(1 if i == 0 else 0 for i in range(N))
        self.mu = tuple(1 if i == 1 else 0 for i in range(N))
        self.q = tuple(1 if i <= 1 else 0 for i in range(N))
        self.xi = self.q_integer(p)
        self.xi_tilde = self.phi(self.xi)

    def from_int(self, c):
        return tuple(c if i == 0 else 0 for i in range(self.N))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        N = self.N
        out = [0] * N
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y and i + j < N:
                        out[i + j] += x * y
        return tuple(out)

    def pow(self, a, k):
        out = self.one
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def eq(self, a, b, p_prec=None):
        if p_prec is None:
            return a == b
        q = self.p**p_prec
        return all((x - y) % q == 0 for x, y in zip(a, b))

    def q_pow(self, k):
        """q^k = (1+mu)^k for any integer k (binomial series, exact)."""
        return tuple(_binom(k, j) for j in range(self.N))

    def q_integer(self, k):
        """[k]_q = (q^k - 1)/(q - 1), exact in B for every integer k."""
        return tuple(_binom(k, j + 1) for j in range(self.N))

    def phi(self, a):
        """The Frobenius q -> q^p (well defined: q^p - 1 lies in (q-1))."""
        qp_minus_1 = tuple(_binom(self.p, j) if j >= 1 else 0 for j in range(self.N))
        out = self.zero
        power = self.one
        for i, c in enumerate(a):
            if c:
                out = self.add(out, self.scale(c, power))
            if i + 1 < self.N:
                power = self.mul(power, qp_minus_1)
        return out

    def scale(self, c, a):
        return tuple(c * x for x in a)

    def mult_matrix(self, a):
        """Row-convention matrix of multiplication by a: coeffs(x*a) = x * M."""
        rows = []
        for i in range(self.N):
            mu_i = tuple(1 if j == i else 0 for j in range(self.N))
            rows.append(list(self.mul(mu_i, a)))
        return rows

    def phi_matrix(self):
        rows = []
        for i in range(self.N):
            mu_i = tuple(1 if j == i else 0 for j in range(self.N))
            rows.append(list(self.phi(mu_i)))
        return rows

    def is_nonzerodivisor(self, a):
        return det_sign(self.mult_matrix(a)) != 0

    def evaluate_at_q1(self, a):
        """Specialization q -> 1, i.e. the constant coefficient."""
        return a[0]

    def reduce_mod_p(self, a, r=1):
        q = self.p**r
        return tuple(x % q for x in a)

    def __repr__(self):
        return "Z[q]/((q-1)^%d), p=%d" % (self.N, self.p)
