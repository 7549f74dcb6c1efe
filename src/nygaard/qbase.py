"""The truncated q-deformation base B = Z[q]/((q-1)^N), N >= 1.

Elements are integer coefficient tuples in the basis 1, mu, mu^2, ..., with
mu = q - 1.  Coefficients stay exact integers: p-power truncation happens only
at comparison time, since xi = [p]_q is a zerodivisor mod p^n and division by
it must be performed over Z.

At N = 1, B = Z[q]/(q-1) = Z with mu = 0 and xi = xi_tilde = p: the
crystalline base (Z_p, (p)), the q = 1 fibre of the q-de Rham base.
"""

from math import comb

from .errors import UsageError


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
        if N < 1:
            raise UsageError("B = Z[q]/((q-1)^N) needs N >= 1, got %d" % N)
        self.p = p
        self.N = N
        self.zero = (0,) * N
        self.one = tuple(1 if i == 0 else 0 for i in range(N))
        self.mu = tuple(1 if i == 1 else 0 for i in range(N))
        self.q = tuple(1 if i <= 1 else 0 for i in range(N))
        # row k is phi(mu^k) = (q^p - 1)^k
        qp_minus_1 = tuple(_binom(p, j) if j >= 1 else 0 for j in range(N))
        self._phi_rows = [self.one]
        for _ in range(N - 1):
            self._phi_rows.append(self.mul(self._phi_rows[-1], qp_minus_1))
        self.xi = self.q_integer(p)
        self.xi_tilde = self.phi(self.xi)

    def from_int(self, c):
        return tuple(c if i == 0 else 0 for i in range(self.N))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

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

    def q_integer(self, k):
        """[k]_q = (q^k - 1)/(q - 1), exact in B for every integer k."""
        return tuple(_binom(k, j + 1) for j in range(self.N))

    def phi(self, a):
        """The Frobenius q -> q^p (well defined: q^p - 1 lies in (q-1))."""
        out = [0] * self.N
        for c, row in zip(a, self._phi_rows):
            if c:
                for j, x in enumerate(row):
                    out[j] += c * x
        return tuple(out)

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
        return [list(row) for row in self._phi_rows]

    def __repr__(self):
        return "Z[q]/((q-1)^%d), p=%d" % (self.N, self.p)
