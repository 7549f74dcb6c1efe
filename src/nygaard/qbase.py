"""The truncated q-deformation base B = Z[q]/((q-1)^N), N >= 1.

B is the truncated polynomial ring `rings.PolyTrunc(N)` in mu = q - 1, whose
ring operations it inherits: elements are integer coefficient tuples in the
basis 1, mu, mu^2, ....  Coefficients stay exact integers: p-power
truncation happens only at comparison time, since xi = [p]_q is a
zerodivisor mod p^n and division by it must be performed over Z.

At N = 1, B = Z[q]/(q-1) = Z with mu = 0 and xi = xi_tilde = p: the
crystalline base (Z_p, (p)), the q = 1 fibre of the q-de Rham base.

`mult_matrix(a)` builds the matrix of multiplication by a once per element
and keeps it on its QBase, which the run builds: every later call returns
the same list of lists.  It is shared and read-only; a caller that needs a
changed matrix builds a new one.
"""

from math import comb

from .errors import UsageError
from .rings import PolyTrunc


def _binom(k, j):
    """Generalized binomial C(k, j) for any integer k, j >= 0."""
    if j == 0:
        return 1
    if k >= 0:
        return comb(k, j)
    return (-1) ** j * comb(-k + j - 1, j)


class QBase(PolyTrunc):
    """B = Z[mu]/(mu^N) as the truncated polynomial ring in mu, with the
    distinguished elements mu = q-1, q, xi = [p]_q, xi_tilde = [p]_{q^p} =
    phi(xi), the Frobenius and its matrices, and comparison mod p^n."""

    def __init__(self, p, N):
        if N < 1:
            raise UsageError("B = Z[q]/((q-1)^N) needs N >= 1, got %d" % N)
        super().__init__(N)
        self.p = p
        self.N = N
        self.mu = tuple(1 if i == 1 else 0 for i in range(N))
        self.q = tuple(1 if i <= 1 else 0 for i in range(N))
        # row k is phi(mu^k) = (q^p - 1)^k
        qp_minus_1 = tuple(_binom(p, j) if j >= 1 else 0 for j in range(N))
        self._phi_rows = [self.one]
        for _ in range(N - 1):
            self._phi_rows.append(self.mul(self._phi_rows[-1], qp_minus_1))
        self._mult_matrices = {}
        self.xi = self.q_integer(p)
        self.xi_tilde = self.phi(self.xi)

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

    def mult_matrix(self, a):
        """Row-convention matrix of multiplication by a: coeffs(x*a) = x * M,
        row k the coefficients of mu^k * a.  Built once per element and kept
        on this base: the matrix is shared, and no caller may change it."""
        a = tuple(a)
        M = self._mult_matrices.get(a)
        if M is None:
            M = self._mult_matrices[a] = [[0] * k + list(a[:self.N - k]) for k in range(self.N)]
        return M

    def phi_matrix(self):
        return [list(row) for row in self._phi_rows]

    def __repr__(self):
        return "Z[q]/((q-1)^%d), p=%d" % (self.N, self.p)
