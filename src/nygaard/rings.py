"""The truncated polynomial ring, the coefficient ring of Witt-vector
arithmetic and of the q-de Rham base.

`PolyTrunc(k)` is Z[x]/(x^k) and `PolyTrunc(k, modulus=m)` is Z/m[x]/(x^k),
F_p[x]/(x^k) at m = p.  Elements are coefficient tuples, plain immutable
data.  `cover(L)` is the ring of the ghost components of length-L Witt
vectors: the ring itself over Z, and Z/m^L[x]/(x^k) over Z/m, built once
per L; the `witt` docstring proves it enough when m is a power of the Witt
prime.  A ring that serves as a cover keeps the rows c, c^p, c^{p^2}, ...
that the ghost map has asked for in its table `pth_powers`
(`pth_power_row`).  The `witt` command runs on F_p[x]/(x^3); `qbase.QBase`
is Z[mu]/(mu^N).
"""

import operator

from .errors import RingError


def power(mul, a, e):
    """a^e for e >= 1 in a ring whose product is mul, by square and
    multiply, starting from the lowest set bit of e, so that one is never
    multiplied in (a^2 is one product, not two)."""
    while not e & 1:
        a = mul(a, a)
        e >>= 1
    out = a
    e >>= 1
    while e:
        a = mul(a, a)
        if e & 1:
            out = mul(out, a)
        e >>= 1
    return out


class PolyTrunc:
    """Z[x]/(x^k), or Z/m[x]/(x^k) when modulus = m; elements are
    coefficient tuples of length k."""

    def __init__(self, k, modulus=None):
        self.k = k
        self.modulus = modulus
        self.zero = (0,) * k
        self.one = tuple(1 if i == 0 else 0 for i in range(k))
        self._covers = {}
        self.pth_powers = {}

    def cover(self, L):
        """The ring of the ghost components of length-L Witt vectors."""
        if self.modulus is None:
            return self
        if L not in self._covers:
            self._covers[L] = PolyTrunc(self.k, modulus=self.modulus**L)
        return self._covers[L]

    def add(self, a, b):
        return self.reduce([x + y for x, y in zip(a, b)])

    def combine(self, coeffs, elems):
        """sum_t coeffs[t] * elems[t] for integers coeffs, in one pass."""
        return self.reduce([sum(map(operator.mul, coeffs, col)) for col in zip(*elems)])

    def mul(self, a, b):
        k = self.k
        out = [0] * k
        for i, x in enumerate(a):
            if x:
                for j in range(i, k):
                    out[j] += x * b[j - i]
        return self.reduce(out)

    def pow(self, a, e):
        return power(self.mul, a, e) if e else self.one

    def pth_power_row(self, p, c, n):
        """[c, c^p, c^{p^2}, ...], at least n terms, from the table
        pth_powers, (p, c) -> row, which keeps each row for the life of the
        ring and lengthens it on demand."""
        row = self.pth_powers.setdefault((p, c), [c])
        while len(row) < n:
            row.append(self.pow(row[-1], p))
        return row

    def eq(self, a, b):
        return a == b

    def lift(self, a):
        return a

    def reduce(self, a):
        if self.modulus is None:
            return tuple(a)
        m = self.modulus
        return tuple([x % m for x in a])

    def exact_div_int(self, a, m):
        if any(x % m for x in a):
            raise RingError("inexact division by %d" % m)
        return tuple([x // m for x in a])

    def random(self, rng):
        return tuple(rng.randrange(self.modulus) for _ in range(self.k))

    def __repr__(self):
        if self.modulus is None:
            return "Z[x]/(x^%d)" % self.k
        return "Z/%d[x]/(x^%d)" % (self.modulus, self.k)
