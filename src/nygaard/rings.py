"""The truncated polynomial ring, the coefficient ring of Witt-vector
arithmetic and of the q-de Rham base.

`PolyTrunc(k)` is Z[x]/(x^k) and `PolyTrunc(k, modulus=p)` is F_p[x]/(x^k).
Each knows how to lift its elements to a torsion-free cover, Z[x]/(x^k)
(where ghost components can be inverted by exact division), and reduce back.
Elements are coefficient tuples, plain immutable data.  The `witt` command
runs on F_p[x]/(x^3); `qbase.QBase` is Z[mu]/(mu^N).
"""

from .errors import RingError


class PolyTrunc:
    """Z[x]/(x^k), or F_p[x]/(x^k) when modulus = p; elements are
    coefficient tuples of length k."""

    def __init__(self, k, modulus=None):
        self.k = k
        self.modulus = modulus
        self.cover = self if modulus is None else PolyTrunc(k)
        self.zero = (0,) * k
        self.one = tuple(1 if i == 0 else 0 for i in range(k))

    def from_int(self, c):
        return self.reduce((c,) + self.zero[1:])

    def add(self, a, b):
        return self.reduce(tuple(x + y for x, y in zip(a, b)))

    def neg(self, a):
        return self.reduce(tuple(-x for x in a))

    def mul(self, a, b):
        k = self.k
        out = [0] * k
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y and i + j < k:
                        out[i + j] += x * y
        if self.modulus is None:
            return tuple(out)
        return tuple(c % self.modulus for c in out)

    def pow(self, a, e):
        """a^e by square and multiply, starting from the lowest set bit of e,
        so that one is never multiplied in (a^2 is one product, not two)."""
        if not e:
            return self.one
        while not e & 1:
            a = self.mul(a, a)
            e >>= 1
        out = a
        e >>= 1
        while e:
            a = self.mul(a, a)
            if e & 1:
                out = self.mul(out, a)
            e >>= 1
        return out

    def eq(self, a, b):
        return a == b

    def lift(self, a):
        return a

    def reduce(self, a):
        if self.modulus is None:
            return a
        return tuple(x % self.modulus for x in a)

    def exact_div_int(self, a, m):
        out = []
        for x in a:
            q, r = divmod(x, m)
            if r:
                raise RingError("inexact division by %d" % m)
            out.append(q)
        return tuple(out)

    def random(self, rng):
        return tuple(rng.randrange(self.modulus) for _ in range(self.k))

    def __repr__(self):
        if self.modulus is None:
            return "Z[x]/(x^%d)" % self.k
        return "F_%d[x]/(x^%d)" % (self.modulus, self.k)
