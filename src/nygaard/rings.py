"""Truncated polynomial rings, the coefficient rings of Witt-vector
arithmetic.

Each ring knows how to lift its elements to a torsion-free cover (where ghost
components can be inverted by exact division) and reduce back.  Elements are
coefficient tuples, plain immutable data.  The `witt` command runs on
F_p[x]/(x^k), whose cover is Z[x]/(x^k).
"""

from .errors import RingError


class PolyTruncZ:
    """Z[x]/(x^k); elements are coefficient tuples of length k."""

    def __init__(self, k):
        self.k = k
        self.cover = self
        self.zero = (0,) * k
        self.one = tuple(1 if i == 0 else 0 for i in range(k))

    def from_int(self, c):
        return tuple(c if i == 0 else 0 for i in range(self.k))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        k = self.k
        out = [0] * k
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y and i + j < k:
                        out[i + j] += x * y
        return tuple(out)

    def eq(self, a, b):
        return a == b

    def lift(self, a):
        return a

    def reduce(self, a):
        return a

    def exact_div_int(self, a, m):
        out = []
        for x in a:
            q, r = divmod(x, m)
            if r:
                raise RingError("inexact division by %d" % m)
            out.append(q)
        return tuple(out)

    def __repr__(self):
        return "Z[x]/(x^%d)" % self.k


class PolyTruncFp:
    """F_p[x]/(x^k) with lift to Z[x]/(x^k)."""

    def __init__(self, p, k):
        self.p = p
        self.k = k
        self.cover = PolyTruncZ(k)
        self.zero = (0,) * k
        self.one = tuple(1 if i == 0 else 0 for i in range(k))

    def from_int(self, c):
        return tuple(c % self.p if i == 0 else 0 for i in range(self.k))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        return tuple(c % self.p for c in self.cover.mul(a, b))

    def eq(self, a, b):
        return a == b

    def lift(self, a):
        return a

    def reduce(self, a):
        return tuple(x % self.p for x in a)

    def random(self, rng, size=None):
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    def __repr__(self):
        return "F_%d[x]/(x^%d)" % (self.p, self.k)
