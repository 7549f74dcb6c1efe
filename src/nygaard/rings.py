"""Effective coefficient rings for Witt-vector arithmetic.

Each ring knows how to lift its elements to a torsion-free cover (where ghost
components can be inverted by exact division) and reduce back.  Elements are
plain immutable data: ints, tuples of ints, or sorted tuples of (exponent,
coefficient) pairs for perfect truncations.
"""

from fractions import Fraction

from .errors import RingError, UsageError


class ZRing:
    """The integers."""

    torsion_free = True

    def __init__(self):
        self.cover = self

    zero = 0
    one = 0 + 1

    def from_int(self, c):
        return c

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def eq(self, a, b):
        return a == b

    def lift(self, a):
        return a

    def reduce(self, a):
        return a

    def exact_div_int(self, a, k):
        q, r = divmod(a, k)
        if r:
            raise RingError("inexact division by %d" % k)
        return q

    def random(self, rng, size=20):
        return rng.randint(-size, size)

    def __repr__(self):
        return "Z"


class ZModRing:
    """Z/m with lift to Z."""

    torsion_free = False

    def __init__(self, m):
        if m <= 1:
            raise UsageError("Z/m needs m > 1, got %d" % m)
        self.m = m
        self.cover = ZRing()
        self.zero = 0
        self.one = 1 % m

    def from_int(self, c):
        return c % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def eq(self, a, b):
        return a % self.m == b % self.m

    def lift(self, a):
        return a % self.m

    def reduce(self, a):
        return a % self.m

    def random(self, rng, size=None):
        return rng.randrange(self.m)

    def __repr__(self):
        return "Z/%d" % self.m


class PolyTruncZ:
    """Z[x]/(x^k); elements are coefficient tuples of length k."""

    torsion_free = True

    def __init__(self, k):
        self.k = k
        self.cover = self
        self.zero = (0,) * k
        self.one = tuple(1 if i == 0 else 0 for i in range(k))

    def from_int(self, c):
        return tuple(c if i == 0 else 0 for i in range(self.k))

    def x(self):
        return tuple(1 if i == 1 else 0 for i in range(self.k))

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

    torsion_free = False

    def __init__(self, p, k):
        self.p = p
        self.k = k
        self.cover = PolyTruncZ(k)
        self.zero = (0,) * k
        self.one = tuple(1 if i == 0 else 0 for i in range(k))

    def from_int(self, c):
        return tuple(c % self.p if i == 0 else 0 for i in range(self.k))

    def x(self):
        return tuple(1 if i == 1 else 0 for i in range(self.k))

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


class PerfTruncZ:
    """Z[x^{1/p^e}]/(x^k); exponents are a/p^e stored by their numerator a.

    Elements are sorted tuples of (a, coeff) with 0 <= a < k*p^e and
    coeff != 0.
    """

    torsion_free = True

    def __init__(self, p, e, k):
        self.p = p
        self.e = e
        self.k = k
        self.bound = k * p**e
        self.cover = self
        self.zero = ()
        self.one = ((0, 1),)

    def from_int(self, c):
        return ((0, c),) if c else ()

    def monomial(self, a, c=1):
        if a < 0:
            raise UsageError("negative exponent %d" % a)
        if a >= self.bound or c == 0:
            return ()
        return ((a, c),)

    def x(self):
        return self.monomial(self.p**self.e)

    def _norm(self, d):
        return tuple(sorted((a, c) for a, c in d.items() if c))

    def add(self, u, v):
        d = dict(u)
        for a, c in v:
            d[a] = d.get(a, 0) + c
        return self._norm(d)

    def neg(self, u):
        return tuple((a, -c) for a, c in u)

    def mul(self, u, v):
        d = {}
        for a, c in u:
            for b, c2 in v:
                t = a + b
                if t < self.bound:
                    d[t] = d.get(t, 0) + c * c2
        return self._norm(d)

    def eq(self, u, v):
        return u == v

    def lift(self, u):
        return u

    def reduce(self, u):
        return u

    def exact_div_int(self, u, m):
        out = []
        for a, c in u:
            q, r = divmod(c, m)
            if r:
                raise RingError("inexact division by %d" % m)
            out.append((a, q))
        return tuple(out)

    def frobenius(self, u):
        """x^{a/p^e} -> x^{pa/p^e}; exponents leaving the window truncate."""
        d = {}
        for a, c in u:
            t = a * self.p
            if t < self.bound:
                d[t] = d.get(t, 0) + c
        return self._norm(d)

    def __repr__(self):
        return "Z[x^{1/%d^%d}]/(x^%d)" % (self.p, self.e, self.k)


class PerfTruncFp:
    """F_p[x^{1/p^e}]/(x^k), lift to the integral perfect truncation."""

    torsion_free = False

    def __init__(self, p, e, k):
        self.p = p
        self.e = e
        self.k = k
        self.bound = k * p**e
        self.cover = PerfTruncZ(p, e, k)
        self.zero = ()
        self.one = ((0, 1),)

    def from_int(self, c):
        c %= self.p
        return ((0, c),) if c else ()

    def monomial(self, a, c=1):
        c %= self.p
        if a >= self.bound or c == 0:
            return ()
        return ((a, c),)

    def x(self):
        return self.monomial(self.p**self.e)

    def exponent(self, a):
        """The exponent a/p^e as a Fraction."""
        return Fraction(a, self.p**self.e)

    def add(self, u, v):
        return self.reduce(self.cover.add(u, v))

    def neg(self, u):
        return tuple((a, (-c) % self.p) for a, c in u)

    def mul(self, u, v):
        return self.reduce(self.cover.mul(u, v))

    def eq(self, u, v):
        return u == v

    def lift(self, u):
        return u

    def reduce(self, u):
        return tuple((a, c % self.p) for a, c in u if c % self.p)

    def frobenius(self, u):
        return self.reduce(self.cover.frobenius(u))

    def inv_frobenius(self, u):
        """x^{a/p^e} -> x^{a/p^{e+1}}: fails when leaving the lattice."""
        out = []
        for a, c in u:
            if a % self.p:
                raise RingError("exponent denominator would exceed p^%d" % self.e)
            out.append((a // self.p, c))
        return tuple(out)

    def random(self, rng, terms=3):
        el = self.zero
        for _ in range(terms):
            el = self.add(el, self.monomial(rng.randrange(self.bound), rng.randrange(self.p)))
        return el

    def __repr__(self):
        return "F_%d[x^{1/%d^%d}]/(x^%d)" % (self.p, self.p, self.e, self.k)
