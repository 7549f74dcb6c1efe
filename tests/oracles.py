"""Oracles the tests check live code against, kept out of the package
because no command uses them."""

from itertools import product

from nygaard.linalg import _vp
from nygaard.qbase import _binom


def weights_box(d, M):
    """Every weight of Z^d with entries in [-M, M]: the box the de Rham and
    q-de Rham checks cover through `torus.weight_classes`."""
    return [tuple(w) for w in product(range(-M, M + 1), repeat=d)]


def q_pow(B, k):
    """q^k = (1+mu)^k in the truncated base B, for any integer k (binomial
    series, exact)."""
    return tuple(_binom(k, j) for j in range(B.N))


def primitive_weights(d, p, M):
    """The weights of the box of radius M not in pZ^d (so not 0): the orbit
    representatives that `syntomic._orbit_sum` counts in closed form."""
    return [m for m in weights_box(d, M) if any(a % p for a in m)]


def howell_form(M, p, n):
    """Canonical Howell form of the row span of M over Z/p^n.

    Two matrices over Z/p^n have the same row span iff their Howell forms are
    identical.  Pivots are p^v; entries above a pivot are reduced mod p^v.
    Pivoting picks the lowest p-valuation entry in the leftmost column.
    """
    q = p**n
    cols = len(M[0]) if M else 0
    pivots = {}
    work = [[a % q for a in row] for row in M]
    work = [row for row in work if any(row)]
    while work:
        r = work.pop()
        while True:
            c = next((j for j, a in enumerate(r) if a), None)
            if c is None:
                break
            v = _vp(r[c], p)
            if c in pivots:
                piv = pivots[c]
                vp_ = _vp(piv[c], p)
                if v >= vp_:
                    factor = r[c] // piv[c]  # exact: piv[c] = p^{vp}
                    r = [(a - factor * b) % q for a, b in zip(r, piv)]
                    continue
                u = r[c] // p**v
                uinv = pow(u, -1, q)
                r = [(a * uinv) % q for a in r]
                pivots[c] = r
                work.append(piv)
                ann = q // p**v
                if ann > 1:
                    work.append([(ann * a) % q for a in r])
                break
            u = r[c] // p**v
            uinv = pow(u, -1, q)
            r = [(a * uinv) % q for a in r]
            pivots[c] = r
            ann = q // p**v
            if ann > 1:
                work.append([(ann * a) % q for a in r])
            break
    # back-reduce entries above each pivot
    order = sorted(pivots)
    for c in order:
        piv = pivots[c]
        pv = piv[c]
        for c2 in order:
            if c2 >= c:
                break
            row = pivots[c2]
            factor = row[c] // pv
            if factor:
                pivots[c2] = [(a - factor * b) % q for a, b in zip(row, piv)]
    return [pivots[c] for c in sorted(pivots)]
