"""The tables a ring object fills on first use and reads for the rest of its
run: the p-power rows of a Witt cover (`pth_power_row`) and the
multiplication matrices of the q-de Rham base (`QBase.mult_matrix`)."""

import ast
import itertools
import json
import random
from pathlib import Path

import pytest

from nygaard import cli
from nygaard.qbase import QBase
from nygaard.rings import PolyTrunc, RingError
from nygaard.witt import _from_ghost_cover, witt, witt_mul

from oracles import PerfTruncFp, ZModRing, ZRing, from_ghost_by_powers

ROOT = Path(__file__).resolve().parents[1]


def _repeated_pow(cover, p, c, n):
    row = [c]
    for _ in range(n - 1):
        row.append(cover.pow(row[-1], p))
    return row


# ---------------------------------------------------------------------------
# the Witt table


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_every_witt_table_row_is_the_repeated_power(p):
    # the ghosts of vectors running through every element of F_p[x]/(x^3),
    # and the inverse of their products, fill each cover's table; its keys
    # are reduced elements, so there are at most |R| = p^3 of them
    R = PolyTrunc(3, modulus=p)
    elements = list(itertools.product(range(p), repeat=3))
    rng = random.Random(p)
    for L in range(1, 7):
        cover = R.cover(L)
        n = len(elements)
        vectors = [witt(R, p, [elements[(s + t) % n] for t in range(L)]) for s in range(0, n, L)]
        for w in vectors:
            w.ghost
        for _ in range(10):
            witt_mul(rng.choice(vectors), rng.choice(vectors))
        assert {key for key in cover.pth_powers} <= {(p, c) for c in elements}
        assert len(cover.pth_powers) == len(elements)
        for (q, c), row in cover.pth_powers.items():
            assert q == p and len(row) <= L
            assert row == _repeated_pow(cover, p, c, len(row))


def test_a_table_row_lengthens_on_demand_and_keeps_its_start():
    Z = ZRing()
    row = Z.pth_power_row(3, 2, 2)
    assert row == [2, 8] and Z.pth_power_row(3, 2, 1) is row
    assert Z.pth_power_row(3, 2, 4) == [2, 8, 8**3, 8**9]
    assert Z.pth_power_row(2, 2, 3) == [2, 4, 16] and len(Z.pth_powers) == 2


def _rings():
    # (ring, prime) pairs; the exact ring Z serves three primes, one after the
    # other and again, on one table
    Z = ZRing()
    out = [(PolyTrunc(3, modulus=p), p) for p in (2, 3, 5, 7)]
    out += [(Z, p) for p in (2, 3, 5, 2, 3)]
    out += [(ZModRing(9), 3), (PerfTruncFp(2, 2, 3), 2)]
    return out


def _outcome(f, *args):
    try:
        return f(*args).coords
    except RingError as ex:
        return "RingError: %s" % ex


def test_the_inverse_matches_the_unreduced_reference_on_ghosts_and_corruptions():
    rng = random.Random(31)
    raised = 0
    for R, p in _rings():
        for L in range(1, 7):
            cover = R.cover(L)
            for _ in range(6):
                w = witt(R, p, tuple(R.random(rng) for _ in range(L)))
                g = list(w.ghost)
                assert _from_ghost_cover(R, p, g) == w
                assert from_ghost_by_powers(R, p, g) == w
                # corrupt one component by a multiple of p^k, which the
                # division at i reveals exactly when k < i
                i = rng.randrange(L)
                d = p ** rng.randrange(i + 2) * rng.randrange(1, p)
                g[i] = cover.add(g[i], cover.combine((d,), (cover.one,)))
                got = _outcome(_from_ghost_cover, R, p, g)
                assert got == _outcome(from_ghost_by_powers, R, p, g)
                raised += isinstance(got, str)
    assert raised > 20


# ---------------------------------------------------------------------------
# the shared multiplication matrices of QBase


def test_shared_mult_matrices_are_never_changed(monkeypatch):
    # every qderham, syntomic and witt fixture runs on recorded bases; after
    # them each stored matrix must still be the one its element gives
    bases = []
    init = QBase.__init__

    def recording(self, *args):
        init(self, *args)
        bases.append(self)

    monkeypatch.setattr(QBase, "__init__", recording)
    paths = sorted(path for command in ("qderham", "syntomic", "witt")
                   for path in (ROOT / "fixtures" / command).glob("*.json"))
    for path in paths:
        blob = json.loads(path.read_text())
        cli.run_command(blob["command"], cli.RunConfig(**blob["config"]))
    stored = [(B, a, M) for B in bases for a, M in B._mult_matrices.items()]
    assert len(paths) == 16 and len(stored) > 50
    for B, a, M in stored:
        mu = [tuple(int(j == k) for j in range(B.N)) for k in range(B.N)]
        assert M == [list(B.mul(x, a)) for x in mu], (B, a)


def test_mult_matrix_returns_one_matrix_per_element():
    B = QBase(3, 4)
    assert B.mult_matrix(B.xi) is B.mult_matrix(list(B.xi))
    assert B.mult_matrix(B.xi) is not B.mult_matrix(B.xi_tilde)
    assert QBase(3, 4).mult_matrix(B.xi) is not B.mult_matrix(B.xi)


# ---------------------------------------------------------------------------
# no table outlives the ring of its run


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fresh_rings_start_with_empty_tables(p):
    B1 = QBase(p, 3)
    B1.mult_matrix(B1.xi)
    assert B1._mult_matrices and QBase(p, 3)._mult_matrices == {}
    R1 = PolyTrunc(3, modulus=p)
    w = witt(R1, p, (R1.one, R1.one))
    witt_mul(w, w)
    assert R1.cover(2).pth_powers
    assert PolyTrunc(3, modulus=p).cover(2).pth_powers == {}


# module-level state a function may write, by the reason it is allowed
MODULE_STATE_ALLOWED = {}

_MUTATORS = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__", "append",
             "extend", "insert", "add", "remove", "discard"}


def _module_state_writes(tree):
    """The module-level names that a function body writes to: a subscript
    store, a mutating method call or a `global` statement."""
    names = {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
             for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(t, ast.Name)}
    written = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                written.update(n for n in node.names if n in names)
            elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                  and isinstance(node.value, ast.Name) and node.value.id in names):
                written.add(node.value.id)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in names):
                written.add(node.func.value.id)
    return written


def test_no_cache_or_module_level_table_in_the_package():
    caches, writes = [], set()
    for path in sorted((ROOT / "src" / "nygaard").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                caches += ["%s:%d" % (path.name, node.lineno) for alias in node.names
                           if alias.name in ("cache", "lru_cache")]
            elif isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache"):
                caches.append("%s:%d" % (path.name, node.lineno))
        writes.update((path.stem, name) for name in _module_state_writes(tree))
    assert caches == []
    assert writes == set(MODULE_STATE_ALLOWED)


def test_the_scan_sees_a_module_level_table():
    tree = ast.parse("T = {}\nU = []\n"
                     "def f(k):\n    T[k] = 1\n"
                     "def g(k):\n    return U.append(k)\n"
                     "def h(k):\n    return T.get(k)\n")
    assert _module_state_writes(tree) == {"T", "U"}
