"""The Künneth lemma of the `torus` docstring, step 5: the `derham` and
`qderham` verdicts on the d-torus, which the package reads off the 1-torus,
against the checks run on the whole d-dimensional reference model.  Both
sides are compared on valid models and under corruptions applied alike to
both: an extra factor p on phi_i, or on the Nygaard scale, in the Koszul
degrees j with j - i = c.

The corrupted values are c = -i-1..1, every value the 1-torus checks read
at the levels 0..i and i + 1.  A corruption at c >= 2 reaches only degrees
j >= i + 2 of the d-torus, which lie in the summands with t2 > i; the lemma
proves those vacuous from the uncorrupted scales, so a model corrupted
there is outside what it covers."""

from itertools import product

import pytest

from nygaard import cli
from nygaard.linalg import mat_scale
from nygaard.qtorus import QTorusComplex
from nygaard.torus import TorusDeRham

from oracles import (
    build_qtorus,
    build_torus,
    conjugate_check,
    frobenius_chain_map_check,
    frobenius_eta_check,
    lnu_identification_check,
    q_divided_frobenius_checks,
    q_nygaard_stability_check,
    specialization_check,
    weight_classes,
)


def _corruptions(i):
    return [None] + [(kind, c) for kind in ("phi", "scale") for c in range(-i - 1, 2)]


def _corrupt(X, corruption, scale_name, scale_by_p):
    """Apply corruption to X in place: kind "phi" multiplies phi_i by p, kind
    "scale" the Nygaard scale named scale_name (by scale_by_p), in the
    degrees j with j - i = c.  Both models name phi_i alike."""
    if corruption is None:
        return X
    kind, c = corruption
    name = "divided_frobenius_matrix" if kind == "phi" else scale_name
    orig = getattr(X, name)
    scale = (lambda a: mat_scale(X.p, a)) if kind == "phi" else scale_by_p
    setattr(X, name, lambda i, j: scale(orig(i, j)) if j - i == c else orig(i, j))
    return X


def _derham_on_the_d_torus(X, i, M):
    return {"conjugate_all_ok": conjugate_check(X, i, M)["all_ok"],
            "frobenius_eta_all_ok": frobenius_eta_check(X, i, M)["all_ok"]}


def _qderham_on_the_d_torus(X, i, M, n):
    """The payload of `qderham` from the checks run on the whole d-torus, as
    the command computed it before the lemma."""
    payload = {"specialization": specialization_check(X, M=M)}
    if X.N >= 2:
        payload["chain_map"] = frobenius_chain_map_check(X, weight_classes(X.d, M))
    payload["nygaard_stable"] = all(q_nygaard_stability_check(X, l, M=M) for l in range(i + 1))
    payload["divided_frobenius"] = all(q_divided_frobenius_checks(X, l) for l in range(i + 1))
    lnu = lnu_identification_check(X, i_max=i, M=M, n_prec=n)
    payload["lnu_containment"] = lnu["containment"]
    payload["lnu_graded"] = lnu["graded"]
    payload["all_ok"] = all(payload.values())
    return payload


@pytest.mark.parametrize("p, d", list(product((2, 3), (1, 2, 3, 4))))
def test_derham_verdict_is_the_conjunction_over_the_summand_levels(monkeypatch, p, d):
    # cmd_derham runs the 1-torus at the levels i - t2; the reference runs
    # the d-torus at level i
    scale_by_p = (lambda s: p * s)
    verdicts = []
    for i in range(5):
        cfg = cli.RunConfig(p=p, d=d, i=i, M=2)
        for corruption in _corruptions(i):
            ref = _derham_on_the_d_torus(
                _corrupt(build_torus(p, d), corruption, "nygaard_scale", scale_by_p), i, 2)
            monkeypatch.setattr(cli, "TorusDeRham", lambda p: _corrupt(
                TorusDeRham(p), corruption, "nygaard_scale", scale_by_p))
            got = cli.cmd_derham(cfg)
            del got["all_ok"]
            assert got == ref, (i, corruption)
            verdicts.append(all(got.values()))
    # the corruptions are seen: some verdicts read false, and the valid
    # models read true
    assert False in verdicts and verdicts[0] is True


@pytest.mark.parametrize("p, d, N", list(product((2, 3), (1, 2, 3), (1, 2, 3))))
def test_qderham_verdict_is_the_1_torus_verdict(monkeypatch, p, d, N):
    # cmd_qderham runs the 1-torus at the same i; the reference runs the
    # d-torus
    def scale_by_p(a):
        return mat_scale(p, a)

    verdicts = []
    for i in range(4):
        cfg = cli.RunConfig(p=p, d=d, i=i, N=N, M=1, n=2)
        for corruption in _corruptions(i):
            ref = _qderham_on_the_d_torus(
                _corrupt(build_qtorus(p, d, N), corruption, "nygaard_scale_matrix", scale_by_p),
                i, 1, 2)
            monkeypatch.setattr(cli, "QTorusComplex", lambda p, N: _corrupt(
                QTorusComplex(p, N), corruption, "nygaard_scale_matrix", scale_by_p))
            assert cli.cmd_qderham(cfg) == ref, (i, corruption)
            verdicts.append(ref["all_ok"])
    assert False in verdicts and verdicts[0] is True
