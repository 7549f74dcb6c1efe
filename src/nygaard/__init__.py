"""Exact-arithmetic workbench for the algebraic core of integral p-adic
Hodge theory: Witt vectors, the decalage eta_f, Nygaard-filtered
de Rham-Witt and q-de Rham complexes of tori, truncated divided-power
envelopes, and syntomic complexes as fibers of divided Frobenius minus
one."""

__version__ = "0.1.0"
