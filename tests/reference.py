"""Rank-based references for the library's elimination-free paths (test-only).

``dictionary_by_elimination`` builds a dictionary without a pivot, by one
reduction of [A_B | b | A_N]; ``dictionary_from_basis`` is checked against it.
``rank``, ``rowspace_contains`` and ``rowspace_equal`` are the exact rank
tests that the substitution test ``spans_rowspace_of`` is checked against.
All of them reduce with ``dictlp._kernels.rref``.
"""

from __future__ import annotations

from fractions import Fraction

from dictlp import _kernels
from dictlp.dictionary import Dictionary, NotABasisError
from dictlp.exact import QMatrix, QVector
from dictlp.model import StandardLP, augment


def rank(m: QMatrix) -> int:
    return _kernels.rref(m.row_lists())[1]


def rowspace_contains(m: QMatrix, v: QVector) -> bool:
    """True iff v is a linear combination of the rows of m (exact rank test)."""
    if len(v) != m.cols:
        raise ValueError(f"dimension mismatch: {m.cols} vs {len(v)}")
    return rank(m) == rank(QMatrix(m.row_lists() + [list(v)]))


def rowspace_equal(m1: QMatrix, m2: QMatrix) -> bool:
    """True iff the two matrices span the same row space."""
    if m1.cols != m2.cols:
        raise ValueError(f"column-count mismatch: {m1.cols} vs {m2.cols}")
    r1 = rank(m1)
    r2 = rank(m2)
    return r1 == r2 == rank(QMatrix(m1.row_lists() + m2.row_lists()))


def dictionary_by_elimination(lp: StandardLP, basis: tuple[int, ...] | list[int]) -> Dictionary:
    """The dictionary for an ordered basis by exact elimination.

    Solves [A_B | b | A_N] in one reduction: p = A_B^{-1} b, Q = A_B^{-1} A_N,
    then q = c_N - Q^T c_B and z* = c_B . p. Raises ``NotABasisError`` when
    the basis columns are dependent.
    """
    aug = augment(lp)
    m, total = aug.m, aug.var_count
    B = tuple(basis)
    if len(B) != m:
        raise NotABasisError(f"basis must have {m} indices, got {len(B)}")
    if len(set(B)) != m or any(not 1 <= v <= total for v in B):
        raise NotABasisError(f"basis must be distinct indices in 1..{total}: {B}")
    N = tuple(v for v in range(1, total + 1) if v not in set(B))

    rows = []
    for i in range(m):
        row = [aug.A.entry(i, v - 1) for v in B]
        row.append(aug.base.b[i])
        row.extend(aug.A.entry(i, v - 1) for v in N)
        rows.append(row)
    reduced, rnk, pivot_cols = _kernels.rref(rows)
    if rnk != m or tuple(pivot_cols) != tuple(range(m)):
        raise NotABasisError(f"columns of basis {B} are linearly dependent")

    p = QVector(row[m] for row in reduced)
    Q = QMatrix([row[m + 1 :] for row in reduced])
    c_B = [aug.c_ext[v - 1] for v in B]
    q = QVector(
        aug.c_ext[N[j] - 1] - sum((c_B[i] * Q.entry(i, j) for i in range(m)), Fraction(0))
        for j in range(len(N))
    )
    z_star = sum((cb * pi for cb, pi in zip(c_B, p)), Fraction(0))
    return Dictionary(side="primal", basis=B, nonbasis=N, p=p, Q=Q, q=q, z_star=z_star)
