"""Orthogonal-subspace view of duality and the executable bijection theorem.

One (m+1) x (m+n+2) matrix R encodes both problems: augmented-feasible
primal points embed into its kernel, dual points into its row space, and the
two subspaces are orthogonal complements. On top of that sits the theorem
this package exists to check: the dual dictionary with basic set N is
exactly the negative transpose of the primal dictionary with basis B, for
every valid basis. The dual side is named so the pairing is by index: y_j
pairs with x_j, so y1..yn are the dual slacks and y(n+1)..y(n+m) the dual
decisions, and ``dual_dictionary_direct`` builds the dual dictionary for N
from the dual LP under those names. ``verify_bases`` tests both the
dictionary identity and the underlying row-space equality, per basis, in
exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb

from dictlp import _kernels
from dictlp.exact import QMatrix, QVector, common_denominator
from dictlp.dictionary import (
    Dictionary,
    NotABasisError,
    basic_solution,
    canonical,
    dictionary_from_basis,
    initial_dictionary,
    negative_transpose,
)
from dictlp.model import StandardLP, dual_lp


class BasisCountError(ValueError):
    """Exhaustive enumeration refused; carries the candidate-subset count."""

    def __init__(self, count: int, limit: int):
        super().__init__(f"C(m+n, m) = {count} candidate bases exceed the limit {limit}")
        self.count = count
        self.limit = limit


@dataclass(frozen=True)
class BijectionReport:
    basis: tuple[int, ...]
    negative_transpose_matches: bool
    rowspace_matches: bool
    details: str

    @property
    def passed(self) -> bool:
        return self.negative_transpose_matches and self.rowspace_matches


def build_R(lp: StandardLP) -> QMatrix:
    """R, the combined-system matrix: rows [0 | A0 | I | -b] over [1 | -c | 0 | 0].

    Columns are labeled 0, 1..m+n, m+n+1: the objective coordinate, the
    augmented variables, and the homogenizing coordinate. It is the
    ``dictionary_matrix`` of the slack-basis dictionary.
    """
    return dictionary_matrix(initial_dictionary(lp))


def in_kernel(r: QMatrix, xbar: QVector) -> bool:
    """True iff R . xbar = 0 exactly."""
    if len(xbar) != r.cols:
        raise ValueError(f"dimension mismatch: {r.cols} vs {len(xbar)}")
    return all(x == 0 for x in r.mul_vec(xbar))


def kernel_embedding(d: Dictionary) -> QVector:
    """Basic solution lifted to the combined system: [z*, x, 1]."""
    return QVector([d.z_star, *basic_solution(d), Fraction(1)])


def rowspace_embedding(d: Dictionary) -> QVector:
    """Dual basic solution lifted to the combined system: [1, y, objective].

    The last coordinate is the dual dictionary's constant, i.e. the max-form
    dual objective value -w at its basic solution.
    """
    return QVector([Fraction(1), *basic_solution(d), d.z_star])


def dictionary_matrix(d: Dictionary) -> QMatrix:
    """The dictionary as a combined-system matrix, columns labeled like R's.

    Row i reads 0 in column 0, Q[i][j] under the nonbasic variable N_j, 1
    under its own basic variable B_i and 0 under the others, and -p_i last;
    the objective row reads 1, -q under N, 0 under B, and -z*. Its row space
    equals the row space of R.
    """
    width = d.m + d.n + 2
    rows = []
    for v, p_i, Q_i in zip(d.basis, d.p_num, d.Q_num):
        row = [Fraction(0)] * width
        for w, x in zip(d.nonbasis, Q_i):
            row[w] = Fraction(x, d.D)
        row[v] = Fraction(1)
        row[-1] = Fraction(-p_i, d.D)
        rows.append(row)
    last = [Fraction(0)] * width
    last[0] = Fraction(1)
    for w, x in zip(d.nonbasis, d.q_num):
        last[w] = Fraction(-x, d.D)
    last[-1] = Fraction(-d.z_num, d.D)
    rows.append(last)
    return QMatrix(rows)


def dual_dictionary_direct(dual: StandardLP, dual_basis: tuple[int, ...] | list[int]) -> Dictionary:
    """Dual-side dictionary built from the dual LP itself, no transpose involved.

    ``dual`` is ``dual_lp(lp)``; ``dual_basis`` lists dual variables by their
    y-indices (slacks y1..yn, decisions y(n+1)..y(n+m)). The y-index is the
    dual column rotated by n, so the dual LP's dictionary for that basis is
    built like any primal one, then relabeled back to y-indices. Raises
    ``NotABasisError`` for an index outside 1..m+n or a dependent basis.
    """
    total = dual.m + dual.n
    if any(not 1 <= j <= total for j in dual_basis):
        raise NotABasisError(f"dual basis must be indices in 1..{total}: {tuple(dual_basis)}")
    raw = dictionary_from_basis(dual, tuple((j + dual.n - 1) % total + 1 for j in dual_basis))
    return replace(
        raw,
        side="dual",
        basis=tuple((col + dual.m - 1) % total + 1 for col in raw.basis),
        nonbasis=tuple((col + dual.m - 1) % total + 1 for col in raw.nonbasis),
    )


def spans_rowspace_of(r: QMatrix, d: Dictionary) -> bool:
    """True iff the dictionary's combined-system matrix spans the row space of R.

    Exact without a rank computation: both matrices have rank m+1, R with an
    identity on column 0 and the slack columns, the dictionary matrix
    (``dictionary_matrix``) on column 0 and the columns of B. So the
    row spaces are equal iff every row rho of R equals
    rho[0] * (objective row) + sum_k rho[B_k] * (row k). On column 0 and the
    columns of B that holds by construction; on the N columns and the last
    column it reads A_B Q = A_N, A_B p = b, q = c_N - Q^T c_B and
    z* = c_B . p.
    """
    last = d.m + d.n + 1
    # Both sides of each equation are scaled by the dictionary's common
    # denominator D and the row's own, so integer equality is exact equality.
    D, p, Q, q, z_star = d.D, d.p_num, d.Q_num, d.q_num, d.z_num
    for row in r.row_lists():
        _, (rho,) = common_denominator([row])
        # Dictionary row k is [0 | Q_k | e_k | -p_k], the objective row [1 | -q | 0 | -z*].
        terms = [(rho[v], Q[k], p[k]) for k, v in enumerate(d.basis) if rho[v]]
        if rho[last] * D != -sum(c * pk for c, _, pk in terms) - rho[0] * z_star:
            return False
        for j, v in enumerate(d.nonbasis):
            if rho[v] * D != sum(c * Qk[j] for c, Qk, _ in terms) - rho[0] * q[j]:
                return False
    return True


def verify_bases(lp: StandardLP, bases: list[tuple[int, ...]]) -> list[BijectionReport]:
    """Check the primal-dual dictionary bijection for each basis, in order.

    Two independent checks per basis: the negative transpose of the primal
    dictionary must equal (up to row/column order) the dual dictionary
    constructed directly from the dual LP with basic set N, and the primal
    dictionary's combined-system matrix must span the same row space as R
    (``spans_rowspace_of``). Each side pivots its basis in from its own
    slack dictionary; the dual LP and R are built once for all bases.
    """
    dual = dual_lp(lp)
    r = build_R(lp)
    reports = []
    for basis in bases:
        prim = dictionary_from_basis(lp, tuple(basis))
        flipped = canonical(negative_transpose(prim))
        direct = canonical(dual_dictionary_direct(dual, prim.nonbasis))
        nt_ok = flipped == direct
        rs_ok = spans_rowspace_of(r, prim)
        notes = []
        if not nt_ok:
            notes.append(f"negative transpose differs from direct dual dictionary on N={prim.nonbasis}")
        if not rs_ok:
            notes.append("dictionary row space differs from row space of R")
        reports.append(
            BijectionReport(
                basis=tuple(basis),
                negative_transpose_matches=nt_ok,
                rowspace_matches=rs_ok,
                details="; ".join(notes) if notes else "ok",
            )
        )
    return reports


def enumerate_bases(lp: StandardLP, limit: int = 100_000) -> list[tuple[int, ...]]:
    """All valid bases (ascending within and across), guarded by a subset budget.

    A subset's slacks cover their own rows, so it is a basis exactly when
    its k decision columns are independent on the k rows whose slacks it
    leaves out. Each of those columns pivots in against the first unused
    row with a nonzero entry, the rule of ``dictionary_from_basis``; the
    subset is rejected when a column finds no such row.
    """
    m, n = lp.m, lp.n
    count = comb(m + n, m)
    if count > limit:
        raise BasisCountError(count, limit)
    # A0's rows as integers: scaling a row keeps every subset's independence.
    rows = initial_dictionary(lp).Q_num
    bases = []
    for combo in combinations(range(1, m + n + 1), m):
        free = [row for i, row in enumerate(rows) if n + i + 1 not in combo]
        if _independent([[row[v - 1] for v in combo if v <= n] for row in free]):
            bases.append(combo)
    return bases


def _independent(Q: list[list[int]]) -> bool:
    """True iff the columns of the square integer matrix Q are linearly independent."""
    k = len(Q)
    zeros = [0] * k
    D = 1
    unused = list(range(k))
    for s in range(k):
        r = next((i for i in unused if Q[i][s] != 0), None)
        if r is None:
            return False
        unused.remove(r)
        _, Q, _, _, D = _kernels.pivot_update(zeros, Q, zeros, 0, D, r, s)
    return True
