"""Orthogonal-subspace view of duality and the executable bijection theorem.

One (m+1) x (m+n+2) matrix R encodes both problems: augmented-feasible
primal points embed into its kernel, dual points into its row space, and the
two subspaces are orthogonal complements. On top of that sits the theorem
this package exists to check: the dual dictionary with basic set N is
exactly the negative transpose of the primal dictionary with basis B, for
every valid basis. The dual side is named so the pairing is by index: y_j
pairs with x_j, so y1..yn are the dual slacks and y(n+1)..y(n+m) the dual
decisions; ``dual_dictionary_direct`` gives the dual LP's slack dictionary
under those names. Both sides reach every basis through one builder,
``dictionary_from_basis``, from their own slack dictionary, and
``verify_bases`` builds each slack dictionary once per instance. It tests
both the dictionary identity and the underlying row-space equality, per
basis, in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

from dictlp.exact import QMatrix
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


def in_kernel(r: QMatrix, xbar: Sequence[Fraction]) -> bool:
    """True iff R . xbar = 0 exactly."""
    if len(xbar) != r.cols:
        raise ValueError(f"dimension mismatch: {r.cols} vs {len(xbar)}")
    return all(sum(a * x for a, x in zip(row, xbar)) == 0 for row in r.row_lists())


def kernel_embedding(d: Dictionary) -> tuple[Fraction, ...]:
    """Basic solution lifted to the combined system: [z*, x, 1]."""
    return (d.z_star, *basic_solution(d), Fraction(1))


def rowspace_embedding(d: Dictionary) -> tuple[Fraction, ...]:
    """Dual basic solution lifted to the combined system: [1, y, objective].

    The last coordinate is the dual dictionary's constant, i.e. the max-form
    dual objective value -w at its basic solution.
    """
    return (Fraction(1), *basic_solution(d), d.z_star)


def dictionary_matrix(d: Dictionary) -> QMatrix:
    """The dictionary as a combined-system matrix, columns labeled like R's.

    Row i reads 0 in column 0, Q[i][j] under the nonbasic variable N_j, 1
    under its own basic variable B_i and 0 under the others, and -p_i last;
    the objective row reads 1, -q under N, 0 under B, and -z*. Its row space
    equals the row space of R.
    """
    return QMatrix([Fraction(x, d.D) for x in row] for row in _scaled_rows(d))


def _scaled_rows(d: Dictionary) -> list[list[int]]:
    """D times ``dictionary_matrix(d)``: its rows as integers."""
    width = d.m + d.n + 2
    rows = []
    for v, p_i, Q_i in zip(d.basis, d.p_num, d.Q_num):
        row = [0] * width
        for w, x in zip(d.nonbasis, Q_i):
            row[w] = x
        row[v] = d.D
        row[-1] = -p_i
        rows.append(row)
    last = [0] * width
    last[0] = d.D
    for w, x in zip(d.nonbasis, d.q_num):
        last[w] = -x
    last[-1] = -d.z_num
    rows.append(last)
    return rows


def dual_dictionary_direct(dual: StandardLP) -> Dictionary:
    """The dual LP's slack dictionary under y-indices, on the dual side.

    ``dual`` is ``dual_lp(lp)``, with n rows and m columns. Its slacks
    (columns m+1..m+n) are named y1..yn and its decisions (columns 1..m)
    y(n+1)..y(n+m), so y_j pairs with x_j. ``dictionary_from_basis`` from
    this dictionary builds the dual dictionary for any basic set from the
    dual LP itself, no transpose involved.
    """
    d = initial_dictionary(dual)
    return replace(
        d,
        side="dual",
        basis=tuple(range(1, dual.m + 1)),
        nonbasis=tuple(range(dual.m + 1, dual.m + dual.n + 1)),
    )


def spans_rowspace_of(start: Dictionary, d: Dictionary) -> bool:
    """True iff the dictionary matrices of ``start`` and ``d`` span the same row space.

    With ``start`` the slack dictionary that is the row space of R. Exact
    without a rank computation: both matrices have rank m+1, each with an
    identity on column 0 and the columns of its own basis (see
    ``dictionary_matrix``). So the row spaces are equal iff every row rho of
    ``start``'s matrix equals rho[0] * (objective row) + sum_k rho[B_k] *
    (row k) of ``d``'s. On column 0 and the columns of B that holds by
    construction; for R's rows, on the N columns and the last column it
    reads A_B Q = A_N, A_B p = b, q = c_N - Q^T c_B and z* = c_B . p.
    """
    last = d.m + d.n + 1
    # Each equation is linear in rho and scaled by d's common denominator D,
    # so integer rows of start and d's numerators test exact equality.
    D, p, Q, q, z_star = d.D, d.p_num, d.Q_num, d.q_num, d.z_num
    for rho in _scaled_rows(start):
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
    slack dictionary, and each slack dictionary is built once for all bases.
    """
    start = initial_dictionary(lp)
    dual_start = dual_dictionary_direct(dual_lp(lp))
    reports = []
    for basis in bases:
        prim = dictionary_from_basis(start, tuple(basis))
        flipped = canonical(negative_transpose(prim))
        direct = canonical(dictionary_from_basis(dual_start, prim.nonbasis))
        nt_ok = flipped == direct
        rs_ok = spans_rowspace_of(start, prim)
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

    A subset is a basis exactly when ``dictionary_from_basis`` reaches it
    from the slack dictionary: each of its decision columns pivots in
    against the first basic slack outside the subset with a nonzero entry,
    and the subset is rejected when a column finds none.
    """
    m, n = lp.m, lp.n
    count = comb(m + n, m)
    if count > limit:
        raise BasisCountError(count, limit)
    start = initial_dictionary(lp)
    bases = []
    for combo in combinations(range(1, m + n + 1), m):
        try:
            dictionary_from_basis(start, combo)
        except NotABasisError:
            continue
        bases.append(combo)
    return bases
