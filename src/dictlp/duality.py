"""Orthogonal-subspace view of duality and the executable bijection theorem.

One (m+1) x (m+n+2) matrix R encodes both problems: augmented-feasible
primal points embed into its kernel, dual points into its row space, and the
two subspaces are orthogonal complements. On top of that sits the theorem
this package exists to check: the dual dictionary with basic set N is
exactly the negative transpose of the primal dictionary with basis B, for
every valid basis, and the primal pivot (enter e, leave l) is the dual pivot
(enter l, leave e). The dual side is named so the pairing is by index: y_j
pairs with x_j, so y1..yn are the dual slacks and y(n+1)..y(n+m) the dual
decisions; ``dual_dictionary_direct`` gives the dual LP's slack dictionary
under those names. ``verify_bases`` reaches every basis by Avis and
Fukuda's reverse search (``walk_bases``) rooted at the primal slack
dictionary. Each basis after the start is one pivot from its parent, and
whether a pivot leads to a child is read off the parent's dictionary
alone, so no visited set is kept. The dual LP's own dictionary comes along
by the matching dual pivot, so each basis costs one pivot on each side;
where a dual pivot fails, that basis alone has no dual, and its children
rebuild theirs from the dual slack dictionary. Per basis it tests the
dictionary identity and the underlying row-space equality, in exact
arithmetic. The identity is read entry by entry through the two
dictionaries' variable positions (``_is_negative_transpose``), so the
check builds no transpose and rearranges neither side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb
from typing import Iterator, Sequence

from dictlp.exact import QMatrix, _str
from dictlp.dictionary import (
    Dictionary,
    NotABasisError,
    PivotError,
    basic_solution,
    dictionary_from_basis,
    initial_dictionary,
    pivot,
)
from dictlp.model import StandardLP, dual_lp


class BasisCountError(ValueError):
    """Exhaustive enumeration refused; carries the candidate-subset count."""

    def __init__(self, count: int, limit: int):
        super().__init__(f"C(m+n, m) = {_str(count)} candidate bases exceed the limit {_str(limit)}")
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
    y(n+1)..y(n+m), so y_j pairs with x_j. Pivots from this dictionary
    (``dictionary_from_basis``, or the lockstep of ``walk_bases``) build the
    dual dictionary for any basic set from the dual LP itself, no transpose
    involved.
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
    return _spans(_scaled_rows(start), d)


def _spans(rows: list[list[int]], d: Dictionary) -> bool:
    """``spans_rowspace_of`` with ``start``'s integer rows (``_scaled_rows(start)``) given."""
    # Each equation is linear in rho and scaled by d's common denominator D,
    # so integer rows of start and d's numerators test exact equality. Over
    # the N columns and the last one, dictionary row k reads [Q_k | -p_k]
    # and the objective row [-q | -z*].
    D = d.D
    cols = (*d.nonbasis, d.m + d.n + 1)
    objective = (*d.q_num, d.z_num)
    tails = [(v, (*Q_k, -p_k)) for v, Q_k, p_k in zip(d.basis, d.Q_num, d.p_num)]
    for rho in rows:
        combination = [-rho[0] * x for x in objective]
        for v, tail in tails:
            c = rho[v]
            if c:
                combination = [a + c * x for a, x in zip(combination, tail)]
        if combination != [rho[v] * D for v in cols]:
            return False
    return True


_Step = tuple[Dictionary, Dictionary | None, tuple[int, int] | None]


def walk_bases(start: Dictionary, dual_start: Dictionary | None = None) -> Iterator[_Step]:
    """Each basis reachable from ``start`` once, by reverse search rooted at ``start``'s basis B0.

    Yields ``(prim, dual, edge)``: the dictionary for a basis, reached by one
    ``pivot`` from its parent, a dictionary yielded before it, and ``edge =
    (enter, leave)``, that pivot (None for ``start`` itself). Every edge
    swaps a member of B0 out for a non-member, so a basis B lies at depth
    |B - B0|, at most min(m, n). The parent of B != B0 takes out e =
    max(B - B0), the variable its edge entered, and puts back the smallest
    y in B0 - B that gives a basis (Avis and Fukuda, "Reverse search for
    enumeration", 1996). So the children of B are the pivots (enter e,
    leave l) with l in B0, e not in B0, e > max(B - B0) and Q[l][e] != 0,
    where row l has no nonzero under a nonbasic member of B0 below l: a
    test that reads B's dictionary alone. No visited set is kept; the stack
    holds the unexpanded children of the bases on the current path. The
    bases of [A0 I] are the bases of a matroid, so from the slack
    dictionary the walk reaches every basis, with one pivot per basis after
    the first.

    With ``dual_start`` (the dual dictionary on ``start``'s nonbasis), the
    dual is carried in lockstep: the primal pivot (enter e, leave l) is the
    dual pivot (enter l, leave e), made on the dual's own dictionary. Where
    that pivot fails, ``dual`` is None for that basis alone: its children
    build their duals from ``dual_start`` (``dictionary_from_basis``).
    """
    start_basic = frozenset(start.basis)
    stack: list[_Step] = [(start, dual_start, None)]
    while stack:
        step = stack.pop()
        yield step
        prim, dual, edge = step
        top = edge[0] if edge else 0  # max(B - B0), which the last pivot entered
        for leave, row in zip(prim.basis, prim.Q_num):
            if leave not in start_basic or any(
                a and y < leave and y in start_basic for y, a in zip(prim.nonbasis, row)
            ):
                continue
            for enter, a in zip(prim.nonbasis, row):
                if a and enter > top and enter not in start_basic:
                    child = pivot(prim, enter, leave)
                    stack.append((child, _child_dual(dual_start, dual, child, enter, leave), (enter, leave)))


def _child_dual(
    dual_start: Dictionary | None, dual: Dictionary | None, child: Dictionary, enter: int, leave: int
) -> Dictionary | None:
    """The dual of ``child``: one pivot (enter ``leave``, leave ``enter``) from its parent's ``dual``.

    Where the parent has no dual, it is built from ``dual_start`` instead.
    None when there is no ``dual_start``, or when the pivot or the build fails.
    """
    if dual_start is None:
        return None
    try:
        if dual is None:
            return dictionary_from_basis(dual_start, child.nonbasis)
        return pivot(dual, leave, enter)
    except (PivotError, NotABasisError):
        return None


def verify_bases(lp: StandardLP, limit: int = 100_000) -> list[BijectionReport]:
    """Check the primal-dual dictionary bijection on every basis, in ascending order.

    Refuses with ``BasisCountError`` when C(m+n, m) exceeds ``limit``. One
    ``walk_bases`` from the primal slack dictionary carries the dual LP's
    slack dictionary (``dual_dictionary_direct``) in lockstep, so each basis
    after the first costs one primal and one dual pivot, and the start's
    rows for the row-space test are built once.
    """
    _check_count(lp, limit)
    start = initial_dictionary(lp)
    rows = _scaled_rows(start)
    steps = walk_bases(start, dual_dictionary_direct(dual_lp(lp)))
    return sorted((_report(rows, prim, dual) for prim, dual, _ in steps), key=lambda r: r.basis)


def _report(rows: list[list[int]], prim: Dictionary, dual: Dictionary | None) -> BijectionReport:
    """The two checks of one basis, against the start's rows ``rows``.

    The negative transpose of the primal dictionary must equal (up to
    row/column order) ``dual``, the dual dictionary on N reached on the dual
    LP's own side (None when its lockstep pivot failed), and the primal
    dictionary's combined-system matrix must span the row space of R. The
    first is compared through index maps (``_is_negative_transpose``), not
    by building and sorting both dictionaries.
    """
    nt_ok = dual is not None and _is_negative_transpose(prim, dual)
    rs_ok = _spans(rows, prim)
    notes = []
    if not nt_ok:
        notes.append(f"negative transpose differs from direct dual dictionary on N={tuple(sorted(prim.nonbasis))}")
    if not rs_ok:
        notes.append("dictionary row space differs from row space of R")
    return BijectionReport(
        basis=tuple(sorted(prim.basis)),
        negative_transpose_matches=nt_ok,
        rowspace_matches=rs_ok,
        details="; ".join(notes) if notes else "ok",
    )


def _is_negative_transpose(prim: Dictionary, dual: Dictionary) -> bool:
    """``canonical(negative_transpose(prim)) == canonical(dual)``, read through index maps.

    The sides differ, D agrees, z* is negated, the basic and nonbasic sets
    swap, and each entry of ``dual`` is the negated primal entry at the
    positions of its variables: p'_j = -q_s, q'_k = -p_r and Q'_jk = -Q_rs.
    No dictionary is built. Both sides start in one form, so the integers
    compare: on integer data both are in determinant form, where the dual
    basis determinant is the complementary minor of the primal one, and on
    fractional data both are in lowest terms.
    """
    rows = {v: r for r, v in enumerate(prim.basis)}
    cols = {v: s for s, v in enumerate(prim.nonbasis)}
    if (
        dual.side == prim.side
        or dual.D != prim.D
        or dual.z_num != -prim.z_num
        or cols.keys() != set(dual.basis)
        or rows.keys() != set(dual.nonbasis)
    ):
        return False
    Q = [prim.Q_num[rows[v]] for v in dual.nonbasis]  # primal rows in the dual's column order
    return [-prim.p_num[rows[v]] for v in dual.nonbasis] == list(dual.q_num) and all(
        x == -prim.q_num[s] and [-row[s] for row in Q] == list(dual_row)
        for x, s, dual_row in zip(dual.p_num, [cols[v] for v in dual.basis], dual.Q_num)
    )


def enumerate_bases(lp: StandardLP, limit: int = 100_000) -> list[tuple[int, ...]]:
    """All valid bases (ascending within and across), guarded by a subset budget.

    The bases a primal-only ``walk_bases`` reaches from the slack dictionary.
    """
    _check_count(lp, limit)
    return sorted(tuple(sorted(d.basis)) for d, _, _ in walk_bases(initial_dictionary(lp)))


def _check_count(lp: StandardLP, limit: int) -> None:
    count = comb(lp.m + lp.n, lp.m)
    if count > limit:
        raise BasisCountError(count, limit)
