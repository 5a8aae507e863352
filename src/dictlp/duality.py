"""The dual-dictionary bijection, and its check on every basis.

The paper's theorem: the dual dictionary with basic set N is the negative
transpose of the primal dictionary with basis B, for every basis, and the
primal pivot (enter e, leave l) is the dual pivot (enter l, leave e). The
proof puts both LPs in one matrix, over the columns 0 (objective), 1..m+n
(the augmented variables) and m+n+1 (homogenizing):

    R = [ 0 | A0 | I | -b ]
        [ 1 | -c | 0 |  0 ]

A primal point x with A0 x_dec + x_slack = b and value x0 = c . x_dec is
the kernel vector [x0, x, 1]. Dual values u give the row combination
u . (first m rows) + (last row) = [1, y, -b . u], where y1..yn = A0^T u - c
are the dual slacks and y(n+1)..y(n+m) = u the dual decisions, so y_j
pairs with x_j. Kernel and row space are orthogonal complements, so
x0 + y . x = b . u: the duality gap is y . x. A dictionary's matrix M
(``_scaled_rows``) is R with its rows recombined: row i reads
[0 | Q_i under N, 1 under B_i | -p_i] and the objective row
[1 | -q under N, 0 under B | -z*]. Its kernel is the dictionary's solution
set, and a row-space vector with first coordinate 1 is the objective row
plus y_B times the other rows: y_N = -q + Q^T y_B and -w = -z* - p . y_B,
the dual dictionary (-q, -Q^T, -p, -z*) on N. Both readings hold exactly
when M spans R's row space.

A pivot is a row operation on M: the pivot row is divided by the pivot
element and multiples of it are subtracted from the other rows. So M's row
space never changes along a chain of pivots, and a dictionary pivoted from
one that spans R spans R. ``verify_bases`` reaches every basis once by
reverse search (``walk_bases``), each by one pivot from its parent, with
the dual LP's dictionary (``dual_dictionary_direct``) pivoted in lockstep:
the primal pivot at positions (r, s) is the dual pivot at (s, r), so the
dual's labels stay the primal's swapped, in order. Per basis it tests that
the dual is the primal's negative transpose: the dual's fields against
``dictionary._negative_transpose_fields`` of the primal, the map that
``negative_transpose`` builds from (``_is_negative_transpose``; no
transposed dictionary is built), and the row space against the parent's (``_spans_parent``): each parent row
must be the child's row plus a multiple of the child's pivot row, integer
identities with no division at O(mn) per basis. The root, and every basis
whose parent failed that test, is tested against R itself (``_spans``,
O(m^2 n)), so a faulty dictionary fails, and so does every basis pivoted
from it, just as against R.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from typing import Iterator

from dictlp.exact import _str
from dictlp.dictionary import (
    Dictionary,
    NotABasisError,
    PivotError,
    _arrange,
    _negative_transpose_fields,
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


def _scaled_rows(d: Dictionary) -> list[list[int]]:
    """D times the combined-system matrix M of ``d``, columns labeled like R's, as integer rows."""
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


def dual_dictionary_direct(lp: StandardLP) -> Dictionary:
    """The slack dictionary of ``dual_lp(lp)`` under y-indices, on the dual side.

    The dual LP has n rows and m columns. Its slacks (columns m+1..m+n) are
    named y1..yn and its decisions (columns 1..m) y(n+1)..y(n+m), so y_j
    pairs with x_j. Pivots from this dictionary (``dictionary_from_basis``,
    or the lockstep of ``walk_bases``) build the dual dictionary for any
    basic set from the dual LP itself, no transpose involved.
    """
    return replace(
        initial_dictionary(dual_lp(lp)),
        side="dual",
        basis=tuple(range(1, lp.n + 1)),
        nonbasis=tuple(range(lp.n + 1, lp.n + lp.m + 1)),
    )


def _spans(rows: list[list[int]], d: Dictionary) -> bool:
    """True iff M of ``d`` spans the row space of ``rows``, the ``_scaled_rows`` of a start.

    Both have rank m+1, with an identity on column 0 and on their basis's
    columns, so the spaces are equal iff every row rho of the start's M is
    rho[0] * (objective row) + sum_k rho[B_k] * (row k) of ``d``'s. That
    holds by construction on column 0 and B; on the N columns and the last
    one, where d's rows read [Q_k | -p_k] and [-q | -z*], both sides are
    compared times D. For R's rows it reads A_B Q = A_N, A_B p = b,
    q = c_N - Q^T c_B and z* = c_B . p.
    """
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


def _spans_parent(parent: Dictionary, r: int, s: int, d: Dictionary) -> bool:
    """True iff M of ``d``, the pivot at basis position ``r`` and nonbasis position ``s`` of ``parent``, spans M of ``parent``.

    ``d``'s labels are ``parent``'s with the two at r and s swapped, as
    ``pivot`` leaves them. Both matrices have rank m+1, with an identity on
    column 0 and on their basis's columns, so the spaces are equal iff each
    row of ``parent``'s M is the combination of ``d``'s rows that its own
    entries there name. A row i != r has 1 under its own basic variable and
    Q_is/D under the entering one, basic in row r of ``d``: it must be
    ``d``'s row i plus Q_is/D times ``d``'s row r. The pivot row must be
    Q_rs/D times ``d``'s row r, and the objective row ``d``'s objective row
    minus q_s/D times ``d``'s row r. Times D*D', with primes for ``d``:

        row i != r:  D*Q'_i + Q_is*Q'_r = D'*Q_i off s,  D*Q'_is + Q_is*Q'_rs = 0,
                     D*p'_i + Q_is*p'_r = D'*p_i
        row r:       Q_rs*Q'_r = D'*Q_r off s,  Q_rs*Q'_rs = D*D',  Q_rs*p'_r = D'*p_r
        objective:   the rows' identities with q for Q_i and -z* for p_i

    That is O(mn) multiplications, with no division.
    """
    D, D1 = parent.D, d.D
    a = parent.Q_num[r][s]
    lead, lead_p = d.Q_num[r], d.p_num[r]
    want = [D1 * x for x in parent.Q_num[r]]
    want[s] = D * D1
    if [a * y for y in lead] != want or a * lead_p != D1 * parent.p_num[r]:
        return False
    rows = zip(
        (*parent.Q_num, parent.q_num),
        (*d.Q_num, d.q_num),
        (*parent.p_num, -parent.z_num),
        (*d.p_num, -d.z_num),
    )
    for i, (row, new_row, c, new_c) in enumerate(rows):
        if i == r:
            continue
        f = row[s]
        if D * new_c + f * lead_p != D1 * c or len(new_row) != len(row):
            return False
        diff = [D * y + f * x - D1 * z for y, x, z in zip(new_row, lead, row)]
        diff[s] += D1 * f
        if any(diff):
            return False
    return True


_Edge = tuple[Dictionary, int, int]
_Step = tuple[Dictionary, Dictionary | None, _Edge | None]


def walk_bases(start: Dictionary, dual_start: Dictionary) -> Iterator[_Step]:
    """Each basis reachable from ``start`` once, by reverse search rooted at ``start``'s basis B0.

    Yields ``(prim, dual, edge)``: the dictionary for a basis, reached by one
    ``pivot`` from its parent, a dictionary yielded before it, and ``edge =
    (parent, r, s)``, that parent and the basis and nonbasis positions of
    that pivot (None for ``start`` itself). The pivot entered
    ``parent.nonbasis[s]``, now ``prim.basis[r]``, and took out
    ``parent.basis[r]``, now ``prim.nonbasis[s]``. Every edge
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

    ``dual_start`` is the dual dictionary on ``start``'s nonbasis in
    lockstep order (basis ``start.nonbasis``, nonbasis ``start.basis``),
    and the dual is carried in lockstep: the primal pivot (enter e, leave
    l) is the dual pivot (enter l, leave e) on the dual's own dictionary,
    which keeps that order. Where that pivot fails, ``dual`` is None for
    that basis alone: its children build their duals from ``dual_start``
    (``dictionary_from_basis``, put back in lockstep order).
    """
    start_basic = frozenset(start.basis)
    stack: list[_Step] = [(start, dual_start, None)]
    while stack:
        step = stack.pop()
        yield step
        prim, dual, edge = step
        top = prim.basis[edge[1]] if edge else 0  # max(B - B0), which the last pivot entered
        back = [(j, y) for j, y in enumerate(prim.nonbasis) if y in start_basic]  # nonbasic members of B0
        entering = [(s, e) for s, e in enumerate(prim.nonbasis) if e > top and e not in start_basic]
        if not entering:
            continue
        for r, (leave, row) in enumerate(zip(prim.basis, prim.Q_num)):
            if leave not in start_basic or any(row[j] for j, y in back if y < leave):
                continue
            for s, enter in entering:
                if row[s]:
                    child = pivot(prim, enter, leave)
                    stack.append((child, _child_dual(dual_start, dual, child, enter, leave), (prim, r, s)))


def _child_dual(
    dual_start: Dictionary, dual: Dictionary | None, child: Dictionary, enter: int, leave: int
) -> Dictionary | None:
    """The dual of ``child``: one pivot (enter ``leave``, leave ``enter``) from its parent's ``dual``.

    Where the parent has no dual, it is built from ``dual_start`` instead, in lockstep order.
    None when the pivot or the build fails.
    """
    try:
        if dual is None:
            return _arrange(dictionary_from_basis(dual_start, child.nonbasis), child.nonbasis, child.basis)
        return pivot(dual, leave, enter)
    except (PivotError, NotABasisError):
        return None


def verify_bases(lp: StandardLP, limit: int = 100_000) -> list[BijectionReport]:
    """Check the primal-dual dictionary bijection on every basis, in ascending order.

    Refuses with ``BasisCountError`` when C(m+n, m) exceeds ``limit``. One
    ``walk_bases`` from the primal slack dictionary carries the dual LP's
    slack dictionary (``dual_dictionary_direct``) in lockstep, so each basis
    after the first costs one primal and one dual pivot.

    A pivot is a row operation, so a dictionary spans R's row space iff it
    spans its parent's, given that the parent spans R's. Each basis is
    tested against the parent edge it was reached by (``_spans_parent``),
    O(mn) per basis. The root is tested against R's rows, read from the
    slack dictionary once (``_spans``, O(m^2 n)), and so is every basis
    whose parent failed its row-space test. Those are recorded by basis, so
    a fault in one dictionary fails it and every basis pivoted from it, as
    a test of each basis against R would.
    """
    count = comb(lp.m + lp.n, lp.m)
    if count > limit:
        raise BasisCountError(count, limit)
    start = initial_dictionary(lp)
    rows = _scaled_rows(start)
    failed: set[tuple[int, ...]] = set()  # the bases whose row-space test failed
    reports = []
    for prim, dual, edge in walk_bases(start, dual_dictionary_direct(lp)):
        if edge is None or failed and edge[0].basis in failed:
            rs_ok = _spans(rows, prim)
        else:
            rs_ok = _spans_parent(*edge, prim)
        if not rs_ok:
            failed.add(prim.basis)
        reports.append(_report(prim, dual, rs_ok))
    return sorted(reports, key=lambda r: r.basis)


def _report(prim: Dictionary, dual: Dictionary | None, rs_ok: bool) -> BijectionReport:
    """The two checks of one basis, given the result of its row-space test.

    ``dual``, the dual dictionary on N reached on the dual LP's own side
    (None when its lockstep pivot failed), must be the negative transpose
    of ``prim``, labels in order (``_is_negative_transpose``). Both sides
    start in one form (determinant form on integer data, where the dual
    basis determinant is the complementary minor of the primal one, lowest
    terms otherwise), so the integers compare. The primal dictionary's
    combined-system matrix must span the row space of R (``rs_ok``, tested
    by ``verify_bases``).
    """
    nt_ok = dual is not None and _is_negative_transpose(prim, dual)
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
    """``dual == negative_transpose(prim)``, with no ``Dictionary`` built.

    The dual's compared fields, as a tuple, against
    ``dictionary._negative_transpose_fields(prim)``, the fields that
    ``negative_transpose`` builds from: as strict as that equality, which
    leaves ``det_form`` out. Q rows of unequal lengths in ``prim`` fail,
    where ``negative_transpose`` raises ``ValueError``.
    """
    fields = dual.side, dual.basis, dual.nonbasis, dual.p_num, dual.Q_num, dual.q_num, dual.z_num, dual.D
    try:
        return fields == _negative_transpose_fields(prim)
    except ValueError:  # Q rows of unequal lengths
        return False
