"""Dictionaries: an LP solved for an ordered set of basic variables.

A dictionary for the ordered partition (B, N) of {1..m+n} reads

    x_B = p - Q x_N
    z   = z* + q . x_N

and is valid when the columns of A = [A0 I] indexed by B are linearly
independent. Dual-side dictionaries use the same algebra with y-variables
and objective label ``-w``; only printing differs.

The pivot operation recomputes (p, Q, q, z*) by exact row substitution in
O(mn). Every dictionary is reached that way: ``dictionary_from_basis``
pivots the basis in from the slack dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Literal

from dictlp import _kernels
from dictlp.exact import QMatrix, QVector
from dictlp.model import StandardLP

Side = Literal["primal", "dual"]


class NotABasisError(ValueError):
    """The selected columns are linearly dependent."""


class PivotError(ValueError):
    """Pivot request violates the entering/leaving preconditions."""


@dataclass(frozen=True)
class Dictionary:
    side: Side
    basis: tuple[int, ...]
    nonbasis: tuple[int, ...]
    p: QVector
    Q: QMatrix
    q: QVector
    z_star: Fraction

    def __post_init__(self):
        m, n = len(self.basis), len(self.nonbasis)
        if sorted(self.basis + self.nonbasis) != list(range(1, m + n + 1)):
            raise ValueError("basis and nonbasis must partition 1..m+n")
        if len(self.p) != m or len(self.q) != n:
            raise ValueError("p/q lengths must match basis/nonbasis")
        if self.Q.rows != m or self.Q.cols != n:
            raise ValueError("Q shape must be |B| x |N|")

    @property
    def m(self) -> int:
        return len(self.basis)

    @property
    def n(self) -> int:
        return len(self.nonbasis)


def initial_dictionary(lp: StandardLP) -> Dictionary:
    """The slack-basis dictionary: B = (n+1..n+m), p = b, Q = A0, q = c, z* = 0."""
    return Dictionary(
        side="primal",
        basis=tuple(range(lp.n + 1, lp.n + lp.m + 1)),
        nonbasis=tuple(range(1, lp.n + 1)),
        p=lp.b,
        Q=lp.A0,
        q=lp.c,
        z_star=Fraction(0),
    )


def dictionary_from_basis(lp: StandardLP, basis: tuple[int, ...] | list[int]) -> Dictionary:
    """The dictionary for an ordered basis, reached by pivots from the slack basis.

    Each non-slack of B enters in turn, replacing the first basic slack
    outside B with a nonzero entry in its column; the slacks in B never
    leave. Rows come in B's order, columns in ascending order. Raises
    ``NotABasisError`` when the basis columns are dependent, which is when
    no such slack is left.
    """
    m, total = lp.m, lp.m + lp.n
    B = tuple(basis)
    if len(B) != m:
        raise NotABasisError(f"basis must have {m} indices, got {len(B)}")
    members = set(B)
    if len(members) != m or any(not 1 <= v <= total for v in B):
        raise NotABasisError(f"basis must be distinct indices in 1..{total}: {B}")

    d = initial_dictionary(lp)
    for v in B:
        if v > lp.n:
            continue
        s = d.nonbasis.index(v)
        leave = next(
            (u for r, u in enumerate(d.basis) if u > lp.n and u not in members and d.Q.entry(r, s) != 0),
            None,
        )
        if leave is None:
            raise NotABasisError(f"columns of basis {B} are linearly dependent")
        d = pivot(d, v, leave)
    return _arrange(d, B, tuple(v for v in range(1, total + 1) if v not in members))


def pivot(d: Dictionary, enter: int, leave: int) -> Dictionary:
    """Exchange one nonbasic and one basic variable, preserving the solution set.

    ``enter`` replaces ``leave`` at its basis position; ``leave`` takes the
    entering variable's nonbasis position. The pivot element Q[r][s] must be
    nonzero (degenerate rows with p_r = 0 are fine).
    """
    try:
        s = d.nonbasis.index(enter)
    except ValueError:
        raise PivotError(f"entering variable {enter} is not nonbasic") from None
    try:
        r = d.basis.index(leave)
    except ValueError:
        raise PivotError(f"leaving variable {leave} is not basic") from None
    if d.Q.entry(r, s) == 0:
        raise PivotError(f"degenerate pivot element at row {r}, column {s}")

    new_p, new_Q, new_q, new_z = _kernels.pivot_update(
        list(d.p), d.Q.row_lists(), list(d.q), d.z_star, r, s
    )
    basis = list(d.basis)
    nonbasis = list(d.nonbasis)
    basis[r] = enter
    nonbasis[s] = leave
    return Dictionary(
        side=d.side,
        basis=tuple(basis),
        nonbasis=tuple(nonbasis),
        p=QVector(new_p),
        Q=QMatrix(new_Q),
        q=QVector(new_q),
        z_star=new_z,
    )


def is_primal_feasible(d: Dictionary) -> bool:
    """Constant column nonnegative: the basic solution satisfies x >= 0."""
    return all(x >= 0 for x in d.p)


def is_dual_feasible(d: Dictionary) -> bool:
    """All objective coefficients nonpositive: no improving entering variable."""
    return all(x <= 0 for x in d.q)


def negative_transpose(d: Dictionary) -> Dictionary:
    """The dual-side dictionary (-q, -Q^T, -p, -z*) on the flipped partition.

    Basic variables of the result are the nonbasic ones of the input, in the
    same order (and vice versa). Applying it twice is the identity.
    """
    return Dictionary(
        side="dual" if d.side == "primal" else "primal",
        basis=d.nonbasis,
        nonbasis=d.basis,
        p=-d.q,
        Q=-d.Q.transpose(),
        q=-d.p,
        z_star=-d.z_star,
    )


def basic_solution(d: Dictionary) -> QVector:
    """The point with nonbasic variables at zero, as a full length-(m+n) vector."""
    values = [Fraction(0)] * (d.m + d.n)
    for i, v in enumerate(d.basis):
        values[v - 1] = d.p[i]
    return QVector(values)


def canonical(d: Dictionary) -> Dictionary:
    """Equivalent dictionary with basis and nonbasis sorted ascending.

    Strict dataclass equality is order-sensitive; theorem checks compare
    canonical forms instead.
    """
    return _arrange(d, tuple(sorted(d.basis)), tuple(sorted(d.nonbasis)))


def _arrange(d: Dictionary, basis: tuple[int, ...], nonbasis: tuple[int, ...]) -> Dictionary:
    """The same dictionary with its rows and columns in the given variable orders."""
    rows = [d.basis.index(v) for v in basis]
    cols = [d.nonbasis.index(v) for v in nonbasis]
    return replace(
        d,
        basis=basis,
        nonbasis=nonbasis,
        p=QVector(d.p[i] for i in rows),
        Q=QMatrix([[d.Q.entry(i, j) for j in cols] for i in rows]),
        q=QVector(d.q[j] for j in cols),
    )
