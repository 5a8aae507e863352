"""Dictionaries: an LP solved for an ordered set of basic variables.

A dictionary for the ordered partition (B, N) of {1..m+n} reads

    x_B = p - Q x_N
    z   = z* + q . x_N

and is valid when the columns of A = [A0 I] indexed by B are linearly
independent. Dual-side dictionaries use the same algebra with y-variables
and objective label ``-w``; only printing differs.

A ``Dictionary`` holds integers: the numerators of p, Q, q and z* over one
positive common denominator D. It is the form of a ``StandardLP``, so the
slack dictionary (``initial_dictionary``) is the instance's own numerators:
p = b, Q = A0, q = c over the instance's D. ``d.p`` and ``d.q`` (tuples of
``Fraction``), ``d.Q`` (a ``QMatrix``) and ``d.z_star`` are views built
when read; the library's own paths read the integers. ``from_fractions``
builds a dictionary from ``int`` or ``Fraction`` entries, over the lcm of
their denominators.

The pivot operation recomputes the numerators by the fraction-free kernel
(``_kernels.pivot_update``) in O(mn). Every dictionary after the slack one
is reached that way: ``dictionary_from_basis(start, B)`` pivots the members
of B in from the dictionary it is given. A chain of pivots keeps the form
of its start (``Dictionary.det_form``):

* from D = 1 (integer data), determinant form: D is |det| of the basis
  columns in the start's system, and no gcd is taken. The dual dictionary
  on N, pivoted the same way from the dual LP's slack dictionary, is then
  the negative transpose of the primal one number for number, with the
  same D: the dual basis determinant is the complementary minor.
* from D > 1 (fractional data), reduced form: D is the lcm of the entries'
  denominators, so the representation of a value is unique.

Equality and hashing compare the integers, so they compare values between
two dictionaries of one form. Between forms, compare the ``Fraction``
views.

The paper's bijection, (-q, -Q^T, -p, -z*) on the flipped partition, is
written once, in ``_negative_transpose_fields``, with -Q^T from
``model._negated_transpose``. ``negative_transpose`` builds a dictionary
from it, and ``duality._is_negative_transpose`` compares a dual's fields
with it, building none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import neg
from typing import Literal, Sequence

from dictlp import _kernels
from dictlp.exact import QMatrix, _str, common_denominator
from dictlp.model import StandardLP, _negated_transpose

Side = Literal["primal", "dual"]


class NotABasisError(ValueError):
    """The selected columns are linearly dependent."""


class PivotError(ValueError):
    """Pivot request violates the entering/leaving preconditions."""


@dataclass(frozen=True)
class Dictionary:
    """Numerators of p, Q, q and z* over the common denominator D > 0.

    ``det_form`` says the chain of pivots that reached this dictionary
    started at D = 1: D is |det| of the basis columns relative to that
    start, and the numerators need not be in lowest terms. Otherwise they
    are gcd-reduced and D is the lcm of the entries' denominators. The flag
    is set where a chain starts (``initial_dictionary``,
    ``from_fractions``), inherited by every operation, and left out of
    equality. The fields are the library's working form and are not
    checked: ``from_fractions`` validates its input, the slack
    dictionaries (``initial_dictionary`` of an instance,
    ``duality.dual_dictionary_direct`` of its dual LP) hold the instance's
    numerators, and the other constructors (this module's operations,
    ``simplex._priced``) keep the partition, the shapes and the form of a
    dictionary they are given.
    """

    side: Side
    basis: tuple[int, ...]
    nonbasis: tuple[int, ...]
    p_num: tuple[int, ...]
    Q_num: tuple[tuple[int, ...], ...]
    q_num: tuple[int, ...]
    z_num: int
    D: int
    det_form: bool = field(compare=False)

    @classmethod
    def from_fractions(
        cls,
        side: Side,
        basis: tuple[int, ...],
        nonbasis: tuple[int, ...],
        p: Sequence[Fraction],
        Q: Sequence[Sequence[Fraction]],
        q: Sequence[Fraction],
        z_star: Fraction,
    ) -> "Dictionary":
        """The dictionary with these ``int`` or ``Fraction`` entries (Q as rows), over the lcm of their denominators.

        The labels in ``basis`` and ``nonbasis`` are ``int`` and partition 1..m+n.
        """
        if side not in ("primal", "dual"):
            raise ValueError(f"side must be 'primal' or 'dual', got {side!r}")
        m, n = len(basis), len(nonbasis)
        # 2.0 and True would pass the partition test below, being equal to 2 and 1.
        bad = next((v for v in (*basis, *nonbasis) if type(v) is not int), None)
        if bad is not None:
            raise ValueError(f"labels must be int, got {type(bad).__name__} {bad!r}")
        if sorted([*basis, *nonbasis]) != list(range(1, m + n + 1)):
            raise ValueError("basis and nonbasis must partition 1..m+n")
        if len(p) != m or len(q) != n:
            raise ValueError("p/q lengths must match basis/nonbasis")
        if len(Q) != m or any(len(row) != n for row in Q):
            raise ValueError("Q shape must be |B| x |N|")
        rows = [p, q, [z_star], *Q]
        D, (p_num, q_num, (z_num,), *Q_num) = common_denominator(rows)
        return cls(side, basis, nonbasis, tuple(p_num), tuple(map(tuple, Q_num)), tuple(q_num), z_num, D, D == 1)

    @property
    def m(self) -> int:
        return len(self.basis)

    @property
    def n(self) -> int:
        return len(self.nonbasis)

    # The Fraction views are built on every read and never stored, so a long
    # trace holds integers only. No library path reads them; they stay
    # because perfbench/worker.py reads all four.
    @property
    def p(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(x, self.D) for x in self.p_num])

    @property
    def Q(self) -> QMatrix:
        return QMatrix([Fraction(x, self.D) for x in row] for row in self.Q_num)

    @property
    def q(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(x, self.D) for x in self.q_num])

    @property
    def z_star(self) -> Fraction:
        return Fraction(self.z_num, self.D)


def initial_dictionary(lp: StandardLP) -> Dictionary:
    """The slack-basis dictionary: B = (n+1..n+m), p = b, Q = A0, q = c, z* = 0."""
    return Dictionary(
        side="primal",
        basis=tuple(range(lp.n + 1, lp.n + lp.m + 1)),
        nonbasis=tuple(range(1, lp.n + 1)),
        p_num=lp.b_num,
        Q_num=lp.A0_num,
        q_num=lp.c_num,
        z_num=0,
        D=lp.D,
        det_form=lp.D == 1,
    )


def dictionary_from_basis(start: Dictionary, basis: tuple[int, ...] | list[int]) -> Dictionary:
    """The dictionary for an ordered basis, reached by pivots from ``start``.

    Each member of B outside ``start``'s basis enters in turn, replacing the
    first basic variable outside B with a nonzero entry in its column; the
    members of B never leave. From the slack dictionary that is each
    non-slack of B replacing the first basic slack outside B. Rows come in
    B's order, columns in ascending order, and the side is ``start``'s.
    Raises ``NotABasisError`` when B is not m distinct ``int`` indices in
    1..m+n, or when the basis columns are dependent, which is when no such
    variable is left.
    """
    m, total = start.m, start.m + start.n
    B = tuple(basis)
    if len(B) != m:
        raise NotABasisError(f"basis must have {m} indices, got {len(B)}")
    members = set(B)
    if len(members) != m or any(type(v) is not int or not 1 <= v <= total for v in B):
        raise NotABasisError(f"basis must be distinct indices in 1..{total}: {_indices(B)}")

    d = start
    for v in B:
        if v in d.basis:
            continue
        s = d.nonbasis.index(v)
        leave = next((u for u, row in zip(d.basis, d.Q_num) if u not in members and row[s] != 0), None)
        if leave is None:
            raise NotABasisError(f"columns of basis {_indices(B)} are linearly dependent")
        d = pivot(d, v, leave)
    return _arrange(d, B, tuple(v for v in range(1, total + 1) if v not in members))


def _label(v: int) -> str:
    """A variable label as a refusal names it: its digits for an ``int`` of any length, else its ``repr``."""
    return _str(v) if type(v) is int else repr(v)


def _indices(B: tuple[int, ...]) -> str:
    """``str(B)`` for indices of any length, each member named by ``_label``."""
    return f"({', '.join(map(_label, B))}{',' if len(B) == 1 else ''})"


def pivot(d: Dictionary, enter: int, leave: int) -> Dictionary:
    """Exchange one nonbasic and one basic variable, preserving the solution set.

    ``enter`` replaces ``leave`` at its basis position; ``leave`` takes the
    entering variable's nonbasis position. The pivot element Q[r][s] must be
    nonzero (degenerate rows with p_r = 0 are fine).
    """
    try:
        s = d.nonbasis.index(enter)
    except ValueError:
        raise PivotError(f"entering variable {_label(enter)} is not nonbasic") from None
    try:
        r = d.basis.index(leave)
    except ValueError:
        raise PivotError(f"leaving variable {_label(leave)} is not basic") from None
    if d.Q_num[r][s] == 0:
        raise PivotError(f"zero pivot element for entering variable {_label(enter)} and leaving variable {_label(leave)}")
    return _pivot(d, r, s)


def _pivot(d: Dictionary, r: int, s: int) -> Dictionary:
    """``pivot`` at basis position r and nonbasis position s, unchecked: Q[r][s] must be nonzero."""
    p, Q, q, z, D = _kernels.pivot_update(d.p_num, d.Q_num, d.q_num, d.z_num, d.D, r, s, d.det_form)
    basis = list(d.basis)
    nonbasis = list(d.nonbasis)
    # Swap the stored labels, not the caller's: 1.0 and True find 1 by equality.
    basis[r], nonbasis[s] = nonbasis[s], basis[r]
    return Dictionary(d.side, tuple(basis), tuple(nonbasis), p, Q, q, z, D, d.det_form)


def is_primal_feasible(d: Dictionary) -> bool:
    """Constant column nonnegative: the basic solution satisfies x >= 0."""
    return all(x >= 0 for x in d.p_num)


def is_dual_feasible(d: Dictionary) -> bool:
    """All objective coefficients nonpositive: no improving entering variable."""
    return all(x <= 0 for x in d.q_num)


def negative_transpose(d: Dictionary) -> Dictionary:
    """The dual-side dictionary (-q, -Q^T, -p, -z*) on the flipped partition.

    Basic variables of the result are the nonbasic ones of the input, in the
    same order (and vice versa). Applying it twice is the identity. With no
    basic variable, the result has n rows of length 0. Q rows of unequal
    lengths raise ``ValueError``. Its fields are ``_negative_transpose_fields``,
    which ``verify`` compares with a dual in place, and ``d.det_form``.
    """
    return Dictionary(*_negative_transpose_fields(d), d.det_form)


def _negative_transpose_fields(d: Dictionary) -> tuple:
    """The compared fields of ``negative_transpose(d)``, in ``Dictionary``'s field order.

    -Q^T is ``model._negated_transpose`` of Q, or n empty rows when ``d``
    has no basic variable; Q rows of unequal lengths raise ``ValueError``.
    """
    return (
        "dual" if d.side == "primal" else "primal",
        d.nonbasis,
        d.basis,
        tuple(map(neg, d.q_num)),
        _negated_transpose(d.Q_num) or ((),) * len(d.nonbasis),
        tuple(map(neg, d.p_num)),
        -d.z_num,
        d.D,
    )


def _arrange(d: Dictionary, basis: tuple[int, ...], nonbasis: tuple[int, ...]) -> Dictionary:
    """The same dictionary with its rows and columns in the given variable orders."""
    rows = [d.basis.index(v) for v in basis]
    cols = [d.nonbasis.index(v) for v in nonbasis]
    return Dictionary(
        d.side,
        basis,
        nonbasis,
        tuple([d.p_num[i] for i in rows]),
        tuple([tuple([d.Q_num[i][j] for j in cols]) for i in rows]),
        tuple([d.q_num[j] for j in cols]),
        d.z_num,
        d.D,
        d.det_form,
    )
