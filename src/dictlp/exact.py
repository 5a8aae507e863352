"""Exact rational scalars and the immutable vectors and matrices built on them.

Rational values are ``fractions.Fraction``: arbitrary precision and always
canonical (reduced, positive denominator, zero is 0/1), so equality is
structural and no comparison ever needs a tolerance. They are the scalars of
instances, certificates and printed output. The solver's own arithmetic runs
on integers instead: a dictionary holds integer numerators over one common
denominator (``dictlp.dictionary``), and ``common_denominator`` turns
rational rows into that form.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?\Z")


def rational(num: RationalLike, den: int | None = None) -> Fraction:
    """Canonical rational from an int, text token, Fraction, or num/den pair.

    The sign is carried by the numerator and the result is fully reduced;
    a zero denominator is an error.
    """
    if den is not None:
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return Fraction(num, den)
    if isinstance(num, Fraction):
        return num
    if isinstance(num, int):
        return Fraction(num)
    return parse_rational(num)


def parse_rational(token: str) -> Fraction:
    """Parse the canonical text syntax: optional '-', ASCII digits, optional '/digits'."""
    if not _RATIONAL_RE.fullmatch(token):
        raise ValueError(f"malformed rational {token!r}")
    num, slash, den = token.partition("/")
    if slash:
        d = int(den)
        if d == 0:
            raise ZeroDivisionError(f"zero denominator in {token!r}")
        return Fraction(int(num), d)
    return Fraction(int(num))


def common_denominator(rows: Iterable[Iterable[Fraction]]) -> tuple[int, list[list[int]]]:
    """The lcm L of every entry's denominator, and each row's entries times L as ints."""
    rows = [list(row) for row in rows]
    scale = lcm(*(x.denominator for row in rows for x in row))
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


class QVector:
    """Immutable vector of rationals; length fixed at construction."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[RationalLike]):
        self._entries = tuple(rational(e) for e in entries)
        if not self._entries:
            raise ValueError("empty vector")

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, i: int) -> Fraction:
        return self._entries[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QVector) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"QVector({', '.join(map(str, self._entries))})"

    def __sub__(self, other: "QVector") -> "QVector":
        self._check_len(other)
        return QVector(a - b for a, b in zip(self, other))

    def __neg__(self) -> "QVector":
        return QVector(-a for a in self)

    def dot(self, other: "QVector") -> Fraction:
        self._check_len(other)
        return sum((a * b for a, b in zip(self, other)), Fraction(0))

    def _check_len(self, other: "QVector") -> None:
        if len(self) != len(other):
            raise ValueError(f"dimension mismatch: {len(self)} vs {len(other)}")


class QMatrix:
    """Immutable dense matrix of rationals (row-major)."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        self._rows = tuple(tuple(rational(e) for e in row) for row in rows)
        if not self._rows or not self._rows[0]:
            raise ValueError("empty matrix")
        width = len(self._rows[0])
        if any(len(row) != width for row in self._rows):
            raise ValueError("ragged rows")

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def row(self, i: int) -> QVector:
        return QVector(self._rows[i])

    def row_lists(self) -> list[list[Fraction]]:
        """Rows as fresh mutable lists."""
        return [list(row) for row in self._rows]

    def transpose(self) -> "QMatrix":
        return QMatrix(zip(*self._rows))

    def __neg__(self) -> "QMatrix":
        return QMatrix((-e for e in row) for row in self._rows)

    def mul_vec(self, v: QVector) -> QVector:
        if self.cols != len(v):
            raise ValueError(f"dimension mismatch: {self.cols} vs {len(v)}")
        return QVector(
            sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in self._rows
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, row)) for row in self._rows)
        return f"QMatrix[{body}]"

