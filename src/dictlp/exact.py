"""Exact rationals as text and as integers over one common denominator.

Instances (``dictlp.model``) and dictionaries (``dictlp.dictionary``) hold
integer numerators over one positive denominator. Rationals enter as text
(``parse_rational``) and leave as text (``format_rational``), in chunks of
digits that CPython converts under any ``-X int_max_str_digits`` setting.
``common_denominator`` turns rows of ``int`` and ``Fraction`` entries, and
no other type, into the integer form. ``Fraction`` is left to certificates
and to a dictionary's views (``QMatrix`` is the type of ``d.Q``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?\Z")

# sys.int_info.str_digits_check_threshold: the digit limit can never be set
# below it, so int() and str() always convert this many digits.
_CHUNK = 640
_CHUNK_BOUND = 10**_CHUNK


def parse_rational(token: str) -> tuple[int, int]:
    """Numerator and positive denominator of the canonical text syntax, not reduced.

    The syntax is an optional '-', ASCII digits, then optionally '/digits'.
    """
    if not _RATIONAL_RE.fullmatch(token):
        raise ValueError(f"malformed rational {token!r}")
    num, slash, den = token.partition("/")
    if not slash:
        return _int(num), 1
    d = _int(den)
    if d == 0:
        raise ZeroDivisionError(f"zero denominator in {token!r}")
    return _int(num), d


def format_rational(num: int, den: int) -> str:
    """The canonical text of num/den, den > 0: ``str(Fraction(num, den))`` for any length."""
    g = gcd(num, den)
    if g == den:
        return _str(num // den)
    return f"{_str(num // g)}/{_str(den // g)}"


def _rationals_text(values: Iterable[Fraction]) -> str:
    """Rationals as the CLI prints them: canonical text, separated by single spaces."""
    return " ".join([format_rational(x.numerator, x.denominator) for x in values])


def common_denominator(rows: Iterable[Iterable[Fraction]]) -> tuple[int, list[list[int]]]:
    """The lcm L of every entry's denominator, and each row's entries times L as ints.

    Raises ``TypeError`` on an entry that is not an ``int`` or a ``Fraction``.
    """
    rows = [list(row) for row in rows]
    bad = [x for row in rows for x in row if not isinstance(x, (int, Fraction))]
    if bad:
        raise TypeError(f"entries must be int or Fraction, got {type(bad[0]).__name__} {bad[0]!r}")
    scale = lcm(*(x.denominator for row in rows for x in row))
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def _int(digits: str) -> int:
    """``int(digits)`` for an optional '-' and ASCII digits of any length."""
    if len(digits) <= _CHUNK:
        return int(digits)
    if digits[0] == "-":
        return -_int(digits[1:])
    low = len(digits) // 2
    return _int(digits[:-low]) * 10**low + _int(digits[-low:])


def _str(x: int) -> str:
    """``str(x)`` for an int of any length."""
    if -_CHUNK_BOUND < x < _CHUNK_BOUND:
        return str(x)
    if x < 0:
        return "-" + _str(-x)
    # bit_length * 0.15 is under half of x's digit count, so high > 0.
    low = x.bit_length() * 3 // 20
    high, rest = divmod(x, 10**low)
    return _str(high) + _str(rest).zfill(low)


class QMatrix:
    """Read-only dense ``Fraction`` matrix (row-major), the type of ``Dictionary.Q``: no arithmetic.

    It is read through ``row_lists()``, and two compare by value the same
    way: a ``QMatrix`` equals only itself.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[Fraction]]):
        self._rows = tuple(tuple(row) for row in rows)

    def row_lists(self) -> list[list[Fraction]]:
        """Rows as fresh mutable lists."""
        return [list(row) for row in self._rows]

