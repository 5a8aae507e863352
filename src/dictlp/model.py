"""LP problem representation, duals, and the file format.

Instances are max-form: maximize ``c . x`` subject to ``A0 x <= b`` and
``x >= 0``. Variable indices are 1-based everywhere in the public API:
``x1..xn`` are decision variables and ``x(n+1)..x(n+m)`` the slacks, so the
augmented constraint matrix is A = [A0 I]. A is never stored.

A ``StandardLP`` holds the integer numerators of A0, b and c over one
positive denominator D, the form of a dictionary, from the parser to the
printer: the slack dictionary is those numerators as they are, and every
other dictionary is pivoted from it. An instance keeps no ``Fraction``
view: rational entries go in through ``StandardLP.from_fractions`` and
come out as text through ``serialize_lp``. The dual (``dual_lp``) is another
max-form instance over the same D, so every dictionary operation applies
uniformly to both sides. Its columns are numbered like any instance's,
decisions first; the y-index names that pair them with the primal
variables are applied only where a dual dictionary is built
(``duality.dual_dictionary_direct``).

The parser (``parse_lp``) reads the file a line at a time, where lines end
at ``\\n``, ``\\r\\n`` or ``\\r`` only. A row of plain integers, the
common case, converts with one ``int()`` per token and needs no
denominator, so an instance of integer rows is over D = 1 with no lcm of
its entries' denominators and no entry rescaled. Rows with a rational
token go through ``exact.parse_rational``, as do rows longer than 640
characters, whose tokens ``int()`` may refuse under ``-X
int_max_str_digits``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from dictlp import _kernels
from dictlp.exact import _CHUNK, common_denominator, format_rational, parse_rational

# ASCII digits only: int() would also take other scripts' digits, '_' and '+'.
_DIMENSION_RE = re.compile(r"[0-9]+")
# A stripped row of plain integers: each token an optional '-' and ASCII
# digits. \s matches what str.split() splits at. A row of at most _CHUNK
# characters holds no token that int() refuses under any digit limit.
_INTEGER_ROW_RE = re.compile(r"-?[0-9]+(?:\s+-?[0-9]+)*")


class ParseError(ValueError):
    """LP file rejected; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class StandardLP:
    """Max-form instance: maximize c.x subject to A0 x <= b, x >= 0.

    The numerators of A0, b and c over D > 0, gcd-reduced so that D is the
    lcm of the entries' denominators. A0_i,j is ``Fraction(A0_num[i][j], D)``.
    """

    A0_num: tuple[tuple[int, ...], ...]
    b_num: tuple[int, ...]
    c_num: tuple[int, ...]
    D: int

    @classmethod
    def from_fractions(
        cls, A0_rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction], c: Sequence[Fraction]
    ) -> "StandardLP":
        """The instance with these ``int`` or ``Fraction`` entries, over the lcm of their denominators."""
        if not b or not c or len(b) != len(A0_rows) or any(len(row) != len(c) for row in A0_rows):
            raise ValueError("A0 must be a len(b) x len(c) matrix with at least one entry")
        D, (b_num, c_num, *A0_num) = common_denominator([b, c, *A0_rows])
        return cls(tuple(map(tuple, A0_num)), tuple(b_num), tuple(c_num), D)

    @property
    def m(self) -> int:
        return len(self.b_num)

    @property
    def n(self) -> int:
        return len(self.c_num)


def parse_lp(text: str) -> StandardLP:
    """Parse the LP file format (see ``serialize_lp`` for the grammar).

    One leading byte-order mark (U+FEFF) is ignored. Lines end at ``\\n``,
    ``\\r\\n`` or ``\\r`` only; every other whitespace character separates
    tokens. A row of plain integers converts with one ``int()`` per token.
    A row with a rational token converts each token to an integer pair and
    its row to numerators over the lcm of its denominators; one lcm then
    puts all rows over a common denominator.
    """
    text = text.removeprefix("\ufeff")
    lines: list[tuple[int, str]] = []
    # str.splitlines() would also end lines at \v, \f, \x1c-\x1e, \x85,
    # \u2028 and \u2029, which str.split() reads as whitespace inside a line.
    raw_lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(raw_lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))

    if not lines:
        raise ParseError(1, "empty input")
    if lines[0][1].split() != ["lp", "v1"]:
        raise ParseError(lines[0][0], "expected header 'lp v1'")
    if len(lines) < 2:
        raise ParseError(lines[0][0] + 1, "missing dimension line")

    dim_line, dim_text = lines[1]
    dim_tokens = dim_text.split()
    if len(dim_tokens) != 2:
        raise ParseError(dim_line, "dimension line must be '<m> <n>'")
    if not all(_DIMENSION_RE.fullmatch(tok) for tok in dim_tokens):
        raise ParseError(dim_line, "dimensions must be decimal integers")
    (m, _), (n, _) = map(parse_rational, dim_tokens)
    if m < 1 or n < 1:
        got = f"m={format_rational(m, 1)} n={format_rational(n, 1)}"
        raise ParseError(dim_line, f"dimensions must be at least 1, got {got}")

    if len(lines) != 3 + m:
        last = lines[-1][0]
        raise ParseError(last, f"expected {format_rational(3 + m, 1)} content lines, found {len(lines)}")

    def parse_row(lineno: int, row: str, expected: int, what: str) -> tuple[list[int], int]:
        """The row's numerators over the lcm of its denominators, and that lcm."""
        tokens = row.split()
        if len(tokens) != expected:
            want = format_rational(expected, 1)
            raise ParseError(lineno, f"{what}: expected {want} values, found {len(tokens)}")
        if len(row) <= _CHUNK and _INTEGER_ROW_RE.fullmatch(row):
            return list(map(int, tokens)), 1
        try:
            pairs = [parse_rational(tok) for tok in tokens]
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(lineno, str(exc)) from None
        L = lcm(*(den for _, den in pairs))
        return [num * (L // den) for num, den in pairs], L

    rows = [parse_row(lines[2][0], lines[2][1], n, "objective row")]
    for i in range(m):
        lineno, row = lines[3 + i]
        rows.append(parse_row(lineno, row, n + 1, f"constraint row {i + 1}"))
    D = lcm(*(L for _, L in rows))
    c, *a_rows = [nums if L == D else [x * (D // L) for x in nums] for nums, L in rows]
    # Tokens need not be reduced ("2/4"), so the gcd can exceed 1.
    b, A0, c, _, D = _kernels.reduced([row.pop() for row in a_rows], a_rows, c, 0, D)
    return StandardLP(A0, b, c, D)


def serialize_lp(lp: StandardLP) -> str:
    """Canonical text form: single spaces, newline-terminated lines.

    Grammar ('#' starts a comment; a line ends at ``\\n``, ``\\r\\n`` or
    ``\\r``, and any other whitespace separates tokens):
      line 1        : ``lp v1``
      line 2        : ``<m> <n>``
      line 3        : n rationals -- the objective c
      lines 4..3+m  : n+1 rationals -- row i of A0, then b_i
    """
    D = lp.D
    out = ["lp v1", f"{lp.m} {lp.n}", " ".join([format_rational(x, D) for x in lp.c_num])]
    for row, b_i in zip(lp.A0_num, lp.b_num):
        out.append(" ".join([format_rational(x, D) for x in (*row, b_i)]))
    return "\n".join(out) + "\n"


def dual_lp(lp: StandardLP) -> StandardLP:
    """The dual, itself in max form: maximize -b.y s.t. -A0^T y <= -c, y >= 0.

    The same numerators over the same D, transposed and negated.
    """
    return StandardLP(
        A0_num=tuple(tuple([-x for x in col]) for col in zip(*lp.A0_num)),
        b_num=tuple([-x for x in lp.c_num]),
        c_num=tuple([-x for x in lp.b_num]),
        D=lp.D,
    )
