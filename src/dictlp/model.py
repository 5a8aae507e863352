"""LP problem representation, duals, and the file format.

Instances are max-form: maximize ``c . x`` subject to ``A0 x <= b`` and
``x >= 0``. Variable indices are 1-based everywhere in the public API:
``x1..xn`` are decision variables and ``x(n+1)..x(n+m)`` the slacks, so the
augmented constraint matrix is A = [A0 I]. A is never stored: the slack
dictionary reads A0 and b as they are, and every other dictionary is
pivoted from it. The dual (``dual_lp``) is materialized as another max-form
instance so every dictionary operation applies uniformly to both sides. Its
columns are numbered like any instance's, decisions first; the y-index names
that pair them with the primal variables are applied only where a dual
dictionary is built (``duality.dual_dictionary_direct``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from dictlp.exact import QMatrix, QVector, parse_rational

# ASCII digits only: int() would also take other scripts' digits, '_' and '+'.
_DIMENSION_RE = re.compile(r"[0-9]+")


class ParseError(ValueError):
    """LP file rejected; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class StandardLP:
    """Max-form instance: maximize c.x subject to A0 x <= b, x >= 0."""

    A0: QMatrix
    b: QVector
    c: QVector

    def __post_init__(self):
        if len(self.b) != self.A0.rows:
            raise ValueError("b length must match constraint count")
        if len(self.c) != self.A0.cols:
            raise ValueError("c length must match decision-variable count")

    @property
    def m(self) -> int:
        return self.A0.rows

    @property
    def n(self) -> int:
        return self.A0.cols


def parse_lp(text: str) -> StandardLP:
    """Parse the LP file format (see ``serialize_lp`` for the grammar).

    One leading byte-order mark (U+FEFF) is ignored.
    """
    text = text.removeprefix("\ufeff")
    lines: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped.split()))

    if not lines:
        raise ParseError(1, "empty input")
    if lines[0][1] != ["lp", "v1"]:
        raise ParseError(lines[0][0], "expected header 'lp v1'")
    if len(lines) < 2:
        raise ParseError(lines[0][0] + 1, "missing dimension line")

    dim_line, dim_tokens = lines[1]
    if len(dim_tokens) != 2:
        raise ParseError(dim_line, "dimension line must be '<m> <n>'")
    if not all(_DIMENSION_RE.fullmatch(tok) for tok in dim_tokens):
        raise ParseError(dim_line, "dimensions must be decimal integers")
    m, n = int(dim_tokens[0]), int(dim_tokens[1])
    if m < 1 or n < 1:
        raise ParseError(dim_line, f"dimensions must be at least 1, got m={m} n={n}")

    if len(lines) != 3 + m:
        last = lines[-1][0]
        raise ParseError(last, f"expected {3 + m} content lines, found {len(lines)}")

    def parse_row(lineno: int, tokens: list[str], expected: int, what: str) -> list[Fraction]:
        if len(tokens) != expected:
            raise ParseError(lineno, f"{what}: expected {expected} values, found {len(tokens)}")
        out = []
        for tok in tokens:
            try:
                out.append(parse_rational(tok))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(lineno, str(exc)) from None
        return out

    c = parse_row(lines[2][0], lines[2][1], n, "objective row")
    a_rows = []
    b = []
    for i in range(m):
        lineno, tokens = lines[3 + i]
        row = parse_row(lineno, tokens, n + 1, f"constraint row {i + 1}")
        a_rows.append(row[:n])
        b.append(row[n])
    return StandardLP(A0=QMatrix(a_rows), b=QVector(b), c=QVector(c))


def serialize_lp(lp: StandardLP) -> str:
    """Canonical text form: single spaces, newline-terminated lines.

    Grammar ('#' starts a comment):
      line 1        : ``lp v1``
      line 2        : ``<m> <n>``
      line 3        : n rationals -- the objective c
      lines 4..3+m  : n+1 rationals -- row i of A0, then b_i
    """
    out = ["lp v1", f"{lp.m} {lp.n}", " ".join(str(x) for x in lp.c)]
    for i in range(lp.m):
        row = [str(lp.A0.entry(i, j)) for j in range(lp.n)]
        row.append(str(lp.b[i]))
        out.append(" ".join(row))
    return "\n".join(out) + "\n"


def dual_lp(lp: StandardLP) -> StandardLP:
    """The dual, itself in max form: maximize -b.y s.t. -A0^T y <= -c, y >= 0."""
    return StandardLP(A0=-lp.A0.transpose(), b=-lp.c, c=-lp.b)
