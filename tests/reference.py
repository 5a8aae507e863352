"""Reference implementations for the library's integer and pivot-only paths (test-only).

``dot`` and ``mul_vec`` are the vector algebra of the tests' orthogonality
statements; the library's tuples and ``QMatrix`` views carry none.
``format_dictionary_by_fractions`` is the dictionary printer over
``Fraction`` entries that ``dictlp.cli.format_dictionary``, which prints
from the integer numerators, is checked against, and
``trace_lines_by_fractions`` prints a whole trace with it.

``fraction_pivot_update`` is the dictionary pivot over ``Fraction`` entries,
the kernel the library ran before it held dictionaries as integers over one
denominator; the fraction-free kernel (``dictlp._kernels.pivot_update``) is
checked against it step by step. ``rref`` is row reduction to reduced
echelon form; the library itself eliminates only by dictionary pivots.
``dictionary_by_elimination`` builds a dictionary without a pivot, by one
reduction of [A_B | b | A_N]; ``dictionary_from_basis`` is checked against it.
``priced_by_fractions`` is the repricing of a dictionary under a new
objective over ``Fraction`` entries; ``dictlp.simplex._priced``, which
prices in integers over the dictionary's denominator, is checked against it.
``rank``, ``rowspace_contains`` and ``rowspace_equal`` are the exact rank
tests that the substitution test ``spans_rowspace_of`` is checked against.
All of them reduce with ``rref``.

A chain of pivots from an integer start keeps its dictionaries in
determinant form, whose numerators need not be in lowest terms.
``by_value`` is the one normaliser through which tests compare such a
dictionary with one built from rationals; ``in_lowest_terms`` is the form
every other dictionary keeps. ``basis_determinant`` of ``system_rows``
gives the D that a determinant-form dictionary must carry.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd

from dictlp.dictionary import Dictionary, NotABasisError, negative_transpose
from dictlp.exact import QMatrix
from dictlp.model import StandardLP
from dictlp.simplex import SolveTrace


def dot(a, b) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def mul_vec(m: QMatrix, v) -> tuple[Fraction, ...]:
    """The matrix-vector product m . v."""
    return tuple(dot(row, v) for row in m.row_lists())


def format_dictionary_by_fractions(d: Dictionary) -> str:
    """``dictlp.cli.format_dictionary`` computed on the ``Fraction`` views."""
    var = "x" if d.side == "primal" else "y"
    names = [f"{var}{w}" for w in d.nonbasis]
    lines = []
    for v, p_r, row in zip(d.basis, d.p, d.Q.row_lists()):
        terms = [(-x, name) for x, name in zip(row, names)]
        lines.append(f"{var}{v} = " + _affine(p_r, terms, always_constant=True))
    label = "z" if d.side == "primal" else "-w"
    lines.append(f"{label} = " + _affine(d.z_star, list(zip(d.q, names)), always_constant=False))
    return "\n".join(lines)


def trace_lines_by_fractions(trace: SolveTrace, dual_view: bool) -> list[str]:
    """``dictlp.cli._solver_trace_lines``: every dictionary, and its built negative transpose, printed on its own."""
    lines: list[str] = []
    for k, phase in enumerate(trace.phases):
        if k > 0:
            lines.append("")
        if len(trace.phases) > 1:
            lines.append(f"== {phase.name} ==")
        for step in (None, *phase.steps):
            d = phase.start if step is None else step.dictionary
            if step is not None:
                lines += ["", f"pivot: enter x{step.enter}, leave x{step.leave}"]
            lines += format_dictionary_by_fractions(d).split("\n")
            if dual_view:
                lines += ["", "dual:"]
                if step is not None:
                    lines.append(f"pivot: enter y{step.leave}, leave y{step.enter}")
                lines += format_dictionary_by_fractions(negative_transpose(d)).split("\n")
    return lines


def _affine(constant: Fraction, terms: list[tuple[Fraction, str]], always_constant: bool) -> str:
    nonzero = [(coef, name) for coef, name in terms if coef != 0]
    parts: list[str] = []
    if always_constant or constant != 0 or not nonzero:
        parts.append(str(constant))
    for coef, name in nonzero:
        mag = abs(coef)
        body = name if mag == 1 else f"{mag}{name}"
        if not parts:
            parts.append(f"-{body}" if coef < 0 else body)
        else:
            parts.append(f"- {body}" if coef < 0 else f"+ {body}")
    return " ".join(parts)


def fraction_pivot_update(
    p: list[Fraction],
    Q: list[list[Fraction]],
    q: list[Fraction],
    z: Fraction,
    r: int,
    s: int,
) -> tuple[list[Fraction], list[list[Fraction]], list[Fraction], Fraction]:
    """One dictionary pivot by row substitution.

    Solves row ``r`` of ``x_B = p - Q x_N`` for the entering variable at
    nonbasic position ``s`` and substitutes into every other row and the
    objective. Position ``s`` of the new nonbasis holds the leaving variable.
    Requires ``Q[r][s] != 0``.
    """
    n = len(q)
    inv = 1 / Q[r][s]
    lead = [x * inv for x in Q[r]]
    lead[s] = inv
    p_r = p[r] * inv

    new_p: list[Fraction] = []
    new_Q: list[list[Fraction]] = []
    for i, row in enumerate(Q):
        if i == r:
            new_p.append(p_r)
            new_Q.append(lead)
            continue
        f = row[s]
        if f == 0:
            new_p.append(p[i])
            new_Q.append(list(row))
            continue
        new_row = [row[j] - f * lead[j] for j in range(n)]
        new_row[s] = -f * inv
        new_p.append(p[i] - f * p_r)
        new_Q.append(new_row)

    g = q[s]
    if g == 0:
        new_q = list(q)
        new_z = z
    else:
        new_q = [q[j] - g * lead[j] for j in range(n)]
        new_q[s] = -g * inv
        new_z = z + g * p_r
    return new_p, new_Q, new_q, new_z


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], int, list[int]]:
    """Reduced row echelon form of a dense rational matrix.

    Returns ``(reduced_rows, rank, pivot_columns)``. The pivot in each column
    is the first row with a nonzero entry; exact arithmetic needs no
    magnitude-based pivoting.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        lead = m[r]
        for i in range(nrows):
            if i == r:
                continue
            f = m[i][c]
            if f != 0:
                m[i] = [a - f * b for a, b in zip(m[i], lead)]
        pivot_cols.append(c)
        r += 1
    return m, r, pivot_cols


def rank(m: QMatrix) -> int:
    return rref(m.row_lists())[1]


def augmented_rows(lp: StandardLP) -> list[list[Fraction]]:
    """The rows of A = [A0 I]: the decision columns, then one slack per row."""
    return [
        list(row) + [Fraction(1) if k == i else Fraction(0) for k in range(lp.m)]
        for i, row in enumerate(lp.A0.row_lists())
    ]


def rowspace_contains(m: QMatrix, v) -> bool:
    """True iff v is a linear combination of the rows of m (exact rank test)."""
    if len(v) != m.cols:
        raise ValueError(f"dimension mismatch: {m.cols} vs {len(v)}")
    return rank(m) == rank(QMatrix(m.row_lists() + [list(v)]))


def rowspace_equal(m1: QMatrix, m2: QMatrix) -> bool:
    """True iff the two matrices span the same row space."""
    if m1.cols != m2.cols:
        raise ValueError(f"column-count mismatch: {m1.cols} vs {m2.cols}")
    r1 = rank(m1)
    r2 = rank(m2)
    return r1 == r2 == rank(QMatrix(m1.row_lists() + m2.row_lists()))


def dictionary_by_elimination(lp: StandardLP, basis: tuple[int, ...] | list[int]) -> Dictionary:
    """The dictionary for an ordered basis by exact elimination.

    Solves [A_B | b | A_N] in one reduction: p = A_B^{-1} b, Q = A_B^{-1} A_N,
    then q = c_N - Q^T c_B and z* = c_B . p. Raises ``NotABasisError`` when
    the basis columns are dependent.
    """
    m, total = lp.m, lp.m + lp.n
    B = tuple(basis)
    if len(B) != m:
        raise NotABasisError(f"basis must have {m} indices, got {len(B)}")
    if len(set(B)) != m or any(not 1 <= v <= total for v in B):
        raise NotABasisError(f"basis must be distinct indices in 1..{total}: {B}")
    N = tuple(v for v in range(1, total + 1) if v not in set(B))

    rows = []
    for a_row, b_i in zip(augmented_rows(lp), lp.b):
        row = [a_row[v - 1] for v in B]
        row.append(b_i)
        row.extend(a_row[v - 1] for v in N)
        rows.append(row)
    reduced, rnk, pivot_cols = rref(rows)
    if rnk != m or tuple(pivot_cols) != tuple(range(m)):
        raise NotABasisError(f"columns of basis {B} are linearly dependent")

    p = tuple(row[m] for row in reduced)
    Q = [row[m + 1 :] for row in reduced]
    c_ext = list(lp.c) + [Fraction(0)] * m
    c_B = [c_ext[v - 1] for v in B]
    q = tuple(
        c_ext[N[j] - 1] - sum((c_B[i] * Q[i][j] for i in range(m)), Fraction(0))
        for j in range(len(N))
    )
    z_star = sum((cb * pi for cb, pi in zip(c_B, p)), Fraction(0))
    return Dictionary.from_fractions(side="primal", basis=B, nonbasis=N, p=p, Q=Q, q=q, z_star=z_star)


def priced_by_fractions(d: Dictionary, costs) -> Dictionary:
    """``d`` under the objective costs . x, slacks costing 0, its columns sorted ascending.

    q = c_N - Q^T c_B and z* = c_B . p over ``Fraction`` entries, with the
    rows, p and the basis of ``d`` as they are.
    """
    c_ext = list(costs) + [Fraction(0)] * d.m
    c_B = [c_ext[v - 1] for v in d.basis]
    order = sorted(range(d.n), key=lambda j: d.nonbasis[j])
    rows = d.Q.row_lists()
    columns = [[row[j] for row in rows] for j in order]
    q = [c_ext[d.nonbasis[j] - 1] - dot(c_B, col) for j, col in zip(order, columns)]
    Q = [[row[j] for j in order] for row in rows]
    nonbasis = tuple(d.nonbasis[j] for j in order)
    return Dictionary.from_fractions(d.side, d.basis, nonbasis, d.p, Q, q, dot(c_B, d.p))


def by_value(d: Dictionary) -> Dictionary:
    """``d`` in lowest terms when it is in determinant form; ``d`` itself otherwise.

    Built from the ``Fraction`` views, so it shares no code with the
    library's reduction. A dictionary in reduced form is returned as it is,
    so comparing it still checks that its numerators are reduced.
    """
    if not d.det_form:
        return d
    return Dictionary.from_fractions(d.side, d.basis, d.nonbasis, d.p, d.Q.row_lists(), d.q, d.z_star)


def in_lowest_terms(d: Dictionary) -> bool:
    """Whether D > 0 and no integer > 1 divides D and every numerator."""
    return d.D > 0 and gcd(d.D, d.z_num, *d.p_num, *d.q_num, *chain(*d.Q_num)) == 1


def system_rows(d: Dictionary) -> list[list[Fraction]]:
    """The equations x_B + Q x_N = p of ``d`` as rows over the variables 1..m+n, p left out."""
    rows = []
    for v, Q_i in zip(d.basis, d.Q.row_lists()):
        row = [Fraction(0)] * (d.m + d.n)
        row[v - 1] = Fraction(1)
        for w, x in zip(d.nonbasis, Q_i):
            row[w - 1] = x
        rows.append(row)
    return rows


def basis_determinant(rows: list[list[Fraction]], basis) -> Fraction:
    """|det| of the columns of ``rows`` at the 1-based variables of ``basis``, by elimination."""
    m = [[row[v - 1] for v in basis] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pr = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        m[c], m[pr] = m[pr], m[c]
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return abs(det)
