"""Reference implementations for the library's integer and pivot-only paths (test-only).

Everything here works on plain lists of ``Fraction``; the library keeps no
``Fraction`` view of an instance and no matrix arithmetic.
``lp_fractions`` reads an instance's A0, b and c as ``Fraction`` rows.
``dot`` and ``mul_vec`` are the vector algebra of the tests' orthogonality
statements.
``format_dictionary_by_fractions`` is the dictionary printer over
``Fraction`` entries that ``dictlp.render.format_dictionary``, which prints
from the integer numerators, is checked against, and
``trace_lines_by_fractions`` prints a whole trace with it.

``fraction_pivot_update`` is the dictionary pivot over ``Fraction`` entries,
the kernel the library ran before it held dictionaries as integers over one
denominator; the fraction-free kernel (``dictlp._kernels.pivot_update``) is
checked against it step by step. ``det_form_pivot_update`` is the
determinant-form pivot by its dense formula, which the kernel's unit pivots
(|a| = D), computed only where the pivot row is nonzero, must equal. ``rref`` is row reduction to reduced
echelon form; the library itself eliminates only by dictionary pivots.
``dictionary_by_elimination`` builds a dictionary without a pivot, by one
reduction of [A_B | b | A_N]; ``dictionary_from_basis`` is checked against it.
``priced_by_fractions`` is the repricing of a dictionary under a new
objective over ``Fraction`` entries; ``dictlp.simplex._priced``, which
prices in integers over the dictionary's denominator, is checked against it.
``pick``, ``ratio_test`` and ``as_primal`` are the simplex loop's pivot
choice by candidate list and by negated copies of the dual side, and
``simplex_by_reference`` runs that loop with the public ``pivot``;
``dictlp.simplex._simplex``, which reads the dual side through a sign in
one pass per choice, must make the same pivots.
``cycle_guard_keeping_every_basis`` is the reference loop's cycle guard,
which remembers every basis; the library's forgets the bases before each
nondegenerate pivot and must switch to Bland's rule at the same pivot.
``rank``, ``rowspace_contains`` and ``rowspace_equal`` are the exact rank
tests, on plain rows, that the substitution test ``dictlp.duality._spans``
is checked against. All of them reduce with ``rref``. ``verify_bases``
applies ``_spans`` to the root and below a failed parent, and checks every
other basis against its parent edge (``dictlp.duality._spans_parent``),
which is checked against ``_spans``.

The paper's orthogonal-subspace statements are checked on matrices built
here: ``build_R`` is the combined-system matrix R of an instance, built
from its numerators, and ``dictionary_matrix`` that of a dictionary (the
``Fraction`` form of ``dictlp.duality._scaled_rows``). ``in_kernel`` is
membership in R's kernel; ``kernel_embedding`` and ``rowspace_embedding``
lift a dictionary's ``basic_solution`` into the kernel and the row space.
``canonical`` sorts a dictionary's rows and columns by variable, so that
dictionaries that differ only in order compare equal. ``enumerate_bases``
lists the bases that ``dictlp.duality.walk_bases`` reaches from the slack
dictionary, with the dual LP's dictionary in lockstep, sorted; ``verify``
walks them without listing them.

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

from dictlp.dictionary import Dictionary, NotABasisError, _arrange, initial_dictionary, negative_transpose, pivot
from dictlp.duality import dual_dictionary_direct, walk_bases
from dictlp.model import StandardLP
from dictlp.simplex import PivotRule, SolveTrace


def dot(a, b) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def mul_vec(rows: list[list[Fraction]], v) -> tuple[Fraction, ...]:
    """The matrix-vector product rows . v."""
    return tuple(dot(row, v) for row in rows)


def lp_fractions(lp: StandardLP) -> tuple[list[list[Fraction]], tuple[Fraction, ...], tuple[Fraction, ...]]:
    """A0 (as a list of rows), b and c of ``lp``: its numerators over D as ``Fraction``."""
    D = lp.D
    return (
        [[Fraction(x, D) for x in row] for row in lp.A0_num],
        tuple(Fraction(x, D) for x in lp.b_num),
        tuple(Fraction(x, D) for x in lp.c_num),
    )


def build_R(lp: StandardLP) -> list[list[Fraction]]:
    """R, the combined-system matrix: rows [0 | A0 | I | -b] over [1 | -c | 0 | 0].

    Columns are labeled 0, 1..m+n, m+n+1: the objective coordinate, the
    augmented variables, and the homogenizing coordinate.
    """
    _, b, c = lp_fractions(lp)
    rows = [[Fraction(0), *row, -b_i] for row, b_i in zip(augmented_rows(lp), b)]
    return rows + [[Fraction(1), *(-x for x in c), *[Fraction(0)] * (lp.m + 1)]]


def dictionary_matrix(d: Dictionary) -> list[list[Fraction]]:
    """The dictionary as a combined-system matrix, columns labeled like R's.

    Row i reads 0 in column 0, Q[i][j] under the nonbasic variable N_j, 1
    under its own basic variable B_i and 0 under the others, and -p_i last;
    the objective row reads 1, -q under N, 0 under B, and -z*. Its row space
    equals the row space of R.
    """
    width = d.m + d.n + 2
    rows = []
    for v, p_i, Q_i in zip(d.basis, d.p, d.Q.row_lists()):
        row = [Fraction(0)] * width
        for w, x in zip(d.nonbasis, Q_i):
            row[w] = x
        row[v] = Fraction(1)
        row[-1] = -p_i
        rows.append(row)
    last = [Fraction(0)] * width
    last[0] = Fraction(1)
    for w, x in zip(d.nonbasis, d.q):
        last[w] = -x
    last[-1] = -d.z_star
    return rows + [last]


def in_kernel(rows: list[list[Fraction]], xbar) -> bool:
    """True iff rows . xbar = 0 exactly."""
    if len(xbar) != len(rows[0]):
        raise ValueError(f"dimension mismatch: {len(rows[0])} vs {len(xbar)}")
    return all(x == 0 for x in mul_vec(rows, xbar))


def basic_solution(d: Dictionary) -> tuple[Fraction, ...]:
    """The point with nonbasic variables at zero, as a full length-(m+n) vector."""
    values = [Fraction(0)] * (d.m + d.n)
    for v, x in zip(d.basis, d.p):
        values[v - 1] = x
    return tuple(values)


def kernel_embedding(d: Dictionary) -> tuple[Fraction, ...]:
    """Basic solution lifted to the combined system: [z*, x, 1]."""
    return (d.z_star, *basic_solution(d), Fraction(1))


def rowspace_embedding(d: Dictionary) -> tuple[Fraction, ...]:
    """Dual basic solution lifted to the combined system: [1, y, objective].

    The last coordinate is the dual dictionary's constant, i.e. the max-form
    dual objective value -w at its basic solution.
    """
    return (Fraction(1), *basic_solution(d), d.z_star)


def canonical(d: Dictionary) -> Dictionary:
    """Equivalent dictionary with basis and nonbasis sorted ascending.

    Strict dataclass equality is order-sensitive; theorem checks compare
    canonical forms instead.
    """
    return _arrange(d, tuple(sorted(d.basis)), tuple(sorted(d.nonbasis)))


def enumerate_bases(lp: StandardLP) -> list[tuple[int, ...]]:
    """All bases of ``lp``, ascending within and across: those the walk reaches from the slack dictionary."""
    walk = walk_bases(initial_dictionary(lp), dual_dictionary_direct(lp))
    return sorted(tuple(sorted(d.basis)) for d, _, _ in walk)


def format_dictionary_by_fractions(d: Dictionary) -> str:
    """``dictlp.render.format_dictionary`` computed on the ``Fraction`` views."""
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
    """``dictlp.render._solver_trace_lines``: every dictionary, and its built negative transpose, printed on its own."""
    lines: list[str] = []
    for k, phase in enumerate(trace.phases):
        if k > 0:
            lines.append("")
        if len(trace.phases) > 1:
            lines.append(f"== {phase.name} ==")
        for step in (None, *phase.steps):
            d = phase.start if step is None else step.dictionary
            # Each pivot line names the variables of the dictionary printed below it.
            x, y = ("x", "y") if d.side == "primal" else ("y", "x")
            if step is not None:
                lines += ["", f"pivot: enter {x}{step.enter}, leave {x}{step.leave}"]
            lines += format_dictionary_by_fractions(d).split("\n")
            if dual_view:
                lines += ["", "dual:"]
                if step is not None:
                    lines.append(f"pivot: enter {y}{step.leave}, leave {y}{step.enter}")
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


def det_form_pivot_update(
    p: tuple[int, ...], Q: tuple[tuple[int, ...], ...], q: tuple[int, ...], z: int, D: int, r: int, s: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...], int, int]:
    """The determinant-form pivot by its dense formula (Edmonds 1967; Bareiss 1968), every entry computed.

    On the rows (p_i, Q_i) and the objective row (z, -q), with a = Q[r][s]:
    row r stays with D at the pivot, every other row reads ``(x*a -
    f*y) // D`` with f its pivot-column entry and y row r's entry, and -f in
    the pivot column; the new denominator is |a|, and when a < 0 everything
    is negated so that it stays positive.
    """
    a = Q[r][s]
    sign = 1 if a > 0 else -1
    rows = [[p_i, *Q_i] for p_i, Q_i in zip(p, Q)] + [[z, *[-x for x in q]]]
    lead = rows[r]
    out = []
    for i, row in enumerate(rows):
        f = row[s + 1]
        if i == r:
            new = list(row)
            new[s + 1] = D
        else:
            new = [(x * a - f * y) // D for x, y in zip(row, lead)]
            new[s + 1] = -f
        out.append(tuple(sign * x for x in new))
    *body, objective = out
    return (
        tuple(row[0] for row in body),
        tuple(row[1:] for row in body),
        tuple(-x for x in objective[1:]),
        objective[0],
        abs(a),
    )


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


def rank(rows: list[list[Fraction]]) -> int:
    return rref(rows)[1]


def augmented_rows(lp: StandardLP) -> list[list[Fraction]]:
    """The rows of A = [A0 I]: the decision columns, then one slack per row."""
    return [
        row + [Fraction(1) if k == i else Fraction(0) for k in range(lp.m)]
        for i, row in enumerate(lp_fractions(lp)[0])
    ]


def rowspace_contains(rows: list[list[Fraction]], v) -> bool:
    """True iff v is a linear combination of ``rows`` (exact rank test)."""
    if len(v) != len(rows[0]):
        raise ValueError(f"dimension mismatch: {len(rows[0])} vs {len(v)}")
    return rank(rows) == rank([*rows, list(v)])


def rowspace_equal(rows1: list[list[Fraction]], rows2: list[list[Fraction]]) -> bool:
    """True iff the two matrices, given as rows, span the same row space."""
    if len(rows1[0]) != len(rows2[0]):
        raise ValueError(f"column-count mismatch: {len(rows1[0])} vs {len(rows2[0])}")
    return rank(rows1) == rank(rows2) == rank([*rows1, *rows2])


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

    _, b, c = lp_fractions(lp)
    rows = []
    for a_row, b_i in zip(augmented_rows(lp), b):
        row = [a_row[v - 1] for v in B]
        row.append(b_i)
        row.extend(a_row[v - 1] for v in N)
        rows.append(row)
    reduced, rnk, pivot_cols = rref(rows)
    if rnk != m or tuple(pivot_cols) != tuple(range(m)):
        raise NotABasisError(f"columns of basis {B} are linearly dependent")

    p = tuple(row[m] for row in reduced)
    Q = [row[m + 1 :] for row in reduced]
    c_ext = list(c) + [Fraction(0)] * m
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


def pick(labels: tuple[int, ...], values, rule: PivotRule) -> int | None:
    """Label of a positive value, or None when no value is positive.

    Bland: the smallest such label. Dantzig: the largest value, smallest
    label on ties.
    """
    candidates = [(v, x) for v, x in zip(labels, values) if x > 0]
    if not candidates:
        return None
    if rule is PivotRule.BLAND:
        return min(v for v, _ in candidates)
    best = max(x for _, x in candidates)
    return min(v for v, x in candidates if x == best)


def ratio_test(labels: tuple[int, ...], consts, coefs) -> int | None:
    """Label minimizing const / coef over coef > 0, smallest label on ties.

    None when no coefficient is positive. Ratios compare by cross-multiplying.
    """
    best = None
    best_const, best_coef = 0, 1
    for v, const, coef in zip(labels, consts, coefs):
        if coef > 0:
            lhs, rhs = const * best_coef, best_const * coef
            if best is None or lhs < rhs or (lhs == rhs and v < best):
                best, best_const, best_coef = v, const, coef
    return best


def as_primal(d: Dictionary, dual: bool):
    """The dictionary the primal method reads: ``d``, or with ``dual`` its negative transpose.

    Returns the nonbasic labels, the objective row, the basic labels, the
    constants and the column under a nonbasic position. The negative
    transpose is built from negated copies: nonbasic ``d.basis`` with
    objective -p, basic ``d.nonbasis`` with constants -q, and column r is
    -Q[r].
    """
    if dual:
        return (
            d.basis, [-x for x in d.p_num], d.nonbasis, [-x for x in d.q_num],
            lambda r: [-x for x in d.Q_num[r]],
        )  # fmt: skip
    return d.nonbasis, d.q_num, d.basis, d.p_num, lambda s: [row[s] for row in d.Q_num]


def cycle_guard_keeping_every_basis(d: Dictionary, rule: PivotRule, visited: set[frozenset[int]]) -> PivotRule:
    """The rule for the next pivot: Bland from the first repeated basis on, ``visited`` never cleared.

    ``dictlp.simplex._cycle_guard`` forgets the bases before each
    nondegenerate pivot; a loop run with this guard on a set of its own
    must switch at the same pivot.
    """
    if frozenset(d.basis) in visited:
        return PivotRule.BLAND
    visited.add(frozenset(d.basis))
    return rule


def simplex_by_reference(d: Dictionary, rule: PivotRule, dual: bool) -> tuple[list[tuple[int, int]], int | None]:
    """The (enter, leave) pivots and the signal of ``dictlp.simplex._simplex``, chosen by ``pick`` and ``ratio_test``.

    Bland's rule from the first repeated basis on, as the library's loop
    does, with every visited basis kept (``cycle_guard_keeping_every_basis``).
    """
    pivots: list[tuple[int, int]] = []
    visited: set[frozenset[int]] = set()
    while True:
        if rule is PivotRule.DANTZIG:
            rule = cycle_guard_keeping_every_basis(d, rule, visited)
        nonbasis, objective, basis, constants, column = as_primal(d, dual)
        enter = pick(nonbasis, objective, rule)
        if enter is None:
            return pivots, None
        leave = ratio_test(basis, constants, column(nonbasis.index(enter)))
        if leave is None:
            return pivots, enter
        if dual:
            enter, leave = leave, enter
        pivots.append((enter, leave))
        d = pivot(d, enter, leave)


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
