"""The fraction-free pivot kernel over integers and one common denominator.

The hot loop of the package and its only elimination: the dictionary pivot
(``pivot_update``), behind every dictionary after the slack one. A
dictionary is held as integer numerators over one positive common
denominator D, so entry values are p/D, Q/D, q/D and z/D. Inputs are
sequences (of sequences) of ``int`` and are never mutated; results are
tuples. A row that a pivot leaves as it is comes back as the input's own
row, so rows are passed as tuples, the form ``Dictionary`` holds.
The kernel pivots in one of two forms, chosen by where the chain of pivots
started:

* Determinant form, for chains that start at D = 1 (integer data), after
  Edmonds (1967) and Bareiss (1968). D is |det| of the current basis
  columns in the start's system, and every numerator is a minor of that
  system, so the division by the old D is exact and no gcd is taken. The
  numerators need not be in lowest terms. A unit pivot, |a| = D, keeps
  the determinant, so it changes only the rows with a nonzero in the pivot
  column, and in them only the columns where the pivot row is nonzero
  (``_unit_pivot``); every other entry and row is carried over. Totally
  unimodular data (network flows, assignment) and the Klee-Minty cubes
  pivot only this way.
* Reduced form, for chains that start at D > 1 (fractional data). The
  numerators are divided by the gcd of D and all of them (``reduced``), so
  D is the lcm of the entries' denominators and a value has one
  representation.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

Row = tuple[int, ...]


def pivot_update(
    p: Sequence[int],
    Q: Sequence[Sequence[int]],
    q: Sequence[int],
    z: int,
    D: int,
    r: int,
    s: int,
    det_form: bool,
) -> tuple[Row, tuple[Row, ...], Row, int, int]:
    """One dictionary pivot on the numerators of ``x_B = p - Q x_N``, ``z = z + q.x_N``.

    Solves row ``r`` for the entering variable at nonbasic position ``s``
    and substitutes it into every other row and the objective. Position
    ``s`` of the new nonbasis holds the leaving variable. With ``a =
    Q[r][s]`` (nonzero), every row i other than r reads ``T[i][j]*a -
    T[i][s]*T[r][j]`` over ``D*a``; the objective row is the row (z, -q).

    ``det_form`` (a chain that started at D = 1): those numerators divided
    exactly by the old D, over the new denominator ``|a|``. The pivot row
    stays as it is with D at the pivot, the pivot column reads ``-T[i][s]``,
    and all of it is negated when a < 0. At ``|a| = D`` an entry reads
    ``T[i][j] - T[i][s]*T[r][j] // D``, so it is computed only where
    ``T[i][s]`` and ``T[r][j]`` are both nonzero, and a row with
    ``T[i][s] = 0`` is returned as the same tuple. Otherwise the pivot row
    is scaled by D with D*D at the pivot, the pivot column reads
    ``-T[i][s]*D``, and the result is ``reduced``.
    """
    if det_form:
        return _det_pivot(p, Q, q, z, D, r, s)
    a = Q[r][s]
    lead = Q[r]
    p_r = p[r]
    new_p = []
    new_Q = []
    for i, row in enumerate(Q):
        f = row[s]
        if i == r:
            new_row = [x * D for x in row]
            new_row[s] = D * D
            new_p.append(p_r * D)
        else:
            new_row = [x * a - f * y for x, y in zip(row, lead)]
            new_row[s] = -f * D
            new_p.append(p[i] * a - f * p_r)
        new_Q.append(new_row)
    g = q[s]
    new_q = [x * a - g * y for x, y in zip(q, lead)]
    new_q[s] = -g * D
    return reduced(new_p, new_Q, new_q, z * a + g * p_r, D * a)


def _det_pivot(
    p: Sequence[int],
    Q: Sequence[Sequence[int]],
    q: Sequence[int],
    z: int,
    D: int,
    r: int,
    s: int,
) -> tuple[Row, tuple[Row, ...], Row, int, int]:
    """``pivot_update`` in determinant form, its new denominator ``|a|``."""
    a = Q[r][s]
    lead = Q[r]
    p_r = p[r]
    # With a < 0 every result is negated to keep the denominator positive:
    # A = |a| stands for a, sign * f for each row's pivot-column entry f,
    # and the pivot row is negated.
    sign = 1 if a > 0 else -1
    A = a * sign
    if A == D:
        return _unit_pivot(p, Q, q, z, D, r, s, sign)
    new_p = []
    new_Q = []
    for i, row in enumerate(Q):
        f = row[s] * sign
        if i == r:
            new_row = list(row) if sign > 0 else [-x for x in row]
            new_row[s] = D * sign
            new_p.append(p_r * sign)
            new_Q.append(tuple(new_row))
        else:
            new_row = [(x * A - f * y) // D for x, y in zip(row, lead)]
            new_row[s] = -f
            new_p.append((p[i] * A - f * p_r) // D)
            new_Q.append(tuple(new_row))
    g = q[s] * sign
    new_q = [(x * A - g * y) // D for x, y in zip(q, lead)]
    new_q[s] = -g
    return tuple(new_p), tuple(new_Q), tuple(new_q), (z * A + g * p_r) // D, A


def _unit_pivot(
    p: Sequence[int],
    Q: Sequence[Sequence[int]],
    q: Sequence[int],
    z: int,
    D: int,
    r: int,
    s: int,
    sign: int,
) -> tuple[Row, tuple[Row, ...], Row, int, int]:
    """``_det_pivot`` at ``|a| = D``, where D stays: only the entries that change are computed.

    An entry off the pivot row and column reads ``(x*D - f*y) // D = x -
    f*y // D``, exact because D divides f*y. So it changes only where its
    row's pivot-column entry f and the pivot row's entry y are both nonzero:
    a row with f = 0 is carried over as the same tuple, and a row with f != 0
    is updated at the pivot row's nonzeros only.
    """
    lead = Q[r]
    p_r = p[r]
    support = [(j, y) for j, y in enumerate(lead) if y and j != s]
    new_p = list(p)
    new_Q = list(Q)
    for i, row in enumerate(Q):
        f = row[s] * sign
        if f and i != r:
            new_row = list(row)
            for j, y in support:
                new_row[j] -= f * y // D
            new_row[s] = -f
            new_Q[i] = tuple(new_row)
            new_p[i] -= f * p_r // D
    # The pivot row stays, negated when a < 0; either way a stays at the pivot.
    if sign < 0:
        new_row = [-x for x in lead]
        new_row[s] = -D
        new_Q[r] = tuple(new_row)
        new_p[r] = -p_r
    g = q[s] * sign
    new_q = list(q)
    for j, y in support:
        new_q[j] -= g * y // D
    new_q[s] = -g
    return tuple(new_p), tuple(new_Q), tuple(new_q), z + g * p_r // D, D


def reduced(
    p: Sequence[int], Q: Sequence[Sequence[int]], q: Sequence[int], z: int, D: int
) -> tuple[Row, tuple[Row, ...], Row, int, int]:
    """Everything divided by the gcd of D and all numerators, with D made positive."""
    g = gcd(D, z, *p, *q)
    for row in Q:
        if g == 1:
            break
        g = gcd(g, *row)
    if D < 0:
        g = -g
    if g == 1:
        return tuple(p), tuple(map(tuple, Q)), tuple(q), z, D
    return (
        tuple([x // g for x in p]),
        tuple([tuple([x // g for x in row]) for row in Q]),
        tuple([x // g for x in q]),
        z // g,
        D // g,
    )
