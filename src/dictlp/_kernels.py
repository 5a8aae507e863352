"""The fraction-free pivot kernel over integers and one common denominator.

The hot loop of the package and its only elimination: the dictionary pivot
(``pivot_update``), behind every dictionary after the slack one. A
dictionary is held as integer
numerators over one positive common denominator D, so entry values are
p/D, Q/D, q/D and z/D, following Edmonds' and Bareiss' fraction-free
elimination. Results are reduced by the gcd of D and every numerator
(``reduced``), which makes the representation of a value unique: D is the
lcm of the entries' denominators. Inputs are sequences (of sequences) of
``int`` and are never mutated; results are tuples.
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
) -> tuple[Row, tuple[Row, ...], Row, int, int]:
    """One dictionary pivot on the numerators of ``x_B = p - Q x_N``, ``z = z + q.x_N``.

    Solves row ``r`` for the entering variable at nonbasic position ``s``
    and substitutes it into every other row and the objective. Position
    ``s`` of the new nonbasis holds the leaving variable. With ``a = Q[r][s]``
    (nonzero) the new denominator is ``D*a``: the pivot row is scaled by D
    with D*D at the pivot, every other row i reads
    ``T[i][j]*a - T[i][s]*T[r][j]`` and ``-T[i][s]*D`` at column s, and the
    objective row is the row (z, -q). Returns ``reduced`` of the result.
    """
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
        elif f:
            new_row = [x * a - f * y for x, y in zip(row, lead)]
            new_row[s] = -f * D
            new_p.append(p[i] * a - f * p_r)
        else:
            new_row = [x * a for x in row]
            new_p.append(p[i] * a)
        new_Q.append(new_row)
    g = q[s]
    new_q = [x * a - g * y for x, y in zip(q, lead)]
    new_q[s] = -g * D
    return reduced(new_p, new_Q, new_q, z * a + g * p_r, D * a)


def reduced(
    p: list[int], Q: list[list[int]], q: list[int], z: int, D: int
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
