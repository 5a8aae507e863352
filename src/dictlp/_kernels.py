"""The elimination kernel over ``fractions.Fraction`` entries.

The hot loop of the package and its only elimination: the dictionary pivot
(``pivot_update``), behind every dictionary after the slack one and behind
the basis test of ``enumerate_bases``. Inputs are plain lists (of lists) of
``Fraction`` and are never mutated.
"""

from __future__ import annotations

from fractions import Fraction


def pivot_update(
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
