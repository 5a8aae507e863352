"""Dictionaries and solver traces as text, for ``dictlp dict`` and ``dictlp trace``.

A dictionary prints from two signed term tables per denominator
(``_term_tables``), which map a numerator to its whole term in a row
``p - Qx`` and in ``z* + qx``. ``--dual-view`` prints the negative
transpose in the same pass (``_draw``): each drawn cell of Q is read once
and written in both views, each from its own table, so neither a dual
dictionary nor a transposed Q is built. A trace keeps the tables for the
whole trace, keyed by the stored D, so each (numerator, D) pair is
formatted once. A step one pivot from the step before is drawn again only
where that pivot changed it (``_patch``), whatever D stores it: a term's
text depends on its value alone. Any other step, such as a phase's first,
is drawn by the same loop as the patch of every row and column of a blank
view. This module is apart from ``cli`` because a process without cached
bytecode compiles each from source, and the memory of one compile grows
with the module.
"""

from __future__ import annotations

from operator import ne

from dictlp.dictionary import Dictionary
from dictlp.exact import format_rational
from dictlp.simplex import SolveTrace


def format_dictionary(d: Dictionary) -> str:
    """Render a dictionary in the classic display style.

    One line per basic row (``x4 = 18 - 4x1 - 2x2 + 2x3``), then the
    objective line, labeled ``z`` on the primal side and ``-w`` on the dual.
    Magnitude-1 coefficients drop the ``1``; zero coefficients are skipped;
    the objective constant is skipped when zero unless the line would be
    empty.
    """
    return "\n".join(_draw(d, _term_tables({}, d), False, [])[0])


# (minus, plus): numerator -> its term in a row p - Qx, and in z* + qx.
_TermTables = tuple[dict[int, str], dict[int, str]]


def _term_tables(tables: dict[int, _TermTables], d: Dictionary, patch=None) -> _TermTables:
    """The term tables of ``d.D`` in ``tables``, filled for the numerators at ``patch``'s rows and columns.

    ``minus`` maps 3/2 to ``" - 3/2"`` and -3/2 to ``" + 3/2"``, ``plus``
    the other way round; magnitude 1 keeps only the sign (``" - "``), and 0
    maps to ``" + 0"``. Without a patch, every row and column of ``d`` and
    its objective are read. Only numerators new to the tables are
    formatted, over the stored D, which need not be in lowest terms.
    """
    D = d.D
    minus, plus = tables.get(D) or tables.setdefault(D, ({}, {}))
    _, _, rows, cols = patch or (0, 0, range(len(d.p_num)), range(len(d.q_num)))
    numerators = {d.z_num, *[d.p_num[i] for i in rows], *[d.q_num[j] for j in cols]}
    numerators.update([d.Q_num[i][j] for i in rows for j in cols])
    for x in numerators.difference(minus):
        if x > 0:
            text = "" if x == D else format_rational(x, D)
            minus[x], plus[x] = " - " + text, " + " + text
        elif x < 0:
            text = "" if x == -D else format_rational(x, D)[1:]
            minus[x], plus[x] = " + " + text, " - " + text
        else:  # read only as a constant, which prints "0"
            minus[x] = plus[x] = " + 0"
    return minus, plus


def _patch(last: Dictionary | None, d: Dictionary) -> tuple | None:
    """``(r, s, rows, cols)`` when ``d`` is one pivot at (r, s) from ``last``, else None.

    Labels on one side that differ by one swap mean that pivot, in one
    system. Whatever D stores either, it changes values only on ``rows``
    (Q[i][s] != 0) at ``cols`` (Q[r][j] != 0), and keeps the zeros of row r
    and column s.
    """
    if last is None or last.side != d.side:
        return None
    rs = [i for i, x in enumerate(map(ne, last.basis, d.basis)) if x]
    ss = [j for j, x in enumerate(map(ne, last.nonbasis, d.nonbasis)) if x]
    if len(rs) != 1 or len(ss) != 1:
        return None
    (r,), (s,) = rs, ss
    return r, s, [i for i, row in enumerate(d.Q_num) if row[s]], [j for j, x in enumerate(d.Q_num[r]) if x]


def _leading(terms: str) -> str:
    """Signed terms as the start of a line.

    " + 3/2" is "3/2", " - x1 + x2" is "-x1 + x2", and a bare sign is a
    constant of magnitude 1: " + " is "1".
    """
    text = terms[3:] or "1"
    return text if terms[1] == "+" else "-" + text


# By side: the letter and objective label of a dictionary's view, then those of its negative transpose's.
_NAMES = {"primal": ("x", "y", "z", "-w"), "dual": ("y", "x", "-w", "z")}


def _draw(d: Dictionary, tables: _TermTables, dual: bool, view: list, patch=None) -> tuple[list, list | None]:
    """The lines of ``d``, and with ``dual`` those of its negative transpose, from ``tables = _term_tables(..., d)``.

    One pass over the drawn cells writes both: Q[i][j] = a is the term
    ``minus[a]`` under head j of row i, and in the negative transpose (rows
    -q, -Q^T, objective -p, constant -z*, on the swapped partition) the term
    ``plus[a]`` under head i of row j. ``view`` keeps the terms drawn, one
    per entry ("" for a 0), and the lines, the objective last; a row of the
    transpose is kept as a column of ``d``. With the ``view`` of ``last`` and
    ``patch = _patch(last, d)``, only the patch is drawn again; otherwise
    ``view`` is made blank, with every head named, and patched at every row
    and column. Returns the view's lines, and the transpose's or None.
    """
    minus, plus = tables
    Q, basis, nonbasis, p, q, z = d.Q_num, d.basis, d.nonbasis, d.p_num, d.q_num, d.z_num
    x, y, z_label, w_label = _NAMES[d.side]
    if patch and view:
        r, s, rows, cols = patch
        view[0][s] = f"{x}{nonbasis[s]}"
        if dual:  # the transpose's heads
            view[4][r] = f"{y}{basis[r]}"
    else:  # drawn whole: blank views, every head named, patched at every row and column
        m, n = len(basis), len(nonbasis)
        rows, cols = range(m), range(n)
        view[:] = [f"{x}{v}" for v in nonbasis], [[""] * n for _ in rows], [""] * (m + 1), [""] * n
        view += ([f"{y}{v}" for v in basis], [[""] * m for _ in cols], [""] * (n + 1), [""] * m) if dual else [None] * 4
    names, entries, lines, tail, heads, columns, dual_lines, dual_tail = view
    if dual:
        named = [(j, names[j], columns[j]) for j in cols]
        for i in rows:
            row, Q_i, head = entries[i], Q[i], heads[i]
            for j, name, column in named:
                a = Q_i[j]
                if a:
                    row[j], column[i] = minus[a] + name, plus[a] + head
                else:
                    row[j] = column[i] = ""
            dual_tail[i] = minus[p[i]] + head if p[i] else ""
        for j, _, column in named:
            dual_lines[j] = f"{y}{nonbasis[j]} = {_leading(minus[q[j]])}{''.join(column)}"
        text = "".join(dual_tail)
        dual_lines[-1] = f"{w_label} = {_leading(minus[z]) + text if z or not text else _leading(text)}"
    else:
        named = [(j, names[j]) for j in cols]
        for i in rows:
            row, Q_i = entries[i], Q[i]
            for j, name in named:
                a = Q_i[j]
                row[j] = minus[a] + name if a else ""
    for i in rows:
        lines[i] = f"{x}{basis[i]} = {_leading(plus[p[i]])}{''.join(entries[i])}"
    for j in cols:
        tail[j] = plus[q[j]] + names[j] if q[j] else ""
    text = "".join(tail)
    # The constant is skipped when zero, unless the line would be empty.
    lines[-1] = f"{z_label} = {_leading(plus[z]) + text if z or not text else _leading(text)}"
    return lines, dual_lines


def _solver_trace_lines(trace: SolveTrace, dual_view: bool) -> list[str]:
    lines: list[str] = []
    tables: dict[int, _TermTables] = {}  # per D, for the whole trace
    multi = len(trace.phases) > 1
    for k, phase in enumerate(trace.phases):
        if k > 0:
            lines.append("")
        if multi:
            lines.append(f"== {phase.name} ==")
        view = []  # both views' terms and lines, carried from step to step
        last = None
        for step in (None, *phase.steps):
            d = phase.start if step is None else step.dictionary
            patch, last = _patch(last, d), d
            primal, dual = _draw(d, _term_tables(tables, d, patch), dual_view, view, patch)
            x, y, _, _ = _NAMES[d.side]  # each pivot line names its section's variables
            if step is not None:
                lines += ["", f"pivot: enter {x}{step.enter}, leave {x}{step.leave}"]
            lines += primal
            if dual_view:
                lines += ["", "dual:"]
                if step is not None:
                    lines.append(f"pivot: enter {y}{step.leave}, leave {y}{step.enter}")
                lines += dual
    return lines
