"""Dictionaries and solver traces as text, for ``dictlp dict`` and ``dictlp trace``.

A dictionary prints from two signed term tables per denominator
(``_term_tables``), which map a numerator to its whole term in a row
``p - Qx`` and in ``z* + qx``. ``--dual-view`` prints the negative
transpose from the same tables, reading Q's columns as rows with the
tables swapped, so no dual dictionary is built. A trace keeps the tables
for the whole trace, keyed by the stored D, so each (numerator, D) pair is
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
    return "\n".join(_lines(d, _term_tables({}, d), False, []))


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


def _lines(d: Dictionary, tables: _TermTables, flip: bool, view: list, patch=None) -> list[str]:
    """The lines of ``d``, or with ``flip`` of its negative transpose, from ``tables = _term_tables(..., d)``.

    The negative transpose (rows -q, -Q^T, objective -p, constant -z*, on
    the swapped partition) reads the same numerators transposed, each term
    from the other table. ``view`` keeps the terms drawn, one per entry (""
    for a 0). With the ``view`` of ``last`` and ``patch = _patch(last, d)``,
    only the patch is drawn again; otherwise ``view`` is made blank, with
    every head named, and patched at every row and column.
    """
    primal = (d.side == "primal") != flip
    var = "x" if primal else "y"
    minus, plus = tables
    # Rows print p - Qx: Q's terms read minus, the rest plus. Flip swaps them.
    if flip:
        labels, consts, heads, objective, Q = d.nonbasis, d.q_num, d.basis, d.p_num, [*zip(*d.Q_num)]
        row_terms, terms = plus, minus
    else:
        labels, consts, heads, objective, Q = d.basis, d.p_num, d.nonbasis, d.q_num, d.Q_num
        row_terms, terms = minus, plus
    if patch and view:
        r, s, rows, cols = patch
        if flip:
            s, rows, cols = r, cols, rows
        view[0][s] = f"{var}{heads[s]}"
    else:  # drawn whole: a blank view, every head named, patched at every row and column
        rows, cols = range(len(labels)), range(len(heads))
        view[:] = [f"{var}{w}" for w in heads], [[""] * len(heads) for _ in rows], [""] * len(labels), [""] * len(heads)
    names, entries, lines, tail = view
    named = [(j, names[j]) for j in cols]
    for i in rows:
        row, coefs = entries[i], Q[i]
        for j, name in named:
            x = coefs[j]
            row[j] = row_terms[x] + name if x else ""
        lines[i] = f"{var}{labels[i]} = {_leading(terms[consts[i]])}{''.join(row)}"
    for j, name in named:
        x = objective[j]
        tail[j] = terms[x] + name if x else ""
    text = "".join(tail)
    # The constant is skipped when zero, unless the line would be empty.
    text = _leading(terms[d.z_num]) + text if d.z_num or not text else _leading(text)
    return [*lines, f"{'z' if primal else '-w'} = {text}"]


def _solver_trace_lines(trace: SolveTrace, dual_view: bool) -> list[str]:
    lines: list[str] = []
    tables: dict[int, _TermTables] = {}  # per D, for the whole trace
    multi = len(trace.phases) > 1
    for k, phase in enumerate(trace.phases):
        if k > 0:
            lines.append("")
        if multi:
            lines.append(f"== {phase.name} ==")
        views = [], []  # per orientation
        last = None
        for step in (None, *phase.steps):
            d = phase.start if step is None else step.dictionary
            patch, last = _patch(last, d), d
            terms = _term_tables(tables, d, patch)
            if step is not None:
                lines += ["", f"pivot: enter x{step.enter}, leave x{step.leave}"]
            lines += _lines(d, terms, False, views[0], patch)
            if dual_view:
                lines += ["", "dual:"]
                if step is not None:
                    lines.append(f"pivot: enter y{step.leave}, leave y{step.enter}")
                lines += _lines(d, terms, True, views[1], patch)
    return lines
