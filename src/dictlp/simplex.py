"""Pivot selection, primal and dual simplex, and the two-phase driver.

Both methods run on ``Dictionary`` values and return exact certificates:

* Optimal(point, value) -- point feasible, objective equals value exactly;
* Unbounded(point, ray) -- feasible point plus an improving recession ray;
* Infeasible(farkas)    -- u >= 0 with u.A0 >= 0 and u.b < 0.

The default rule is Bland's (termination guaranteed); Dantzig's largest-
coefficient rule is opt-in, with ties always broken toward the smallest
variable index so every run is deterministic. A loop that meets a basis it
has already visited finishes under Bland's rule, so every run terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from dictlp.exact import QMatrix, QVector
from dictlp.dictionary import (
    Dictionary,
    basic_solution,
    initial_dictionary,
    is_dual_feasible,
    is_primal_feasible,
    pivot,
)
from dictlp.model import StandardLP


class PivotRule(Enum):
    BLAND = "bland"
    DANTZIG = "dantzig"


@dataclass(frozen=True)
class PivotStep:
    enter: int
    leave: int
    dictionary: Dictionary


@dataclass(frozen=True)
class TracePhase:
    """One simplex run: a starting dictionary and the pivots applied to it."""

    name: str
    start: Dictionary
    steps: tuple[PivotStep, ...]


@dataclass(frozen=True)
class SolveTrace:
    phases: tuple[TracePhase, ...]

    @property
    def pivot_count(self) -> int:
        return sum(len(ph.steps) for ph in self.phases)


@dataclass(frozen=True)
class Optimal:
    point: QVector
    value: Fraction


@dataclass(frozen=True)
class Unbounded:
    point: QVector
    ray: QVector


@dataclass(frozen=True)
class Infeasible:
    farkas: QVector


SolveOutcome = Optimal | Unbounded | Infeasible


def _pick(labels: tuple[int, ...], values: QVector, rule: PivotRule) -> int | None:
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


def _ratio_test(labels: tuple[int, ...], consts: QVector, coefs: QVector) -> int | None:
    """Label minimizing const / coef over coef > 0, smallest label on ties.

    None when no coefficient is positive.
    """
    best: tuple[Fraction, int] | None = None
    for v, const, coef in zip(labels, consts, coefs):
        if coef > 0:
            key = (const / coef, v)
            if best is None or key < best:
                best = key
    return None if best is None else best[1]


def choose_entering(d: Dictionary, rule: PivotRule) -> int | None:
    """Entering variable, or None when the dictionary is optimal (q <= 0).

    Bland: smallest variable index with a positive objective coefficient.
    Dantzig: largest coefficient, smallest index on ties.
    """
    return _pick(d.nonbasis, d.q, rule)


def choose_leaving(d: Dictionary, s: int) -> int | None:
    """Ratio-test leaving variable for entering position ``s`` (0-based in N).

    Minimizes p_r / Q[r][s] over rows with Q[r][s] > 0, ties to the smallest
    variable index; None signals an unbounded direction. Both rules share
    this test.
    """
    return _ratio_test(d.basis, d.p, d.Q.column(s))


def _cycle_guard(d: Dictionary, rule: PivotRule, visited: set[frozenset[int]]) -> PivotRule:
    """The rule for the next pivot: Bland from the first repeated basis on.

    Every pivot choice depends only on the basis set, so a basis seen before
    means the rule is cycling. Bland never repeats a basis.
    """
    basis_set = frozenset(d.basis)
    if basis_set in visited:
        return PivotRule.BLAND
    visited.add(basis_set)
    return rule


def primal_simplex(
    d: Dictionary, rule: PivotRule = PivotRule.BLAND
) -> tuple[Dictionary, list[PivotStep], int | None]:
    """Run primal simplex from a primal-feasible dictionary.

    Returns the final dictionary, the pivots and a signal saying how the
    loop ended: None when optimal (q <= 0), else the entering variable whose
    column has no positive entry (unbounded). Every intermediate dictionary
    stays primal feasible. On a repeated basis the loop switches to Bland's
    rule for the rest of the run.
    """
    if not is_primal_feasible(d):
        raise ValueError("primal simplex requires a primal-feasible dictionary")
    steps: list[PivotStep] = []
    visited: set[frozenset[int]] = set()
    while True:
        rule = _cycle_guard(d, rule, visited)
        enter = choose_entering(d, rule)
        if enter is None:
            return d, steps, None
        leave = choose_leaving(d, d.nonbasis.index(enter))
        if leave is None:
            return d, steps, enter
        d = pivot(d, enter, leave)
        steps.append(PivotStep(enter=enter, leave=leave, dictionary=d))


def dual_simplex(
    d: Dictionary, rule: PivotRule = PivotRule.BLAND
) -> tuple[Dictionary, list[PivotStep], int | None]:
    """Run dual simplex from a dual-feasible dictionary.

    Returns the final dictionary, the pivots and a signal saying how the
    loop ended: None when optimal (p >= 0), else the leaving variable of a
    row with a negative constant and no negative coefficient (infeasible).
    Every intermediate dictionary stays dual feasible. On a repeated basis
    the loop switches to Bland's rule for the rest of the run. Through the
    negative transpose this is step-for-step the primal method on the
    flipped dictionary: a pivot (enter j, leave i) here corresponds to
    (enter i, leave j) there, and both loops end with the same signal.
    """
    if not is_dual_feasible(d):
        raise ValueError("dual simplex requires a dual-feasible dictionary")
    steps: list[PivotStep] = []
    visited: set[frozenset[int]] = set()
    while True:
        rule = _cycle_guard(d, rule, visited)
        # The primal choices on the negative transpose (-q, -Q^T, -p).
        leave = _pick(d.basis, -d.p, rule)
        if leave is None:
            return d, steps, None
        enter = _ratio_test(d.nonbasis, -d.q, -d.Q.row(d.basis.index(leave)))
        if enter is None:
            return d, steps, leave
        d = pivot(d, enter, leave)
        steps.append(PivotStep(enter=enter, leave=leave, dictionary=d))


def _unbounded_ray(d: Dictionary, enter: int, n: int) -> QVector:
    """Improving recession ray read off the entering column, decision part only."""
    s = d.nonbasis.index(enter)
    values = [Fraction(0)] * n
    if enter <= n:
        values[enter - 1] = Fraction(1)
    for i, v in enumerate(d.basis):
        if v <= n:
            values[v - 1] = -d.Q.entry(i, s)
    return QVector(values)


def _farkas_vector(d: Dictionary, leave: int) -> QVector:
    """Infeasibility certificate from the signal row: row r of A_B^{-1}.

    Q = A_B^{-1} A_N, so the column of Q under a nonbasic slack x(n+k) is
    column k of A_B^{-1}; a basic slack x(n+k) in row i has the unit column
    e_i there instead. With p_r < 0 and Q[r][.] >= 0, that row u satisfies
    u >= 0, u.A0 >= 0 and u.b = p_r < 0 exactly.
    """
    r = d.basis.index(leave)
    position = {v: j for j, v in enumerate(d.nonbasis)}
    return QVector(
        d.Q.entry(r, position[v]) if v in position else Fraction(1 if v == leave else 0)
        for v in range(d.n + 1, d.n + d.m + 1)
    )


def solve(
    lp: StandardLP, rule: PivotRule = PivotRule.BLAND
) -> tuple[SolveOutcome, SolveTrace]:
    """Two-phase driver producing an exact outcome certificate.

    Starts primal simplex when the initial dictionary is primal feasible and
    dual simplex when it is dual feasible. Otherwise phase 1 prices the
    slack dictionary with the all-(-1) objective (dual feasible by
    construction) and drives to primal feasibility with dual simplex; phase
    2 prices phase 1's final dictionary with the true objective and
    finishes with primal simplex.
    """
    d0 = initial_dictionary(lp)
    n = lp.n

    if is_primal_feasible(d0):
        final, steps, enter = primal_simplex(d0, rule)
        trace = SolveTrace(phases=(TracePhase("primal simplex", d0, tuple(steps)),))
        return _primal_outcome(final, enter, n), trace

    if is_dual_feasible(d0):
        final, steps, leave = dual_simplex(d0, rule)
        trace = SolveTrace(phases=(TracePhase("dual simplex", d0, tuple(steps)),))
        if leave is None:
            return _primal_outcome(final, None, n), trace
        return Infeasible(farkas=_farkas_vector(final, leave)), trace

    phase1_start = _priced(d0, [Fraction(-1)] * n)
    final1, steps1, leave1 = dual_simplex(phase1_start, rule)
    phase1 = TracePhase("phase 1: dual simplex, auxiliary objective", phase1_start, tuple(steps1))
    if leave1 is not None:
        trace = SolveTrace(phases=(phase1,))
        return Infeasible(farkas=_farkas_vector(final1, leave1)), trace

    phase2_start = _priced(final1, list(lp.c))
    final2, steps2, enter2 = primal_simplex(phase2_start, rule)
    trace = SolveTrace(
        phases=(phase1, TracePhase("phase 2: primal simplex", phase2_start, tuple(steps2)))
    )
    return _primal_outcome(final2, enter2, n), trace


def _priced(d: Dictionary, c: list[Fraction]) -> Dictionary:
    """The dictionary in hand under the objective c.x, slacks costing 0.

    Keeps the rows and sorts the columns ascending; the objective row is
    q = c_N - Q^T c_B and z* = c_B . p.
    """
    costs = c + [Fraction(0)] * d.m
    cols = sorted(range(d.n), key=lambda j: d.nonbasis[j])
    c_B = [costs[v - 1] for v in d.basis]
    rows = [[row[j] for j in cols] for row in d.Q.row_lists()]
    nonbasis = tuple(d.nonbasis[j] for j in cols)
    return replace(
        d,
        nonbasis=nonbasis,
        Q=QMatrix(rows),
        q=QVector(
            costs[v - 1] - sum((cb * row[j] for cb, row in zip(c_B, rows)), Fraction(0))
            for j, v in enumerate(nonbasis)
        ),
        z_star=sum((cb * pi for cb, pi in zip(c_B, d.p)), Fraction(0)),
    )


def _primal_outcome(final: Dictionary, enter: int | None, n: int) -> SolveOutcome:
    """Optimal when ``enter`` is None, else Unbounded along the entering column."""
    point = QVector(basic_solution(final)[:n])
    if enter is None:
        return Optimal(point=point, value=final.z_star)
    return Unbounded(point=point, ray=_unbounded_ray(final, enter, n))
