"""Pivot selection, primal and dual simplex, and the two-phase driver.

Both methods run on ``Dictionary`` values and return exact certificates:

* Optimal(point, value) -- point feasible, objective equals value exactly;
* Unbounded(point, ray) -- feasible point plus an improving recession ray;
* Infeasible(farkas)    -- u >= 0 with u.A0 >= 0 and u.b < 0.

The simplex loop is written once (``_simplex``). Dual simplex is that
primal loop run on the negative transpose of the dictionary, read in place
(``_as_primal``): the dual dictionary on N is the negative transpose of
the primal one on B, and a primal pivot (enter e, leave l) there is the
pivot (enter l, leave e) here. One reader (``_ray``) gives both rays: the
unbounded ray, and the Farkas vector, which is the slack part of the dual's
unbounded ray.

``solve`` re-checks its certificate against the instance's slack dictionary
(``check_outcome``) before it returns, and raises ``CertificateError`` if it
does not hold.

The default rule is Bland's (termination guaranteed); Dantzig's largest-
coefficient rule is opt-in, with ties always broken toward the smallest
variable index so every run is deterministic. A loop that meets a basis it
has already visited finishes under Bland's rule, so every run terminates.
Pivot choices read the dictionary's integer numerators: over one positive
denominator they order exactly as the values do.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from dictlp import _kernels
from dictlp.exact import _rationals_text, common_denominator
from dictlp.dictionary import (
    Dictionary,
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
    point: tuple[Fraction, ...]
    value: Fraction


@dataclass(frozen=True)
class Unbounded:
    point: tuple[Fraction, ...]
    ray: tuple[Fraction, ...]


@dataclass(frozen=True)
class Infeasible:
    farkas: tuple[Fraction, ...]


SolveOutcome = Optimal | Unbounded | Infeasible


class CertificateError(RuntimeError):
    """A solve outcome whose certificate does not hold for its instance."""


def _pick(labels: tuple[int, ...], values: Sequence[int], rule: PivotRule) -> int | None:
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


def _ratio_test(labels: tuple[int, ...], consts: Sequence[int], coefs: Sequence[int]) -> int | None:
    """Label minimizing const / coef over coef > 0, smallest label on ties.

    None when no coefficient is positive. Ratios compare by cross-multiplying.
    """
    best: int | None = None
    best_const, best_coef = 0, 1
    for v, const, coef in zip(labels, consts, coefs):
        if coef > 0:
            lhs, rhs = const * best_coef, best_const * coef
            if best is None or lhs < rhs or (lhs == rhs and v < best):
                best, best_const, best_coef = v, const, coef
    return best


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
    return _simplex(d, rule, False)


def dual_simplex(
    d: Dictionary, rule: PivotRule = PivotRule.BLAND
) -> tuple[Dictionary, list[PivotStep], int | None]:
    """Run dual simplex from a dual-feasible dictionary.

    Returns the final dictionary, the pivots and a signal saying how the
    loop ended: None when optimal (p >= 0), else the leaving variable of a
    row with a negative constant and no negative coefficient (infeasible).
    Every intermediate dictionary stays dual feasible. On a repeated basis
    the loop switches to Bland's rule for the rest of the run. This is the
    primal method run on the negative transpose of ``d``, read in place: a
    primal pivot (enter i, leave j) there is the pivot (enter j, leave i)
    here, and the primal method's unbounded signal is the infeasible row.
    """
    if not is_dual_feasible(d):
        raise ValueError("dual simplex requires a dual-feasible dictionary")
    return _simplex(d, rule, True)


def _as_primal(d: Dictionary, dual: bool) -> tuple[
    tuple[int, ...], Sequence[int], tuple[int, ...], Sequence[int], Callable[[int], list[int]]
]:
    """The dictionary the primal method reads: ``d``, or with ``dual`` its negative transpose.

    Returns the nonbasic labels, the objective row, the basic labels, the
    constants and the column under a nonbasic position. The negative
    transpose is read in place: nonbasic ``d.basis`` with objective -p,
    basic ``d.nonbasis`` with constants -q, and column r is -Q[r].
    """
    if dual:
        return (
            d.basis, [-x for x in d.p_num], d.nonbasis, [-x for x in d.q_num],
            lambda r: [-x for x in d.Q_num[r]],
        )
    return d.nonbasis, d.q_num, d.basis, d.p_num, lambda s: [row[s] for row in d.Q_num]


def _simplex(d: Dictionary, rule: PivotRule, dual: bool) -> tuple[Dictionary, list[PivotStep], int | None]:
    """The primal method on ``_as_primal(d, dual)``, pivoting ``d`` itself.

    On the dual side the primal pivot (enter, leave) is ``d``'s pivot
    (leave, enter). The signal is the primal method's: None when optimal,
    else the entering variable of the column with no positive entry.
    """
    rule = PivotRule(rule)  # "bland" is Bland's rule; a value that names no rule raises ValueError
    steps: list[PivotStep] = []
    visited: set[frozenset[int]] = set()
    while True:
        rule = _cycle_guard(d, rule, visited)
        nonbasis, objective, basis, constants, column = _as_primal(d, dual)
        enter = _pick(nonbasis, objective, rule)
        if enter is None:
            return d, steps, None
        leave = _ratio_test(basis, constants, column(nonbasis.index(enter)))
        if leave is None:
            return d, steps, enter
        if dual:
            enter, leave = leave, enter
        d = pivot(d, enter, leave)
        steps.append(PivotStep(enter=enter, leave=leave, dictionary=d))


def _ray(d: Dictionary, enter: int, dual: bool, variables: range) -> tuple[Fraction, ...]:
    """The improving recession ray of ``_as_primal(d, dual)`` along ``enter``'s column, at ``variables``.

    The entering variable moves by 1 and each basic one by minus its column
    entry. On the primal side the decision part is the unbounded ray. On the
    dual side the slack part is the Farkas vector: row r of A_B^{-1}, since
    Q = A_B^{-1} A_N puts column k of A_B^{-1} under a nonbasic slack
    x(n+k) and a basic slack has a unit column. With p_r < 0 and
    Q[r][.] >= 0 it satisfies u >= 0, u.A0 >= 0 and u.b = p_r < 0.
    """
    nonbasis, _, basis, _, column = _as_primal(d, dual)
    moves = dict(zip(basis, column(nonbasis.index(enter))))
    return tuple(
        Fraction(-moves[v], d.D) if v in moves else Fraction(1 if v == enter else 0)
        for v in variables
    )


def solve(
    lp: StandardLP, rule: PivotRule = PivotRule.BLAND
) -> tuple[SolveOutcome, SolveTrace]:
    """Two-phase driver producing an exact outcome certificate.

    Starts primal simplex when the initial dictionary is primal feasible.
    Otherwise phase 1 drives to primal feasibility with dual simplex. When
    the initial dictionary is dual feasible it starts there and is the only
    phase; else it starts from the slack dictionary priced with the
    all-(-1) objective (dual feasible by construction), and phase 2 prices
    phase 1's final dictionary with the true objective and finishes with
    primal simplex. The outcome passes ``check_outcome`` against the slack
    dictionary before it is returned.
    """
    d0 = initial_dictionary(lp)
    outcome, trace = _two_phase(d0, rule)
    check_outcome(d0, outcome)
    return outcome, trace


def _two_phase(d0: Dictionary, rule: PivotRule) -> tuple[SolveOutcome, SolveTrace]:
    """``solve`` from the slack dictionary ``d0``, without the re-check."""
    n = d0.n

    if is_primal_feasible(d0):
        final, steps, enter = primal_simplex(d0, rule)
        trace = SolveTrace(phases=(TracePhase("primal simplex", d0, tuple(steps)),))
        return _primal_outcome(final, enter, n), trace

    # A dual-feasible d0 needs no auxiliary objective: phase 1 starts from
    # it, and the optimum it reaches is the answer.
    dual_start = is_dual_feasible(d0)
    phase1_start = d0 if dual_start else _priced(d0, [-1] * n, 1)
    final1, steps1, leave1 = dual_simplex(phase1_start, rule)
    name = "dual simplex" if dual_start else "phase 1: dual simplex, auxiliary objective"
    phase1 = TracePhase(name, phase1_start, tuple(steps1))
    if leave1 is not None:
        farkas = _ray(final1, leave1, True, range(n + 1, n + d0.m + 1))
        return Infeasible(farkas=farkas), SolveTrace(phases=(phase1,))
    if dual_start:
        return _primal_outcome(final1, None, n), SolveTrace(phases=(phase1,))

    phase2_start = _priced(final1, list(d0.q_num), d0.D)
    final2, steps2, enter2 = primal_simplex(phase2_start, rule)
    trace = SolveTrace(
        phases=(phase1, TracePhase("phase 2: primal simplex", phase2_start, tuple(steps2)))
    )
    return _primal_outcome(final2, enter2, n), trace


def _priced(d: Dictionary, costs: list[int], L: int) -> Dictionary:
    """The dictionary in hand under the objective c.x, c = costs / L, slacks costing 0.

    Keeps the rows and sorts the columns ascending; the objective row is
    q = c_N - Q^T c_B and z* = c_B . p. With D the dictionary's denominator
    it is computed in integers over D*L: D*L*q = D*(L*c_N) - (D*Q)^T (L*c_B).
    A determinant-form chain started at D = 1, so L is 1 there: the row is
    over D as it stands, and the form is kept without a reduction.
    """
    costs = costs + [0] * d.m
    # Labels are distinct, so the sort never compares two columns.
    nonbasis, columns = zip(*sorted(zip(d.nonbasis, zip(*d.Q_num))))
    c_B = [costs[v - 1] for v in d.basis]
    q = [costs[v - 1] * d.D - _dot(c_B, col) for v, col in zip(nonbasis, columns)]
    z = _dot(c_B, d.p_num)
    if d.det_form:
        return Dictionary(d.side, d.basis, nonbasis, d.p_num, tuple(zip(*columns)), tuple(q), z, d.D, True)
    p = [x * L for x in d.p_num]
    rows = [[x * L for x in row] for row in zip(*columns)]
    return Dictionary(d.side, d.basis, nonbasis, *_kernels.reduced(p, rows, q, z, d.D * L), False)


def _primal_outcome(final: Dictionary, enter: int | None, n: int) -> SolveOutcome:
    """Optimal when ``enter`` is None, else Unbounded along the entering column."""
    point = [Fraction(0)] * n
    for v, x in zip(final.basis, final.p_num):
        if v <= n:
            point[v - 1] = Fraction(x, final.D)
    if enter is None:
        return Optimal(point=tuple(point), value=final.z_star)
    return Unbounded(point=tuple(point), ray=_ray(final, enter, False, range(1, n + 1)))


def check_outcome(start: Dictionary, outcome: SolveOutcome) -> None:
    """Raise ``CertificateError`` unless the outcome's certificate holds for the instance.

    ``start`` is the instance's slack dictionary (``initial_dictionary``),
    whose numerators over its D are A0, b and c. Optimal: the point is
    feasible (x >= 0, A0 x <= b) and c.x equals the value. Unbounded: the
    point is feasible, ray >= 0, A0 ray <= 0 and c.ray > 0. Infeasible:
    u >= 0, u.A0 >= 0 and u.b < 0. O(mn) substitution in integers, each
    certificate vector over the lcm of its own denominators.
    """
    A, b, c = start.Q_num, start.p_num, start.q_num
    if isinstance(outcome, Infeasible):
        _, (u,) = common_denominator([outcome.farkas])
        if not (
            len(u) == start.m
            and all(x >= 0 for x in u)
            and all(_dot(u, col) >= 0 for col in zip(*A))
            and _dot(u, b) < 0
        ):
            farkas = _rationals_text(outcome.farkas)
            raise CertificateError(f"farkas vector fails u >= 0, u.A0 >= 0, u.b < 0: {farkas}")
        return
    L, (x,) = common_denominator([outcome.point])
    if not (
        len(x) == start.n
        and all(v >= 0 for v in x)
        and all(_dot(row, x) <= b_i * L for row, b_i in zip(A, b))
    ):
        raise CertificateError(f"point is not feasible: {_rationals_text(outcome.point)}")
    if isinstance(outcome, Optimal):
        value = outcome.value
        if _dot(c, x) * value.denominator != value.numerator * start.D * L:
            raise CertificateError(f"objective at the point is not {_rationals_text([value])}")
        return
    _, (ray,) = common_denominator([outcome.ray])
    if not (
        len(ray) == start.n
        and all(v >= 0 for v in ray)
        and all(_dot(row, ray) <= 0 for row in A)
        and _dot(c, ray) > 0
    ):
        raise CertificateError(f"ray fails ray >= 0, A0.ray <= 0, c.ray > 0: {_rationals_text(outcome.ray)}")


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))
