"""Pivot selection, primal and dual simplex, and the two-phase driver.

Both methods run on ``Dictionary`` values and return exact certificates:

* Optimal(point, value) -- point feasible, objective equals value exactly;
* Unbounded(point, ray) -- feasible point plus an improving recession ray;
* Infeasible(farkas)    -- an improving ray u of the dual LP: u >= 0,
                           u.A0 >= 0 and u.b < 0.

The simplex loop is written once (``_simplex``). Dual simplex is that
primal loop run on the negative transpose of the dictionary, read in place
through a sign: the dual dictionary on N is the negative transpose of the
primal one on B, and a primal pivot (enter e, leave l) there is the pivot
(enter l, leave e) here. Each pivot takes one pass over the objective row
for the entering position and one over its column for the leaving one,
and pivots at those positions. One reader (``_ray``) gives both rays: the
unbounded ray, and the Farkas vector, which is the slack part of the dual's
unbounded ray.

``solve`` is the one two-phase driver. It runs each phase through
``primal_simplex`` or ``dual_simplex``, and every path leaves by one exit,
which re-checks the certificate against the instance (``check_outcome``,
one improving-ray test for the ray on the LP and the Farkas vector on its
dual) and raises ``CertificateError`` if it does not hold. Its trace holds
every dictionary of the path, or with ``keep=False`` only each phase's
start and the positions of its pivots (``_Replay``): its steps have a
length, and pivot again when they are iterated.

The default rule is Bland's (termination guaranteed); Dantzig's largest-
coefficient rule is opt-in, with ties always broken toward the smallest
variable index so every run is deterministic. A loop that meets a basis it
has already visited finishes under Bland's rule, so every run terminates.
It remembers the bases since its last nondegenerate pivot only: no basis
from before that pivot can recur. So it looks a basis up only inside a run
of degenerate pivots, and hashes none on a path without one.
Pivot choices read the dictionary's integer numerators: over one positive
denominator they order exactly as the values do.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Iterator, Sequence

from dictlp import _kernels
from dictlp.exact import _rationals_text, common_denominator
from dictlp.dictionary import Dictionary, _pivot, initial_dictionary, is_dual_feasible, is_primal_feasible
from dictlp.model import StandardLP, dual_lp


class PivotRule(Enum):
    BLAND = "bland"
    DANTZIG = "dantzig"


@dataclass(frozen=True)
class PivotStep:
    enter: int
    leave: int
    dictionary: Dictionary


class _Replay:
    """A phase's pivots kept as their positions (r, s), read by pivoting again from the phase start.

    Its length is the pivot count, read without a pivot. Iteration pivots
    from ``start`` once per step, so the path holds one dictionary at a
    time. It equals only itself.
    """

    __slots__ = ("_start", "_positions")

    def __init__(self, start: Dictionary, positions: array) -> None:
        self._start = start
        self._positions = positions  # r, s of each pivot in turn

    def __len__(self) -> int:
        return len(self._positions) // 2

    def __iter__(self) -> Iterator[PivotStep]:
        d = self._start
        rs = iter(self._positions)
        for r, s in zip(rs, rs):
            d = _pivot(d, r, s)
            yield PivotStep(enter=d.basis[r], leave=d.nonbasis[s], dictionary=d)


@dataclass(frozen=True)
class TracePhase:
    """One simplex run: a starting dictionary and the pivots applied to it.

    ``steps`` is a tuple, or a ``_Replay`` when the solve kept positions
    only: an iterable with a length, which pivots again when iterated.
    """

    name: str
    start: Dictionary
    steps: tuple[PivotStep, ...] | _Replay


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


def _cycle_guard(d: Dictionary, rule: PivotRule, visited: set[frozenset[int]]) -> PivotRule:
    """The rule for the next pivot: Bland from the first repeated basis on.

    Every pivot choice depends only on the basis set, so a basis seen before
    means the rule is cycling. Bland never repeats a basis. ``visited``
    holds the bases since the loop's last nondegenerate pivot: that pivot
    moved the objective strictly, and a basis fixes the objective's value,
    so no basis from before it can recur. The loop calls this only at a
    dictionary reached by a degenerate pivot, when ``visited`` is not empty.
    """
    basis_set = frozenset(d.basis)
    if basis_set in visited:
        return PivotRule.BLAND
    visited.add(basis_set)
    return rule


def primal_simplex(
    d: Dictionary, rule: PivotRule = PivotRule.BLAND, keep: bool = True
) -> tuple[Dictionary, list[PivotStep] | _Replay, int | None]:
    """Run primal simplex from a primal-feasible dictionary.

    Returns the final dictionary, the pivots and a signal saying how the
    loop ended: None when optimal (q <= 0), else the entering variable whose
    column has no positive entry (unbounded). Every intermediate dictionary
    stays primal feasible. On a repeated basis the loop switches to Bland's
    rule for the rest of the run. The pivots are a list of ``PivotStep``,
    or without ``keep`` an iterable of the same steps, with a length, that
    pivots again from ``d`` when iterated.
    """
    if not is_primal_feasible(d):
        raise ValueError("primal simplex requires a primal-feasible dictionary")
    return _simplex(d, rule, False, keep)


def dual_simplex(
    d: Dictionary, rule: PivotRule = PivotRule.BLAND, keep: bool = True
) -> tuple[Dictionary, list[PivotStep] | _Replay, int | None]:
    """Run dual simplex from a dual-feasible dictionary.

    Returns the final dictionary, the pivots (as ``primal_simplex`` does)
    and a signal saying how the loop ended: None when optimal (p >= 0), else
    the leaving variable of a row with a negative constant and no negative
    coefficient (infeasible). Every intermediate dictionary stays dual
    feasible. On a repeated basis the loop switches to Bland's rule for the
    rest of the run. This is the primal method run on the negative
    transpose of ``d``, read in place: a primal pivot (enter i, leave j)
    there is the pivot (enter j, leave i) here, and the primal method's
    unbounded signal is the infeasible row.
    """
    if not is_dual_feasible(d):
        raise ValueError("dual simplex requires a dual-feasible dictionary")
    return _simplex(d, rule, True, keep)


def _simplex(
    d: Dictionary, rule: PivotRule, dual: bool, keep: bool
) -> tuple[Dictionary, list[PivotStep] | _Replay, int | None]:
    """The primal method on ``d``, or with ``dual`` on its negative transpose, pivoting ``d`` itself.

    The negative transpose has nonbasic labels ``d.basis`` with objective
    -p, basic labels ``d.nonbasis`` with constants -q, and -Q[r] under
    nonbasic position r. The loop reads them through ``sign = -1`` instead
    of building them, so its pivot at entering position e and leaving
    position l is ``d``'s pivot at basis position e and nonbasis position
    l. The signal is the primal method's: None when optimal, else the
    entering variable of the column with no positive entry. Each pivot is
    kept as a ``PivotStep``, or without ``keep`` as its positions only.

    Under Dantzig's rule ``visited`` holds the bases of the degenerate run
    in hand: the run's first pivot adds the basis it pivots from, each
    dictionary the run reaches goes through ``_cycle_guard``, and a
    nondegenerate pivot clears the set. A basis can recur only within such
    a run, so the guard hashes no other.
    """
    rule = PivotRule(rule)  # "bland" is Bland's rule; a value that names no rule raises ValueError
    sign = -1 if dual else 1
    positions = array("q")
    steps: list[PivotStep] | _Replay = [] if keep else _Replay(d, positions)
    visited: set[frozenset[int]] = set()
    while True:
        if visited and rule is PivotRule.DANTZIG:  # a basis recurs only within a degenerate run
            rule = _cycle_guard(d, rule, visited)
        bland = rule is PivotRule.BLAND
        if dual:
            heads, objective, labels, constants = d.basis, d.p_num, d.nonbasis, d.q_num
        else:
            heads, objective, labels, constants = d.nonbasis, d.q_num, d.basis, d.p_num
        # Entering: of the positive objective entries, Bland's smallest
        # label, or Dantzig's largest entry with the smallest label on ties.
        e = None
        for k, x in enumerate(objective):
            x *= sign
            if x > 0 and (e is None or (heads[k] < heads[e] if bland or x == top else x > top)):
                e, top = k, x
        if e is None:
            return d, steps, None
        # Leaving: of the positive column entries a, the least constant / a,
        # the smallest label on ties. Ratios compare by cross-multiplying, and
        # on the dual side -q / -Q[r] reads as q / Q[r].
        l = None
        for k, (c, a) in enumerate(zip(constants, d.Q_num[e] if dual else [row[e] for row in d.Q_num])):
            if a * sign > 0 and (l is None or c * ba < bc * a or c * ba == bc * a and labels[k] < labels[l]):
                l, bc, ba = k, c, a
        if l is None:
            return d, steps, heads[e]
        if bc:  # a nondegenerate pivot: no basis visited so far can recur
            visited.clear()
        elif not (visited or bland):  # a degenerate run starts at d
            visited.add(frozenset(d.basis))
        r, s = (e, l) if dual else (l, e)
        d = _pivot(d, r, s)
        if keep:
            steps.append(PivotStep(enter=d.basis[r], leave=d.nonbasis[s], dictionary=d))
        else:
            positions.extend((r, s))


def _ray(d: Dictionary, enter: int, dual: bool, variables: range) -> tuple[Fraction, ...]:
    """The improving recession ray of ``_simplex``'s dictionary along ``enter``'s column, at ``variables``.

    The entering variable moves by 1 and each basic one by minus its column
    entry: -Q[i][s] on the primal side, Q[r][j] on the dual. On the primal
    side the decision part is the unbounded ray. On the dual side the slack
    part is the Farkas vector: row r of A_B^{-1}, since Q = A_B^{-1} A_N
    puts column k of A_B^{-1} under a nonbasic slack x(n+k) and a basic
    slack has a unit column. With p_r < 0 and Q[r][.] >= 0 it satisfies
    u >= 0, u.A0 >= 0 and u.b = p_r < 0.
    """
    if dual:
        moves = dict(zip(d.nonbasis, d.Q_num[d.basis.index(enter)]))
    else:
        s = d.nonbasis.index(enter)
        moves = {v: -row[s] for v, row in zip(d.basis, d.Q_num)}
    return tuple(Fraction(moves[v], d.D) if v in moves else Fraction(1 if v == enter else 0) for v in variables)


def solve(
    lp: StandardLP, rule: PivotRule = PivotRule.BLAND, keep: bool = True
) -> tuple[SolveOutcome, SolveTrace]:
    """Two-phase driver producing an exact outcome certificate.

    Starts primal simplex when the initial dictionary is primal feasible.
    Otherwise phase 1 drives to primal feasibility with dual simplex. When
    the initial dictionary is dual feasible it starts there and is the only
    phase; else it starts from the slack dictionary priced with the
    all-(-1) objective (dual feasible by construction), and phase 2 prices
    phase 1's final dictionary with the true objective and finishes with
    primal simplex. Each phase runs through ``primal_simplex`` or
    ``dual_simplex``. Every path ends at one exit, where the outcome passes
    ``check_outcome`` against ``lp`` before it is returned with the trace.

    With ``keep`` (the default) the trace holds every dictionary of the
    path. Without it, each phase keeps its start and the positions of its
    pivots: its steps have a length, read without a pivot, and iterating
    them pivots again from the start, giving the same steps in memory that
    does not grow with the path.
    """
    d0 = initial_dictionary(lp)
    n = d0.n
    phases: list[TracePhase] = []

    def phase(name: str, method, start: Dictionary) -> tuple[Dictionary, int | None]:
        final, steps, signal = method(start, rule, keep)
        phases.append(TracePhase(name, start, tuple(steps) if keep else steps))  # a _Replay is read-only already
        return final, signal

    leave = enter = None
    if is_primal_feasible(d0):
        final, enter = phase("primal simplex", primal_simplex, d0)
    else:
        # A dual-feasible d0 needs no auxiliary objective: phase 1 starts
        # from it, and the optimum it reaches is the answer.
        dual_start = is_dual_feasible(d0)
        name = "dual simplex" if dual_start else "phase 1: dual simplex, auxiliary objective"
        final, leave = phase(name, dual_simplex, d0 if dual_start else _priced(d0, [-1] * n, 1))
        if leave is None and not dual_start:
            final, enter = phase("phase 2: primal simplex", primal_simplex, _priced(final, list(d0.q_num), d0.D))
    if leave is None:
        outcome = _primal_outcome(final, enter, n)
    else:
        outcome = Infeasible(farkas=_ray(final, leave, True, range(n + 1, n + d0.m + 1)))
    check_outcome(lp, outcome)
    return outcome, SolveTrace(phases=tuple(phases))


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
        return Optimal(point=tuple(point), value=Fraction(final.z_num, final.D))
    return Unbounded(point=tuple(point), ray=_ray(final, enter, False, range(1, n + 1)))


def check_outcome(lp: StandardLP, outcome: SolveOutcome) -> None:
    """Raise ``CertificateError`` unless the outcome's certificate holds for ``lp``.

    Optimal: the point is feasible (x >= 0, A0 x <= b) and c.x equals the
    value. Unbounded: the point is feasible and the ray is an improving ray
    of ``lp``. Infeasible: the Farkas vector is an improving ray of
    ``dual_lp(lp)``, whose -A0^T u <= 0 and -b.u > 0 read u.A0 >= 0 and
    u.b < 0. O(mn) substitution in integers. Each certificate converts in
    one ``common_denominator`` call: a ray or a Farkas vector alone, a point
    together with its optimal value, so that over their lcm the objective
    test reads c_num.x == value * D. An entry that is not an ``int`` or a
    ``Fraction``, the value included, raises ``TypeError``.
    """
    if isinstance(outcome, Infeasible):
        if not _is_improving_ray(dual_lp(lp), outcome.farkas):
            farkas = _rationals_text(outcome.farkas)
            raise CertificateError(f"farkas vector fails u >= 0, u.A0 >= 0, u.b < 0: {farkas}")
        return
    optimal = isinstance(outcome, Optimal)
    L, (x, value) = common_denominator([outcome.point, [outcome.value] if optimal else []])
    if not (
        len(x) == lp.n
        and all(v >= 0 for v in x)
        and all(_dot(row, x) <= b_i * L for row, b_i in zip(lp.A0_num, lp.b_num))
    ):
        raise CertificateError(f"point is not feasible: {_rationals_text(outcome.point)}")
    if optimal:
        if _dot(lp.c_num, x) != value[0] * lp.D:
            raise CertificateError(f"objective at the point is not {_rationals_text([outcome.value])}")
        return
    if not _is_improving_ray(lp, outcome.ray):
        raise CertificateError(f"ray fails ray >= 0, A0.ray <= 0, c.ray > 0: {_rationals_text(outcome.ray)}")


def _is_improving_ray(lp: StandardLP, ray: Sequence[Fraction]) -> bool:
    """Whether ``ray`` has length n, ray >= 0, A0 ray <= 0 and c.ray > 0, over the lcm of its denominators."""
    _, (v,) = common_denominator([ray])
    return (
        len(v) == lp.n
        and all(x >= 0 for x in v)
        and all(_dot(row, v) <= 0 for row in lp.A0_num)
        and _dot(lp.c_num, v) > 0
    )


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))
