"""Independent brute-force LP oracle and certificate checks (test-only).

Deliberately avoids the package's elimination code: everything here runs on
plain lists of ``Fraction`` with its own little Gaussian solver, so it can
vouch for solver outcomes without sharing a code path with them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from dictlp.model import StandardLP
from dictlp.simplex import Infeasible, Optimal, Unbounded


def gauss_solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve a square system by plain Gaussian elimination; None if singular."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def _augmented_columns(lp: StandardLP) -> list[list[Fraction]]:
    cols = []
    for j in range(lp.n):
        cols.append([Fraction(row[j], lp.D) for row in lp.A0_num])
    for i in range(lp.m):
        cols.append([Fraction(1) if k == i else Fraction(0) for k in range(lp.m)])
    return cols


def _extended_costs(lp: StandardLP) -> list[Fraction]:
    return [Fraction(x, lp.D) for x in lp.c_num] + [Fraction(0)] * lp.m


def basic_points(lp: StandardLP):
    """Yield (basis, full_point) for every nonsingular m-subset of columns."""
    cols = _augmented_columns(lp)
    b = [Fraction(x, lp.D) for x in lp.b_num]
    total = lp.m + lp.n
    for combo in combinations(range(1, total + 1), lp.m):
        a_b = [[cols[v - 1][i] for v in combo] for i in range(lp.m)]
        x_b = gauss_solve(a_b, b)
        if x_b is None:
            continue
        full = [Fraction(0)] * total
        for value, v in zip(x_b, combo):
            full[v - 1] = value
        yield combo, full


def oracle_solve(lp: StandardLP) -> tuple[str, Fraction | None]:
    """Classify an instance by exhaustive basis enumeration.

    Returns ("infeasible", None), ("unbounded", None), or
    ("optimal", best_value). Unboundedness is detected by scanning every
    feasible basis for an improving column with no positive entry; simplex
    theory guarantees one exists exactly when the LP is unbounded.
    """
    cols = _augmented_columns(lp)
    costs = _extended_costs(lp)
    total = lp.m + lp.n
    feasible = [(B, x) for B, x in basic_points(lp) if all(v >= 0 for v in x)]
    if not feasible:
        return "infeasible", None

    for B, _x in feasible:
        a_b = [[cols[v - 1][i] for v in B] for i in range(lp.m)]
        c_b = [costs[v - 1] for v in B]
        for v in range(1, total + 1):
            if v in B:
                continue
            column = gauss_solve(a_b, cols[v - 1])
            assert column is not None
            reduced_cost = costs[v - 1] - sum(cb * e for cb, e in zip(c_b, column))
            if reduced_cost > 0 and all(e <= 0 for e in column):
                return "unbounded", None

    best = max(
        sum(ci * xi for ci, xi in zip(costs, x[: lp.n])) for _B, x in feasible
    )
    return "optimal", best


def point_is_feasible(lp: StandardLP, point) -> bool:
    values = list(point)
    if len(values) != lp.n or any(v < 0 for v in values):
        return False
    for i in range(lp.m):
        lhs = sum(Fraction(lp.A0_num[i][j], lp.D) * values[j] for j in range(lp.n))
        if lhs > Fraction(lp.b_num[i], lp.D):
            return False
    return True


def check_outcome(lp: StandardLP, outcome) -> None:
    """Assert the exact certificate invariants of a solve outcome."""
    if isinstance(outcome, Optimal):
        assert len(outcome.point) == lp.n
        assert point_is_feasible(lp, outcome.point)
        value = sum(Fraction(ci, lp.D) * xi for ci, xi in zip(lp.c_num, outcome.point))
        assert value == outcome.value
    elif isinstance(outcome, Unbounded):
        assert len(outcome.point) == lp.n and len(outcome.ray) == lp.n
        assert point_is_feasible(lp, outcome.point)
        ray = list(outcome.ray)
        assert all(v >= 0 for v in ray)
        for i in range(lp.m):
            assert sum(Fraction(lp.A0_num[i][j], lp.D) * ray[j] for j in range(lp.n)) <= 0
        assert sum(Fraction(ci, lp.D) * ri for ci, ri in zip(lp.c_num, ray)) > 0
    elif isinstance(outcome, Infeasible):
        u = list(outcome.farkas)
        assert len(u) == lp.m
        assert all(v >= 0 for v in u)
        for j in range(lp.n):
            assert sum(u[i] * Fraction(lp.A0_num[i][j], lp.D) for i in range(lp.m)) >= 0
        assert sum(ui * Fraction(bi, lp.D) for ui, bi in zip(u, lp.b_num)) < 0
    else:  # pragma: no cover - defensive
        raise AssertionError(f"unknown outcome {outcome!r}")


def outcome_kind(outcome) -> str:
    if isinstance(outcome, Optimal):
        return "optimal"
    if isinstance(outcome, Unbounded):
        return "unbounded"
    return "infeasible"
