"""Klee-Minty cubes (Klee & Minty 1972): Dantzig's rule visits every vertex.

maximize   sum_j 2^(d-j) x_j
subject to sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^i   (i = 1..d),   x >= 0.

From the slack basis the largest-coefficient rule takes 2^d - 1 pivots to
reach the optimum x = (0, ..., 0, 5^d) of value 5^d.
"""

import pytest

from dictlp.simplex import Optimal, PivotRule, solve

from conftest import klee_minty
from oracle import check_outcome


@pytest.mark.parametrize("d", range(1, 8))
def test_dantzig_visits_every_vertex(d):
    lp = klee_minty(d)
    outcome, trace = solve(lp, PivotRule.DANTZIG)
    assert trace.pivot_count == 2**d - 1
    assert isinstance(outcome, Optimal) and outcome.value == 5**d
    check_outcome(lp, outcome)


@pytest.mark.parametrize("d", range(1, 8))
def test_bland_reaches_the_same_optimum(d):
    lp = klee_minty(d)
    outcome, _ = solve(lp, PivotRule.BLAND)
    assert isinstance(outcome, Optimal) and outcome.value == 5**d
    check_outcome(lp, outcome)
