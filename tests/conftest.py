from __future__ import annotations

import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dictlp.cli import random_lp
from dictlp.dictionary import Dictionary, initial_dictionary, pivot
from dictlp.model import StandardLP

from reference import lp_fractions

# No library path may depend on a lifted int/str digit limit, so the suite
# runs at the lowest one CPython accepts, 640 (where the interpreter has a
# limit), and so does every child a test starts: tests/test_cli.py builds
# its child environment from os.environ. TestHugeNumbers starts each of
# its tests from the default limit instead.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(sys.int_info.str_digits_check_threshold)
os.environ["PYTHONINTMAXSTRDIGITS"] = "640"

DATA = Path(__file__).parent / "data"

E1_TEXT = (DATA / "e1.lp").read_text(encoding="utf-8")


def qrows(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def qv(entries) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in entries)


def fr(num, den=1) -> Fraction:
    return Fraction(num, den)


def replaced(d: Dictionary, **changes) -> Dictionary:
    """``d`` with some of its p, Q (as rows), q and z_star views replaced by rational values."""
    views = {"p": d.p, "Q": d.Q.row_lists(), "q": d.q, "z_star": d.z_star, **changes}
    return Dictionary.from_fractions(d.side, d.basis, d.nonbasis, **views)


@pytest.fixture
def e1() -> StandardLP:
    return StandardLP.from_fractions([[4, 2, -2], [-1, -1, -2]], qv([18, -3]), qv([8, 11, -10]))


@pytest.fixture
def e1_second(e1) -> Dictionary:
    """The worked pivot: x1 enters, x5 leaves."""
    return pivot(initial_dictionary(e1), 1, 5)


@pytest.fixture
def e1_path() -> str:
    return str(DATA / "e1.lp")


def suite_instance(seed: int, bound: int = 5) -> StandardLP:
    """Deterministic small instance: m, n cycle over {1, 2, 3} with the seed."""
    m = seed % 3 + 1
    n = (seed // 3) % 3 + 1
    return random_lp(m, n, seed, bound)


def klee_minty(d: int, row_scale: list[int] | None = None) -> StandardLP:
    """The Klee-Minty cube of dimension d (Klee & Minty 1972), row i and b_i times ``row_scale[i]``.

    maximize sum_j 2^(d-j) x_j subject to sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^i.
    Unscaled, the bases that either rule visits from the slack basis have
    determinant +-1, so every pivot of a solve is a unit pivot; a scaled row
    gives some pivots of magnitude > D.
    """
    scale = row_scale or [1] * d
    rows = [[2 ** (i - j + 1) if j < i else int(j == i) for j in range(1, d + 1)] for i in range(1, d + 1)]
    return StandardLP.from_fractions(
        [[x * k for x in row] for row, k in zip(rows, scale)],
        [5**i * k for i, k in zip(range(1, d + 1), scale)],
        [2 ** (d - j) for j in range(1, d + 1)],
    )


def transportation_lp() -> StandardLP:
    """A 3x3 transportation LP: maximize profit.x over the arcs, each source shipping at most its supply, each sink receiving at least its demand.

    Its rows are the node-arc incidence matrix of the bipartite graph (+1 at
    a source, -1 at a sink), which is totally unimodular, so every basis of
    [A0 I] has determinant +-1 and every pivot is a unit pivot at D = 1.
    Some profits are positive and b has negative entries, so the solve takes
    both phases.
    """
    supply, demand = [4, 5, 3], [3, 4, 2]
    profit = [[4, -6, 9], [5, 3, -8], [-7, 2, 6]]
    arcs = [(i, j) for i in range(3) for j in range(3)]
    rows = [[int(a == i) for a, _ in arcs] for i in range(3)] + [[-int(b == j) for _, b in arcs] for j in range(3)]
    return StandardLP.from_fractions(rows, supply + [-x for x in demand], [profit[i][j] for i, j in arcs])


def divided(lp: StandardLP, k) -> StandardLP:
    """Row i of A0 and b_i divided by k[i], and c by k[m]: fractional data, the same bases."""
    A0, b, c = lp_fractions(lp)
    return StandardLP.from_fractions(
        [[x / k[i] for x in row] for i, row in enumerate(A0)],
        [x / k[i] for i, x in enumerate(b)],
        [x / k[-1] for x in c],
    )


def entry_denominators(lp: StandardLP, denominator) -> StandardLP:
    """Each entry of A0, then of b, then of c divided by the next ``denominator()``, row by row."""
    A0, b, c = lp_fractions(lp)
    over = lambda row: [x / denominator() for x in row]  # noqa: E731
    return StandardLP.from_fractions([over(row) for row in A0], over(b), over(c))


@pytest.fixture(params=[False, True], ids=["integer", "fractional"])
def eight_by_eight(request) -> StandardLP:
    """``random_lp(8, 8, 1)``, whose 12,838 bases make the largest walk the tests take, and then with its rows divided."""
    lp = random_lp(8, 8, 1)
    lp = divided(lp, [2, 3, 5, 7, 2, 3, 5, 7, 3]) if request.param else lp
    assert (lp.D > 1) == request.param
    return lp


def dual_feasible_instance(seed: int, bound: int = 5) -> StandardLP:
    """Like suite_instance but with c forced nonpositive (initial dict dual feasible)."""
    A0, b, c = lp_fractions(suite_instance(seed, bound))
    return StandardLP.from_fractions(A0, b, [-abs(x) for x in c])


def random_pivots(d: Dictionary, rng_choices) -> list[Dictionary]:
    """Apply a sequence of legal pivots driven by a list of (i, j) index picks."""
    out = [d]
    for a, b in rng_choices:
        enter = d.nonbasis[a % len(d.nonbasis)]
        leave_candidates = [
            v for v, row in zip(d.basis, d.Q_num) if row[d.nonbasis.index(enter)] != 0
        ]
        if not leave_candidates:
            continue
        leave = leave_candidates[b % len(leave_candidates)]
        d = pivot(d, enter, leave)
        out.append(d)
    return out


def check_point(d, full_values) -> bool:
    """Whether a full assignment (1-based variables) satisfies every dictionary row."""
    for v, p_r, row in zip(d.basis, d.p, d.Q.row_lists()):
        rhs = p_r - sum(
            (x * full_values[w - 1] for x, w in zip(row, d.nonbasis)),
            Fraction(0),
        )
        if full_values[v - 1] != rhs:
            return False
    return True


def objective_at(d, full_values) -> Fraction:
    return d.z_star + sum(
        (d.q[j] * full_values[w - 1] for j, w in enumerate(d.nonbasis)), Fraction(0)
    )
