from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from dictlp.cli import random_lp
from dictlp.dictionary import Dictionary, pivot
from dictlp.exact import QMatrix
from dictlp.model import StandardLP

from reference import lp_fractions

DATA = Path(__file__).parent / "data"

E1_TEXT = (DATA / "e1.lp").read_text(encoding="utf-8")


def qm(rows) -> QMatrix:
    return QMatrix([[Fraction(x) for x in row] for row in rows])


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
def e1_path() -> str:
    return str(DATA / "e1.lp")


def suite_instance(seed: int, bound: int = 5) -> StandardLP:
    """Deterministic small instance: m, n cycle over {1, 2, 3} with the seed."""
    m = seed % 3 + 1
    n = (seed // 3) % 3 + 1
    return random_lp(m, n, seed, bound)


def divided(lp: StandardLP, k) -> StandardLP:
    """Row i of A0 and b_i divided by k[i], and c by k[m]: fractional data, the same bases."""
    A0, b, c = lp_fractions(lp)
    return StandardLP.from_fractions(
        [[x / k[i] for x in row] for i, row in enumerate(A0)],
        [x / k[i] for i, x in enumerate(b)],
        [x / k[-1] for x in c],
    )


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
