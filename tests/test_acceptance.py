"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Everything here is exact arithmetic; the only tolerances are the
wall-clock budgets stated alongside the criteria.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from dictlp.cli import main
from dictlp.dictionary import (
    dictionary_from_basis,
    initial_dictionary,
    negative_transpose,
)
from dictlp.duality import (
    dual_dictionary_direct,
    verify_bases,
)
from dictlp.model import parse_lp
from dictlp.simplex import PivotRule, Unbounded, dual_simplex, primal_simplex, solve

from conftest import E1_TEXT, dual_feasible_instance, suite_instance
from oracle import check_outcome, oracle_solve, outcome_kind
from reference import (
    build_R,
    dot,
    enumerate_bases,
    in_kernel,
    kernel_embedding,
    lp_fractions,
    mul_vec,
    rowspace_contains,
    rowspace_embedding,
)

BIJECTION_SEEDS = range(100)
SOLVER_SEEDS = range(50)
LOCKSTEP_SEEDS = range(25)

E1_BLOCKS = [
    "x4 = 18 - 4x1 - 2x2 + 2x3\nx5 = -3 + x1 + x2 + 2x3\nz = 8x1 + 11x2 - 10x3",
    "y1 = -8 + 4y4 - y5\ny2 = -11 + 2y4 - y5\ny3 = 10 - 2y4 - 2y5\n-w = -18y4 + 3y5",
    "x4 = 6 - 4x5 + 2x2 + 10x3\nx1 = 3 + x5 - x2 - 2x3\nz = 24 + 8x5 + 3x2 - 26x3",
    "y5 = -8 + 4y4 - y1\ny2 = -3 - 2y4 + y1\ny3 = 26 - 10y4 + 2y1\n-w = -24 - 6y4 - 3y1",
]


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def e1():
    return parse_lp(E1_TEXT)


@pytest.fixture(scope="module")
def solver_runs():
    runs = []
    for seed in SOLVER_SEEDS:
        lp = suite_instance(seed)
        outcome, trace = solve(lp, PivotRule.BLAND)
        runs.append((lp, outcome, trace))
    return runs


@pytest.fixture(scope="module")
def lockstep_runs():
    runs = []
    for seed in LOCKSTEP_SEEDS:
        lp = dual_feasible_instance(seed)
        d = initial_dictionary(lp)
        dual_result = dual_simplex(d, PivotRule.BLAND)
        primal_result = primal_simplex(negative_transpose(d), PivotRule.BLAND)
        runs.append((lp, d, dual_result, primal_result))
    return runs


def test_criterion_1_worked_example_bit_exact(e1_path, capsys):
    with criterion(1, "E1 worked-example trace reproduced character-for-character"):
        start = time.perf_counter()
        code = main(["trace", e1_path, "--pivot", "1,5", "--dual-view"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        for block in E1_BLOCKS:
            assert block in out
        assert "x4 = 6 - 4x5 + 2x2 + 10x3" in out
        assert "-w = -24 - 6y4 - 3y1" in out
        assert elapsed < 1.0


def test_criterion_2_bijection_exhaustive_on_e1(e1_path, capsys):
    with criterion(2, "verify reports 10/10 bases passing both checks on E1"):
        start = time.perf_counter()
        code = main(["verify", e1_path])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert "verified 10/10 bases" in out
        assert out.count(": pass") == 10
        assert elapsed < 1.0


def test_criterion_3_bijection_randomized():
    with criterion(3, "bijection holds for every basis of 100 random instances"):
        start = time.perf_counter()
        bases_checked = 0
        for seed in BIJECTION_SEEDS:
            lp = suite_instance(seed, bound=5)
            reports = verify_bases(lp)
            assert [report.basis for report in reports] == enumerate_bases(lp)
            for report in reports:
                assert report.passed, (seed, report.basis, report.details)
                bases_checked += 1
        elapsed = time.perf_counter() - start
        assert bases_checked > 100
        assert elapsed < 60.0


def test_criterion_4_orthogonal_subspace_properties():
    with criterion(4, "row space orthogonal to kernel; basic solutions embed into both"):
        rng = random.Random(20240)
        for seed in BIJECTION_SEEDS:
            lp = suite_instance(seed, bound=5)
            r = build_R(lp)

            # random row-space vector dot random kernel vector is exactly zero
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(lp.m + 1)]
            ybar = [
                sum(
                    (coeffs[i] * r[i][j] for i in range(lp.m + 1)),
                    Fraction(0),
                )
                for j in range(len(r[0]))
            ]
            xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(lp.n)]
            A0, b, c = lp_fractions(lp)
            slack = [bi - ai for bi, ai in zip(b, mul_vec(A0, xs))]
            xbar = [dot(c, xs)] + xs + slack + [Fraction(1)]
            assert in_kernel(r, xbar)
            assert rowspace_contains(r, ybar)
            assert dot(ybar, xbar) == 0

            for basis in enumerate_bases(lp):
                prim = dictionary_from_basis(initial_dictionary(lp), basis)
                assert in_kernel(r, kernel_embedding(prim))
                dual = dictionary_from_basis(dual_dictionary_direct(lp), prim.nonbasis)
                assert rowspace_contains(r, rowspace_embedding(dual))


def test_criterion_5_solver_matches_brute_force(solver_runs):
    with criterion(5, "solve agrees with the vertex-enumeration oracle on 50 instances"):
        for lp, outcome, _trace in solver_runs:
            check_outcome(lp, outcome)
            kind, value = oracle_solve(lp)
            assert outcome_kind(outcome) == kind
            if kind == "optimal":
                assert outcome.value == value


def test_criterion_6_lockstep_duality(lockstep_runs):
    with criterion(6, "dual simplex mirrors primal simplex through the negative transpose"):
        for _lp, _d, dual_result, primal_result in lockstep_runs:
            dual_final, dual_steps, _ = dual_result
            primal_final, primal_steps, _ = primal_result
            assert [(s.enter, s.leave) for s in primal_steps] == [
                (s.leave, s.enter) for s in dual_steps
            ]
            assert negative_transpose(dual_final) == primal_final


def test_criterion_7_bland_termination(solver_runs, lockstep_runs):
    with criterion(7, "Bland's rule never revisits a basis; counts below C(m+n, m)"):
        def check_run(start_dict, steps, bound):
            seen = {frozenset(start_dict.basis)}
            for step in steps:
                key = frozenset(step.dictionary.basis)
                assert key not in seen
                seen.add(key)
            assert len(steps) <= bound

        for lp, _outcome, trace in solver_runs:
            bound = comb(lp.m + lp.n, lp.m)
            for phase in trace.phases:
                check_run(phase.start, phase.steps, bound)
        for lp, d, dual_result, primal_result in lockstep_runs:
            bound = comb(lp.m + lp.n, lp.m)
            check_run(d, dual_result[1], bound)
            check_run(negative_transpose(d), primal_result[1], bound)


def test_criterion_8_e1_unbounded_certificate(e1):
    with criterion(8, "E1 solves to Unbounded with a substitution-checked ray"):
        outcome, _trace = solve(e1, PivotRule.BLAND)
        assert isinstance(outcome, Unbounded)
        ray = outcome.ray
        assert len(ray) == e1.n
        assert all(v >= 0 for v in ray)
        A0, b, c = lp_fractions(e1)
        a0_ray = mul_vec(A0, ray)
        assert all(v <= 0 for v in a0_ray)
        assert dot(c, ray) > 0
        point = outcome.point
        assert all(v >= 0 for v in point)
        assert all(lhs <= bi for lhs, bi in zip(mul_vec(A0, point), b))
