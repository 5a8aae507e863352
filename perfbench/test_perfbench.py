"""Tests of the benchmark itself (not collected by the repository's test run).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

The traced pass runs twice on the default seed and every count it reports
must repeat exactly; a second seed must pass every output check. Together
they take a few minutes.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from check import check, substitute_solve
from corpus import WORKLOADS, Instance, Op, beale, build
from worker import DEFAULT_SEED, EXPECTED, ROOT, Runner, import_dictlp, traced_pass

DICTLP = import_dictlp()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMINGS = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "s"} | {"trace.overhead"}


def make_runner(workload: str, seed: int, tmp_path) -> Runner:
    expected = None
    if seed == DEFAULT_SEED:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload]
    runner = Runner(build(workload, seed), DICTLP.cli, tmp_path / workload, expected)
    runner.write_corpus()
    return runner


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    counts = []
    for _ in range(2):
        runner = make_runner(workload, DEFAULT_SEED, tmp_path)
        metrics, _, _ = traced_pass(runner)
        assert runner.failures == {}
        counts.append({k: v for k, v in metrics.items() if k not in TIMINGS})
    assert counts[0] == counts[1]
    reported = set(metrics) | {"trace.overhead"}
    assert reported == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_every_check(workload, tmp_path):
    runner = make_runner(workload, DEFAULT_SEED + 1, tmp_path)
    runner.one_pass()
    assert runner.failures == {}
    assert len(runner.summaries) == len(runner.corpus.ops)


def _lp(rows, b, c) -> Instance:
    frac = lambda xs: tuple(map(Fraction, xs))  # noqa: E731
    return Instance("hand", tuple(map(frac, rows)), frac(b), frac(c))


def test_substitution_rejects_wrong_certificates():
    lp = _lp([[1, 1], [1, -1]], [4, 2], [1, 1])
    assert substitute_solve(lp, 0, "outcome = optimal\nvalue = 4\npoint = 3 1\npivots = 2\n") is None
    wrong_value = "outcome = optimal\nvalue = 5\npoint = 3 1\npivots = 2\n"
    assert substitute_solve(lp, 0, wrong_value) == "value differs from c.point"
    assert substitute_solve(lp, 3, wrong_value) == "exit code 3 does not match outcome 'optimal'"
    outside = "outcome = optimal\nvalue = 5\npoint = 5 0\npivots = 2\n"
    assert substitute_solve(lp, 0, outside) == "optimal point is infeasible"
    no_ray = "outcome = unbounded\npoint = 0 0\nray = 1 0\npivots = 0\n"
    assert substitute_solve(lp, 2, no_ray) == "ray is not a recession direction"

    empty = _lp([[1]], [-1], [1])
    assert substitute_solve(empty, 3, "outcome = infeasible\nfarkas = 1\npivots = 1\n") is None
    weak = "outcome = infeasible\nfarkas = 0\npivots = 1\n"
    assert substitute_solve(empty, 3, weak) == "farkas u.b is not negative"


def test_known_optimum_is_enforced():
    op = Op("beale", "solve", beale(), ("--rule", "bland"), "bland")
    right = "outcome = optimal\nvalue = 5/4\npoint = 1 0 1 0\npivots = 6\n"
    assert check(op, 0, right)[0] is None
    # Feasible and consistent, but not optimal: only the known optimum catches it.
    wrong = "outcome = optimal\nvalue = 0\npoint = 0 0 0 0\npivots = 0\n"
    assert check(op, 0, wrong)[0] == "value 0, optimum is 5/4"
