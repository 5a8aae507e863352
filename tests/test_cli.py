import io
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dictlp import _kernels, duality, render
from dictlp.cli import main, random_lp
from dictlp.render import _draw, _patch, _solver_trace_lines, _term_tables, format_dictionary
from dictlp.dictionary import (
    Dictionary,
    NotABasisError,
    PivotError,
    _arrange,
    dictionary_from_basis,
    initial_dictionary,
    negative_transpose,
    pivot,
)
from dictlp.model import StandardLP, parse_lp, serialize_lp
from dictlp.simplex import Infeasible, PivotRule, PivotStep, SolveTrace, TracePhase, Unbounded, solve

from conftest import DATA, E1_TEXT, divided, entry_denominators, klee_minty, qv, random_pivots
from conftest import replaced, suite_instance, transportation_lp
from oracle import check_outcome
from reference import by_value, enumerate_bases, format_dictionary_by_fractions, lp_fractions, trace_lines_by_fractions

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from corpus import klee_minty as corpus_klee_minty  # noqa: E402  # builds inputs only; never imports dictlp

# The environment of a child interpreter that imports this checkout's package.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def run_child(*argv: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    """``python ARGV...`` in a child interpreter, its output as text."""
    return subprocess.run([sys.executable, *argv], input=stdin, capture_output=True, text=True, env=CHILD_ENV, timeout=120)


def test_the_suite_and_its_children_run_at_the_lowest_digit_limit():
    # conftest.py sets both; without it no tier-1 test would catch a library
    # path that needs a lifted limit.
    assert CHILD_ENV["PYTHONINTMAXSTRDIGITS"] == "640"
    if hasattr(sys, "get_int_max_str_digits"):
        assert sys.get_int_max_str_digits() == 640


PRIMAL_INITIAL = """\
x4 = 18 - 4x1 - 2x2 + 2x3
x5 = -3 + x1 + x2 + 2x3
z = 8x1 + 11x2 - 10x3"""

DUAL_INITIAL = """\
y1 = -8 + 4y4 - y5
y2 = -11 + 2y4 - y5
y3 = 10 - 2y4 - 2y5
-w = -18y4 + 3y5"""

PRIMAL_SECOND = """\
x4 = 6 - 4x5 + 2x2 + 10x3
x1 = 3 + x5 - x2 - 2x3
z = 24 + 8x5 + 3x2 - 26x3"""

DUAL_SECOND = """\
y5 = -8 + 4y4 - y1
y2 = -3 - 2y4 + y1
y3 = 26 - 10y4 + 2y1
-w = -24 - 6y4 - 3y1"""

E1_TRACE = f"""\
{PRIMAL_INITIAL}

dual:
{DUAL_INITIAL}

pivot: enter x1, leave x5
{PRIMAL_SECOND}

dual:
pivot: enter y5, leave y1
{DUAL_SECOND}
"""

_TERM_RE = re.compile(r"(\d+(?:/\d+)?)?([xy])(\d+)\Z")


def parse_dictionary_text(text: str, var_count: int) -> Dictionary:
    """Test-only inverse of ``format_dictionary`` for canonical dictionaries.

    Needs the total variable count because all-zero columns never print.
    """

    def affine(expr: str) -> tuple[Fraction, dict[int, Fraction]]:
        tokens = expr.split(" ")
        const = Fraction(0)
        terms: dict[int, Fraction] = {}

        def record(body: str, sign: int) -> None:
            match = _TERM_RE.fullmatch(body)
            assert match, body
            mag = Fraction(match.group(1)) if match.group(1) else Fraction(1)
            terms[int(match.group(3))] = sign * mag

        head = tokens[0]
        if "x" in head or "y" in head:
            record(head.lstrip("-"), -1 if head.startswith("-") else 1)
        else:
            const = Fraction(head)
        rest = tokens[1:]
        assert len(rest) % 2 == 0
        for sign_tok, body in zip(rest[::2], rest[1::2]):
            record(body, -1 if sign_tok == "-" else 1)
        return const, terms

    *rows, objective = text.strip().splitlines()
    label, _, obj_expr = objective.partition(" = ")
    side = "primal" if label == "z" else "dual"
    basis, p, row_terms = [], [], []
    for line in rows:
        lhs, _, expr = line.partition(" = ")
        basis.append(int(lhs[1:]))
        const, terms = affine(expr)
        p.append(const)
        row_terms.append(terms)
    z_star, obj_terms = affine(obj_expr)
    nonbasis = sorted(set(range(1, var_count + 1)) - set(basis))
    return Dictionary.from_fractions(
        side=side,
        basis=tuple(basis),
        nonbasis=tuple(nonbasis),
        p=qv(p),
        Q=[[-terms.get(v, Fraction(0)) for v in nonbasis] for terms in row_terms],
        q=qv([obj_terms.get(v, Fraction(0)) for v in nonbasis]),
        z_star=z_star,
    )


@pytest.fixture
def e1_file(tmp_path):
    path = tmp_path / "e1.lp"
    path.write_text(E1_TEXT, encoding="utf-8")
    return str(path)


def write_lp(tmp_path, text, name="prob.lp"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_main(argv) -> tuple[int, str]:
    """Exit code and stdout of one CLI call."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestFormatDictionary:
    def test_e1_initial(self, e1):
        assert format_dictionary(initial_dictionary(e1)) == PRIMAL_INITIAL

    def test_e1_initial_dual(self, e1):
        assert format_dictionary(negative_transpose(initial_dictionary(e1))) == DUAL_INITIAL

    def test_e1_second(self, e1):
        assert format_dictionary(pivot(initial_dictionary(e1), 1, 5)) == PRIMAL_SECOND

    def test_e1_second_dual(self, e1):
        d = pivot(initial_dictionary(e1), 1, 5)
        assert format_dictionary(negative_transpose(d)) == DUAL_SECOND

    def test_zero_objective(self):
        lp = StandardLP.from_fractions([[1]], qv([2]), qv([0]))
        assert format_dictionary(initial_dictionary(lp)) == "x2 = 2 - x1\nz = 0"

    def test_fractional_coefficients(self):
        lp = StandardLP.from_fractions([[Fraction(1, 2)]], qv([Fraction(-3, 2)]), qv([Fraction(7, 3)]))
        out = format_dictionary(initial_dictionary(lp))
        assert out == "x2 = -3/2 - 1/2x1\nz = 7/3x1"

    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 4),
        side=st.sampled_from(["primal", "dual"]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_numerators_print_as_the_fractions_do(self, m, n, side, data):
        # Entries of magnitude 1 and 0 next to fractions, so D > 1 with
        # terms that drop their coefficient, and rows that are all zero.
        entry = st.one_of(
            st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
            st.fractions(min_value=-9, max_value=9, max_denominator=8),
        )

        def vec(k):
            return data.draw(st.lists(entry, min_size=k, max_size=k))

        labels = data.draw(st.permutations(range(1, m + n + 1)))
        rows = [vec(n) if data.draw(st.booleans()) else [0] * n for _ in range(m)]
        basis, nonbasis = tuple(labels[:m]), tuple(labels[m:])
        d = Dictionary.from_fractions(side, basis, nonbasis, vec(m), rows, vec(n), data.draw(entry))
        assert format_dictionary(d) == format_dictionary_by_fractions(d)

    @given(seed=st.integers(0, 400), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_recovers_canonical_dictionaries(self, seed, data):
        lp = suite_instance(seed)
        bases = enumerate_bases(lp)
        basis = bases[data.draw(st.integers(0, len(bases) - 1))]
        d = dictionary_from_basis(initial_dictionary(lp), basis)
        # The parsed dictionary is over the lcm of its denominators; d, on a
        # chain from an integer start, is in determinant form.
        parsed = parse_dictionary_text(format_dictionary(d), lp.m + lp.n)
        assert by_value(parsed) == by_value(d)
        dual = negative_transpose(d)
        assert by_value(parse_dictionary_text(format_dictionary(dual), lp.m + lp.n)) == by_value(dual)


def both_views(d: Dictionary, terms=None) -> tuple[str, str]:
    """``d`` and its negative transpose as ``_draw`` prints them in one pass, drawn whole."""
    primal, dual = _draw(d, terms or _term_tables({}, d), True, [])
    return "\n".join(primal), "\n".join(dual)


class TestFlippedRendering:
    """``_draw(d, _term_tables({}, d), True, [])`` prints the negative transpose from d's own numerators, beside d."""

    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 4),
        side=st.sampled_from(["primal", "dual"]),
        picks=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_flipped_lines_print_the_negative_transpose(self, m, n, side, picks, data):
        # Fractions make D > 1 next to entries of magnitude 1 and 0. Zero
        # rows and columns of Q, and a zero p, q or z*, survive the pivots,
        # so both renderings meet zero rows and a zero objective.
        entry = st.one_of(
            st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
            st.fractions(min_value=-9, max_value=9, max_denominator=8).filter(bool),
        )

        def vec(k):
            if data.draw(st.integers(0, 3)) == 0:
                return [Fraction(0)] * k
            return data.draw(st.lists(entry, min_size=k, max_size=k))

        labels = data.draw(st.permutations(range(1, m + n + 1)))
        zero_cols = data.draw(st.sets(st.integers(0, n - 1)))
        rows = [[0 if j in zero_cols else x for j, x in enumerate(vec(n))] for _ in range(m)]
        z_star = Fraction(0) if data.draw(st.booleans()) else data.draw(entry)
        start = Dictionary.from_fractions(side, tuple(labels[:m]), tuple(labels[m:]), vec(m), rows, vec(n), z_star)
        d = random_pivots(start, picks)[-1]
        primal, flipped = both_views(d)
        assert flipped == format_dictionary(negative_transpose(d))
        assert flipped == format_dictionary_by_fractions(negative_transpose(d))
        assert primal == format_dictionary(d) == format_dictionary_by_fractions(d)
        assert _draw(d, _term_tables({}, d), False, [])[1] is None

    def test_an_empty_basis_keeps_its_rows_when_flipped(self):
        # No basic variable: Q has no rows, so its transpose has n rows of length 0.
        d = Dictionary.from_fractions("primal", (), (1, 2), [], [], [3, -1], 2)
        dual = "y1 = -3\ny2 = 1\n-w = -2"
        assert negative_transpose(d).Q_num == ((), ())
        assert format_dictionary(negative_transpose(d)) == dual
        assert format_dictionary_by_fractions(negative_transpose(d)) == dual
        assert both_views(d) == (format_dictionary(d), dual) == ("z = 2 + 3x1 - x2", dual)

    def test_texts_format_each_distinct_numerator_once(self, e1, monkeypatch):
        d = pivot(initial_dictionary(e1), 1, 5)
        calls = []
        real = render.format_rational
        monkeypatch.setattr(render, "format_rational", lambda *a: calls.append(a) or real(*a))
        tables = {}
        minus, plus = terms = _term_tables(tables, d)
        distinct = {d.z_num, *d.p_num, *d.q_num, *(x for row in d.Q_num for x in row)}
        assert len(calls) <= len(distinct) == len(minus) == len(plus)
        assert list(tables) == [d.D]
        formatted = len(calls)
        assert both_views(d, terms) == (PRIMAL_SECOND, DUAL_SECOND)
        assert _term_tables(tables, d) == terms
        assert len(calls) == formatted

    @pytest.mark.parametrize("rule", ["bland", "dantzig"])
    def test_a_trace_formats_each_numerator_over_each_denominator_once(self, rule, monkeypatch):
        # Beale's example has fractional data and repeats numerators from
        # step to step. The term tables live for the whole trace, so a
        # (numerator, D) pair seen at an earlier step is looked up, not
        # formatted again.
        path = DATA / "beale.lp"
        _, trace = solve(parse_lp(path.read_text(encoding="utf-8")), PivotRule(rule))
        numerators = [
            ({d.z_num, *d.p_num, *d.q_num}.union(*d.Q_num), d.D)
            for phase in trace.phases
            for d in (phase.start, *(step.dictionary for step in phase.steps))
        ]
        pairs = {(x, D) for values, D in numerators for x in values}
        assert sum(len(values) for values, _ in numerators) > len(pairs)  # numerators repeat across steps
        calls = []
        real = render.format_rational
        monkeypatch.setattr(render, "format_rational", lambda *a: calls.append(a) or real(*a))
        code, out = run_main(["trace", str(path), "--dual-view", "--rule", rule])
        assert code == 0
        assert out == "\n".join(trace_lines_by_fractions(trace, True)) + "\n"
        assert len(calls) == len(set(calls)) <= len(pairs)
        assert set(calls) <= pairs

    def test_numerators_beyond_the_digit_limit(self, tmp_path, capsys):
        # 5,001-digit numerators: more than the default limit and than the
        # lowest one (640), under which tier-1 also runs.
        big = TestHugeNumbers.BIG
        lp = parse_lp(f"lp v1\n1 2\n1/{big} -1\n1 -{big} {big}\n")
        d = pivot(initial_dictionary(lp), 1, 3)
        # x1 = B - x3 + Bx2, z = 1 - 1/Bx3: the transpose has a zero row
        # constant, a magnitude-1 term and a flipped objective constant.
        dual = f"y3 = 1/{big} + y1\ny2 = 0 - {big}y1\n-w = -1 - {big}y1"
        assert both_views(d)[1] == dual
        assert format_dictionary(negative_transpose(d)) == dual
        assert main(["trace", write_lp(tmp_path, serialize_lp(lp)), "--pivot", "1,3", "--dual-view"]) == 0
        assert capsys.readouterr().out.endswith(f"dual:\npivot: enter y3, leave y1\n{dual}\n")


def dual_side(trace: SolveTrace) -> SolveTrace:
    """``trace`` with each dictionary negatively transposed: a pivot (enter e, leave l) of d is (enter l, leave e) there."""

    def flipped(phase: TracePhase) -> TracePhase:
        steps = tuple(PivotStep(s.leave, s.enter, negative_transpose(s.dictionary)) for s in phase.steps)
        return TracePhase(phase.name, negative_transpose(phase.start), steps)

    return SolveTrace(tuple(map(flipped, trace.phases)))


def assert_both_sides_render(trace: SolveTrace, monkeypatch) -> None:
    """``trace`` and its dual side print in both views what the ``Fraction`` renderer prints.

    One pivot line per pivot and section names the letter of the lines below
    it, and only phase starts are drawn whole: each step is one pivot on.
    """
    whole = []
    patch = render._patch

    def counted(last, d):
        got = patch(last, d)
        whole.append(got is None)
        return got

    monkeypatch.setattr(render, "_patch", counted)
    for t in (trace, dual_side(trace)):
        whole.clear()
        for dual_view in (False, True):
            lines = _solver_trace_lines(t, dual_view)
            assert lines == trace_lines_by_fractions(t, dual_view)
            pivots = [(line, below) for line, below in zip(lines, lines[1:]) if line.startswith("pivot:")]
            assert len(pivots) == (1 + dual_view) * t.pivot_count
            for line, below in pivots:
                assert set(re.findall(r"([xy])\d+", line)) == {below[0]}, (line, below)
        assert sum(whole) == 2 * len(t.phases)


def traces_at_size() -> list:
    """(lp, rule) at sizes the 5x5 properties never reach, all drawn in this order from one ``random.Random(1)``.

    Klee-Minty d = 8 as the benchmark's corpus builds it for each rule, then
    10x10 random LPs on three kinds of data under both rules.
    """
    rng = random.Random(1)
    cases = []
    for rule in ("bland", "dantzig"):
        km = corpus_klee_minty(8, rng, rule)
        lp = StandardLP.from_fractions([list(row) for row in km.A], list(km.b), list(km.c))
        cases.append(pytest.param(lp, rule, id=f"{km.key}-{rule}"))
    for seed in range(1, 6):
        lp = random_lp(10, 10, seed)
        kinds = {"integer": lp, "row-divided": divided(lp, [rng.randint(1, 6) for _ in range(11)])}
        kinds["entry-denominators"] = entry_denominators(lp, lambda: rng.randint(1, 6))
        for kind, data in kinds.items():
            cases += [pytest.param(data, rule, id=f"10x10-seed{seed}-{kind}-{rule}") for rule in ("bland", "dantzig")]
    return cases


class TestTraceRendering:
    """A trace prints, step by step, what the ``Fraction`` renderer prints for each dictionary on its own.

    ``_solver_trace_lines`` keeps one pair of term tables per denominator
    for the whole trace; a table read under another step's D would print
    the wrong magnitudes.
    """

    @given(seed=st.integers(0, 500), rule=st.sampled_from(list(PivotRule)), dual_view=st.booleans())
    # Two-phase traces whose D changes and comes back ([1, 5, 5, 1] on seed
    # 6), and a phase-1 trace that ends infeasible after two pivots.
    @example(seed=6, rule=PivotRule.BLAND, dual_view=True)
    @example(seed=38, rule=PivotRule.DANTZIG, dual_view=True)
    @example(seed=5, rule=PivotRule.BLAND, dual_view=True)
    @settings(max_examples=100, deadline=None)
    def test_solver_traces(self, seed, rule, dual_view):
        _, trace = solve(suite_instance(seed), rule)
        assert _solver_trace_lines(trace, dual_view) == trace_lines_by_fractions(trace, dual_view)

    def test_the_examples_cover_returning_denominators_and_infeasible_traces(self):
        outcome, trace = solve(suite_instance(6), PivotRule.BLAND)
        denominators = [d.D for phase in trace.phases for d in (phase.start, *(s.dictionary for s in phase.steps))]
        assert len(trace.phases) == 2 and denominators == [1, 5, 5, 1]
        outcome, trace = solve(suite_instance(5), PivotRule.BLAND)
        assert isinstance(outcome, Infeasible) and trace.pivot_count == 2

    @given(
        m=st.integers(0, 3),
        n=st.integers(1, 3),
        side=st.sampled_from(["primal", "dual"]),
        fractional=st.booleans(),
        picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_forced_pivot_traces(self, m, n, side, fractional, picks, data):
        # What ``trace --pivot`` prints, from dictionaries with integer or
        # fractional entries, so that D changes from step to step. Every
        # step is one swap, so both views are drawn as patches. On the dual
        # side d's view names y and -w, and the transpose's x and z. With
        # m = 0 no pivot applies: a start whose transpose has n rows of no
        # terms.
        entry = (
            st.fractions(min_value=-6, max_value=6, max_denominator=6)
            if fractional
            else st.integers(-3, 3).map(Fraction)
        )
        labels = data.draw(st.permutations(range(1, m + n + 1)))
        p, q = data.draw(st.lists(entry, min_size=m, max_size=m)), data.draw(st.lists(entry, min_size=n, max_size=n))
        Q = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
        start = Dictionary.from_fractions(side, tuple(labels[:m]), tuple(labels[m:]), p, Q, q, data.draw(entry))
        path = random_pivots(start, picks)
        steps = []
        for before, after in zip(path, path[1:]):
            assert _patch(before, after) is not None
            (enter,) = set(after.basis) - set(before.basis)
            (leave,) = set(before.basis) - set(after.basis)
            steps.append(PivotStep(enter=enter, leave=leave, dictionary=after))
        trace = SolveTrace(phases=(TracePhase("forced pivots", start, tuple(steps)),))
        for dual_view in (False, True):
            assert _solver_trace_lines(trace, dual_view) == trace_lines_by_fractions(trace, dual_view)

    def test_each_pivot_line_names_the_variables_of_its_section(self, e1, monkeypatch):
        # On the dual side the trace's own sections name y and its "dual:"
        # sections x, and so must their pivot lines, as on e1's first
        # phase-2 step.
        _, trace = solve(e1, PivotRule.BLAND)
        text = "\n".join(_solver_trace_lines(dual_side(trace), True))
        assert "\npivot: enter y3, leave y1\ny3 = 26 - 10y4 + 2y1\n" in text
        assert "\ndual:\npivot: enter x1, leave x3\nx4 = 6 + 10x3 + 2x2 - 4x5\nx1 = 3 - 2x3 - x2 + x5\n" in text
        assert_both_sides_render(trace, monkeypatch)

    @pytest.mark.parametrize("lp, rule", traces_at_size())
    def test_traces_at_size(self, lp, rule, monkeypatch):
        _, trace = solve(lp, rule)
        assert_both_sides_render(trace, monkeypatch)


class TestCarriedLines:
    """A trace line carried over from the dictionary one pivot earlier prints what rendering it again would.

    Unit pivots (|a| = D) leave most rows, and in ``--dual-view`` most
    columns, as they were, so these traces carry over the most lines.
    """

    @pytest.mark.parametrize("rule", list(PivotRule))
    @pytest.mark.parametrize(
        "lp",
        [
            transportation_lp(),
            *(klee_minty(d) for d in range(3, 7)),
            klee_minty(4, row_scale=[1, 1, 3, 1]),
            parse_lp((DATA / "beale.lp").read_text(encoding="utf-8")),
        ],
        ids=["transportation", "km3", "km4", "km5", "km6", "km4-row-scaled", "beale"],
    )
    def test_solver_traces(self, lp, rule):
        _, trace = solve(lp, rule)
        for dual_view in (False, True):
            assert _solver_trace_lines(trace, dual_view) == trace_lines_by_fractions(trace, dual_view)

    def test_a_forced_pivot_trace(self, tmp_path):
        lp = transportation_lp()
        pivots = [(1, 10), (5, 11), (9, 12), (4, 13)]
        d = start = initial_dictionary(lp)
        steps = []
        for enter, leave in pivots:
            d = pivot(d, enter, leave)
            steps.append(PivotStep(enter=enter, leave=leave, dictionary=d))
        assert {step.dictionary.D for step in steps} == {1}
        trace = SolveTrace(phases=(TracePhase("forced pivots", start, tuple(steps)),))
        flags = [f"--pivot={enter},{leave}" for enter, leave in pivots]
        code, out = run_main(["trace", write_lp(tmp_path, serialize_lp(lp)), *flags, "--dual-view"])
        assert code == 0 and out.splitlines() == trace_lines_by_fractions(trace, True)

    @pytest.mark.parametrize(
        "rows,b,c,before,after",
        [
            # Row x3 = 0 + x1 becomes x1 = 0 + x3, so x4 keeps its constant
            # and coefficients, one of them under the relabelled head.
            ([[-1, 0], [1, 1]], [0, 4], [1, 1], "x4 = 4 - x1 - x2", "x4 = 4 - x3 - x2"),
            # Column x1 holds only the pivot 1 and q1 = 0, so the dual row y2
            # keeps its constant and coefficients, one under the relabelled head.
            ([[1, 1], [0, 1]], [2, 3], [0, 1], "y2 = -1 + y3 + y4", "y2 = -1 + y1 + y4"),
        ],
        ids=["primal", "dual"],
    )
    def test_a_line_that_changes_only_under_the_relabelled_head_is_rendered_again(
        self, tmp_path, rows, b, c, before, after
    ):
        lp = StandardLP.from_fractions(rows, b, c)
        start = initial_dictionary(lp)
        trace = SolveTrace(phases=(TracePhase("forced pivots", start, (PivotStep(1, 3, pivot(start, 1, 3)),)),))
        code, out = run_main(["trace", write_lp(tmp_path, serialize_lp(lp)), "--pivot", "1,3", "--dual-view"])
        assert code == 0 and out.splitlines() == trace_lines_by_fractions(trace, True)
        first, second = out.split("pivot: enter x1, leave x3")
        assert before in first.splitlines() and after in second.splitlines()


class TestPatchedSteps:
    """A step one pivot from the step before is drawn from what the pivot changed, whatever its D.

    ``_patch`` lists the changed rows and columns; ``_draw`` draws only
    those again, in both views at once, and keeps the rest of the previous
    step's terms, whose text depends on their values alone. Every other
    step is drawn whole. Either
    way a trace prints what the ``Fraction`` renderer prints for each
    dictionary on its own.
    """

    @staticmethod
    def assert_patched_where_the_pivot_changed(before, step):
        # Rows and columns from the step before's values, and every value
        # the pivot changed lies in them.
        d = step.dictionary
        r, s = before.basis.index(step.leave), before.nonbasis.index(step.enter)
        Q0, Q1 = before.Q.row_lists(), d.Q.row_lists()
        rows = [i for i, row in enumerate(Q0) if row[s]]
        cols = [j for j, x in enumerate(Q0[r]) if x]
        assert _patch(before, d) == (r, s, rows, cols)
        assert {i for i in range(d.m) if before.p[i] != d.p[i]} <= {*rows}
        assert {j for j in range(d.n) if before.q[j] != d.q[j]} <= {*cols}
        changed = {(i, j) for i in range(d.m) for j in range(d.n) if Q0[i][j] != Q1[i][j]}
        assert changed <= {(i, j) for i in rows for j in cols}

    @given(
        m=st.integers(1, 5),
        n=st.integers(1, 5),
        seed=st.integers(0, 10_000),
        data_kind=st.sampled_from(["integer", "row-divided", "entry denominators"]),
        rule=st.sampled_from(list(PivotRule)),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_lp_traces(self, m, n, seed, data_kind, rule, data):
        lp = random_lp(m, n, seed)
        if data_kind == "row-divided":
            lp = divided(lp, data.draw(st.lists(st.integers(1, 6), min_size=m + 1, max_size=m + 1)))
        elif data_kind == "entry denominators":
            lp = entry_denominators(lp, lambda: data.draw(st.integers(1, 6)))
        _, trace = solve(lp, rule)
        for dual_view in (False, True):
            assert _solver_trace_lines(trace, dual_view) == trace_lines_by_fractions(trace, dual_view)

    def test_a_non_unit_pivot_that_keeps_the_printed_denominator(self):
        # Pivot element 4 (value 4, not +-1) between two dictionaries printed
        # over D = 4, though the second stores D = 16: patched all the same.
        _, trace = solve(random_lp(3, 3, 3, 5), PivotRule.BLAND)
        (phase,) = trace.phases
        path = [phase.start, *(step.dictionary for step in phase.steps)]
        printed = []
        for before, step in zip(path, phase.steps):
            r, s = before.basis.index(step.leave), before.nonbasis.index(step.enter)
            self.assert_patched_where_the_pivot_changed(before, step)
            printed.append((Fraction(before.Q_num[r][s], before.D), by_value(before).D, by_value(step.dictionary).D))
        assert (4, 4, 4) in printed
        assert [d.D for d in path] == [1, 4, 16]
        for dual_view in (False, True):
            assert _solver_trace_lines(trace, dual_view) == trace_lines_by_fractions(trace, dual_view)

    def test_a_denominator_that_changes_and_comes_back_within_a_phase(self):
        _, trace = solve(random_lp(3, 3, 0, 5), PivotRule.BLAND)
        phase = trace.phases[1]
        path = [phase.start, *(step.dictionary for step in phase.steps)]
        assert [by_value(d).D for d in path] == [3, 2, 3]
        for before, step in zip(path, phase.steps):
            self.assert_patched_where_the_pivot_changed(before, step)
        for dual_view in (False, True):
            assert _solver_trace_lines(trace, dual_view) == trace_lines_by_fractions(trace, dual_view)

    @pytest.mark.parametrize(
        "lp",
        [
            *[klee_minty(d, row_scale=[3, 1, 2, 5, 7, 4][:d]) for d in range(3, 7)],
            divided(random_lp(6, 6, 11), [2, 3, 5, 7, 2, 3, 5]),
        ],
        ids=["km3-scaled", "km4-scaled", "km5-scaled", "km6-scaled", "divided-6x6"],
    )
    def test_bland_traces_patch_every_step_after_the_start(self, lp):
        # Scaled rows give non-unit pivots, so the stored D changes along the
        # path; the divided LP pivots in reduced form with D > 1 throughout.
        _, trace = solve(lp, PivotRule.BLAND)
        steps = 0
        for phase in trace.phases:
            path = [phase.start, *(step.dictionary for step in phase.steps)]
            for before, step in zip(path, phase.steps):
                self.assert_patched_where_the_pivot_changed(before, step)
            steps += len(phase.steps)
        assert steps >= 3 and len({step.dictionary.D for phase in trace.phases for step in phase.steps}) > 1
        for dual_view in (False, True):
            assert _solver_trace_lines(trace, dual_view) == trace_lines_by_fractions(trace, dual_view)

    def test_a_step_on_the_other_side_is_drawn_whole(self):
        # One swap from the step before, but a dual dictionary: its rows name
        # y variables, which no term of the primal step before could give.
        d0 = initial_dictionary(klee_minty(3))
        d1 = replace(pivot(d0, 1, 4), side="dual")
        assert _patch(d0, d1) is None
        trace = SolveTrace(phases=(TracePhase("forced pivots", d0, (PivotStep(1, 4, d1),)),))
        for dual_view in (False, True):
            lines = _solver_trace_lines(trace, dual_view)
            assert lines == trace_lines_by_fractions(trace, dual_view)
            assert "y5 = 5 + 4y4 - y2" in lines

    def test_a_step_that_is_not_one_pivot_from_the_step_before_is_drawn_whole(self):
        # Every pivot of the cube is a unit pivot at D = 1, so only the
        # labels decide: two pivots at once, one pivot, then the same
        # dictionary with two rows swapped.
        d0 = initial_dictionary(klee_minty(3))
        d1 = pivot(pivot(d0, 1, 4), 2, 5)
        d2 = pivot(d1, 3, 6)
        d3 = _arrange(d2, (d2.basis[1], d2.basis[0], d2.basis[2]), d2.nonbasis)
        assert {d.D for d in (d0, d1, d2, d3)} == {1}
        assert [_patch(last, d) is None for last, d in [(d0, d1), (d1, d2), (d2, d3)]] == [True, False, True]
        steps = (PivotStep(2, 5, d1), PivotStep(3, 6, d2), PivotStep(3, 6, d3))
        trace = SolveTrace(phases=(TracePhase("forced pivots", d0, steps),))
        for dual_view in (False, True):
            assert _solver_trace_lines(trace, dual_view) == trace_lines_by_fractions(trace, dual_view)


class TestOnePassDrawing:
    """``_draw`` writes each drawn cell of Q in both views at once, so ``--dual-view`` walks each step once."""

    @pytest.mark.parametrize("dual_view", [False, True])
    @pytest.mark.parametrize("rule", ["bland", "dantzig"])
    def test_each_step_is_drawn_once_in_either_view(self, dual_view, rule, monkeypatch):
        lp = parse_lp((DATA / "beale.lp").read_text(encoding="utf-8"))
        _, trace = solve(lp, PivotRule(rule))
        calls = []
        real = render._draw

        def counted(d, tables, dual, view, patch=None):
            calls.append(dual)
            return real(d, tables, dual, view, patch)

        monkeypatch.setattr(render, "_draw", counted)
        assert _solver_trace_lines(trace, dual_view) == trace_lines_by_fractions(trace, dual_view)
        assert calls == [dual_view] * sum(1 + len(phase.steps) for phase in trace.phases)
        assert len(calls) > 6


class TestSolveCommand:
    def test_e1_unbounded(self, e1_file, capsys):
        code = main(["solve", e1_file])
        out = capsys.readouterr().out
        assert code == 2
        lines = dict(line.split(" = ") for line in out.strip().splitlines())
        assert lines["outcome"] == "unbounded"
        ray = [Fraction(tok) for tok in lines["ray"].split()]
        point = [Fraction(tok) for tok in lines["point"].split()]
        check_outcome(parse_lp(E1_TEXT), Unbounded(point=qv(point), ray=qv(ray)))

    def test_infeasible(self, tmp_path, capsys):
        path = write_lp(tmp_path, "lp v1\n1 1\n0\n1 -1\n")
        code = main(["solve", path])
        out = capsys.readouterr().out
        assert code == 3
        assert "outcome = infeasible" in out
        assert "farkas = 1" in out

    def test_trivially_optimal(self, tmp_path, capsys):
        path = write_lp(tmp_path, "lp v1\n1 2\n-1 -2\n1 2 5\n")
        code = main(["solve", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "outcome = optimal" in out
        assert "value = 0" in out
        assert "pivots = 0" in out

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("lp v1\n1 1\n-1\n1 1\n"))
        code = main(["solve", "-"])
        assert code == 0
        assert "value = 0" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_byte_order_mark_is_ignored(self, tmp_path, monkeypatch, source):
        text = b"lp v1\n1 1\n1\n1 1\n"
        results = []
        for data in (text, b"\xef\xbb\xbf" + text):
            if source == "file":
                path = tmp_path / "prob.lp"
                path.write_bytes(data)
                argv = ["solve", str(path)]
            else:
                monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
                argv = ["solve", "-"]
            results.append(run_main(argv))
        assert results[0][0] == 0
        assert results[1] == results[0]

    def test_corrupted_kernel_exits_6(self, capsys, monkeypatch):
        # A kernel that adds 1 to z* after every pivot: the solve ends with a
        # value its point does not reach, and the re-check refuses it.
        real = _kernels.pivot_update

        def corrupted(*args):
            p, Q, q, z, D = real(*args)
            return p, Q, q, z + D, D

        monkeypatch.setattr(_kernels, "pivot_update", corrupted)
        code = main(["solve", str(DATA / "beale.lp")])
        captured = capsys.readouterr()
        assert code == 6
        assert captured.out == ""
        assert captured.err.startswith("certificate error: objective at the point is not ")


def permuted_klee_minty(d: int, seed: int) -> StandardLP:
    """``klee_minty(d)`` with its rows and columns shuffled; no objective entries or ratios tie, so Dantzig still takes 2^d - 1 pivots."""
    A0, b, c = lp_fractions(klee_minty(d))
    rng = random.Random(seed)
    rows, cols = rng.sample(range(d), d), rng.sample(range(d), d)
    return StandardLP.from_fractions([[A0[i][j] for j in cols] for i in rows], [b[i] for i in rows], [c[j] for j in cols])


class TestPivotPathMemory:
    """``solve`` keeps its pivot path as positions and never reads it; ``trace`` keeps every dictionary and never pivots twice."""

    @pytest.fixture
    def pivot_updates(self, monkeypatch) -> list[int]:
        """A one-entry list counting the kernel's pivots from here on."""
        count = [0]
        real = _kernels.pivot_update

        def counted(*args):
            count[0] += 1
            return real(*args)

        monkeypatch.setattr(_kernels, "pivot_update", counted)
        return count

    def test_solve_pivots_once_per_pivot_in_memory_that_does_not_grow_with_the_path(self, tmp_path, pivot_updates):
        # Keeping every dictionary of the path took 2.9 MB (Python 3.11, Linux x86-64).
        path = write_lp(tmp_path, serialize_lp(permuted_klee_minty(10, 1)))
        argv = ["solve", path, "--rule", "dantzig"]
        run_main(argv)  # first calls fill caches that a second call reuses
        pivot_updates[0] = 0
        tracemalloc.start()
        try:
            code, out = run_main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and out.endswith("pivots = 1023\n")
        assert pivot_updates[0] == 1023
        assert peak < 64 * 1024

    @pytest.mark.parametrize("dual_view", [False, True])
    def test_trace_pivots_once_per_step(self, tmp_path, pivot_updates, dual_view):
        path = write_lp(tmp_path, serialize_lp(permuted_klee_minty(6, 1)))
        code, out = run_main(["trace", path, "--rule", "dantzig", *(["--dual-view"] if dual_view else [])])
        assert code == 0
        assert out.count("pivot: enter x") == pivot_updates[0] == 63


class TestTraceCommand:
    def test_worked_example_reproduction(self, e1_file, capsys):
        code = main(["trace", e1_file, "--pivot", "1,5", "--dual-view"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == E1_TRACE
        for block in (PRIMAL_INITIAL, DUAL_INITIAL, PRIMAL_SECOND, DUAL_SECOND):
            assert block in out

    def test_zero_pivot_instance_prints_single_dictionary(self, tmp_path, capsys):
        path = write_lp(tmp_path, "lp v1\n1 1\n-1\n1 1\n")
        code = main(["trace", path])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "x2 = 1 - x1\nz = -x1"

    def test_solver_trace_headers(self, e1_file, capsys):
        code = main(["trace", e1_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "== phase 1: dual simplex, auxiliary objective ==" in out
        assert "== phase 2: primal simplex ==" in out
        assert out.count("pivot: enter") == 4

    @given(seed=st.integers(0, 300), rule=st.sampled_from(["bland", "dantzig"]))
    @settings(max_examples=40, deadline=None)
    def test_solver_pivots_forced_print_the_solver_trace(self, seed, rule):
        A0, b, c = lp_fractions(suite_instance(seed))
        lp = StandardLP.from_fractions(A0, [abs(x) for x in b], c)
        _, trace = solve(lp, PivotRule(rule))
        (phase,) = trace.phases
        assume(phase.steps)
        forced = [arg for s in phase.steps for arg in ("--pivot", f"{s.enter},{s.leave}")]
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "prob.lp")
            Path(path).write_text(serialize_lp(lp), encoding="utf-8")
            for view in ([], ["--dual-view"]):
                by_solver = run_main(["trace", path, "--rule", rule, *view])
                assert run_main(["trace", path, *forced, *view]) == by_solver
                assert by_solver[0] == 0

    def test_no_flag_carries_over_between_calls(self, e1_file, capsys):
        outputs = []
        for view in ([], [], ["--dual-view"], []):
            assert main(["trace", e1_file, "--pivot", "1,5", *view]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[3]
        assert ["dual:" in out for out in outputs] == [False, False, True, False]

    def test_bad_pivot_flag(self, e1_file, capsys):
        assert main(["trace", e1_file, "--pivot", "15"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_illegal_pivot(self, e1_file, capsys):
        assert main(["trace", e1_file, "--pivot", "4,5"]) == 1
        assert "not nonbasic" in capsys.readouterr().err

    def test_zero_pivot_element_names_the_variables(self, tmp_path, capsys):
        assert main(["trace", write_lp(tmp_path, "lp v1\n1 1\n0\n0 0\n"), "--pivot", "1,2"]) == 1
        assert capsys.readouterr().err == "error: zero pivot element for entering variable 1 and leaving variable 2\n"


class TestDualCommand:
    def test_e1(self, e1_file, capsys):
        code = main(["dual", e1_file])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "lp v1\n3 2\n-18 3\n-4 1 -8\n-2 1 -11\n2 2 10\n"

    def test_round_trips_through_parser(self, e1_file, capsys):
        main(["dual", e1_file])
        out = capsys.readouterr().out
        assert serialize_lp(parse_lp(out)) == out


class TestDictCommand:
    def test_second_basis(self, e1_file, capsys):
        code = main(["dict", e1_file, "--basis", "4,1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "x4 = 6 + 2x2 + 10x3 - 4x5\nx1 = 3 - x2 - 2x3 + x5\nz = 24 + 3x2 - 26x3 + 8x5\n"

    def test_not_a_basis(self, tmp_path, capsys):
        path = write_lp(tmp_path, "lp v1\n1 1\n1\n0 1\n")
        assert main(["dict", path, "--basis", "1"]) == 1
        assert "linearly dependent" in capsys.readouterr().err

    def test_bad_basis_flag(self, e1_file, capsys):
        assert main(["dict", e1_file, "--basis", "a,b"]) == 1
        assert "usage error" in capsys.readouterr().err


class TestVerifyCommand:
    def test_e1_full_pass(self, e1_file, capsys):
        code = main(["verify", e1_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "verified 10/10 bases" in out
        assert out.count(": pass") == 10

    def test_budget_refusal(self, e1_file, capsys):
        code = main(["verify", e1_file, "--limit", "3"])
        err = capsys.readouterr().err
        assert code == 5
        assert "10" in err

    def test_random_instance_passes(self, tmp_path, capsys):
        lp = random_lp(3, 3, seed=7, bound=5)
        path = write_lp(tmp_path, serialize_lp(lp))
        code = main(["verify", path])
        out = capsys.readouterr().out
        assert code == 0
        assert re.search(r"verified (\d+)/\1 bases", out)

    def test_an_8x8_instance_passes_in_bounded_memory(self, tmp_path, eight_by_eight):
        # 12,838 bases in a fresh process. The walk's stack holds the unexpanded
        # children of one search-tree path, not one entry per basis: the whole
        # process peaks at about 20 MB on either data kind (Python 3.11, Linux
        # x86-64), against 108 MB for a walk that keeps a visited set.
        verify = [sys.executable, "-m", "dictlp.cli", "verify", write_lp(tmp_path, serialize_lp(eight_by_eight))]
        proc = run_child(str(ROOT / "tests" / "peak_rss.py"), *verify)
        assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "verified 12838/12838 bases")
        rss = re.fullmatch(r"max RSS KiB = (\d+)\n", proc.stderr)
        assert rss and int(rss[1]) <= 48 * 1024

    @staticmethod
    def failing_verify(path: str, capsys) -> list[str]:
        """The output lines of a ``verify`` of ``path`` that exits 4 with no error line."""
        code = main(["verify", path])
        captured = capsys.readouterr()
        assert (code, captured.err) == (4, "")
        return captured.out.splitlines()

    @staticmethod
    def fail_dual_pivot_onto(dual_basis: list[int], monkeypatch) -> None:
        """Make the walk's dual pivot onto ``dual_basis`` (sorted) fail."""
        real_pivot = duality.pivot

        def broken(d, enter, leave):
            if d.side == "dual" and sorted(set(d.basis) - {leave} | {enter}) == dual_basis:
                raise PivotError(f"zero pivot element for entering variable {enter}")
            return real_pivot(d, enter, leave)

        monkeypatch.setattr(duality, "pivot", broken)

    def test_corrupted_dictionary_fails_its_basis(self, e1_file, capsys, monkeypatch):
        # The corruption goes into the per-basis check, not into the walk's
        # pivots, which the bases after this one are reached from. The
        # corrupted dictionary's row space is tested against R's rows.
        real_report = duality._report
        rows = duality._scaled_rows(initial_dictionary(parse_lp(E1_TEXT)))

        def corrupted(prim, dual, rs_ok):
            if sorted(prim.basis) == [1, 4]:
                Q = prim.Q.row_lists()
                Q[0][0] += 1
                prim = replaced(prim, Q=Q)
                rs_ok = duality._spans(rows, prim)
            return real_report(prim, dual, rs_ok)

        monkeypatch.setattr(duality, "_report", corrupted)
        code = main(["verify", e1_file])
        out = capsys.readouterr().out.splitlines()
        assert code == 4
        assert out[2].startswith("basis 1,4: FAIL (")
        assert "dictionary row space differs from row space of R" in out[2]
        assert out.count("basis 1,5: pass") == 1
        assert sum(": pass" in line for line in out) == 9
        assert out[-1] == "verified 9/10 bases"

    def test_broken_lockstep_fails_its_basis(self, e1_file, capsys, monkeypatch):
        # The dual pivot that should follow the primal one onto basis 1,4
        # (dual basic set N = 2,3,5) fails: that basis has no dual to compare.
        self.fail_dual_pivot_onto([2, 3, 5], monkeypatch)
        out = self.failing_verify(e1_file, capsys)
        assert out[2] == "basis 1,4: FAIL (negative transpose differs from direct dual dictionary on N=(2, 3, 5))"
        assert sum(": pass" in line for line in out) == 9
        assert out[-1] == "verified 9/10 bases"

    def test_broken_lockstep_above_a_subtree_fails_its_basis_alone(self, tmp_path, capsys, monkeypatch):
        # Basis 1,5,6 of this instance is an interior node of the walk's
        # search tree: six bases are reached from it by one pivot each. Its
        # dual pivot (onto N = 2,3,4,7) fails, so its children build their
        # duals from the dual start instead, and pass.
        lp = random_lp(3, 4, seed=1)
        steps = list(duality.walk_bases(initial_dictionary(lp)))
        parents = [sorted(parent.basis) for _, _, (parent, _, _) in steps[1:]]
        assert parents.count([1, 5, 6]) == 6
        self.fail_dual_pivot_onto([2, 3, 4, 7], monkeypatch)
        out = self.failing_verify(write_lp(tmp_path, serialize_lp(lp)), capsys)
        assert [line for line in out if ": pass" not in line][:-1] == [
            "basis 1,5,6: FAIL (negative transpose differs from direct dual dictionary on N=(2, 3, 4, 7))"
        ]
        assert out[-1] == f"verified {len(steps) - 1}/{len(steps)} bases"

    def test_failed_dual_rebuild_fails_the_children_too(self, e1_file, capsys, monkeypatch):
        # When the dual pivot onto basis 1,4 fails and so does the rebuild of
        # its children's duals (1,2 and 1,3), all three print FAIL lines.
        def no_rebuild(start, basis):
            raise NotABasisError(f"columns of basis {basis} are linearly dependent")

        self.fail_dual_pivot_onto([2, 3, 5], monkeypatch)
        monkeypatch.setattr(duality, "dictionary_from_basis", no_rebuild)
        out = self.failing_verify(e1_file, capsys)
        assert [line.split(":")[0] for line in out if "FAIL" in line] == ["basis 1,2", "basis 1,3", "basis 1,4"]
        assert out[-1] == "verified 7/10 bases"


class TestSlackDictionaryBuiltOnce:
    """The instance's rationals become integers once, in the parser, not once per basis.

    No command builds an instance or a dictionary from rationals after that:
    the slack dictionary is the instance's own numerators.
    """

    @pytest.fixture
    def from_fractions_calls(self, monkeypatch):
        calls = []
        for cls in (Dictionary, StandardLP):
            real = cls.from_fractions

            def counted(*args, real=real, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(cls, "from_fractions", counted)
        return calls

    def test_solve(self, e1_file, capsys, from_fractions_calls):
        assert main(["solve", e1_file]) == 2
        assert len(from_fractions_calls) == 0

    @pytest.mark.parametrize("text", [E1_TEXT, serialize_lp(random_lp(4, 4, seed=3))], ids=["e1", "4x4"])
    def test_verify(self, tmp_path, capsys, from_fractions_calls, text):
        assert main(["verify", write_lp(tmp_path, text)]) == 0
        assert re.search(r"verified (\d\d+)/\1 bases", capsys.readouterr().out)
        assert len(from_fractions_calls) == 0


class TestHugeNumbers:
    """Rationals longer than CPython's default int/str limit of 4,300 digits."""

    BIG = "7" + "0123456789" * 500  # 5,001 digits

    @pytest.fixture(autouse=True)
    def default_digit_limit(self):
        # Start each test from the interpreter default, so that no limit
        # lifted elsewhere in the process lets a conversion through.
        if not hasattr(sys, "set_int_max_str_digits"):
            yield
            return
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(saved)

    def huge_file(self, tmp_path):
        return write_lp(tmp_path, f"lp v1\n1 1\n1\n1 {self.BIG}\n")

    def test_solve_prints_exact_optimum(self, tmp_path, capsys):
        code = main(["solve", self.huge_file(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out == f"outcome = optimal\nvalue = {self.BIG}\npoint = {self.BIG}\npivots = 1\n"

    def test_verify_passes_every_basis(self, tmp_path, capsys):
        code = main(["verify", self.huge_file(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "basis 1: pass\nbasis 2: pass\nverified 2/2 bases\n"

    def test_main_leaves_the_digit_limit_alone(self, tmp_path, capsys):
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this interpreter has no digit limit")
        before = sys.get_int_max_str_digits()
        assert main(["solve", self.huge_file(tmp_path)]) == 0
        assert sys.get_int_max_str_digits() == before

    def test_library_under_the_lowest_digit_limit(self):
        # A fresh interpreter at the lowest limit CPython allows, which never
        # calls main(): every library conversion must go through chunks.
        script = """if True:
            import sys
            from dictlp.render import format_dictionary
            from dictlp.dictionary import initial_dictionary
            from dictlp.exact import format_rational
            from dictlp.model import ParseError, dual_lp, parse_lp, serialize_lp
            from dictlp.simplex import solve

            big = sys.stdin.read()
            lp = parse_lp(f"lp v1\\n1 1\\n1/{big}\\n1 {big}\\n")
            outcome, trace = solve(lp)
            final = trace.phases[-1].steps[-1].dictionary
            try:
                parse_lp(f"lp v1\\n1 {big}\\n1\\n1 1\\n")
            except ParseError as exc:
                error = str(exc)
            texts = [
                serialize_lp(lp),
                serialize_lp(dual_lp(lp)),
                format_dictionary(initial_dictionary(lp)),
                format_dictionary(final),
                " ".join(format_rational(*x.as_integer_ratio()) for x in (outcome.value, *outcome.point)),
                error,
            ]
            print("\\n---\\n".join(texts))
        """
        proc = run_child("-X", "int_max_str_digits=640", "-c", script, stdin=self.BIG)
        assert proc.stderr == ""
        big = self.BIG
        assert proc.stdout.split("\n---\n") == [
            f"lp v1\n1 1\n1/{big}\n1 {big}\n",
            f"lp v1\n1 1\n-{big}\n-1 -1/{big}\n",
            f"x2 = {big} - x1\nz = 1/{big}x1",
            f"x1 = {big} - x2\nz = 1 - 1/{big}x2",
            f"1 {big}",
            f"line 3: objective row: expected {big} values, found 1\n",
        ]

    def test_flag_values_under_the_lowest_digit_limit(self, e1_file):
        # Flag values of 5,000 digits, in a fresh interpreter at the lowest
        # limit: each command ends in its result or in one error line.
        big = "7" * 5000

        def run(*argv):
            proc = run_child("-X", "int_max_str_digits=640", "-m", "dictlp.cli", *argv)
            return proc.returncode, proc.stdout, proc.stderr

        code, out, err = run("verify", e1_file, "--limit", big)
        assert (code, out.splitlines()[-1], err) == (0, "verified 10/10 bases", "")
        assert run("verify", e1_file, "--limit", f"-{big}") == (
            5,
            "",
            f"refused: C(m+n, m) = 10 candidate bases exceed the limit -{big}\n",
        )
        assert run("dict", e1_file, "--basis", f"{big},4") == (
            1,
            "",
            f"error: basis must be distinct indices in 1..5: ({big}, 4)\n",
        )
        assert run("trace", e1_file, "--pivot", f"{big},4") == (
            1,
            "",
            f"error: entering variable {big} is not nonbasic\n",
        )
        code, out, err = run("random", "--m", "1", "--n", "1", "--seed", big)
        assert (code, err) == (0, "")
        assert out == serialize_lp(random_lp(1, 1, seed=7 * (10**5000 - 1) // 9))


class TestRandomCommand:
    def test_deterministic(self, capsys):
        assert main(["random", "--m", "2", "--n", "2", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["random", "--m", "2", "--n", "2", "--seed", "1"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_output_parses_and_round_trips(self, capsys):
        assert main(["random", "--m", "3", "--n", "2", "--seed", "42", "--bound", "5"]) == 0
        out = capsys.readouterr().out
        lp = parse_lp(out)
        assert serialize_lp(lp) == out
        assert lp.m == 3 and lp.n == 2
        assert all(abs(x) <= 5 for row in lp_fractions(lp)[0] for x in row)

    def test_seeds_differ(self):
        assert random_lp(2, 2, seed=1) != random_lp(2, 2, seed=2)

    def test_bad_dimensions(self, capsys):
        assert main(["random", "--m", "0", "--n", "2", "--seed", "1"]) == 1

    def test_bound_below_one(self, capsys):
        assert main(["random", "--m", "2", "--n", "2", "--seed", "1", "--bound", "0"]) == 1
        assert capsys.readouterr() == ("", "usage error: bound must be at least 1\n")


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/x.lp"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_has_line_number(self, tmp_path, capsys):
        path = write_lp(tmp_path, "lp v2\n1 1\n1\n1 1\n")
        assert main(["solve", path]) == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["1_0 1", "+1 1", "1 \u0661"])
    def test_dimension_line_takes_ascii_digits_only(self, tmp_path, capsys, dims):
        path = write_lp(tmp_path, f"lp v1\n{dims}\n1\n1 1\n")
        assert main(["solve", path]) == 1
        assert "parse error: line 2: dimensions must be decimal integers" in capsys.readouterr().err

    def test_rational_takes_ascii_digits_only(self, tmp_path, capsys):
        # U+0663 is the Arabic-Indic digit three
        path = write_lp(tmp_path, "lp v1\n1 1\n\u0663\n1 \u0663\n")
        assert main(["solve", path]) == 1
        assert "parse error: line 3: malformed rational" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["solve"], ["trace"], ["trace", "--pivot", "1,2"], ["dual"], ["dict", "--basis", "2"], ["verify"]],
        ids=["solve", "trace", "trace-pivot", "dual", "dict", "verify"],
    )
    def test_non_utf8_file_is_one_error_line(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.lp"
        path.write_bytes(b"lp v1\n1 1\n1\n1 \xff\n")
        assert main([argv[0], str(path), *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument(self, capsys):
        assert main(["solve"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["dict", "E1", "--basis", "\u0661,\u0665"],
            ["trace", "E1", "--pivot", "+1,5"],
            ["verify", "E1", "--limit", "1_0"],
            ["random", "--m", "\u0662", "--n", "2", "--seed", "1"],
            ["random", "--m", "2", "--n", "+2", "--seed", "1"],
            ["random", "--m", "2", "--n", "2", "--seed", "1_0"],
            ["random", "--m", "2", "--n", "2", "--seed", "1", "--bound", " 5"],
        ],
        ids=["basis", "pivot", "limit", "m", "n", "seed", "bound"],
    )
    def test_integer_flags_take_ascii_digits_only(self, e1_file, capsys, argv):
        # U+0661, U+0662 and U+0665 are Arabic-Indic digits, which int() accepts.
        assert main([e1_file if a == "E1" else a for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")

    def test_seed_takes_a_leading_minus(self, capsys):
        assert main(["random", "--m", "2", "--n", "2", "--seed", "-3"]) == 0
        assert capsys.readouterr().out == serialize_lp(random_lp(2, 2, seed=-3))


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    def test_exits_1_without_a_message(self, e1_file, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(["solve", e1_file]) == 1
        assert capsys.readouterr().err == ""

    def test_reader_closing_after_one_line(self, tmp_path):
        # About 84 KB of output: more than a pipe holds, so the CLI is still
        # writing when the reader goes away.
        path = write_lp(tmp_path, serialize_lp(random_lp(15, 15, seed=3)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "dictlp.cli", "trace", path, "--dual-view"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            bufsize=0,
            env=CHILD_ENV,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=120)
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.stderr.close()
        assert first.startswith(b"x16 = -8 + 3x1")
        assert code == 1
        assert err == b""
