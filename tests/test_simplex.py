from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dictlp.dictionary import (
    Dictionary,
    dictionary_from_basis,
    initial_dictionary,
    is_dual_feasible,
    is_primal_feasible,
    negative_transpose,
    pivot,
)
from dictlp import simplex
from dictlp.model import StandardLP, parse_lp
from dictlp.simplex import (
    CertificateError,
    Infeasible,
    Optimal,
    PivotRule,
    Unbounded,
    _pick,
    _ratio_test,
    dual_simplex,
    primal_simplex,
    solve,
)

from conftest import DATA, divided, dual_feasible_instance, fr, qv, suite_instance
from oracle import check_outcome, oracle_solve, outcome_kind
from reference import basic_solution, by_value, lp_fractions, priced_by_fractions


@pytest.fixture
def e1_second(e1):
    return pivot(initial_dictionary(e1), 1, 5)


def tiny(a0, b, c) -> StandardLP:
    return StandardLP.from_fractions(a0, qv(b), qv(c))


def column(d: Dictionary, s: int) -> list[int]:
    return [row[s] for row in d.Q_num]


@contextmanager
def pivot_budget(limit: int):
    """Turn more than ``limit`` solver pivots into a failure instead of an endless loop."""
    real_pivot = simplex.pivot
    count = 0

    def budgeted(d, enter, leave):
        nonlocal count
        count += 1
        if count > limit:
            raise RuntimeError("pivot budget exhausted: the rule cycles")
        return real_pivot(d, enter, leave)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "pivot", budgeted)
        yield


class TestChooseEntering:
    """The entering choice: ``_pick`` over the nonbasic labels and the objective row."""

    def test_bland_smallest_index(self, e1):
        d = initial_dictionary(e1)
        assert _pick(d.nonbasis, d.q_num, PivotRule.BLAND) == 1

    def test_dantzig_largest_coefficient(self, e1):
        d = initial_dictionary(e1)
        assert _pick(d.nonbasis, d.q_num, PivotRule.DANTZIG) == 2

    def test_none_when_optimal(self):
        d = initial_dictionary(tiny([[1]], [1], [-1]))
        assert _pick(d.nonbasis, d.q_num, PivotRule.BLAND) is None
        assert _pick(d.nonbasis, d.q_num, PivotRule.DANTZIG) is None

    def test_dantzig_tie_to_smallest_index(self):
        d = initial_dictionary(tiny([[1, 1]], [1], [3, 3]))
        assert _pick(d.nonbasis, d.q_num, PivotRule.DANTZIG) == 1


class TestChooseLeaving:
    """The ratio test: ``_ratio_test`` over the basic labels, the constants and one column."""

    def test_single_eligible_row(self, e1_second):
        # entering x5: column (4, -1), only x4's row eligible, ratio 6/4
        s = e1_second.nonbasis.index(5)
        assert _ratio_test(e1_second.basis, e1_second.p_num, column(e1_second, s)) == 4

    def test_none_on_nonpositive_column(self):
        d = initial_dictionary(tiny([[-1]], [1], [1]))
        assert _ratio_test(d.basis, d.p_num, column(d, 0)) is None

    def test_tie_to_smallest_variable_index(self):
        d = initial_dictionary(tiny([[1], [1]], [2, 2], [1]))
        assert _ratio_test(d.basis, d.p_num, column(d, 0)) == 2


class TestPrimalSimplex:
    def test_e1_second_dictionary_unbounded(self, e1_second):
        final, steps, signal = primal_simplex(e1_second, PivotRule.DANTZIG)
        assert signal is not None
        enter = _pick(final.nonbasis, final.q_num, PivotRule.DANTZIG)
        s = final.nonbasis.index(enter)
        assert all(row[s] <= 0 for row in final.Q_num)
        # deterministic run: ends on basis (5, 2) with objective 99
        assert final.basis == (5, 2)
        assert final.z_star == 99
        for step in steps:
            assert is_primal_feasible(step.dictionary)

    def test_signal_is_the_entering_variable_of_the_unbounded_column(self, e1_second):
        final, _, signal = primal_simplex(e1_second, PivotRule.DANTZIG)
        assert signal == _pick(final.nonbasis, final.q_num, PivotRule.DANTZIG)
        _, _, none = primal_simplex(initial_dictionary(tiny([[1]], [1], [-1])))
        assert none is None

    def test_already_optimal_zero_pivots(self):
        d = initial_dictionary(tiny([[1]], [1], [-1]))
        final, steps, signal = primal_simplex(d, PivotRule.BLAND)
        assert signal is None
        assert steps == []
        assert final == d

    def test_one_dimensional(self):
        outcome, trace = solve(tiny([[1]], [1], [1]))
        assert outcome == Optimal(point=qv([1]), value=Fraction(1))
        assert trace.pivot_count == 1

    def test_requires_primal_feasible(self, e1):
        with pytest.raises(ValueError, match="primal"):
            primal_simplex(initial_dictionary(e1), PivotRule.BLAND)


class TestDualSimplex:
    def test_one_pivot_example(self):
        d = initial_dictionary(tiny([[-1, -1]], [-1], [-1, -1]))
        assert is_dual_feasible(d)
        final, steps, signal = dual_simplex(d, PivotRule.BLAND)
        assert signal is None
        assert [(s.enter, s.leave) for s in steps] == [(1, 3)]
        assert final.z_star == -1
        assert list(basic_solution(final))[:2] == [Fraction(1), Fraction(0)]

    def test_zero_pivots_when_both_feasible(self):
        d = initial_dictionary(tiny([[1]], [1], [-1]))
        final, steps, signal = dual_simplex(d, PivotRule.BLAND)
        assert signal is None
        assert steps == []

    def test_infeasible_signal(self):
        d = initial_dictionary(tiny([[1]], [-1], [0]))
        final, steps, signal = dual_simplex(d, PivotRule.BLAND)
        assert signal is not None
        assert steps == []

    def test_signal_is_the_leaving_variable_of_the_infeasible_row(self):
        d = initial_dictionary(tiny([[1, 2], [-1, -1]], [4, -5], [0, 0]))
        final, _, signal = dual_simplex(d, PivotRule.DANTZIG)
        assert signal is not None
        r = final.basis.index(signal)
        assert final.p[r] < 0
        assert all(x >= 0 for x in final.Q_num[r])

    def test_dantzig_constant_tie_to_smallest_label(self):
        # x4 and x3 tie at -3, listed larger label first; x2 is the Bland choice
        d = Dictionary.from_fractions(
            side="primal",
            basis=(4, 3, 2),
            nonbasis=(1,),
            p=qv([-3, -3, -1]),
            Q=[[-1], [-1], [-1]],
            q=qv([-1]),
            z_star=Fraction(0),
        )
        _, steps, _ = dual_simplex(d, PivotRule.DANTZIG)
        assert [(s.enter, s.leave) for s in steps] == [(1, 3)]

    @pytest.mark.parametrize("rule", list(PivotRule))
    def test_ratio_tie_to_smallest_label(self, rule):
        # q_k / Q[0][k] is 1 for both x2 and x1, listed larger label first
        d = Dictionary.from_fractions(
            side="primal",
            basis=(3,),
            nonbasis=(2, 1),
            p=qv([-1]),
            Q=[[-2, -1]],
            q=qv([-2, -1]),
            z_star=Fraction(0),
        )
        _, steps, _ = dual_simplex(d, rule)
        assert [(s.enter, s.leave) for s in steps] == [(1, 3)]

    def test_requires_dual_feasible(self, e1):
        with pytest.raises(ValueError, match="dual"):
            dual_simplex(initial_dictionary(e1), PivotRule.BLAND)

    @given(seed=st.integers(0, 400), rule=st.sampled_from(list(PivotRule)))
    @settings(max_examples=60, deadline=None)
    def test_intermediate_dictionaries_stay_dual_feasible(self, seed, rule):
        d = initial_dictionary(dual_feasible_instance(seed))
        final, steps, signal = dual_simplex(d, rule)
        for step in steps:
            assert is_dual_feasible(step.dictionary)
        if signal is None:
            assert is_primal_feasible(final)


class TestSolveGoldens:
    def test_e1_unbounded(self, e1):
        outcome, trace = solve(e1)
        assert isinstance(outcome, Unbounded)
        check_outcome(e1, outcome)
        # Bland runs are deterministic; freeze the certificate as a regression
        assert outcome.ray == qv([0, 1, 1])
        assert outcome.point == qv([0, 9, 0])

    def test_one_constraint_infeasible(self):
        lp = tiny([[1]], [-1], [0])
        outcome, trace = solve(lp)
        assert outcome == Infeasible(farkas=qv([1]))
        check_outcome(lp, outcome)

    def test_e1_with_nonpositive_objective(self, e1):
        A0, b, _ = lp_fractions(e1)
        lp = StandardLP.from_fractions(A0, b, qv([-1, -1, -1]))
        outcome, _ = solve(lp)
        assert isinstance(outcome, Optimal)
        kind, value = oracle_solve(lp)
        assert kind == "optimal"
        assert outcome.value == value == Fraction(-3, 2)
        check_outcome(lp, outcome)

    def test_trivially_optimal(self):
        lp = tiny([[1, 2]], [5], [-1, -2])
        outcome, trace = solve(lp)
        assert outcome == Optimal(point=qv([0, 0]), value=Fraction(0))
        assert trace.pivot_count == 0

    def test_two_phase_optimal(self):
        # infeasible and dual-infeasible start: needs phase 1 then phase 2
        lp = tiny([[1, 1], [-1, 0]], [4, -1], [1, 1])
        d0 = initial_dictionary(lp)
        assert not is_primal_feasible(d0) and not is_dual_feasible(d0)
        outcome, trace = solve(lp)
        assert isinstance(outcome, Optimal)
        assert outcome.value == 4
        assert len(trace.phases) == 2
        check_outcome(lp, outcome)

    PHASE1 = "phase 1: dual simplex, auxiliary objective"

    @pytest.mark.parametrize(
        "a0,b,c,kind,names",
        [
            ([[1]], [1], [1], Optimal, ["primal simplex"]),
            ([[-1, -1]], [-1], [-1, -1], Optimal, ["dual simplex"]),
            ([[1]], [-1], [0], Infeasible, ["dual simplex"]),
            ([[1, 1], [-1, 0]], [4, -1], [1, 1], Optimal, [PHASE1, "phase 2: primal simplex"]),
            ([[1]], [-1], [1], Infeasible, [PHASE1]),
        ],
        ids=["primal-start", "dual-start-optimal", "dual-start-infeasible", "two-phase", "phase-1-infeasible"],
    )
    def test_phase_names_of_every_driver_path(self, a0, b, c, kind, names):
        # A one-phase trace prints no header, so only this pins its name.
        outcome, trace = solve(tiny(a0, b, c))
        assert type(outcome) is kind
        assert [ph.name for ph in trace.phases] == names


class TestCheckOutcome:
    """The library's certificate re-check against the oracle's assertions."""

    @given(seed=st.integers(0, 500), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_oracle_on_perturbed_certificates(self, seed, data):
        base = suite_instance(seed)
        factor = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)
        k = [data.draw(factor) for _ in range(base.m + 1)]
        lp = divided(base, k)
        outcome, _ = solve(lp, data.draw(st.sampled_from(list(PivotRule))))
        simplex.check_outcome(initial_dictionary(lp), outcome)
        # one entry of the certificate moved by a small rational, maybe zero
        name = {Optimal: "point", Unbounded: "ray", Infeasible: "farkas"}[type(outcome)]
        if isinstance(outcome, Optimal) and data.draw(st.booleans()):
            name = "value"
        eps = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
        if name == "value":
            bad = Optimal(point=outcome.point, value=outcome.value + eps)
        else:
            entries = list(getattr(outcome, name))
            entries[data.draw(st.integers(0, len(entries) - 1))] += eps
            bad = replace(outcome, **{name: tuple(entries)})
        try:
            check_outcome(lp, bad)
        except AssertionError:
            with pytest.raises(CertificateError):
                simplex.check_outcome(initial_dictionary(lp), bad)
        else:
            simplex.check_outcome(initial_dictionary(lp), bad)

    @pytest.mark.parametrize(
        "outcome",
        [
            Optimal(point=qv([0, 0]), value=Fraction(0)),
            Unbounded(point=qv([0, 0, 0]), ray=qv([1, 0])),
            Infeasible(farkas=qv([1, 1])),
        ],
    )
    def test_wrong_length_is_rejected(self, outcome):
        lp = tiny([[1, 1, 1]], [1], [1, 1, 1])
        with pytest.raises(CertificateError):
            simplex.check_outcome(initial_dictionary(lp), outcome)

    @pytest.mark.parametrize(
        "outcome",
        [
            Optimal(point=(0.5, 0), value=fr(1, 2)),
            Unbounded(point=qv([0, 0]), ray=(1, "1")),
            Infeasible(farkas=(0.5,)),
        ],
    )
    def test_entries_that_are_not_int_or_fraction_are_refused(self, outcome):
        lp = tiny([[1, 1]], [1], [1, 1])
        with pytest.raises(TypeError, match="entries must be int or Fraction"):
            simplex.check_outcome(initial_dictionary(lp), outcome)

    @pytest.mark.parametrize(
        "outcome,message",
        [
            (Optimal(point=qv([fr(-1, 2), 0]), value=fr(0)), "point is not feasible: -1/2 0"),
            (Optimal(point=qv([fr(1, 2), 0]), value=fr(2, 3)), "objective at the point is not 2/3"),
            (
                Unbounded(point=qv([0, 0]), ray=qv([1, fr(1, 3)])),
                "ray fails ray >= 0, A0.ray <= 0, c.ray > 0: 1 1/3",
            ),
            (Infeasible(farkas=qv([fr(5, 7)])), "farkas vector fails u >= 0, u.A0 >= 0, u.b < 0: 5/7"),
        ],
    )
    def test_message_prints_the_vector_as_solve_does(self, outcome, message):
        lp = tiny([[1, 1]], [1], [1, 1])
        with pytest.raises(CertificateError) as exc:
            simplex.check_outcome(initial_dictionary(lp), outcome)
        assert str(exc.value) == message


class TestPriced:
    """``_priced`` against the ``Fraction`` reference, in both dictionary forms."""

    @pytest.mark.parametrize("fractional", [False, True])
    @given(seed=st.integers(0, 500), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_reference(self, fractional, seed, data):
        lp = suite_instance(seed)
        if fractional:
            factor = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)
            lp = divided(lp, [data.draw(factor) for _ in range(lp.m + 1)])
        d = initial_dictionary(lp)
        # Integer data pivots in determinant form, fractional data in reduced form.
        assume(d.det_form is not fractional)
        for _ in range(data.draw(st.integers(0, 4))):
            pairs = [
                (e, l)
                for s, e in enumerate(d.nonbasis)
                for r, l in enumerate(d.basis)
                if d.Q_num[r][s] != 0
            ]
            if not pairs:
                break
            d = pivot(d, *data.draw(st.sampled_from(pairs)))
        # A determinant-form chain is priced with costs over L = 1 only.
        L = 1 if d.det_form else data.draw(st.integers(1, 6))
        costs = data.draw(st.lists(st.integers(-9, 9), min_size=d.n, max_size=d.n))
        got = simplex._priced(d, costs, L)
        assert got.det_form is d.det_form
        assert by_value(got) == priced_by_fractions(d, [Fraction(x, L) for x in costs])


class TestSolveAgainstOracle:
    @given(seed=st.integers(0, 1000), rule=st.sampled_from(list(PivotRule)))
    @settings(max_examples=80, deadline=None)
    def test_outcome_matches_brute_force(self, seed, rule):
        lp = suite_instance(seed)
        outcome, trace = solve(lp, rule)
        check_outcome(lp, outcome)
        if len(trace.phases) == 2:
            start = trace.phases[1].start
            assert start == dictionary_from_basis(initial_dictionary(lp), start.basis)
        kind, value = oracle_solve(lp)
        assert outcome_kind(outcome) == kind
        if isinstance(outcome, Optimal):
            assert outcome.value == value


class TestTermination:
    @given(seed=st.integers(0, 600))
    @settings(max_examples=60, deadline=None)
    def test_bland_never_repeats_a_basis(self, seed):
        lp = suite_instance(seed)
        _, trace = solve(lp, PivotRule.BLAND)
        bound = comb(lp.m + lp.n, lp.m)
        for phase in trace.phases:
            seen = {frozenset(phase.start.basis)}
            for step in phase.steps:
                key = frozenset(step.dictionary.basis)
                assert key not in seen
                seen.add(key)
            assert len(phase.steps) <= bound

    @pytest.fixture
    def pivot_budget(self):
        # Without the cycle guard Dantzig's rule loops forever on Beale's
        # example; a budget far above its 12 pivots turns that into a failure.
        with pivot_budget(100):
            yield

    def test_dantzig_solves_beale(self, pivot_budget):
        lp = parse_lp((DATA / "beale.lp").read_text(encoding="utf-8"))
        outcome, _ = solve(lp, PivotRule.DANTZIG)
        assert isinstance(outcome, Optimal)
        assert outcome.value == Fraction(5, 4)
        check_outcome(lp, outcome)
        assert oracle_solve(lp) == ("optimal", outcome.value)

    @pytest.mark.parametrize("rule,pivots", [(PivotRule.BLAND, 6), (PivotRule.DANTZIG, 12)])
    def test_a_rule_given_by_its_value_is_that_rule(self, rule, pivots):
        # Beale's example tells the rules apart: Bland takes 6 pivots, Dantzig 12.
        lp = parse_lp((DATA / "beale.lp").read_text(encoding="utf-8"))
        _, trace = solve(lp, rule.value)
        assert trace.pivot_count == pivots
        assert trace == solve(lp, rule)[1]

    @pytest.mark.parametrize("rule", [None, "Bland", 0])
    def test_a_value_that_names_no_rule_raises(self, rule):
        lp = parse_lp((DATA / "beale.lp").read_text(encoding="utf-8"))
        with pytest.raises(ValueError, match="is not a valid PivotRule"):
            solve(lp, rule)
        with pytest.raises(ValueError, match="is not a valid PivotRule"):
            dual_simplex(negative_transpose(initial_dictionary(lp)), rule)

    def test_dantzig_dual_loop_terminates_on_beale_negative_transpose(self, pivot_budget):
        lp = parse_lp((DATA / "beale.lp").read_text(encoding="utf-8"))
        final, _, signal = dual_simplex(
            negative_transpose(initial_dictionary(lp)), PivotRule.DANTZIG
        )
        assert signal is None
        assert final.z_star == Fraction(-5, 4)

    @given(seed=st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_monotonicity(self, seed):
        lp = suite_instance(seed)
        _, trace = solve(lp, PivotRule.BLAND)
        for phase in trace.phases:
            values = [phase.start.z_star] + [s.dictionary.z_star for s in phase.steps]
            if "dual" in phase.name:
                assert all(a >= b for a, b in zip(values, values[1:]))
            else:
                assert all(a <= b for a, b in zip(values, values[1:]))


class TestLockstep:
    @given(seed=st.integers(0, 500), rule=st.sampled_from(list(PivotRule)))
    @settings(max_examples=60, deadline=None)
    def test_dual_simplex_mirrors_primal_on_negative_transpose(self, seed, rule):
        d = initial_dictionary(dual_feasible_instance(seed))
        flipped = negative_transpose(d)
        dual_final, dual_steps, dual_signal = dual_simplex(d, rule)
        primal_final, primal_steps, primal_signal = primal_simplex(flipped, rule)
        assert [(s.enter, s.leave) for s in primal_steps] == [
            (s.leave, s.enter) for s in dual_steps
        ]
        assert negative_transpose(dual_final) == primal_final
        # None (optimal) on both sides, or the infeasible row's leaving
        # variable equals the unbounded column's entering variable.
        assert dual_signal == primal_signal

    def test_worked_pivot_correspondence(self, e1):
        # the worked example: primal (enter x1, leave x5) maps to the dual
        # pivot (enter y5, leave y1) through the negative transpose
        d = initial_dictionary(e1)
        primal_after = pivot(d, 1, 5)
        dual_after = pivot(negative_transpose(d), 5, 1)
        assert dual_after == negative_transpose(primal_after)

    @given(seed=st.integers(0, 500), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_pivot_maps_to_the_flipped_dual_pivot(self, seed, data):
        # negative_transpose(pivot(d, e, l)) == pivot(negative_transpose(d), l, e)
        # along a random chain of valid pivots, with strict equality.
        d = initial_dictionary(suite_instance(seed))
        for _ in range(data.draw(st.integers(1, 6))):
            pairs = [
                (e, l)
                for s, e in enumerate(d.nonbasis)
                for r, l in enumerate(d.basis)
                if d.Q_num[r][s] != 0
            ]
            if not pairs:
                break
            e, l = data.draw(st.sampled_from(pairs))
            after = pivot(d, e, l)
            assert negative_transpose(after) == pivot(negative_transpose(d), l, e)
            d = after

    @given(seed=st.integers(0, 500), rule=st.sampled_from(list(PivotRule)))
    @settings(max_examples=60, deadline=None)
    def test_farkas_vector_is_the_unbounded_ray_of_the_dual(self, seed, rule):
        # On the built negative transpose the primal method ends unbounded
        # where dual simplex ends infeasible; the slack part of that ray,
        # read off the final entering column, is solve's Farkas vector.
        # With m, n <= 3 each of the three loops makes at most 2 * C(6, 3)
        # pivots (Dantzig up to the first repeated basis, then Bland), so a
        # loop that runs on fails here instead of hanging.
        lp = dual_feasible_instance(seed)
        d0 = initial_dictionary(lp)
        with pivot_budget(120):
            outcome, _ = solve(lp, rule)
            assume(isinstance(outcome, Infeasible))
            _, _, dual_signal = dual_simplex(d0, rule)
            final, _, enter = primal_simplex(negative_transpose(d0), rule)
        assert enter == dual_signal
        s = final.nonbasis.index(enter)
        ray = {v: Fraction(-row[s], final.D) for v, row in zip(final.basis, final.Q_num)}
        ray[enter] = Fraction(1)
        slacks = range(lp.n + 1, lp.n + lp.m + 1)
        assert tuple(ray.get(v, Fraction(0)) for v in slacks) == outcome.farkas
