import itertools
import random
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dictlp.dictionary import (
    Dictionary,
    _arrange,
    dictionary_from_basis,
    initial_dictionary,
    is_dual_feasible,
    is_primal_feasible,
    negative_transpose,
    pivot,
)
from dictlp import simplex
from dictlp.cli import random_lp
from dictlp.model import StandardLP, dual_lp, parse_lp
from dictlp.render import _solver_trace_lines
from dictlp.simplex import (
    CertificateError,
    Infeasible,
    Optimal,
    PivotRule,
    Unbounded,
    dual_simplex,
    primal_simplex,
    solve,
)

import reference
from conftest import DATA, divided, dual_feasible_instance, entry_denominators, fr, klee_minty, qv, suite_instance
from oracle import check_outcome, oracle_solve, outcome_kind
from reference import (
    as_primal,
    basic_solution,
    by_value,
    lp_fractions,
    pick,
    priced_by_fractions,
    ratio_test,
    simplex_by_reference,
)


def tiny(a0, b, c) -> StandardLP:
    return StandardLP.from_fractions(a0, qv(b), qv(c))


def column(d: Dictionary, s: int) -> list[int]:
    return [row[s] for row in d.Q_num]


@contextmanager
def pivot_budget(limit: int):
    """Turn more than ``limit`` solver pivots into a failure instead of an endless loop."""
    real_pivot = simplex._pivot
    count = 0

    def budgeted(d, r, s):
        nonlocal count
        count += 1
        if count > limit:
            raise RuntimeError("pivot budget exhausted: the rule cycles")
        return real_pivot(d, r, s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_pivot", budgeted)
        yield


class TestChooseEntering:
    """The entering choice: the reference ``pick`` over the nonbasic labels and the objective row."""

    def test_bland_smallest_index(self, e1):
        d = initial_dictionary(e1)
        assert pick(d.nonbasis, d.q_num, PivotRule.BLAND) == 1

    def test_dantzig_largest_coefficient(self, e1):
        d = initial_dictionary(e1)
        assert pick(d.nonbasis, d.q_num, PivotRule.DANTZIG) == 2

    def test_none_when_optimal(self):
        d = initial_dictionary(tiny([[1]], [1], [-1]))
        assert pick(d.nonbasis, d.q_num, PivotRule.BLAND) is None
        assert pick(d.nonbasis, d.q_num, PivotRule.DANTZIG) is None

    def test_dantzig_tie_to_smallest_index(self):
        d = initial_dictionary(tiny([[1, 1]], [1], [3, 3]))
        assert pick(d.nonbasis, d.q_num, PivotRule.DANTZIG) == 1


class TestChooseLeaving:
    """The ratio test: the reference ``ratio_test`` over the basic labels, the constants and one column."""

    def test_single_eligible_row(self, e1_second):
        # entering x5: column (4, -1), only x4's row eligible, ratio 6/4
        s = e1_second.nonbasis.index(5)
        assert ratio_test(e1_second.basis, e1_second.p_num, column(e1_second, s)) == 4

    def test_none_on_nonpositive_column(self):
        d = initial_dictionary(tiny([[-1]], [1], [1]))
        assert ratio_test(d.basis, d.p_num, column(d, 0)) is None

    def test_tie_to_smallest_variable_index(self):
        d = initial_dictionary(tiny([[1], [1]], [2, 2], [1]))
        assert ratio_test(d.basis, d.p_num, column(d, 0)) == 2


class TestPrimalSimplex:
    def test_e1_second_dictionary_unbounded(self, e1_second):
        final, steps, signal = primal_simplex(e1_second, PivotRule.DANTZIG)
        assert signal is not None
        enter = pick(final.nonbasis, final.q_num, PivotRule.DANTZIG)
        s = final.nonbasis.index(enter)
        assert all(row[s] <= 0 for row in final.Q_num)
        # deterministic run: ends on basis (5, 2) with objective 99
        assert final.basis == (5, 2)
        assert final.z_star == 99
        for step in steps:
            assert is_primal_feasible(step.dictionary)

    def test_signal_is_the_entering_variable_of_the_unbounded_column(self, e1_second):
        final, _, signal = primal_simplex(e1_second, PivotRule.DANTZIG)
        assert signal == pick(final.nonbasis, final.q_num, PivotRule.DANTZIG)
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
    DRIVER_PATHS = {
        "primal-start": ([[1]], [1], [1], Optimal, ["primal simplex"]),
        "dual-start-optimal": ([[-1, -1]], [-1], [-1, -1], Optimal, ["dual simplex"]),
        "dual-start-infeasible": ([[1]], [-1], [0], Infeasible, ["dual simplex"]),
        "two-phase": ([[1, 1], [-1, 0]], [4, -1], [1, 1], Optimal, [PHASE1, "phase 2: primal simplex"]),
        "phase-1-infeasible": ([[1]], [-1], [1], Infeasible, [PHASE1]),
    }

    @pytest.mark.parametrize("a0,b,c,kind,names", DRIVER_PATHS.values(), ids=DRIVER_PATHS.keys())
    def test_phase_names_of_every_driver_path(self, a0, b, c, kind, names):
        # A one-phase trace prints no header, so only this pins its name.
        outcome, trace = solve(tiny(a0, b, c))
        assert type(outcome) is kind
        assert [ph.name for ph in trace.phases] == names

    @pytest.mark.parametrize("keep", [True, False])
    @pytest.mark.parametrize(
        "a0,b,c,kind,names",
        [*DRIVER_PATHS.values(), ([[1, -1], [-1, 0]], [1, -1], [1, 1], Unbounded, [PHASE1, "phase 2: primal simplex"])],
        ids=[*DRIVER_PATHS, "two-phase-unbounded"],
    )
    def test_every_exit_rechecks_its_certificate_once(self, monkeypatch, a0, b, c, kind, names, keep):
        lp = tiny(a0, b, c)
        checked = []
        real_check = simplex.check_outcome

        def counted(lp, outcome):
            checked.append(outcome)
            real_check(lp, outcome)

        monkeypatch.setattr(simplex, "check_outcome", counted)
        outcome, trace = solve(lp, keep=keep)
        assert type(outcome) is kind
        assert [ph.name for ph in trace.phases] == names
        assert checked == [outcome]
        # A certificate moved after the loop: its first entry set to -1
        # breaks x >= 0, ray >= 0 or u >= 0, at whichever exit it leaves by.
        real_ray, real_outcome = simplex._ray, simplex._primal_outcome

        def moved(entries):
            return (Fraction(-1), *entries[1:])

        monkeypatch.setattr(simplex, "_ray", lambda *args: moved(real_ray(*args)))
        monkeypatch.setattr(simplex, "_primal_outcome", lambda *args: replace(out := real_outcome(*args), point=moved(out.point)))
        with pytest.raises(CertificateError):
            solve(lp, keep=keep)
        assert len(checked) == 2


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
        simplex.check_outcome(lp, outcome)
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
                simplex.check_outcome(lp, bad)
        else:
            simplex.check_outcome(lp, bad)

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
            simplex.check_outcome(lp, outcome)

    @pytest.mark.parametrize(
        "outcome",
        [
            Optimal(point=(0.5, 0), value=fr(1, 2)),
            Unbounded(point=qv([0, 0]), ray=(1, "1")),
            Infeasible(farkas=(0.5,)),
            Optimal(point=qv([0, 0]), value=0.5),
            Optimal(point=qv([0, 0]), value="0"),
        ],
    )
    def test_entries_that_are_not_int_or_fraction_are_refused(self, outcome):
        lp = tiny([[1, 1]], [1], [1, 1])
        with pytest.raises(TypeError, match="entries must be int or Fraction"):
            simplex.check_outcome(lp, outcome)

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
            simplex.check_outcome(lp, outcome)
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


def feasible_starts(lp: StandardLP, seed: int) -> list[tuple[bool, Dictionary]]:
    """The slack dictionaries of ``lp`` with b made nonnegative and with c made nonpositive: primal and dual feasible.

    Rows and columns are shuffled by ``seed``, so that a position's order is
    not its label's and a tie broken by position would show.
    """
    A0, b, c = lp_fractions(lp)
    rng = random.Random(seed)
    starts = []
    for dual, start in [
        (False, StandardLP.from_fractions(A0, [abs(x) for x in b], c)),
        (True, StandardLP.from_fractions(A0, b, [-abs(x) for x in c])),
    ]:
        d = initial_dictionary(start)
        starts.append((dual, _arrange(d, tuple(rng.sample(d.basis, d.m)), tuple(rng.sample(d.nonbasis, d.n)))))
    return starts


class TestLoopAgainstReference:
    """Every pivot of ``primal_simplex`` and ``dual_simplex`` is the one the reference loop chooses.

    The reference (``simplex_by_reference``) picks by candidate list, reads
    the dual side from negated copies and pivots with the public ``pivot``.
    Entries in [-1, 1] make Dantzig's rule meet ties of the largest entry
    and ratio ties on both sides.
    """

    @given(
        m=st.integers(1, 5),
        n=st.integers(1, 5),
        seed=st.integers(0, 10_000),
        bound=st.sampled_from([1, 1, 5]),
        rule=st.sampled_from(list(PivotRule)),
        fractional=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_pivot_is_the_references(self, m, n, seed, bound, rule, fractional):
        lp = random_lp(m, n, seed, bound)
        if fractional:
            lp = divided(lp, [2, 3, 5, 7, 2, 3][:m] + [3])
        for dual, d in feasible_starts(lp, seed):
            final, steps, signal = (dual_simplex if dual else primal_simplex)(d, rule)
            pivots, reference_signal = simplex_by_reference(d, rule, dual)
            assert [(step.enter, step.leave) for step in steps] == pivots
            assert signal == reference_signal
            assert final == (steps[-1].dictionary if steps else d)

    def test_dantzig_meets_ties_on_both_sides(self):
        # Counted on the reference's choices over 40 of the instances above:
        # ties among the largest objective entries and among the least
        # ratios whose smallest label is not at the first tied position, on
        # the primal and on the dual side.
        ties = {(dual, kind): 0 for dual in (False, True) for kind in ("enter", "leave")}
        for seed in range(40):
            for dual, d in feasible_starts(random_lp(4, 4, seed, 1), seed):
                _, steps, _ = (dual_simplex if dual else primal_simplex)(d, PivotRule.DANTZIG)
                for before in [d, *(step.dictionary for step in steps)]:
                    nonbasis, objective, basis, constants, column = as_primal(before, dual)
                    tied = [v for v, x in zip(nonbasis, objective) if x == max(objective) > 0]
                    ties[dual, "enter"] += len(tied) > 1 and tied[0] != min(tied)
                    enter = pick(nonbasis, objective, PivotRule.DANTZIG)
                    if enter is None:
                        continue
                    coefs = column(nonbasis.index(enter))
                    ratios = [(Fraction(x, a), v) for v, x, a in zip(basis, constants, coefs) if a > 0]
                    tied = [v for ratio, v in ratios if ratio == min(ratios)[0]]
                    ties[dual, "leave"] += len(tied) > 1 and tied[0] != min(tied)
        assert all(ties.values()), ties


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


REPLAY_KINDS = ["integer", "row-divided", "entry denominators"]


def replay_instance(m: int, n: int, seed: int, bound: int, kind: str) -> StandardLP:
    """``random_lp(m, n, seed, bound)`` as drawn, with its rows divided, or with a denominator in 1-6 per entry."""
    lp = random_lp(m, n, seed, bound)
    rng = random.Random(seed)
    if kind == "row-divided":
        return divided(lp, [rng.randint(1, 6) for _ in range(m + 1)])
    if kind == "entry denominators":
        return entry_denominators(lp, lambda: rng.randint(1, 6))
    return lp


class TestReplayedPath:
    """``solve(lp, rule, keep=False)``: each phase keeps its start and its pivots' positions.

    Iterating the steps pivots again from the phase start. The outcome, the
    pivot count, every phase's start and steps (enter, leave and
    dictionary) and the trace's printed lines in both views are those of
    the solve that keeps every dictionary.
    """

    @staticmethod
    def compare(lp: StandardLP, rule: PivotRule) -> tuple[str, int]:
        """Both solves of ``lp`` agree; returns the outcome kind and the number of phases."""
        outcome, kept = solve(lp, rule)
        replayed_outcome, replayed = solve(lp, rule, keep=False)
        assert replayed_outcome == outcome
        assert replayed.pivot_count == kept.pivot_count
        assert len(replayed.phases) == len(kept.phases)
        for phase, kept_phase in zip(replayed.phases, kept.phases):
            assert not isinstance(phase.steps, tuple)
            assert (phase.name, phase.start) == (kept_phase.name, kept_phase.start)
            assert list(phase.steps) == list(kept_phase.steps)
        for dual_view in (False, True):
            assert _solver_trace_lines(replayed, dual_view) == _solver_trace_lines(kept, dual_view)
        return outcome_kind(outcome), len(kept.phases)

    @given(
        m=st.integers(1, 6),
        n=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        bound=st.sampled_from([1, 5, 10]),
        kind=st.sampled_from(REPLAY_KINDS),
        rule=st.sampled_from(list(PivotRule)),
    )
    @settings(max_examples=100, deadline=None)
    def test_the_replayed_path_is_the_kept_one(self, m, n, seed, bound, kind, rule):
        self.compare(replay_instance(m, n, seed, bound, kind), rule)

    def test_the_instances_reach_every_outcome_in_one_and_two_phases(self):
        reached = set()
        for seed in range(24):
            kind = REPLAY_KINDS[seed % 3]
            for rule in PivotRule:
                reached.add(self.compare(replay_instance(seed % 6 + 1, (seed // 6) % 6 + 1, seed, 5, kind), rule))
        assert {outcome for outcome, _ in reached} == {"optimal", "unbounded", "infeasible"}
        assert {phases for _, phases in reached} == {1, 2}

    def test_reading_the_steps_pivots_again(self):
        pivots = 0
        real_pivot = simplex._pivot

        def counted(d, r, s):
            nonlocal pivots
            pivots += 1
            return real_pivot(d, r, s)

        lp = klee_minty(4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simplex, "_pivot", counted)
            _, trace = solve(lp, PivotRule.DANTZIG, keep=False)
            (phase,) = trace.phases
            assert pivots == len(phase.steps) == 15
            assert [step.enter for step in phase.steps] and pivots == 30


class TestDualPairing:
    """``solve(lp)`` against ``solve(dual_lp(lp))``: weak and strong duality (Chvatal 1983, ch. 5).

    The primal's ray is a Farkas vector of the dual, and its Farkas vector a
    ray of the dual, each checked by ``simplex.check_outcome`` on the dual LP.
    """

    @staticmethod
    def pair(lp: StandardLP, rule: PivotRule) -> tuple[str, str]:
        dual = dual_lp(lp)
        (outcome, _), (dual_outcome, _) = solve(lp, rule), solve(dual, rule)
        if isinstance(outcome, Optimal):
            assert isinstance(dual_outcome, Optimal) and dual_outcome.value == -outcome.value
        elif isinstance(outcome, Unbounded):
            assert isinstance(dual_outcome, Infeasible)
            simplex.check_outcome(dual, Infeasible(farkas=outcome.ray))
        elif isinstance(dual_outcome, Unbounded):
            simplex.check_outcome(dual, Unbounded(point=dual_outcome.point, ray=outcome.farkas))
        else:
            assert isinstance(dual_outcome, Infeasible)
        return outcome_kind(outcome), outcome_kind(dual_outcome)

    @given(
        m=st.integers(1, 8),
        n=st.integers(1, 8),
        seed=st.integers(0, 10_000),
        bound=st.sampled_from([1, 5, 10]),
        kind=st.sampled_from(REPLAY_KINDS),
        rule=st.sampled_from(list(PivotRule)),
    )
    @settings(max_examples=100, deadline=None)
    def test_the_dual_lp_takes_the_paired_outcome(self, m, n, seed, bound, kind, rule):
        self.pair(replay_instance(m, n, seed, bound, kind), rule)

    @pytest.mark.parametrize("rule", list(PivotRule))
    def test_an_infeasible_lp_whose_dual_is_infeasible(self, rule):
        lp = parse_lp("lp v1\n2 2\n2 -1\n1 -1 1\n-1 1 -2\n")
        assert self.pair(lp, rule) == ("infeasible", "infeasible")

    @pytest.mark.parametrize("k", [30, 40, 50])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_at_size(self, k, seed):
        # Sizes the brute-force oracle cannot reach. Each instance as drawn is
        # infeasible; with b replaced by |b| each takes 27-89 pivots to optimal.
        lp = random_lp(k, k, seed)
        A0, b, c = lp_fractions(lp)
        assert self.pair(lp, PivotRule.DANTZIG) == ("infeasible", "unbounded")
        assert self.pair(StandardLP.from_fractions(A0, [abs(x) for x in b], c), PivotRule.DANTZIG) == ("optimal", "optimal")


def beale_lp() -> StandardLP:
    return parse_lp((DATA / "beale.lp").read_text(encoding="utf-8"))


@contextmanager
def recorded_guard(module, name: str):
    """``module.name``, a cycle guard, recording per call its dictionary, the bases ``visited`` held before it and the rule it gave."""
    guard = getattr(module, name)
    calls: list[tuple[Dictionary, set[frozenset[int]], PivotRule]] = []

    def recorded(d, rule, visited):
        held = set(visited)
        chosen = guard(d, rule, visited)
        calls.append((d, held, chosen))
        return chosen

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, recorded)
        yield calls


def positions(calls, path: list[Dictionary]) -> list[int]:
    """The position on ``path`` of each recorded guard call's dictionary, the very object the loop held."""
    return [next(k for k, x in enumerate(path) if x is d) for d, _, _ in calls]


def switch(calls, path: list[Dictionary]) -> int | None:
    """The position on ``path`` at which a recorded guard switched to Bland's rule, or None."""
    return next((k for k, (_, _, chosen) in zip(positions(calls, path), calls) if chosen is PivotRule.BLAND), None)


def degenerate_start(seed: int, tied: bool = False) -> Dictionary:
    """A primal-feasible slack dictionary of a random LP on {-1, 0, 1} data whose b is mostly zeros, or with ``tied`` all ones.

    With b all ones the ratio tests tie, so degenerate pivots also follow
    nondegenerate ones; from mostly zeros they come first.
    """
    rng = random.Random(seed)
    lp = random_lp(rng.randint(2, 6), rng.randint(2, 6), seed, 1)
    A0, b, c = lp_fractions(lp)
    b = [1] * len(b) if tied else [abs(x) * (rng.random() < 0.3) for x in b]
    return initial_dictionary(StandardLP.from_fractions(A0, b, c))


class TestCycleGuard:
    """Dantzig's cycle guard remembers the bases of the degenerate run in hand, and switches where one that keeps every basis does.

    A nondegenerate pivot moves the objective strictly, and a basis fixes
    the objective's value, so no earlier basis can recur: the guard is
    called only at a dictionary reached by a degenerate pivot. The
    reference loop (``simplex_by_reference``) calls its guard at every
    dictionary and keeps every basis it visited
    (``reference.cycle_guard_keeping_every_basis``), so its calls are its
    path. Only Beale's example cycles among the sized instances, so its
    variants are named here.
    """

    @staticmethod
    def same_path(d: Dictionary, dual: bool):
        """The library's and the reference's pivots, signals and switch agree; returns the path and guard calls."""
        # A guard that forgets a basis it must remember loops forever on Beale.
        with recorded_guard(simplex, "_cycle_guard") as calls, pivot_budget(1000):
            _, steps, signal = (dual_simplex if dual else primal_simplex)(d, PivotRule.DANTZIG)
        with recorded_guard(reference, "cycle_guard_keeping_every_basis") as reference_calls:
            pivots, reference_signal = simplex_by_reference(d, PivotRule.DANTZIG, dual)
        assert [(step.enter, step.leave) for step in steps] == pivots
        assert signal == reference_signal
        path = [d, *(step.dictionary for step in steps)]
        reference_path = [x for x, _, _ in reference_calls]
        assert reference_path == path[: len(reference_path)]
        assert switch(calls, path) == switch(reference_calls, reference_path)
        return path, calls

    @pytest.mark.parametrize("dual", [False, True], ids=["primal loop", "dual loop"])
    def test_beale_switches_where_the_reference_does(self, dual):
        d = initial_dictionary(beale_lp())
        path, calls = self.same_path(negative_transpose(d) if dual else d, dual)
        assert switch(calls, path) == 6 and len(path) == 13

    @pytest.mark.parametrize(
        "row_scale,col_scale", [((1, 1, 1), (1, 1, 1, 1)), ((1, 1, 5), (1, 3, 1, 3)), ((2, 3, 4), (2, 1, 1, 1))]
    )
    def test_permuted_and_scaled_beale_takes_the_references_path(self, row_scale, col_scale):
        # Ties go to the smallest label, so an order decides whether Dantzig
        # cycles: 18 of the 3! * 4! orders do, unscaled or with the x3 <= 1
        # row and x2, x4 scaled. With every row scaled and x1 doubled the
        # entering choices change and none does.
        A0, b, c = lp_fractions(beale_lp())
        switched = 0
        for rows in itertools.permutations(range(3)):
            for cols in itertools.permutations(range(4)):
                lp = StandardLP.from_fractions(
                    [[A0[i][j] * row_scale[i] * col_scale[j] for j in cols] for i in rows],
                    [b[i] * row_scale[i] for i in rows],
                    [c[j] * col_scale[j] for j in cols],
                )
                d = initial_dictionary(lp)
                path, calls = self.same_path(d, False)
                dual_path, dual_calls = self.same_path(negative_transpose(d), True)
                assert switch(calls, path) == switch(dual_calls, dual_path)
                switched += switch(calls, path) is not None
        assert switched == (0 if row_scale == (2, 3, 4) else 18)

    @pytest.mark.parametrize("seed", range(40))
    def test_degenerate_random_lps_take_the_references_path(self, seed):
        d = degenerate_start(seed)
        self.same_path(d, False)
        self.same_path(negative_transpose(d), True)

    def test_no_basis_is_remembered_across_a_nondegenerate_pivot(self):
        # The guard is called before pivot k exactly when pivot k - 1 was
        # degenerate, up to its switch, and then holds exactly the bases
        # from the first one after the last nondegenerate pivot up to pivot
        # k - 1. Klee-Minty pivots are all nondegenerate, so the guard is
        # never called; the random LPs mix both kinds, and with tied ratios
        # a degenerate run also follows a nondegenerate pivot.
        starts = [
            initial_dictionary(klee_minty(5)),
            *map(degenerate_start, range(40)),
            *(degenerate_start(seed, tied=True) for seed in range(40)),
        ]
        forgotten = called = 0
        for d in starts:
            for start, dual in ((d, False), (negative_transpose(d), True)):
                path, calls = self.same_path(start, dual)
                end = switch(calls, path)
                degenerate = [k for k in range(1, len(path)) if path[k].z_star == path[k - 1].z_star]
                at = positions(calls, path)
                assert at == [k for k in degenerate if end is None or k <= end]
                for k, (_, held, _) in zip(at, calls):
                    assert path[k].z_star == path[k - 1].z_star  # never at a basis reached by a nondegenerate pivot
                    since = max(j for j in range(k + 1) if j == 0 or path[j].z_star != path[j - 1].z_star)
                    assert held == {frozenset(x.basis) for x in path[since:k]}
                    forgotten += since
                called += len(calls)
        assert forgotten and called
