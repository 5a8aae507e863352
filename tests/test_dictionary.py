from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictlp.dictionary import (
    Dictionary,
    NotABasisError,
    PivotError,
    dictionary_from_basis,
    initial_dictionary,
    is_dual_feasible,
    is_primal_feasible,
    negative_transpose,
    pivot,
)
from dictlp import _kernels
from dictlp.render import format_dictionary
from dictlp.model import StandardLP
from dictlp.simplex import PivotRule, solve

from conftest import (
    check_point,
    divided,
    klee_minty,
    objective_at,
    qrows,
    qv,
    random_pivots,
    suite_instance,
    transportation_lp,
)
from reference import (
    basic_solution,
    basis_determinant,
    by_value,
    canonical,
    det_form_pivot_update,
    dictionary_by_elimination,
    fraction_pivot_update,
    in_lowest_terms,
    system_rows,
)


@pytest.fixture
def e1_initial(e1):
    return initial_dictionary(e1)


class TestFromBasis:
    def test_slack_basis_is_initial(self, e1, e1_initial):
        assert dictionary_from_basis(initial_dictionary(e1), (4, 5)) == e1_initial

    def test_second_basis(self, e1):
        d = dictionary_from_basis(initial_dictionary(e1), (4, 1))
        assert d.basis == (4, 1)
        assert d.nonbasis == (2, 3, 5)
        assert d.p == qv([6, 3])
        assert d.Q.row_lists() == qrows([[-2, -10, 4], [1, 2, -1]])
        assert d.q == qv([3, -26, 8])
        assert d.z_star == 24

    def test_decision_basis_nonsingular(self, e1):
        # A_B = [[4, 2], [-1, -1]] has determinant -2
        d = dictionary_from_basis(initial_dictionary(e1), (1, 2))
        assert d.basis == (1, 2)

    def test_singular_basis_rejected(self):
        lp = StandardLP.from_fractions([[0]], qv([1]), qv([1]))
        with pytest.raises(NotABasisError):
            dictionary_from_basis(initial_dictionary(lp), (1,))

    @pytest.mark.parametrize(
        "basis,shown",
        [((True, 4), "(True, 4)"), ((1.0, 4), "(1.0, 4)"), ((4, 1.0), "(4, 1.0)"), (("1", 4), "('1', 4)")],
        ids=["bool", "float", "float-last", "str"],
    )
    def test_labels_that_are_not_int_rejected(self, e1, basis, shown):
        # True and 1.0 pass the range test by equality with 1, and would
        # print as xTrue or x1.0; "1" fails the comparison itself.
        with pytest.raises(NotABasisError) as exc_info:
            dictionary_from_basis(initial_dictionary(e1), basis)
        assert str(exc_info.value) == f"basis must be distinct indices in 1..5: {shown}"

    def test_wrong_size_rejected(self, e1):
        with pytest.raises(NotABasisError):
            dictionary_from_basis(initial_dictionary(e1), (4,))
        with pytest.raises(NotABasisError):
            dictionary_from_basis(initial_dictionary(e1), (4, 4))
        with pytest.raises(NotABasisError):
            dictionary_from_basis(initial_dictionary(e1), (4, 6))

    @given(seed=st.integers(0, 500), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_elimination_on_every_ordered_subset(self, seed, data):
        base = suite_instance(seed)
        # Dividing constraint rows by constants makes the data fractional and
        # keeps the set of bases, so the dependent subsets stay dependent.
        factor = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)
        k = [data.draw(factor) for _ in range(base.m + 1)]
        lp = divided(base, k)
        for basis in permutations(range(1, lp.m + lp.n + 1), lp.m):
            try:
                expected = dictionary_by_elimination(lp, basis)
            except NotABasisError as exc:
                with pytest.raises(NotABasisError) as got:
                    dictionary_from_basis(initial_dictionary(lp), basis)
                assert str(got.value) == str(exc)
            else:
                # Integer factors leave D = 1, and the pivots in determinant form.
                assert by_value(dictionary_from_basis(initial_dictionary(lp), basis)) == by_value(expected)


class TestPivot:
    def test_worked_pivot(self, e1_second):
        assert e1_second.basis == (4, 1)
        assert e1_second.nonbasis == (5, 2, 3)
        assert e1_second.p == qv([6, 3])
        assert e1_second.Q.row_lists() == qrows([[4, -2, -10], [-1, 1, 2]])
        assert e1_second.q == qv([8, 3, -26])
        assert e1_second.z_star == 24

    def test_involution(self, e1_initial):
        assert pivot(pivot(e1_initial, 1, 5), 5, 1) == e1_initial

    def test_matches_from_basis_after_reordering(self, e1, e1_second):
        rebuilt = dictionary_from_basis(initial_dictionary(e1), e1_second.basis)
        assert canonical(rebuilt) == canonical(e1_second)

    @pytest.mark.parametrize("enter,leave", [(1.0, 5), (True, 5), (1, 5.0)], ids=["float", "bool", "float-leave"])
    def test_stores_its_own_labels_not_the_callers(self, e1_initial, e1_second, enter, leave):
        # 1.0, True and 5.0 find labels 1 and 5 by equality; stored, they
        # would print as x1.0, xTrue or x5.0.
        d = pivot(e1_initial, enter, leave)
        assert all(type(v) is int for v in (*d.basis, *d.nonbasis))
        assert d == e1_second
        assert format_dictionary(d) == format_dictionary(e1_second)

    def test_enter_not_nonbasic(self, e1_initial):
        with pytest.raises(PivotError):
            pivot(e1_initial, 4, 5)

    def test_leave_not_basic(self, e1_initial):
        with pytest.raises(PivotError):
            pivot(e1_initial, 1, 2)

    @pytest.mark.parametrize(
        "enter,leave,message",
        [
            ("1", 5, "entering variable '1' is not nonbasic"),
            (None, 5, "entering variable None is not nonbasic"),
            (1, "5", "leaving variable '5' is not basic"),
            (1, None, "leaving variable None is not basic"),
        ],
    )
    def test_labels_that_are_not_int_are_named_by_repr(self, e1_initial, enter, leave, message):
        # As dictionary_from_basis names them: "1" and None are no variable's label.
        with pytest.raises(PivotError) as exc:
            pivot(e1_initial, enter, leave)
        assert str(exc.value) == message

    def test_zero_pivot_element(self):
        lp = StandardLP.from_fractions([[0, 1]], qv([1]), qv([1, 1]))
        with pytest.raises(PivotError, match="zero pivot element"):
            pivot(initial_dictionary(lp), 1, 3)

    @given(
        seed=st.integers(0, 500),
        picks=st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_pivot_chain_properties(self, seed, picks):
        lp = suite_instance(seed)
        total = lp.m + lp.n
        chain = random_pivots(initial_dictionary(lp), picks)
        for d in chain:
            assert sorted(d.basis + d.nonbasis) == list(range(1, total + 1))
        # from-basis coherence on the final dictionary
        final = chain[-1]
        rebuilt = dictionary_from_basis(chain[0], final.basis)
        assert canonical(rebuilt) == canonical(final)

    @given(
        seed=st.integers(0, 500),
        picks=st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_pivot_preserves_solution_set(self, seed, picks, data):
        lp = suite_instance(seed)
        chain = random_pivots(initial_dictionary(lp), picks)
        before, after = chain[0], chain[-1]
        xs = data.draw(
            st.lists(
                st.fractions(min_value=-6, max_value=6, max_denominator=3),
                min_size=before.n,
                max_size=before.n,
            )
        )
        # build a full assignment from the first dictionary's equations
        full = [Fraction(0)] * (before.m + before.n)
        for value, v in zip(xs, before.nonbasis):
            full[v - 1] = value
        for v, p_r, row in zip(before.basis, before.p, before.Q.row_lists()):
            full[v - 1] = p_r - sum(
                (x * full[w - 1] for x, w in zip(row, before.nonbasis)),
                Fraction(0),
            )
        assert check_point(after, full)
        assert objective_at(before, full) == objective_at(after, full)


def reference_parity_pivot(start, d, enter, leave):
    """``pivot(d, enter, leave)`` on a chain from ``start``, asserted equal to the ``Fraction`` reference kernel.

    From an integer start (D = 1) the result is in determinant form: D is
    |det| of its basis columns in ``start``'s equations, which a wrong floor
    division would not keep. From any other start it is reduced: D is the
    lcm of the entries' denominators.
    """
    r, s = d.basis.index(leave), d.nonbasis.index(enter)
    p, Q, q, z = fraction_pivot_update(list(d.p), d.Q.row_lists(), list(d.q), d.z_star, r, s)
    got = pivot(d, enter, leave)
    assert (list(got.p), got.Q.row_lists(), list(got.q), got.z_star) == (p, Q, q, z)
    assert got.D > 0
    assert got.det_form == d.det_form == (start.D == 1)
    if start.D == 1:
        assert got.D == basis_determinant(system_rows(start), got.basis)
    else:
        assert in_lowest_terms(got)
    return got


class TestKernelParity:
    """The fraction-free kernel against the ``Fraction`` kernel it replaced, step by step."""

    @given(
        seed=st.integers(0, 500),
        picks=st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_chains_on_fractional_instances(self, seed, picks, data):
        base = suite_instance(seed)
        factor = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)
        k = [data.draw(factor) for _ in range(base.m + 1)]
        lp = divided(base, k)
        d = start = initial_dictionary(lp)
        for a, b in picks:
            enter = d.nonbasis[a % d.n]
            s = d.nonbasis.index(enter)
            rows = [v for r, v in enumerate(d.basis) if d.Q_num[r][s] != 0]
            if rows:
                d = reference_parity_pivot(start, d, enter, rows[b % len(rows)])

    @given(
        m=st.integers(1, 3),
        n=st.integers(1, 3),
        picks=st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_dictionaries_from_arbitrary_fractions(self, m, n, picks, data):
        # D is the lcm of unrelated denominators, not a determinant, so the
        # new numerators need not be multiples of D.
        entry = st.fractions(min_value=-20, max_value=20, max_denominator=12)

        def vec(k):
            return tuple(data.draw(st.lists(entry, min_size=k, max_size=k)))

        d = start = Dictionary.from_fractions(
            side="primal",
            basis=tuple(range(n + 1, n + m + 1)),
            nonbasis=tuple(range(1, n + 1)),
            p=vec(m),
            Q=[list(vec(n)) for _ in range(m)],
            q=vec(n),
            z_star=data.draw(entry),
        )
        for a, b in picks:
            enter = d.nonbasis[a % d.n]
            s = d.nonbasis.index(enter)
            rows = [v for r, v in enumerate(d.basis) if d.Q_num[r][s] != 0]
            if rows:
                d = reference_parity_pivot(start, d, enter, rows[b % len(rows)])

    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 4),
        big=st.booleans(),
        picks=st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 10), st.booleans()), min_size=1, max_size=6
        ),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_determinant_form_on_integer_starts(self, m, n, big, picks, data):
        # Entries of magnitude 1 and 0 give pivots of magnitude 1 (D stays)
        # and rows with a zero in the pivot column (only rescaled); 5,001-digit
        # entries carry the divisions far past machine words. A pick may
        # first turn the chain to the dual side: the negative transpose of a
        # determinant-form dictionary is one for the transposed start.
        entry = st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-9, 9))
        if big:
            entry = st.one_of(entry, st.builds(lambda k, j: k * 10**5000 + j, st.sampled_from([-3, -1, 1, 2]), entry))

        def vec(k):
            return [Fraction(x) for x in data.draw(st.lists(entry, min_size=k, max_size=k))]

        d = start = Dictionary.from_fractions(
            side="primal",
            basis=tuple(range(n + 1, n + m + 1)),
            nonbasis=tuple(range(1, n + 1)),
            p=vec(m),
            Q=[vec(n) for _ in range(m)],
            q=vec(n),
            z_star=vec(1)[0],
        )
        assert start.D == 1 and start.det_form
        for a, b, flip in picks:
            if flip:
                d, start = negative_transpose(d), negative_transpose(start)
            enter = d.nonbasis[a % d.n]
            s = d.nonbasis.index(enter)
            rows = [v for r, v in enumerate(d.basis) if d.Q_num[r][s] != 0]
            if rows:
                d = reference_parity_pivot(start, d, enter, rows[b % len(rows)])

    def test_from_fractions_is_over_the_lcm(self):
        d = Dictionary.from_fractions(
            "primal", (2,), (1,), qv([Fraction(1, 4)]), [[Fraction(2, 3)]], qv([Fraction(1, 6)]), 0
        )
        assert (d.p_num, d.Q_num, d.q_num, d.z_num, d.D) == ((3,), ((8,),), (2,), 0, 12)

    @pytest.mark.parametrize(
        "basis,nonbasis,p,Q,q",
        [
            ((2,), (2,), [1], [[1]], [1]),  # not a partition
            ((3,), (1,), [1], [[1]], [1]),  # not 1..m+n
            ((2,), (1,), [1, 1], [[1]], [1]),  # p too long
            ((2,), (1,), [1], [[1]], [1, 1]),  # q too long
            ((2,), (1,), [1], [[1, 1]], [1]),  # Q too wide
        ],
    )
    def test_from_fractions_rejects_bad_shapes(self, basis, nonbasis, p, Q, q):
        with pytest.raises(ValueError):
            Dictionary.from_fractions("primal", basis, nonbasis, qv(p), Q, qv(q), 0)

    @pytest.mark.parametrize("bad", [1.5, "1"], ids=["float", "str"])
    @pytest.mark.parametrize("field", ["p", "Q", "q", "z_star"])
    def test_from_fractions_rejects_entries_that_are_not_int_or_fraction(self, field, bad):
        entries = {"p": (1,), "Q": [[1]], "q": (1,), "z_star": 0}
        entries[field] = {"p": (bad,), "Q": [[bad]], "q": (bad,), "z_star": bad}[field]
        with pytest.raises(TypeError, match=f"got {type(bad).__name__} {bad!r}"):
            Dictionary.from_fractions("primal", (2,), (1,), **entries)

    def test_from_fractions_rejects_an_unknown_side(self):
        with pytest.raises(ValueError, match="side must be 'primal' or 'dual', got 'sideways'"):
            Dictionary.from_fractions("sideways", (2,), (1,), (1,), [[1]], (1,), 0)

    @pytest.mark.parametrize(
        "basis,nonbasis,bad", [((2.0,), (1,), "float 2.0"), ((True,), (2,), "bool True")], ids=["float", "bool"]
    )
    def test_from_fractions_rejects_labels_that_are_not_int(self, basis, nonbasis, bad):
        # Both pass the partition test by equality (2.0 == 2, True == 1) and
        # would print as x2.0 or xTrue.
        with pytest.raises(ValueError, match=f"labels must be int, got {bad}"):
            Dictionary.from_fractions("primal", basis, nonbasis, (1,), [[1]], (1,), 0)


def solve_parity(lp: StandardLP, rule: PivotRule) -> list[tuple[int, int]]:
    """Every pivot of ``solve(lp, rule)`` replayed through ``reference_parity_pivot``; the (old D, new D) of each.

    All phases are checked against the slack dictionary's system: a phase
    start is a repricing, which keeps the rows, so D stays |det| of the
    basis columns there.
    """
    start = initial_dictionary(lp)
    _, trace = solve(lp, rule)
    denominators = []
    for phase in trace.phases:
        d = phase.start
        for step in phase.steps:
            got = reference_parity_pivot(start, d, step.enter, step.leave)
            assert got == step.dictionary
            denominators.append((d.D, got.D))
            d = got
    return denominators


class TestUnitPivots:
    """Pivots with |a| = D, which the kernel computes only where the pivot row is nonzero."""

    @pytest.mark.parametrize("rule", list(PivotRule))
    def test_totally_unimodular_transportation(self, rule):
        denominators = solve_parity(transportation_lp(), rule)
        assert len(denominators) > 5 and set(denominators) == {(1, 1)}

    @pytest.mark.parametrize("rule", list(PivotRule))
    @pytest.mark.parametrize("d", range(3, 7))
    def test_klee_minty_cubes(self, d, rule):
        denominators = solve_parity(klee_minty(d), rule)
        assert len(denominators) >= 2 * d - 1 and set(denominators) == {(1, 1)}

    @pytest.mark.parametrize("rule", list(PivotRule))
    def test_a_chain_mixing_unit_and_non_unit_pivots(self, rule):
        denominators = solve_parity(klee_minty(4, row_scale=[1, 1, 3, 1]), rule)
        assert any(before != after for before, after in denominators)
        # unit pivots at D = 1 and at D = 3, where the update divides by D
        assert {(1, 1), (3, 3)} <= set(denominators)

    @given(
        m=st.integers(1, 5),
        n=st.integers(1, 5),
        picks=st.lists(st.tuples(st.integers(0, 30), st.booleans()), min_size=1, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_unit_pivots_equal_the_dense_formula(self, m, n, picks, data):
        # Mostly -1, 0 and 1, so that most pivots keep D; a pick prefers a
        # unit pivot when one is open.
        entry = st.one_of(st.sampled_from([-1, 0, 0, 1]), st.integers(-4, 4))

        def vec(k):
            return [Fraction(x) for x in data.draw(st.lists(entry, min_size=k, max_size=k))]

        d = Dictionary.from_fractions(
            "primal", tuple(range(n + 1, n + m + 1)), tuple(range(1, n + 1)), vec(m), [vec(n) for _ in range(m)], vec(n), 0
        )
        for k, unit in picks:
            cells = [(r, s) for r, row in enumerate(d.Q_num) for s, x in enumerate(row) if x]
            units = [(r, s) for r, s in cells if abs(d.Q_num[r][s]) == d.D]
            if not cells:
                break
            choices = units if unit and units else cells
            r, s = choices[k % len(choices)]
            args = (d.p_num, d.Q_num, d.q_num, d.z_num, d.D, r, s)
            got = _kernels.pivot_update(*args, True)
            assert got == det_form_pivot_update(*args)
            if abs(d.Q_num[r][s]) == d.D:
                # a row with nothing in the pivot column is carried over as it is
                assert all(new is old for new, old in zip(got[1], d.Q_num) if not old[s])
            d = pivot(d, d.nonbasis[s], d.basis[r])


class TestFeasibility:
    def test_initial_e1_not_primal_feasible(self, e1_initial):
        assert not is_primal_feasible(e1_initial)

    def test_second_e1_primal_feasible(self, e1_second):
        assert is_primal_feasible(e1_second)

    def test_zero_p_is_feasible(self, e1_initial):
        d = Dictionary.from_fractions(
            side="primal",
            basis=e1_initial.basis,
            nonbasis=e1_initial.nonbasis,
            p=qv([0, 0]),
            Q=e1_initial.Q.row_lists(),
            q=e1_initial.q,
            z_star=Fraction(0),
        )
        assert is_primal_feasible(d)

    def test_initial_e1_not_dual_feasible(self, e1_initial):
        assert not is_dual_feasible(e1_initial)

    def test_zero_q_is_dual_feasible(self, e1_initial):
        d = Dictionary.from_fractions(
            side="primal",
            basis=e1_initial.basis,
            nonbasis=e1_initial.nonbasis,
            p=e1_initial.p,
            Q=e1_initial.Q.row_lists(),
            q=qv([0, 0, 0]),
            z_star=Fraction(0),
        )
        assert is_dual_feasible(d)

    @given(seed=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_negative_transpose_swaps_feasibility(self, seed):
        d = initial_dictionary(suite_instance(seed))
        assert is_primal_feasible(negative_transpose(d)) == is_dual_feasible(d)
        assert is_dual_feasible(negative_transpose(d)) == is_primal_feasible(d)


class TestNegativeTranspose:
    def test_initial_e1(self, e1_initial):
        nt = negative_transpose(e1_initial)
        assert nt.side == "dual"
        assert nt.basis == (1, 2, 3)
        assert nt.nonbasis == (4, 5)
        assert nt.p == qv([-8, -11, 10])
        assert nt.Q.row_lists() == qrows([[-4, 1], [-2, 1], [2, 2]])
        assert nt.q == qv([-18, 3])
        assert nt.z_star == 0

    def test_second_e1(self, e1_second):
        nt = negative_transpose(e1_second)
        assert nt.basis == (5, 2, 3)
        assert nt.nonbasis == (4, 1)
        assert nt.p == qv([-8, -3, 26])
        assert nt.Q.row_lists() == qrows([[-4, 1], [2, -1], [10, -2]])
        assert nt.q == qv([-6, -3])
        assert nt.z_star == -24

    def test_involution(self, e1_second):
        assert negative_transpose(negative_transpose(e1_second)) == e1_second


class TestBasicSolution:
    def test_initial_e1(self, e1_initial):
        assert basic_solution(e1_initial) == qv([0, 0, 0, 18, -3])
        assert e1_initial.z_star == 0

    def test_second_e1(self, e1_second):
        assert basic_solution(e1_second) == qv([3, 0, 0, 6, 0])
        assert e1_second.z_star == 24

    @given(seed=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_satisfies_every_row(self, seed):
        d = initial_dictionary(suite_instance(seed))
        x = basic_solution(d)
        assert check_point(d, list(x))
        assert objective_at(d, list(x)) == d.z_star


class TestCanonical:
    def test_sorts_orders(self, e1_second):
        c = canonical(e1_second)
        assert c.basis == (1, 4)
        assert c.nonbasis == (2, 3, 5)
        assert c.p == qv([3, 6])
        # row 0 is now x1, columns reordered to (2, 3, 5)
        assert c.Q.row_lists() == qrows([[1, 2, -1], [-2, -10, 4]])
        assert c.q == qv([3, -26, 8])

    def test_idempotent(self, e1_second):
        assert canonical(canonical(e1_second)) == canonical(e1_second)
