import weakref
from dataclasses import fields, replace
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from dictlp import duality
from dictlp.cli import random_lp
from dictlp.dictionary import (
    Dictionary,
    NotABasisError,
    PivotError,
    _arrange,
    _negative_transpose_fields,
    dictionary_from_basis,
    initial_dictionary,
    negative_transpose,
    pivot,
)
from dictlp.duality import (
    BasisCountError,
    BijectionReport,
    _is_negative_transpose,
    _report,
    _scaled_rows,
    _spans,
    _spans_parent,
    dual_dictionary_direct,
    verify_bases,
    walk_bases,
)
from dictlp.model import StandardLP

from conftest import divided, objective_at, qrows, qv, random_pivots, replaced, suite_instance
from oracle import basic_points
from reference import (
    augmented_rows,
    basis_determinant,
    build_R,
    by_value,
    canonical,
    dictionary_by_elimination,
    dictionary_matrix,
    dot,
    enumerate_bases,
    in_kernel,
    in_lowest_terms,
    kernel_embedding,
    lp_fractions,
    mul_vec,
    rank,
    rowspace_contains,
    rowspace_embedding,
    rowspace_equal,
)

E1_R = [
    [0, 4, 2, -2, 1, 0, -18],
    [0, -1, -1, -2, 0, 1, 3],
    [1, -8, -11, 10, 0, 0, 0],
]

INITIAL_DUAL = Dictionary.from_fractions(
    side="dual",
    basis=(1, 2, 3),
    nonbasis=(4, 5),
    p=qv([-8, -11, 10]),
    Q=[[-4, 1], [-2, 1], [2, 2]],
    q=qv([-18, 3]),
    z_star=Fraction(0),
)

SECOND_DUAL = Dictionary.from_fractions(
    side="dual",
    basis=(5, 2, 3),
    nonbasis=(4, 1),
    p=qv([-8, -3, 26]),
    Q=[[-4, 1], [2, -1], [10, -2]],
    q=qv([-6, -3]),
    z_star=Fraction(-24),
)


class TestBuildR:
    def test_e1(self, e1):
        assert build_R(e1) == qrows(E1_R)

    def test_last_row_homogenizing_column_is_zero(self, e1):
        r = build_R(e1)
        assert r[e1.m][e1.m + e1.n + 1] == 0

    @given(seed=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_full_row_rank(self, seed):
        lp = suite_instance(seed)
        r = build_R(lp)
        assert len(r) == lp.m + 1
        assert all(len(row) == lp.m + lp.n + 2 for row in r)
        assert rank(r) == lp.m + 1


class TestKernelMembership:
    def test_initial_basic_solution(self, e1):
        assert in_kernel(build_R(e1), qv([0, 0, 0, 0, 18, -3, 1]))

    def test_second_basic_solution(self, e1):
        assert in_kernel(build_R(e1), qv([24, 3, 0, 0, 6, 0, 1]))

    def test_all_ones_is_not(self, e1):
        assert not in_kernel(build_R(e1), qv([1] * 7))

    def test_dimension_mismatch(self, e1):
        with pytest.raises(ValueError):
            in_kernel(build_R(e1), qv([1, 2, 3]))

    @given(seed=st.integers(0, 200), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_characterization(self, seed, data):
        # [x0, x, 1] is in the kernel iff A0 x_dec + x_slack = b and x0 = c.x_dec
        lp = suite_instance(seed)
        r = build_R(lp)
        x0 = data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=3))
        xs = data.draw(
            st.lists(
                st.fractions(min_value=-9, max_value=9, max_denominator=3),
                min_size=lp.m + lp.n,
                max_size=lp.m + lp.n,
            )
        )
        xbar = [x0] + xs + [Fraction(1)]
        dec, slack = xs[: lp.n], xs[lp.n :]
        A0, b, c = lp_fractions(lp)
        expected = (
            list(mul_vec(A0, dec)) == [bi - si for bi, si in zip(b, slack)]
            and x0 == dot(c, dec)
        )
        assert in_kernel(r, xbar) == expected


class TestRowspaceMembership:
    def test_last_row_of_r(self, e1):
        r = build_R(e1)
        assert rowspace_contains(r, r[2])

    def test_initial_dual_basic_solution(self, e1):
        assert rowspace_contains(build_R(e1), qv([1, -8, -11, 10, 0, 0, 0]))

    def test_nonzero_kernel_vector_is_not(self, e1):
        r = build_R(e1)
        xbar = qv([8, 1, 0, 0, 14, -2, 1])
        assert in_kernel(r, xbar)
        assert not rowspace_contains(r, xbar)

    @given(seed=st.integers(0, 200), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_orthogonality(self, seed, data):
        lp = suite_instance(seed)
        r = build_R(lp)
        coeffs = data.draw(
            st.lists(
                st.fractions(min_value=-6, max_value=6, max_denominator=3),
                min_size=lp.m + 1,
                max_size=lp.m + 1,
            )
        )
        ybar = [
            sum((coeffs[i] * r[i][j] for i in range(lp.m + 1)), Fraction(0))
            for j in range(len(r[0]))
        ]
        assert rowspace_contains(r, ybar)
        xs = data.draw(
            st.lists(
                st.fractions(min_value=-6, max_value=6, max_denominator=3),
                min_size=lp.n,
                max_size=lp.n,
            )
        )
        A0, b, c = lp_fractions(lp)
        slack = [bi - ai for bi, ai in zip(b, mul_vec(A0, xs))]
        xbar = [dot(c, xs)] + xs + slack + [Fraction(1)]
        assert in_kernel(r, xbar)
        assert dot(ybar, xbar) == 0


class TestDictionaryMatrix:
    def test_initial_coincides_with_r(self, e1):
        d = initial_dictionary(e1)
        assert dictionary_matrix(d) == build_R(e1)

    def test_second_dictionary(self, e1):
        d = pivot(initial_dictionary(e1), 1, 5)
        mat = dictionary_matrix(d)
        assert len(mat) == 3
        # rows x4, x1, objective; columns 0, 1..5, 6
        assert mat == qrows(
            [
                [0, 0, -2, -10, 1, 4, -6],
                [0, 1, 1, 2, 0, -1, -3],
                [1, 0, -3, 26, 0, -8, -24],
            ]
        )
        assert rowspace_equal(mat, build_R(e1))

    @given(seed=st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_row_count(self, seed):
        lp = suite_instance(seed)
        d = initial_dictionary(lp)
        assert len(dictionary_matrix(d)) == lp.m + 1


def spans_rowspace_of(start: Dictionary, d: Dictionary) -> bool:
    """``verify``'s substitution test: whether ``d``'s matrix spans the row space of ``start``'s."""
    return _spans(_scaled_rows(start), d)


class TestSpansRowspaceOf:
    """The substitution test against the rank test it replaces in ``verify``."""

    @given(seed=st.integers(0, 200), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_rank_test(self, seed, data):
        base = suite_instance(seed)
        # Rows of R with different denominators exercise the integer scaling.
        k = data.draw(st.integers(1, 6))
        A0, b, c = lp_fractions(base)
        lp = StandardLP.from_fractions(
            [[x / (k + i) for x in row] for i, row in enumerate(A0)],
            [x / (k + i) for i, x in enumerate(b)],
            [x / (k + base.m) for x in c],
        )
        start = initial_dictionary(lp)
        r = build_R(lp)
        for basis in enumerate_bases(lp):
            d = dictionary_from_basis(start, basis)
            assert spans_rowspace_of(start, d)
            assert rowspace_equal(dictionary_matrix(d), r)
            bad = perturbed(d, data)
            assert spans_rowspace_of(start, bad) == rowspace_equal(dictionary_matrix(bad), r)


def perturbed(d: Dictionary, data) -> Dictionary:
    """``d`` with one entry of p, Q, q or z* moved by a nonzero rational."""
    field = data.draw(st.sampled_from(["p", "Q", "q", "z_star"]))
    eps = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool))
    if field == "z_star":
        return replaced(d, z_star=d.z_star + eps)
    if field == "Q":
        i, j = data.draw(st.integers(0, d.m - 1)), data.draw(st.integers(0, d.n - 1))
        rows = d.Q.row_lists()
        rows[i][j] += eps
        return replaced(d, Q=rows)
    entries = list(getattr(d, field))
    k = data.draw(st.integers(0, len(entries) - 1))
    entries[k] += eps
    return replaced(d, **{field: tuple(entries)})


class TestAnyStart:
    """The builder and the row-space test from a dictionary other than the slack one."""

    @given(
        seed=st.integers(0, 500),
        picks=st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_pivoted_start_builds_what_the_slack_start_builds(self, seed, picks, data):
        lp = suite_instance(seed)
        slack = initial_dictionary(lp)
        chain = random_pivots(slack, picks)
        assume(len(chain) > 1)
        start = chain[-1]
        for basis in permutations(range(1, lp.m + lp.n + 1), lp.m):
            try:
                expected = dictionary_from_basis(slack, basis)
            except NotABasisError:
                with pytest.raises(NotABasisError):
                    dictionary_from_basis(start, basis)
                continue
            d = dictionary_from_basis(start, basis)
            assert canonical(d) == canonical(expected)
            # Elimination builds lowest terms, the pivots determinant form.
            assert by_value(d) == by_value(dictionary_by_elimination(lp, basis))
            assert spans_rowspace_of(start, d)
            bad = perturbed(d, data)
            assert spans_rowspace_of(start, bad) == rowspace_equal(
                dictionary_matrix(bad), dictionary_matrix(start)
            )


class TestDualDictionaryDirect:
    def test_initial(self, e1):
        got = dictionary_from_basis(dual_dictionary_direct(e1), (1, 2, 3))
        assert got.side == "dual"
        assert canonical(got) == canonical(INITIAL_DUAL)

    def test_second(self, e1):
        got = dictionary_from_basis(dual_dictionary_direct(e1), (5, 2, 3))
        assert canonical(got) == canonical(SECOND_DUAL)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_succeeds_on_complement_of_any_valid_basis(self, seed):
        lp = suite_instance(seed)
        dual_start = dual_dictionary_direct(lp)
        for basis in enumerate_bases(lp):
            prim = dictionary_from_basis(initial_dictionary(lp), basis)
            dual = dictionary_from_basis(dual_start, prim.nonbasis)
            assert set(dual.basis) == set(prim.nonbasis)

    def test_y_indices_rotate_onto_dual_columns(self, e1):
        # m=2, n=3: the dual slacks y1..y3 are dual columns 3..5 and the dual
        # decisions y4, y5 are columns 1, 2; the result is named by y-index.
        got = dictionary_from_basis(dual_dictionary_direct(e1), (3, 4, 5))
        assert got.basis == (3, 4, 5)
        assert got.nonbasis == (1, 2)
        assert got == canonical(negative_transpose(dictionary_from_basis(initial_dictionary(e1), (1, 2))))

    @given(
        seed=st.integers(0, 500),
        shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        kind=st.sampled_from(["integer", "row-divided", "entry denominators"]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_is_the_negative_transpose_of_the_slack_dictionary(self, seed, shape, kind, data):
        # The bijection at the slack basis, built from the dual LP on one
        # side and by transposing the primal dictionary on the other.
        lp = random_lp(*shape, seed)
        if kind == "row-divided":
            factor = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)
            lp = divided(lp, [data.draw(factor, label="factor") for _ in range(lp.m + 1)])
        elif kind == "entry denominators":
            A0, b, c = lp_fractions(lp)

            def over(row):
                return [x / data.draw(st.integers(1, 6), label="denominator") for x in row]

            lp = StandardLP.from_fractions([over(row) for row in A0], over(b), over(c))
        direct = dual_dictionary_direct(lp)
        assert direct == negative_transpose(initial_dictionary(lp))
        assert (direct.D, direct.det_form) == (lp.D, lp.D == 1)

    # Rotated, each of these would be a valid dual basis: (2, 3, 4) and (3, 1, 2).
    @pytest.mark.parametrize("dual_basis", [(0, 1, 2), (6, 4, 5)])
    def test_y_index_out_of_range(self, e1, dual_basis):
        with pytest.raises(NotABasisError):
            dictionary_from_basis(dual_dictionary_direct(e1), dual_basis)


class TestVerifyBijection:
    def test_initial_basis(self, e1):
        report = reports_by_basis(verify_bases(e1))[(4, 5)]
        assert report.negative_transpose_matches
        assert report.rowspace_matches
        assert report.passed

    def test_pivoted_basis(self, e1):
        assert reports_by_basis(verify_bases(e1))[(1, 4)].passed

    def test_all_ten_bases(self, e1):
        reports = verify_bases(e1)
        assert len(reports) == 10
        assert all(report.passed for report in reports)

    def test_verify_bases_reports_each_basis_in_order(self, e1):
        reports = verify_bases(e1)
        assert [rep.basis for rep in reports] == [basis for basis, _ in basic_points(e1)]
        assert reports[3] == BijectionReport((1, 5), True, True, "ok")

    def test_budget_refusal(self, e1):
        with pytest.raises(BasisCountError) as exc_info:
            verify_bases(e1, limit=9)
        assert exc_info.value.count == 10
        assert str(exc_info.value) == "C(m+n, m) = 10 candidate bases exceed the limit 9"
        assert len(verify_bases(e1, limit=10)) == 10


def reports_by_basis(reports):
    return {report.basis: report for report in reports}


def walk_instance(seed: int, shape, fractional: bool, data) -> StandardLP:
    """A suite instance or a random one of ``shape``, with its rows and c divided by fractions if ``fractional``."""
    # Bound-1 instances have many zeros, so many rows a unit pivot carries over.
    bound = data.draw(st.sampled_from([1, 5]), label="bound")
    lp = suite_instance(seed, bound) if shape is None else random_lp(*shape, seed, bound)
    if fractional:
        factor = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)
        lp = divided(lp, [data.draw(factor, label="factor") for _ in range(lp.m + 1)])
    return lp


WALK_SHAPES = st.sampled_from([None, (3, 7), (7, 3), (4, 4)])

# The walk-heavy properties find a counterexample in their first examples,
# but every shrink step walks up to 120 bases again with draws per basis, so
# shrinking one took minutes. They report the failing example as drawn.
UNSHRUNK = [phase for phase in Phase if phase is not Phase.shrink]


class TestSpansParent:
    """The edge test of ``verify_bases`` against the test against R that it replaces below the root."""

    @given(seed=st.integers(0, 500), shape=WALK_SHAPES, fractional=st.booleans(), data=st.data())
    @settings(max_examples=40, deadline=None, phases=UNSHRUNK)
    def test_agrees_with_the_test_against_R_on_every_walked_basis(self, seed, shape, fractional, data):
        lp = walk_instance(seed, shape, fractional, data)
        start = initial_dictionary(lp)
        rows = _scaled_rows(start)
        for prim, _, edge in walk_bases(start):
            if edge is None:
                continue
            assert _spans_parent(*edge, prim) and _spans(rows, prim)
            bad = perturbed(prim, data)
            assert _spans_parent(*edge, bad) == _spans(rows, bad)
            # A constant moved in a row that a unit pivot carried over as
            # the same tuple, which the edge test compares by its constant.
            parent = edge[0]
            carried = [i for i in range(prim.m) if prim.Q_num[i] is parent.Q_num[i]]
            if carried:
                i = data.draw(st.sampled_from(carried), label="carried row")
                bad = replace(prim, p_num=tuple(x + (k == i) for k, x in enumerate(prim.p_num)))
                assert not _spans_parent(*edge, bad) and not _spans(rows, bad)

    def test_a_wrong_pivot_row_fails_where_no_other_row_reads_it(self):
        # Pivot x1 in for x3 (row 0, column 0): row 1 and the objective have
        # 0 in column 0, so only the pivot row's own identity reads its
        # entries off column 0.
        lp = StandardLP.from_fractions([[1, 1], [0, 1]], [4, 3], [0, 1])
        start = initial_dictionary(lp)
        child = pivot(start, 1, 3)
        rows = _scaled_rows(start)
        assert _spans_parent(start, 0, 0, child) and _spans(rows, child)
        bad = replace(child, Q_num=((child.Q_num[0][0], child.Q_num[0][1] + child.D), child.Q_num[1]))
        assert not _spans_parent(start, 0, 0, bad) and not _spans(rows, bad)

    @pytest.mark.parametrize("objective", [False, True])
    def test_a_child_row_of_the_wrong_length_fails(self, e1, objective):
        # x1 enters for x5 (row 1, column 0). Row 0, or the objective, one
        # entry too short or too long: the entries there still satisfy the
        # identities, so only the length tells.
        start = initial_dictionary(e1)
        child = pivot(start, 1, 5)
        assert _spans_parent(start, 1, 0, child)
        for cut in (lambda row: row[:-1], lambda row: (*row, 0)):
            if objective:
                bad = replace(child, q_num=cut(child.q_num))
            else:
                bad = replace(child, Q_num=(cut(child.Q_num[0]), child.Q_num[1]))
            assert not _spans_parent(start, 1, 0, bad)


def moved(d: Dictionary, data) -> Dictionary:
    """``d`` with one value of p, Q, q or z* moved by 1, its numerator by D, in ``d``'s own form.

    The moved dictionary is the one that the same chain of pivots reaches on
    an instance with other data but the same basis columns, so the pivots
    from it stay exact and keep its row space, in determinant form too.
    """
    field = data.draw(st.sampled_from(["p_num", "Q_num", "q_num", "z_num"]), label="field")
    if field == "z_num":
        return replace(d, z_num=d.z_num + d.D)
    if field == "Q_num":
        i, j = data.draw(st.integers(0, d.m - 1), label="i"), data.draw(st.integers(0, d.n - 1), label="j")
        row = list(d.Q_num[i])
        row[j] += d.D
        return replace(d, Q_num=(*d.Q_num[:i], tuple(row), *d.Q_num[i + 1 :]))
    entries = list(getattr(d, field))
    entries[data.draw(st.integers(0, len(entries) - 1), label="k")] += d.D
    return replace(d, **{field: tuple(entries)})


class TestFaultInTheWalk:
    """One primal pivot of the walk goes wrong, so a whole subtree descends from a corrupted dictionary."""

    @given(seed=st.integers(0, 500), shape=WALK_SHAPES, fractional=st.booleans(), data=st.data())
    @settings(max_examples=40, deadline=None, phases=UNSHRUNK)
    def test_the_subtree_fails_as_against_R(self, seed, shape, fractional, data):
        lp = walk_instance(seed, shape, fractional, data)
        pivots = sum(1 for _ in walk_bases(initial_dictionary(lp))) - 1
        assume(pivots > 0)
        target = data.draw(st.integers(0, pivots - 1), label="target")
        real_pivot, real_spans, real_walk = duality.pivot, duality._spans, duality.walk_bases
        made = []  # the primal pivots of the walk, in order
        steps = []
        against_R = set()

        def faulty(d, enter, leave):
            out = real_pivot(d, enter, leave)
            if d.side == "primal":
                if len(made) == target:
                    out = moved(out, data)
                made.append(out)
            return out

        def recorded(*args):
            for step in real_walk(*args):
                steps.append(step)
                yield step

        def spans(rows, d):
            against_R.add(id(d))
            return real_spans(rows, d)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(duality, "pivot", faulty)
            mp.setattr(duality, "walk_bases", recorded)
            mp.setattr(duality, "_spans", spans)
            reports = verify_bases(lp)
        bad = made[target]
        subtree = {id(bad)}
        for prim, _, edge in steps:
            if edge is not None and id(edge[0]) in subtree:
                subtree.add(id(prim))
        rows = _scaled_rows(initial_dictionary(lp))
        rowspace = {id(prim): real_spans(rows, prim) for prim, _, _ in steps}
        # The corrupted dictionary fails its test against its parent; every
        # basis pivoted from it fails too, tested against R.
        assert not rowspace[id(bad)] and id(bad) not in against_R
        assert not any(rowspace[i] for i in subtree)
        assert subtree - {id(bad)} <= against_R
        # Every basis passes or fails as it does when each is tested against R.
        expected = [_report(prim, dual, rowspace[id(prim)]) for prim, dual, _ in steps]
        assert reports == sorted(expected, key=lambda r: r.basis)


class TestWalkBases:
    """Reverse search from the start basis B0, with the dual side in lockstep.

    Each basis is reached once, from its parent: the basis that takes out
    the largest variable outside B0 and puts back the smallest member of B0
    that gives a basis. A basis whose dual pivot fails has no dual; its
    children rebuild theirs from the dual start.
    """

    @given(seed=st.integers(0, 500), bound=st.sampled_from([1, 5]))
    @settings(max_examples=60, deadline=None)
    def test_walk_agrees_with_the_oracle_and_the_builder(self, seed, bound):
        # Bound-1 instances have many singular subsets.
        lp = suite_instance(seed, bound)
        start = initial_dictionary(lp)
        dual_start = dual_dictionary_direct(lp)
        steps = list(walk_bases(start, dual_start))
        walked = [tuple(sorted(prim.basis)) for prim, _, _ in steps]
        assert sorted(walked) == [basis for basis, _ in basic_points(lp)]
        assert steps[0] == (start, dual_start, None)
        for k, (prim, dual, edge) in enumerate(steps):
            basis, nonbasis = walked[k], tuple(sorted(prim.nonbasis))
            assert canonical(prim) == canonical(dictionary_from_basis(start, basis))
            assert canonical(dual) == canonical(dictionary_from_basis(dual_start, nonbasis))
            if k == 0:
                continue
            # The edge leads from a dictionary walked earlier, by the pivot
            # at its positions (r, s); the primal pivot (enter e, leave l)
            # is a valid dual pivot (enter l, leave e).
            parent_dict, r, s = edge
            assert any(parent_dict is earlier for earlier, _, _ in steps[:k])
            enter, leave = parent_dict.nonbasis[s], parent_dict.basis[r]
            assert (prim.basis[r], prim.nonbasis[s]) == (enter, leave)
            parent = tuple(sorted(parent_dict.basis))
            assert parent == tuple(sorted(set(basis) - {enter} | {leave}))
            parent_dual = dictionary_from_basis(dual_start, tuple(sorted(set(nonbasis) - {leave} | {enter})))
            assert canonical(pivot(parent_dual, leave, enter)) == canonical(dual)
            assert canonical(pivot(dictionary_from_basis(start, parent), enter, leave)) == canonical(prim)

    @given(seed=st.integers(0, 500), bound=st.sampled_from([1, 5]))
    @settings(max_examples=60, deadline=None)
    def test_integer_duals_are_negative_transposes_number_for_number(self, seed, bound):
        # The paper's bijection on the stored integers: both sides pivot in
        # determinant form from D = 1, and the dual basis determinant is the
        # complementary minor, so the dual's D is the primal's.
        lp = suite_instance(seed, bound)
        assert lp.D == 1
        rows = augmented_rows(lp)
        for prim, dual, _ in walk_bases(initial_dictionary(lp), dual_dictionary_direct(lp)):
            assert prim.det_form and dual.det_form
            assert canonical(dual) == canonical(negative_transpose(prim))
            assert prim.D == dual.D == basis_determinant(rows, prim.basis)

    @given(seed=st.integers(0, 500), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fractional_walks_stay_in_lowest_terms(self, seed, data):
        base = suite_instance(seed)
        factor = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(lambda k: k.denominator > 1)
        lp = divided(base, [data.draw(factor) for _ in range(base.m + 1)])
        assume(lp.D > 1)  # entries that are all multiples of the numerators stay integers
        for prim, dual, _ in walk_bases(initial_dictionary(lp), dual_dictionary_direct(lp)):
            assert not prim.det_form and in_lowest_terms(prim)
            assert not dual.det_form and in_lowest_terms(dual)

    @given(seed=st.integers(0, 500), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_edge_trades_a_start_basic_variable_for_a_start_nonbasic_one(self, seed, data):
        # So |B - B0| is the depth in the search tree, at most min(m, n), and
        # each edge leads one level down from a basis walked earlier.
        lp = suite_instance(seed, data.draw(st.sampled_from([1, 5]), label="bound"))
        if data.draw(st.booleans(), label="fractional"):
            factor = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)
            lp = divided(lp, [data.draw(factor) for _ in range(lp.m + 1)])
        picks = data.draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=3), label="pivots")
        start = random_pivots(initial_dictionary(lp), picks)[-1]
        dual_start = _arrange(
            dictionary_from_basis(dual_dictionary_direct(lp), start.nonbasis), start.nonbasis, start.basis
        )
        start_basic = set(start.basis)
        depth = {}
        for prim, dual, edge in walk_bases(start, dual_start):
            basis = frozenset(prim.basis)
            assert basis not in depth
            assert dual == negative_transpose(prim)
            depth[basis] = len(basis - start_basic)
            if edge is None:
                assert depth[basis] == 0
                continue
            parent, r, s = edge
            enter, leave = parent.nonbasis[s], parent.basis[r]
            assert enter not in start_basic and leave in start_basic
            assert depth[basis - {enter} | {leave}] == depth[basis] - 1
        assert max(depth.values()) <= min(lp.m, lp.n)
        assert sorted(tuple(sorted(basis)) for basis in depth) == enumerate_bases(lp)

    def test_live_dictionaries_stay_within_the_search_tree(self, monkeypatch):
        # The stack holds the unexpanded children of the bases on one path:
        # at most m*n pivots per level, over min(m, n) + 1 levels, on each side.
        lp = random_lp(6, 6, 3)
        live = weakref.WeakSet()
        peak = 0
        real_pivot = duality.pivot

        def tracked(d, enter, leave):
            nonlocal peak
            out = real_pivot(d, enter, leave)
            live.add(out)
            peak = max(peak, len(live))
            return out

        monkeypatch.setattr(duality, "pivot", tracked)
        steps = walk_bases(initial_dictionary(lp), dual_dictionary_direct(lp))
        assert sum(1 for _ in steps) == 915
        assert peak <= 2 * (min(lp.m, lp.n) + 1) * lp.m * lp.n

    def test_primal_only_walk_carries_no_dual(self, e1):
        steps = list(walk_bases(initial_dictionary(e1)))
        assert len(steps) == 10
        assert all(dual is None for _, dual, _ in steps)

    def test_walk_from_a_pivoted_start(self, e1):
        start = pivot(initial_dictionary(e1), 1, 5)
        walked = sorted(tuple(sorted(prim.basis)) for prim, _, _ in walk_bases(start))
        assert walked == enumerate_bases(e1)


class TestLockstepEquality:
    """``_report``'s check that the dual is the negative transpose of the primal, on the walk's lockstep pairs.

    The primal pivot at positions (r, s) is the dual pivot at (s, r), so the
    dual's basis and nonbasis are the primal's nonbasis and basis, position
    for position. The check reads the primal in place, field by field
    (``_is_negative_transpose``), and is exactly ``dual ==
    negative_transpose(prim)``: side, labels in order, numerators and D.
    """

    @staticmethod
    def matches(prim: Dictionary, dual: Dictionary) -> bool:
        return _report(prim, dual, True).negative_transpose_matches

    @given(seed=st.integers(0, 300), shape=WALK_SHAPES, fractional=st.booleans(), data=st.data())
    @settings(max_examples=60, deadline=None, phases=UNSHRUNK)
    def test_every_walked_dual_is_in_lockstep_order_and_matches(self, seed, shape, fractional, data):
        lp = walk_instance(seed, shape, fractional, data)
        for prim, dual, _ in walk_bases(initial_dictionary(lp), dual_dictionary_direct(lp)):
            assert (dual.basis, dual.nonbasis) == (prim.nonbasis, prim.basis)
            assert self.matches(prim, dual)
            # Rows and columns moved away from lockstep order fail, though
            # the dictionaries agree up to order.
            reordered = _arrange(
                dual,
                tuple(data.draw(st.permutations(dual.basis), label="rows")),
                tuple(data.draw(st.permutations(dual.nonbasis), label="columns")),
            )
            assert canonical(reordered) == canonical(negative_transpose(prim))
            assert self.matches(prim, reordered) == (reordered == dual)
            # One change on one side breaks the match.
            d = data.draw(st.sampled_from([prim, dual]), label="side")
            field = data.draw(st.sampled_from(["p_num", "q_num", "Q_num"]), label="field")
            entries = [list(row) for row in d.Q_num] if field == "Q_num" else list(getattr(d, field))
            i = data.draw(st.integers(0, len(entries) - 1), label="i")
            if field == "Q_num":
                j = data.draw(st.integers(0, len(entries[i]) - 1), label="j")
                entries[i][j] += 1
                entries = tuple(map(tuple, entries))
            else:
                entries[i] += 1
            b, v = data.draw(st.sampled_from(d.basis), label="b"), data.draw(st.sampled_from(d.nonbasis), label="v")
            swap = {b: v, v: b}
            swapped = [tuple(swap.get(w, w) for w in labels) for labels in (d.basis, d.nonbasis)]
            for bad in (
                replace(d, **{field: tuple(entries)}),
                replace(d, D=2 * d.D),
                replace(d, z_num=d.z_num + 1),
                replace(d, basis=swapped[0], nonbasis=swapped[1]),
            ):
                assert not (self.matches(bad, dual) if d is prim else self.matches(prim, bad))

    @given(seed=st.integers(0, 300), shape=WALK_SHAPES, fractional=st.booleans(), data=st.data())
    @settings(max_examples=40, deadline=None, phases=UNSHRUNK)
    def test_a_rebuild_below_a_failed_dual_pivot_is_in_lockstep_order(self, seed, shape, fractional, data):
        # Every dual pivot from the dual start fails, so each basis at depth
        # 1 has no dual and each one at depth 2 rebuilds its dual from the
        # dual start, whose builder puts columns in ascending order.
        lp = walk_instance(seed, shape, fractional, data)
        dual_start = dual_dictionary_direct(lp)

        def failing(d, enter, leave):
            if d is dual_start:
                raise PivotError(f"zero pivot element for entering variable {enter}")
            return pivot(d, enter, leave)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(duality, "pivot", failing)
            steps = list(walk_bases(initial_dictionary(lp), dual_start))
        missing = {id(prim) for prim, dual, edge in steps if dual is None}
        assert missing == {id(prim) for prim, _, edge in steps if edge is not None and edge[0] is steps[0][0]}
        rebuilt = [(prim, dual) for prim, dual, edge in steps if edge is not None and id(edge[0]) in missing]
        assume(rebuilt)
        for prim, dual in rebuilt:
            assert (dual.basis, dual.nonbasis) == (prim.nonbasis, prim.basis)
            assert self.matches(prim, dual)
        assert all(self.matches(prim, dual) for prim, dual, _ in steps if dual is not None)

    @given(seed=st.integers(0, 300), shape=WALK_SHAPES, fractional=st.booleans(), data=st.data())
    @settings(max_examples=40, deadline=None, phases=UNSHRUNK)
    def test_the_check_is_the_equality_with_the_built_transpose(self, seed, shape, fractional, data):
        # The first test's mutations, labels moved off their rows or columns,
        # and shapes that a Dictionary does not check, on either side of each
        # walked pair. A primal Q row one entry short or long fails both: the
        # built transpose raises on rows of unequal lengths, the in-place
        # check returns False, and a lone row transposes to other columns.
        lp = walk_instance(seed, shape, fractional, data)
        for prim, dual, _ in walk_bases(initial_dictionary(lp), dual_dictionary_direct(lp)):
            assert self.matches(prim, dual) and dual == negative_transpose(prim)
            d = data.draw(st.sampled_from([prim, dual]), label="side")
            i = data.draw(st.integers(0, d.m - 1), label="i")
            j = data.draw(st.integers(0, d.n - 1), label="j")
            row = d.Q_num[i]
            b, v = d.basis[j % d.m], d.nonbasis[i % d.n]
            swap = {b: v, v: b}

            def with_row(new_row):
                return replace(d, Q_num=(*d.Q_num[:i], tuple(new_row), *d.Q_num[i + 1 :]))

            mutations = {
                "entry": with_row(x + (k == j) for k, x in enumerate(row)),
                "p": replace(d, p_num=tuple(x + (k == i) for k, x in enumerate(d.p_num))),
                "q": replace(d, q_num=tuple(x + (k == j) for k, x in enumerate(d.q_num))),
                "D": replace(d, D=2 * d.D),
                "z*": replace(d, z_num=d.z_num + 1),
                "label swap": replace(
                    d, basis=tuple(swap.get(w, w) for w in d.basis), nonbasis=tuple(swap.get(w, w) for w in d.nonbasis)
                ),
                "reordered": _arrange(
                    d,
                    tuple(data.draw(st.permutations(d.basis), label="rows")),
                    tuple(data.draw(st.permutations(d.nonbasis), label="columns")),
                ),
                "rows relabelled": replace(d, basis=(*d.basis[1:], d.basis[0])),
                "columns relabelled": replace(d, nonbasis=(*d.nonbasis[1:], d.nonbasis[0])),
                "side": replace(d, side="dual" if d.side == "primal" else "primal"),
                "short Q row": with_row(row[:-1]),
                "long Q row": with_row((*row, 0)),
                "short p": replace(d, p_num=d.p_num[:-1]),
                "long p": replace(d, p_num=(*d.p_num, 0)),
                "short q": replace(d, q_num=d.q_num[:-1]),
                "long q": replace(d, q_num=(*d.q_num, 0)),
            }
            for name, bad in mutations.items():
                pair = (bad, dual) if d is prim else (prim, bad)
                if d is prim and name in ("short Q row", "long Q row"):
                    assert not self.matches(*pair), name
                    if bad.m > 1:
                        with pytest.raises(ValueError):
                            negative_transpose(bad)
                    else:
                        assert dual != negative_transpose(bad), name
                    continue
                assert self.matches(*pair) == (pair[1] == negative_transpose(pair[0])), name
                if d is dual and bad != dual:
                    assert not self.matches(*pair), name

    def test_the_check_and_the_built_transpose_accept_every_pair_of_an_8x8_walk(self, eight_by_eight):
        # The fractional walk pivots in reduced form, so every pair is
        # compared on gcd-reduced numerators at scale.
        walk = walk_bases(initial_dictionary(eight_by_eight), dual_dictionary_direct(eight_by_eight))
        agree = [self.matches(prim, dual) and dual == negative_transpose(prim) for prim, dual, _ in walk]
        assert agree.count(True) == len(agree) == 12_838

    def test_an_empty_basis_transposes_to_empty_rows(self):
        # No basic variable: the transpose has n rows of length 0, not none.
        d = Dictionary.from_fractions("primal", (), (1, 2), [], [], [3, -1], 2)
        dual = negative_transpose(d)
        assert dual.Q_num == ((), ())
        assert self.matches(d, dual) and self.matches(dual, d)
        assert not self.matches(d, replace(dual, Q_num=()))

    def test_the_check_reads_every_compared_field_in_order(self, e1):
        # A field added to Dictionary's equality must fail here, not drop
        # silently out of the check. The fields are checked against the dual
        # LP's own slack dictionary, which is built without a transpose of Q.
        compared = [f.name for f in fields(Dictionary) if f.compare]
        prim, direct = initial_dictionary(e1), dual_dictionary_direct(e1)
        read = []

        class Recorded:
            def __getattr__(self, name):
                read.append(name)
                return getattr(direct, name)

        assert _is_negative_transpose(prim, Recorded())
        assert read == compared
        assert _negative_transpose_fields(prim) == tuple(getattr(direct, name) for name in compared)

    def test_a_missing_dual_still_fails(self, e1):
        start = initial_dictionary(e1)
        report = _report(start, None, True)
        assert not report.negative_transpose_matches
        assert report.details == "negative transpose differs from direct dual dictionary on N=(1, 2, 3)"


class TestEnumerateBases:
    """``reference.enumerate_bases``: a primal-only walk from the slack dictionary reaches every basis."""

    def test_e1_has_all_ten(self, e1):
        assert enumerate_bases(e1) == [
            (1, 2), (1, 3), (1, 4), (1, 5), (2, 3),
            (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
        ]

    def test_singular_columns_are_skipped(self):
        lp = StandardLP.from_fractions([[0]], qv([1]), qv([1]))
        assert enumerate_bases(lp) == [(2,)]

    @given(seed=st.integers(0, 500), bound=st.sampled_from([1, 5]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_basic_points(self, seed, bound, data):
        # Bound-1 instances have many singular subsets; dividing constraint
        # rows by constants makes the data fractional and keeps the bases.
        base = suite_instance(seed, bound)
        factor = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)
        k = [data.draw(factor) for _ in range(base.m)]
        A0, b, c = lp_fractions(base)
        lp = StandardLP.from_fractions(
            [[x / k[i] for x in row] for i, row in enumerate(A0)],
            [x / k[i] for i, x in enumerate(b)],
            c,
        )
        assert enumerate_bases(lp) == [basis for basis, _ in basic_points(lp)]


class TestSolutionSetEquivalence:
    @given(seed=st.integers(0, 200), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_dictionary_points_embed_into_the_subspaces(self, seed, data):
        lp = suite_instance(seed)
        r = build_R(lp)
        bases = enumerate_bases(lp)
        basis = bases[data.draw(st.integers(0, len(bases) - 1))]
        prim = dictionary_from_basis(initial_dictionary(lp), basis)
        assert in_kernel(r, kernel_embedding(prim))
        dual = negative_transpose(prim)
        assert rowspace_contains(r, rowspace_embedding(dual))

    @given(seed=st.integers(0, 200), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rowspace_vectors_solve_the_dual_dictionary(self, seed, data):
        # any row-space vector normalized to y0 = 1 satisfies the equations of
        # every dual dictionary, and vice versa for arbitrary y_B assignments
        lp = suite_instance(seed)
        r = build_R(lp)
        dual = negative_transpose(initial_dictionary(lp))
        us = data.draw(
            st.lists(
                st.fractions(min_value=-5, max_value=5, max_denominator=3),
                min_size=lp.m,
                max_size=lp.m,
            )
        )
        # row combination with coefficient 1 on the objective row, so y0 = 1
        coeffs = us + [Fraction(1)]
        ybar = [
            sum((coeffs[i] * r[i][j] for i in range(lp.m + 1)), Fraction(0))
            for j in range(len(r[0]))
        ]
        assert ybar[0] == 1
        values = ybar[1 : lp.m + lp.n + 1]
        # basic rows of the dual dictionary
        for v, p_r, row in zip(dual.basis, dual.p, dual.Q.row_lists()):
            rhs = p_r - sum(
                (x * values[w - 1] for x, w in zip(row, dual.nonbasis)),
                Fraction(0),
            )
            assert values[v - 1] == rhs
        # objective row matches the homogenizing coordinate
        assert ybar[-1] == objective_at(dual, values)
        assert rowspace_contains(r, ybar)

        # converse: arbitrary nonbasic assignment solves into the row space
        ys = data.draw(
            st.lists(
                st.fractions(min_value=-5, max_value=5, max_denominator=3),
                min_size=dual.n,
                max_size=dual.n,
            )
        )
        full = [Fraction(0)] * (lp.m + lp.n)
        for value, v in zip(ys, dual.nonbasis):
            full[v - 1] = value
        for v, p_r, row in zip(dual.basis, dual.p, dual.Q.row_lists()):
            full[v - 1] = p_r - sum(
                (x * full[w - 1] for x, w in zip(row, dual.nonbasis)),
                Fraction(0),
            )
        embedded = [Fraction(1)] + full + [objective_at(dual, full)]
        assert rowspace_contains(r, embedded)
