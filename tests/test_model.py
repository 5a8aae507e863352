from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictlp.dictionary import basic_solution, initial_dictionary
from dictlp.model import (
    ParseError,
    StandardLP,
    dual_lp,
    parse_lp,
    serialize_lp,
)

from conftest import E1_TEXT, qm, qv

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=5)


def instances(max_dim=3):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.builds(
                StandardLP.from_fractions,
                st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=m, max_size=m),
                st.lists(rationals, min_size=m, max_size=m),
                st.lists(rationals, min_size=n, max_size=n),
            )
        )
    )


class TestParse:
    def test_e1_file(self, e1):
        assert parse_lp(E1_TEXT) == e1

    def test_degenerate_instance(self):
        lp = parse_lp("lp v1\n1 1\n1\n1 0\n")
        assert lp.m == 1 and lp.n == 1
        assert lp.b == qv([0])

    def test_comments_and_blank_lines(self, e1):
        text = "# a comment\nlp v1\n\n2 3   # dims\n8 11 -10\n4 2 -2 18\n-1 -1 -2 -3\n"
        assert parse_lp(text) == e1

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_lp("nope\n1 1\n1\n1 0\n")

    def test_wrong_coefficient_count(self):
        # header says n=3 but a constraint row has only 2 coefficients + rhs
        with pytest.raises(ParseError, match="line 4"):
            parse_lp("lp v1\n1 3\n1 1 1\n1 1 2\n")

    def test_zero_denominator_literal(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_lp("lp v1\n1 1\n1/0\n1 0\n")

    def test_bad_dimension_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_lp("lp v1\nx 1\n1\n1 0\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_lp("lp v1\n0 1\n1\n")

    def test_missing_rows(self):
        with pytest.raises(ParseError):
            parse_lp("lp v1\n2 1\n1\n1 0\n")

    def test_extra_rows(self):
        with pytest.raises(ParseError):
            parse_lp("lp v1\n1 1\n1\n1 0\n1 0\n")


class TestSerialize:
    def test_e1_canonical_bytes(self, e1):
        assert serialize_lp(e1) == "lp v1\n2 3\n8 11 -10\n4 2 -2 18\n-1 -1 -2 -3\n"

    def test_rational_token(self):
        lp = StandardLP.from_fractions([[Fraction(-11, 2)]], qv([1]), qv([1]))
        assert "-11/2" in serialize_lp(lp)

    @given(instances())
    @settings(max_examples=60)
    def test_round_trip(self, lp):
        assert parse_lp(serialize_lp(lp)) == lp

    def test_idempotent_on_messy_whitespace(self, e1):
        messy = "lp v1\n 2   3\n8  11  -10\n4 2 -2 18\n-1 -1 -2 -3"
        assert serialize_lp(parse_lp(messy)) == serialize_lp(e1)


class TestDual:
    def test_e1(self, e1):
        dual = dual_lp(e1)
        assert dual.A0 == qm([[-4, 1], [-2, 1], [2, 2]])
        assert dual.b == qv([-8, -11, 10])
        assert dual.c == qv([-18, 3])

    def test_one_by_one_negates(self):
        lp = StandardLP.from_fractions([[5]], qv([2]), qv([3]))
        dual = dual_lp(lp)
        assert dual.A0 == qm([[-5]])

    @given(instances())
    @settings(max_examples=40)
    def test_involution(self, lp):
        again = dual_lp(dual_lp(lp))
        assert again == lp


class TestInitialDictionary:
    def test_e1(self, e1):
        d = initial_dictionary(e1)
        assert d.basis == (4, 5)
        assert d.nonbasis == (1, 2, 3)
        assert d.p == e1.b
        assert d.Q == e1.A0
        assert d.q == e1.c
        assert d.z_star == 0

    @given(instances())
    @settings(max_examples=40)
    def test_objective_constant_zero(self, lp):
        assert initial_dictionary(lp).z_star == 0

    @given(instances())
    @settings(max_examples=40)
    def test_basic_solution_is_slacks_at_b(self, lp):
        x = basic_solution(initial_dictionary(lp))
        assert list(x[: lp.n]) == [Fraction(0)] * lp.n
        assert list(x[lp.n :]) == list(lp.b)
