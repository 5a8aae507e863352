from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictlp.dictionary import initial_dictionary
from dictlp.model import (
    ParseError,
    StandardLP,
    dual_lp,
    parse_lp,
    serialize_lp,
)

from conftest import E1_TEXT, qrows, qv
from reference import basic_solution, lp_fractions

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=5)


# Tokens as a file may spell them: a '-' on zero, leading zeros, unreduced ratios.
integer_tokens = st.builds(
    lambda sign, zeros, value: f"{sign}{'0' * zeros}{value}",
    st.sampled_from(["", "-"]),
    st.integers(0, 3),
    st.integers(0, 10**12),
)
rational_tokens = st.builds(
    lambda num, zeros, den: f"{num}/{'0' * zeros}{den}",
    integer_tokens,
    st.integers(0, 3),
    st.integers(1, 10**6),
)


@st.composite
def grid_rows(draw, width):
    """The tokens of one content row: all integers, or integers and rationals mixed.

    Some rows are padded with leading zeros to 640 or 641 characters, on
    both sides of the length up to which a row of integers converts token
    by token with ``int()``. The zeros are spread over the tokens, so that
    none has more than 640 digits and ``Fraction(token)`` reads each one
    under any digit limit.
    """
    kind = draw(st.sampled_from([integer_tokens, st.one_of(integer_tokens, rational_tokens)]))
    row = draw(st.lists(kind, min_size=width, max_size=width))
    target = draw(st.sampled_from([None, 640, 641]))
    if target is not None and width > 1:
        missing = target - len(" ".join(row))
        for k, tok in enumerate(row):
            zeros = "0" * (missing // width + (k < missing % width))
            sign = "-" if tok.startswith("-") else ""
            row[k] = sign + zeros + tok.removeprefix("-")
        assert len(" ".join(row)) == target
    return row


LONG_DIGITS = "12" * 350


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
        assert lp_fractions(lp)[1] == qv([0])

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

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_instance_of_the_tokens_as_fractions(self, data):
        m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        c = data.draw(grid_rows(n))
        rows = [data.draw(grid_rows(n + 1)) for _ in range(m)]
        text = "\n".join(["lp v1", f"{m} {n}", " ".join(c), *map(" ".join, rows)]) + "\n"
        expected = StandardLP.from_fractions(
            [[Fraction(tok) for tok in row[:-1]] for row in rows],
            [Fraction(row[-1]) for row in rows],
            [Fraction(tok) for tok in c],
        )
        assert parse_lp(text) == expected

    @pytest.mark.parametrize("length", [640, 641])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_row_on_each_side_of_640_characters(self, length, sign):
        first = sign + "7".rjust(length - 2 - len(sign), "0")
        row = f"{first} 5"
        assert len(row) == length
        lp = parse_lp(f"lp v1\n1 1\n3\n{row}\n")
        assert (lp.A0_num, lp.b_num, lp.c_num, lp.D) == (((int(sign + "7"),),), (5,), (3,), 1)

    def test_tokens_longer_than_640_digits(self):
        # Under PYTHONINTMAXSTRDIGITS=640, int() refuses these tokens whole,
        # in the integer row as in the rational one.
        value = 12 * (10**700 - 1) // 99  # LONG_DIGITS, without int() of 700 digits
        lp = parse_lp(f"lp v1\n1 1\n{LONG_DIGITS}/3\n{LONG_DIGITS} -{LONG_DIGITS}\n")
        assert lp == StandardLP.from_fractions([[Fraction(value)]], [Fraction(-value)], [Fraction(value, 3)])

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("lp v1\n1 1\n+1\n1 0\n", 3, "malformed rational '+1'"),
            ("lp v1\n1 1\n1\n1_000 0\n", 4, "malformed rational '1_000'"),
            ("lp v1\n1 1\n1\n1 \u0663\n", 4, "malformed rational '\u0663'"),
            ("lp v1\n1 2\n1 1.5\n1 1 0\n", 3, "malformed rational '1.5'"),
            ("lp v1\n1 1\n1\n1/0 0\n", 4, "zero denominator in '1/0'"),
            (f"lp v1\n1 1\n1\n{LONG_DIGITS}x 0\n", 4, f"malformed rational '{LONG_DIGITS}x'"),
            ("lp v1\n1 2\n1 1 1\n1 1 0\n", 3, "objective row: expected 2 values, found 3"),
            ("lp v1\n2 1\n1\n1 0\n1\n", 5, "constraint row 2: expected 2 values, found 1"),
            ("", 1, "empty input"),
            ("# a comment\n\n  # another\n", 1, "empty input"),
            ("lp v1\n", 2, "missing dimension line"),
            ("lp v1\n1\n1\n1 0\n", 2, "dimension line must be '<m> <n>'"),
            ("lp v1\n1 1 1\n1\n1 0\n", 2, "dimension line must be '<m> <n>'"),
        ],
    )
    def test_pinned_errors(self, text, line, message):
        with pytest.raises(ParseError) as exc:
            parse_lp(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

    @pytest.mark.parametrize(
        "space", ["\t", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029"]
    )
    def test_whitespace_other_than_line_ends_separates_tokens(self, space):
        assert parse_lp(f"lp v1\n1 2\n1{space}1\n1 1 3\n") == parse_lp("lp v1\n1 2\n1 1\n1 1 3\n")

    def test_line_numbers_count_only_line_ends(self):
        # str.splitlines() would end a line at the \v and report line 5.
        with pytest.raises(ParseError) as exc:
            parse_lp("lp v1\n1 2\n1\v1\n1 1\n")
        assert str(exc.value) == "line 4: constraint row 1: expected 3 values, found 2"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_each_line_end(self, end):
        with pytest.raises(ParseError) as exc:
            parse_lp(end.join(["lp v1", "1 2", "1 1", "1 1", ""]))
        assert str(exc.value) == "line 4: constraint row 1: expected 3 values, found 2"

    def test_missing_rows(self):
        with pytest.raises(ParseError):
            parse_lp("lp v1\n2 1\n1\n1 0\n")

    def test_extra_rows(self):
        with pytest.raises(ParseError):
            parse_lp("lp v1\n1 1\n1\n1 0\n1 0\n")


class TestFromFractions:
    @pytest.mark.parametrize(
        "A0_rows,b,c",
        [([], [], [1]), ([[1], [1]], [1], [1]), ([[1, 1], [1]], [1, 1], [1, 1])],
        ids=["empty A0", "short b", "short row"],
    )
    def test_rejects_a_shape_that_is_not_len_b_by_len_c(self, A0_rows, b, c):
        with pytest.raises(ValueError, match=r"^A0 must be a len\(b\) x len\(c\) matrix with at least one entry$"):
            StandardLP.from_fractions(A0_rows, b, c)

    @pytest.mark.parametrize("bad", [1.5, "1"], ids=["float", "str"])
    @pytest.mark.parametrize("field", ["A0", "b", "c"])
    def test_rejects_entries_that_are_not_int_or_fraction(self, field, bad):
        entries = {"A0_rows": [[1]], "b": [1], "c": [Fraction(1, 2)]}
        entries["A0_rows" if field == "A0" else field] = [[bad]] if field == "A0" else [bad]
        with pytest.raises(TypeError, match=f"got {type(bad).__name__} {bad!r}"):
            StandardLP.from_fractions(**entries)


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
        A0, b, c = lp_fractions(dual_lp(e1))
        assert A0 == qrows([[-4, 1], [-2, 1], [2, 2]])
        assert b == qv([-8, -11, 10])
        assert c == qv([-18, 3])

    def test_one_by_one_negates(self):
        lp = StandardLP.from_fractions([[5]], qv([2]), qv([3]))
        dual = dual_lp(lp)
        assert lp_fractions(dual)[0] == qrows([[-5]])

    @given(instances())
    @settings(max_examples=40)
    def test_involution(self, lp):
        again = dual_lp(dual_lp(lp))
        assert again == lp

    @pytest.mark.parametrize("A0", [((1, 2), (3,)), ((1,), (2, 3))])
    def test_ragged_rows_raise(self, A0):
        # Only a hand-built instance has rows of unequal lengths; transposed
        # up to its shortest row, it would lose a constraint's entries.
        with pytest.raises(ValueError):
            dual_lp(StandardLP(A0, (1, 1), (1, 1), 1))


class TestInitialDictionary:
    def test_e1(self, e1):
        d = initial_dictionary(e1)
        assert d.basis == (4, 5)
        assert d.nonbasis == (1, 2, 3)
        A0, b, c = lp_fractions(e1)
        assert d.p == b
        assert d.Q.row_lists() == qrows(A0)
        assert d.q == c
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
        assert list(x[lp.n :]) == list(lp_fractions(lp)[1])
