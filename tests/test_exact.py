import ast
import itertools
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictlp.exact import _str, format_rational, parse_rational
from dictlp.model import StandardLP

from conftest import qrows, qv
from reference import augmented_rows, build_R, rank, rowspace_contains, rowspace_equal, rref

ROOT = Path(__file__).resolve().parents[1]

rationals = st.fractions(
    min_value=-30, max_value=30, max_denominator=6
)


def small_matrix(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


class TestRational:
    # A token's numerator and denominator print in lowest terms, sign on the numerator.
    def test_gcd_reduction(self):
        assert format_rational(*parse_rational("2/4")) == "1/2"

    def test_sign_normalization(self):
        assert parse_rational("-3/6") == (-3, 6)
        assert format_rational(*parse_rational("-3/6")) == "-1/2"

    def test_zero_case(self):
        assert format_rational(*parse_rational("0/7")) == "0"
        assert format_rational(0, 1) == "0"

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("3/0")

    @pytest.mark.parametrize("token,expected", [("-11/2", Fraction(-11, 2)), ("3", Fraction(3)), ("0", Fraction(0))])
    def test_parse_tokens(self, token, expected):
        assert Fraction(*parse_rational(token)) == expected
        assert str(expected) == token
        assert format_rational(*parse_rational(token)) == token

    @given(a=rationals)
    def test_format_is_fraction_text(self, a):
        assert format_rational(a.numerator * 6, a.denominator * 6) == str(a)

    @pytest.mark.parametrize("digits", [640, 641, 1_283, 5_001, 20_000])
    def test_any_number_of_digits(self, digits):
        # Past 640 digits both conversions go in chunks. The oracle is
        # Horner's rule, since int() and str() refuse more than the
        # interpreter's digit limit.
        text = ("9876543210" * (digits // 10 + 1))[:digits]
        value = 0
        for ch in text:
            value = value * 10 + ord(ch) - ord("0")
        assert parse_rational(f"-{text}/{text}") == (-value, value)
        assert format_rational(-value, 1) == f"-{text}"
        assert format_rational(value * 7, 7 * (10 * value + 1)) == f"{text}/{text}1"
        assert format_rational(10**digits, 1) == "1" + "0" * digits

    def test_str_and_chunks_agree_at_the_bound(self):
        # format_rational converts with str() while the numerator and the
        # denominator are both under 10**640, and in chunks otherwise. Around
        # that bound, with either sign and with a common factor (3, 9, 10 or
        # the number itself, and k = 3 for all), both ways give one text.
        bound = 10**640

        def chunked(num, den):
            g = gcd(num, den)
            return _str(num // den) if g == den else f"{_str(num // g)}/{_str(den // g)}"

        near = [bound - 1, bound, bound + 1]
        for num, den, k, sign in itertools.product(near + [3, 9, 10], near + [9, 10], (1, 3), (1, -1)):
            assert format_rational(sign * k * num, k * den) == chunked(sign * k * num, k * den)
        assert format_rational(bound - 1, 9) == "1" * 640
        assert format_rational(-bound, bound + 1) == f"-1{'0' * 640}/1{'0' * 639}1"

    @pytest.mark.parametrize("token", ["+3", "3/-2", "1/2/3", "a", "1.5", " 3", ""])
    def test_parse_rejects(self, token):
        with pytest.raises(ValueError):
            parse_rational(token)

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("1/0")

    @given(a=rationals, b=rationals)
    def test_add_sub_round_trip(self, a, b):
        assert (a + b) - b == a

    @given(a=rationals, b=rationals.filter(lambda x: x != 0))
    def test_mul_div_round_trip(self, a, b):
        assert (a * b) / b == a


class TestRref:
    def test_identity_fixed_point(self):
        m = qrows([[1, 0], [0, 1]])
        reduced, rnk, pivots = rref(m)
        assert reduced == m
        assert rnk == 2
        assert pivots == [0, 1]

    def test_dependent_rows(self):
        reduced, rnk, pivots = rref(qrows([[1, 2], [2, 4]]))
        assert reduced == qrows([[1, 2], [0, 0]])
        assert rnk == 1
        assert pivots == [0]

    def test_e1_augmented_rank(self, e1):
        assert rank(augmented_rows(e1)) == 2

    @given(small_matrix())
    @settings(max_examples=60)
    def test_idempotent(self, rows):
        reduced, rnk, pivots = rref(qrows(rows))
        again, rnk2, pivots2 = rref(reduced)
        assert again == reduced
        assert (rnk2, pivots2) == (rnk, pivots)

    @given(small_matrix())
    @settings(max_examples=60)
    def test_pivot_columns_strictly_increasing(self, rows):
        _, rnk, pivots = rref(qrows(rows))
        assert len(pivots) == rnk
        assert all(a < b for a, b in zip(pivots, pivots[1:]))


class TestRowspace:
    def test_identity_contains_everything(self):
        m = qrows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rowspace_contains(m, qv([1, Fraction(-7, 3), 0]))

    def test_single_row_misses_orthogonal(self):
        assert not rowspace_contains(qrows([[1, 0, 0]]), qv([0, 1, 0]))

    def test_contains_own_row(self, e1):
        r = build_R(e1)
        assert rowspace_contains(r, r[2])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rowspace_contains(qrows([[1, 0]]), qv([1, 0, 0]))

    def test_equal_same_matrix(self):
        m = qrows([[1, 2], [3, 4]])
        assert rowspace_equal(m, m)

    def test_equal_scaled_spans(self):
        assert rowspace_equal(qrows([[1, 0], [0, 1]]), qrows([[2, 0], [0, 3]]))

    def test_unequal(self):
        assert not rowspace_equal(qrows([[1, 0]]), qrows([[0, 1]]))

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            rowspace_equal(qrows([[1, 0]]), qrows([[1, 0, 0]]))

    @given(small_matrix(3), small_matrix(3))
    @settings(max_examples=60)
    def test_matches_rref_canonical_form(self, rows_a, rows_b):
        # independent oracle: two matrices span the same row space iff the
        # nonzero rows of their reduced echelon forms coincide
        width = len(rows_a[0])
        rows_b = [(row + [Fraction(0)] * width)[:width] for row in rows_b]
        a, b = qrows(rows_a), qrows(rows_b)

        def canonical_span(m):
            reduced, rnk, _ = rref(m)
            return tuple(tuple(reduced[i]) for i in range(rnk))

        assert rowspace_equal(a, b) == (canonical_span(a) == canonical_span(b))
        assert rowspace_equal(a, a) and rowspace_equal(b, b)

    @given(small_matrix(3), st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=40)
    def test_equivalence_under_row_recombination(self, rows, coeffs):
        # symmetric/transitive behavior on matrices constructed to share a span:
        # append random row combinations, which never change the row space
        base = qrows(rows)

        def extended(combo_coeffs):
            extra = [
                sum(
                    (combo_coeffs[k] * base[k % len(base)][j] for k in range(3)),
                    Fraction(0),
                )
                for j in range(len(base[0]))
            ]
            return qrows(rows + [extra])

        m1, m2, m3 = extended(coeffs[0]), extended(coeffs[1]), extended(coeffs[2])
        assert rowspace_equal(m1, m2) and rowspace_equal(m2, m1)
        assert rowspace_equal(m2, m3)
        assert rowspace_equal(m1, m3)


def test_names_the_benchmark_reads(monkeypatch):
    # perfbench/worker.py records dictlp.BACKEND in every result and
    # perfbench/tracing.py wraps pivot_update through
    # sys.modules["dictlp._kernels"]; without them every benchmark run fails.
    # The tracer counts kernel cells as len(args[1]) * len(args[2]) on the
    # positional arguments, so the library must pass Q (m rows) and q
    # (n entries) there. worker.py also reports the span
    # dictionary.negative_transpose, so that name must stay; no library path
    # calls it (verify compares each dual with the primal in place), so the
    # span reads 0 on every workload.
    import inspect
    import sys

    import dictlp
    import dictlp.cli
    from dictlp import _kernels, exact
    from dictlp import dictionary, duality
    from dictlp.dictionary import initial_dictionary, pivot
    from dictlp.model import parse_lp
    from dictlp.simplex import solve

    assert dictlp.BACKEND == "python"
    assert callable(_kernels.pivot_update)
    assert callable(dictionary.negative_transpose)
    assert not hasattr(duality, "negative_transpose")

    # The tracer wraps the public functions of these modules, one span per
    # call, except the per-entry helpers of exact that it names.
    for layer in ("model", "exact", "_kernels", "dictionary", "simplex", "duality", "cli"):
        assert f"dictlp.{layer}" in sys.modules
    public = {
        name
        for name, value in vars(exact).items()
        if not name.startswith("_")
        and callable(value)
        and not inspect.isclass(value)
        and value.__module__ == exact.__name__
    }
    assert public <= {"parse_rational", "format_rational", "common_denominator"}

    # perfbench/worker.py reads the size of each instance, and the phases,
    # steps and Fraction views of every dictionary in a solve's trace: each
    # phase's len(steps), then its steps by iteration. Every `dictlp solve`
    # op makes a replayed trace (keep=False); it must read as the kept one.
    parsed = parse_lp("lp v1\n2 2\n1 1/2\n1 2 4\n-1 -1 -1\n")
    assert (parsed.m, parsed.n) == (2, 2)
    read = []
    for keep in (True, False):
        _, trace = solve(parsed, keep=keep)
        pivots, entries = 0, []
        for phase in trace.phases:
            assert isinstance(phase.name, str)
            pivots += len(phase.steps)
            for d in [phase.start] + [step.dictionary for step in phase.steps]:
                entries.append([*d.p, *d.q, d.z_star, *(x for row in d.Q.row_lists() for x in row)])
        assert pivots > 0 and len(entries) == len(trace.phases) + pivots
        assert all(isinstance(x.numerator, int) and isinstance(x.denominator, int) for row in entries for x in row)
        read.append(entries)
    assert read[0] == read[1]

    calls = []
    real = _kernels.pivot_update

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(_kernels, "pivot_update", recording)
    wide = StandardLP.from_fractions([[1, 2, 3], [4, 5, 6]], [1, 2], [1, 1, 1])
    pivot(initial_dictionary(wide), 1, 4)
    ((args, kwargs),) = calls
    assert kwargs == {}
    assert (len(args[1]), len(args[2])) == (wide.m, wide.n)


def test_library_writes_no_assert():
    # Runtime invariants raise typed errors: ``python -O`` strips asserts.
    import dictlp

    sources = sorted(Path(dictlp.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert at lines {lines}"


def test_library_has_no_dead_private_function_or_unused_import():
    # A private module-level function with no reference outside its own
    # definition, or an imported name never read, is code no caller needs.
    import dictlp

    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(dictlp.__file__).parent.glob("*.py"))
    }
    assert trees

    def referenced(node: ast.AST) -> set[str]:
        return {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }

    statements = [(stmt, referenced(stmt)) for tree in trees.values() for stmt in tree.body]
    dead = [
        f"{name}: {fn.name}"
        for name, tree in trees.items()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
        and not any(fn.name in refs for stmt, refs in statements if stmt is not fn)
    ]
    assert dead == [], f"private functions with no reference: {dead}"

    unused = []
    for name, tree in trees.items():
        # Names listed in __all__ are the package's re-exports.
        exported = {
            n.value
            for stmt in tree.body
            if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
            for n in ast.walk(stmt.value)
            if isinstance(n, ast.Constant)
        }
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
                unused += [f"{name}: {b}" for b in bound if b not in used]
    assert unused == [], f"imported names never used: {unused}"

    # A name in dictlp.__all__ is read by library code outside its own
    # definition, by the benchmark (perfbench/*.py) or by README's Library
    # section. One that only tests read is code no caller needs.
    def defines(stmt: ast.stmt, name: str) -> bool:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            return stmt.name == name
        return isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == name for t in stmt.targets)

    benchmark = set().union(
        *(referenced(ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(ROOT.glob("perfbench/*.py")))
    )
    library_section = readme_library_section()
    unread = [
        name
        for name in dictlp.__all__
        if not any(name in refs for stmt, refs in statements if not defines(stmt, name))
        and name not in benchmark
        and not re.search(rf"\b{name}\b", library_section)
    ]
    assert unread == [], f"exported names that only tests read: {unread}"


def readme_library_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs(monkeypatch):
    # The example runs from the repository root, and its last line shows True.
    code = readme_library_section().split("```python\n", 1)[1].split("```", 1)[0]
    *body, last = ast.parse(code).body
    assert isinstance(last, ast.Expr)
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    exec(compile(ast.Module(body, type_ignores=[]), "README.md", "exec"), namespace)
    assert eval(compile(ast.Expression(last.value), "README.md", "eval"), namespace) is True
    assert len(namespace["verify_bases"](namespace["lp"])) == 10
