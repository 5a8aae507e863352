"""Command-line surface: ``dictlp COMMAND``.

Commands: ``solve`` (two-phase simplex with exact certificates), ``trace``
(dictionary sequence, optionally with the synchronized dual view), ``dual``
(emit the dual instance), ``dict`` (dictionary for a given basis),
``verify`` (the primal-dual bijection over all bases), and ``random``
(seeded instance generator). Every number is printed in canonical rational
syntax; exit codes are 0 optimal/ok, 2 unbounded, 3 infeasible, 4 verify
failure, 5 enumeration budget refusal, 6 a solve whose certificate failed
its re-check, 1 usage, parse or I/O errors.

A dictionary prints from two signed term tables per denominator
(``_term_tables``): each maps a numerator to its whole term, sign included,
as a row ``p - Qx`` or as ``z* + qx`` prints it, so ``_lines`` prints a
term as one lookup plus the variable name. ``trace`` keeps the tables for
the whole trace and formats each (numerator, D) pair once. It prints each
dictionary in lowest terms (``_lowest_terms``): a determinant-form chain
changes D at nearly every pivot, while the reduced denominators repeat, so
the tables keep hitting. ``--dual-view`` prints the negative transpose from
the same tables, reading the columns of Q as rows with the tables swapped
(``_lines`` with ``flip``), so no dual dictionary is built. Within a phase,
a row line is carried over from the dictionary one pivot earlier when D,
the row's label, constant and coefficients are unchanged and its
coefficient under the relabelled head is 0 (position s of a primal row, r
of a dual-view row), since it would print the same text. A unit pivot
(|a| = D) leaves most rows, and in the dual view most columns, unchanged.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import replace
from itertools import repeat
from pathlib import Path
from typing import Sequence

from dictlp import _kernels
from dictlp.dictionary import (
    Dictionary,
    NotABasisError,
    PivotError,
    dictionary_from_basis,
    initial_dictionary,
    pivot,
)
from dictlp.duality import BasisCountError, verify_bases
from dictlp.exact import _int, _rationals_text, format_rational
from dictlp.model import _DIMENSION_RE, ParseError, StandardLP, dual_lp, parse_lp, serialize_lp
from dictlp.simplex import (
    CertificateError,
    Optimal,
    PivotStep,
    SolveTrace,
    TracePhase,
    Unbounded,
    solve,
)


class UsageError(ValueError):
    pass


def format_dictionary(d: Dictionary) -> str:
    """Render a dictionary in the classic display style.

    One line per basic row (``x4 = 18 - 4x1 - 2x2 + 2x3``), then the
    objective line, labeled ``z`` on the primal side and ``-w`` on the dual.
    Magnitude-1 coefficients drop the ``1``; zero coefficients are skipped;
    the objective constant is skipped when zero unless the line would be
    empty.
    """
    return "\n".join(_lines(d, _term_tables({}, d), flip=False))


# (minus, plus): numerator -> its term in a row p - Qx, and in z* + qx.
_TermTables = tuple[dict[int, str], dict[int, str]]


def _term_tables(tables: dict[int, _TermTables], d: Dictionary) -> _TermTables:
    """The two signed term tables of ``d.D`` in ``tables``, filled for the numerators of ``d``.

    ``minus`` maps a numerator x to its term in a row ``p - Qx`` (3/2 to
    ``" - 3/2"``, -3/2 to ``" + 3/2"``), ``plus`` to its term in ``z* + qx``
    (``" + 3/2"``, ``" - 3/2"``); a magnitude of 1 leaves the sign alone
    (``" - "``), and 0 maps to ``" + 0"``. Only the numerators that are new
    to the tables of ``d.D`` are formatted, so ``tables`` kept across the
    dictionaries of a trace formats each (numerator, D) pair once.
    """
    D = d.D
    minus, plus = tables.get(D) or tables.setdefault(D, ({}, {}))
    for x in {d.z_num, *d.p_num, *d.q_num}.union(*d.Q_num).difference(minus):
        if x > 0:
            text = "" if x == D else format_rational(x, D)
            minus[x], plus[x] = " - " + text, " + " + text
        elif x < 0:
            text = "" if x == -D else format_rational(x, D)[1:]
            minus[x], plus[x] = " + " + text, " - " + text
        else:  # read only as a constant, which prints "0"
            minus[x] = plus[x] = " + 0"
    return minus, plus


def _leading(terms: str) -> str:
    """Signed terms as the start of a line.

    " + 3/2" is "3/2", " - x1 + x2" is "-x1 + x2", and a bare sign is a
    constant of magnitude 1: " + " is "1".
    """
    text = terms[3:] or "1"
    return text if terms[1] == "+" else "-" + text


def _lines(d: Dictionary, tables: _TermTables, flip: bool, last: list | None = None) -> list[str]:
    """The lines of ``d``, or with ``flip`` of its negative transpose, from ``tables = _term_tables(..., d)``.

    The negative transpose has rows -q, -Q^T, objective -p and constant -z*
    on the swapped partition and the other side, so it reads the same
    numerators in the other orientation, each term from the other table; no
    dictionary is built.

    ``last`` holds what the previous call with it rendered, the dictionary
    one pivot earlier in the same orientation, and is updated to ``d``. A
    row line of it is carried over when D is the same, the row's label,
    constant and coefficients are unchanged, and its coefficient under the
    one head that the pivot relabelled is 0: then it prints the same text.
    """
    primal = (d.side == "primal") != flip
    var = "x" if primal else "y"
    minus, plus = tables
    # A row prints p_r - Q_r x_N, the objective z* + q x_N, so a row term is
    # minus[x] and a constant or objective term plus[x]. Flip negates every
    # entry, so the tables trade places.
    if flip:
        rows, heads, objective = list(zip(d.nonbasis, d.q_num, zip(*d.Q_num))), d.basis, d.p_num
        row_terms, terms = plus, minus
    else:
        rows, heads, objective = list(zip(d.basis, d.p_num, d.Q_num)), d.nonbasis, d.q_num
        row_terms, terms = minus, plus
    names = [f"{var}{w}" for w in heads]
    # The one head position the pivot relabelled, when ``last`` was rendered over the same D.
    moved = [j for j, (u, w) in enumerate(zip(last[1], heads)) if u != w] if last and last[0] == d.D else ()
    if len(moved) == 1:
        (j,) = moved
        carried = zip(last[2], last[3])
    else:  # nothing to carry over: no row equals None
        j, carried = 0, repeat((None, None))
    lines = []
    for row, (old, text) in zip(rows, carried):
        if row != old or row[2][j]:
            v, c, coefs = row
            terms_text = "".join([row_terms[x] + name for x, name in zip(coefs, names) if x])
            text = f"{var}{v} = {_leading(terms[c])}{terms_text}"
        lines.append(text)
    if last is not None:
        last[:] = d.D, heads, rows, lines[:]
    tail = "".join([terms[x] + name for x, name in zip(objective, names) if x])
    # The constant is skipped when zero, unless the line would be empty.
    tail = _leading(terms[d.z_num]) + tail if d.z_num or not tail else _leading(tail)
    lines.append(f"{'z' if primal else '-w'} = {tail}")
    return lines


def random_lp(m: int, n: int, seed: int, bound: int = 10) -> StandardLP:
    """Deterministic instance for a seed: integer entries uniform in [-bound, bound].

    Draws from ``random.Random(seed)`` (Mersenne Twister) in file order: the
    n objective entries first, then each constraint row followed by its
    right-hand side. Same seed, same instance, byte for byte.
    """
    if m < 1 or n < 1:
        raise UsageError("m and n must be at least 1")
    if bound < 1:
        raise UsageError("bound must be at least 1")
    rng = random.Random(seed)
    c = [rng.randint(-bound, bound) for _ in range(n)]
    rows = []
    b = []
    for _ in range(m):
        rows.append([rng.randint(-bound, bound) for _ in range(n)])
        b.append(rng.randint(-bound, bound))
    return StandardLP.from_fractions(rows, b, c)


def integer(text: str) -> int:
    """An integer flag value: ASCII digits with an optional leading '-', of any length.

    ``int`` alone would also take other scripts' digits, '_', '+' and spaces,
    and would refuse more digits than ``-X int_max_str_digits`` allows.
    """
    if not _DIMENSION_RE.fullmatch(text[1:] if text.startswith("-") else text):
        raise ValueError(f"not an integer: {text!r}")
    return _int(text)


def _read_instance(path: str) -> StandardLP:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return parse_lp(text)


def cmd_solve(args: argparse.Namespace) -> int:
    lp = _read_instance(args.input)
    outcome, trace = solve(lp, args.rule)
    lines: list[str]
    if isinstance(outcome, Optimal):
        code = 0
        lines = [
            "outcome = optimal",
            f"value = {_rationals_text([outcome.value])}",
            f"point = {_rationals_text(outcome.point)}",
        ]
    elif isinstance(outcome, Unbounded):
        code = 2
        lines = [
            "outcome = unbounded",
            f"point = {_rationals_text(outcome.point)}",
            f"ray = {_rationals_text(outcome.ray)}",
        ]
    else:
        code = 3
        lines = ["outcome = infeasible", f"farkas = {_rationals_text(outcome.farkas)}"]
    lines.append(f"pivots = {trace.pivot_count}")
    print("\n".join(lines))
    return code


def _solver_trace_lines(trace: SolveTrace, dual_view: bool) -> list[str]:
    lines: list[str] = []
    tables: dict[int, _TermTables] = {}  # per D, for the whole trace
    multi = len(trace.phases) > 1
    for k, phase in enumerate(trace.phases):
        if k > 0:
            lines.append("")
        if multi:
            lines.append(f"== {phase.name} ==")
        primal_last: list = []  # what _lines rendered one pivot earlier, per orientation
        dual_last: list = []
        for step in (None, *phase.steps):
            d = phase.start if step is None else step.dictionary
            if step is not None:
                lines += ["", f"pivot: enter x{step.enter}, leave x{step.leave}"]
            d = _lowest_terms(d)
            terms = _term_tables(tables, d)
            lines += _lines(d, terms, False, primal_last)
            if dual_view:
                lines += ["", "dual:"]
                if step is not None:
                    lines.append(f"pivot: enter y{step.leave}, leave y{step.enter}")
                lines += _lines(d, terms, True, dual_last)
    return lines


def _lowest_terms(d: Dictionary) -> Dictionary:
    """``d`` with its numerators and D divided by their gcd.

    ``d`` itself when that gcd is known to be 1: at D = 1, and off a
    determinant-form chain, whose dictionaries are kept reduced.
    """
    if d.D == 1 or not d.det_form:
        return d
    p, Q, q, z, D = _kernels.reduced(d.p_num, d.Q_num, d.q_num, d.z_num, d.D)
    return replace(d, p_num=p, Q_num=Q, q_num=q, z_num=z, D=D)


def _parse_pivot_flags(raw: list[str]) -> list[tuple[int, int]]:
    out = []
    for item in raw:
        pieces = item.split(",")
        if len(pieces) != 2:
            raise UsageError(f"--pivot expects 'enter,leave', got {item!r}")
        try:
            out.append((integer(pieces[0]), integer(pieces[1])))
        except ValueError:
            raise UsageError(f"--pivot expects integers, got {item!r}") from None
    return out


def cmd_trace(args: argparse.Namespace) -> int:
    lp = _read_instance(args.input)
    if args.pivot:
        d = start = initial_dictionary(lp)
        steps = []
        for enter, leave in _parse_pivot_flags(args.pivot):
            d = pivot(d, enter, leave)
            steps.append(PivotStep(enter=enter, leave=leave, dictionary=d))
        trace = SolveTrace(phases=(TracePhase("forced pivots", start, tuple(steps)),))
    else:
        _, trace = solve(lp, args.rule)
    print("\n".join(_solver_trace_lines(trace, args.dual_view)))
    return 0


def cmd_dual(args: argparse.Namespace) -> int:
    lp = _read_instance(args.input)
    sys.stdout.write(serialize_lp(dual_lp(lp)))
    return 0


def cmd_dict(args: argparse.Namespace) -> int:
    lp = _read_instance(args.input)
    try:
        basis = tuple(integer(tok) for tok in args.basis.split(","))
    except ValueError:
        raise UsageError(f"--basis expects comma-separated integers, got {args.basis!r}") from None
    d = dictionary_from_basis(initial_dictionary(lp), basis)
    print(format_dictionary(d))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    lp = _read_instance(args.input)
    try:
        reports = verify_bases(lp, limit=args.limit)
    except BasisCountError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 5
    passed = 0
    for report in reports:
        name = ",".join(map(str, report.basis))
        if report.passed:
            passed += 1
            print(f"basis {name}: pass")
        else:
            print(f"basis {name}: FAIL ({report.details})")
    print(f"verified {passed}/{len(reports)} bases")
    return 0 if passed == len(reports) else 4


def cmd_random(args: argparse.Namespace) -> int:
    lp = random_lp(args.m, args.n, args.seed, args.bound)
    sys.stdout.write(serialize_lp(lp))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dictlp", description="Exact dictionary-based LP toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, with_input: bool = True, with_rule: bool = False):
        p = sub.add_parser(name, help=help_text)
        if with_input:
            p.add_argument("input", help="LP file path, or '-' for standard input")
        if with_rule:
            p.add_argument("--rule", choices=["bland", "dantzig"], default="bland")
        p.set_defaults(func=func)
        return p

    add("solve", cmd_solve, "solve and print an exact outcome certificate", with_rule=True)
    p_trace = add("trace", cmd_trace, "print the dictionary pivot sequence", with_rule=True)
    p_trace.add_argument(
        "--pivot",
        action="append",
        metavar="ENTER,LEAVE",
        help="force this pivot instead of running the solver (repeatable)",
    )
    p_trace.add_argument("--dual-view", action="store_true", dest="dual_view")
    add("dual", cmd_dual, "emit the dual instance in the same file format")
    p_dict = add("dict", cmd_dict, "print the dictionary for a basis")
    p_dict.add_argument("--basis", required=True, metavar="I1,...,IM")
    p_verify = add("verify", cmd_verify, "check the primal-dual bijection on every basis")
    p_verify.add_argument("--limit", type=integer, default=100_000)
    p_random = add("random", cmd_random, "emit a seeded random instance", with_input=False)
    p_random.add_argument("--m", type=integer, required=True)
    p_random.add_argument("--n", type=integer, required=True)
    p_random.add_argument("--seed", type=integer, required=True)
    p_random.add_argument("--bound", type=integer, default=10)
    return parser


# Built once: parse_args leaves the parser unchanged and returns a fresh namespace.
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here for output still buffered
        return code
    except BrokenPipeError:
        # The reader stopped early (``| head``). Output that is still
        # buffered goes to the null device, so the flush at exit stays quiet.
        try:
            fd = sys.stdout.fileno()
        except OSError:  # io.UnsupportedOperation: an in-memory stream has none
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (NotABasisError, PivotError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CertificateError as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return 6
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
