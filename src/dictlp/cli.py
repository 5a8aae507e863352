"""Command-line surface: ``dictlp COMMAND``.

Commands: ``solve`` (two-phase simplex with exact certificates), ``trace``
(dictionary sequence, optionally with the synchronized dual view), ``dual``
(emit the dual instance), ``dict`` (dictionary for a given basis),
``verify`` (the primal-dual bijection over all bases), and ``random``
(seeded instance generator). Every number is printed in canonical rational
syntax; exit codes are 0 optimal/ok, 2 unbounded, 3 infeasible, 4 verify
failure, 5 enumeration budget refusal, 6 a solve whose certificate failed
its re-check, 1 usage, parse or I/O errors. Dictionaries and traces
print through ``render``.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path
from typing import Sequence

from dictlp.dictionary import (
    NotABasisError,
    PivotError,
    dictionary_from_basis,
    initial_dictionary,
    pivot,
)
from dictlp.duality import BasisCountError, verify_bases
from dictlp.exact import _int, _rationals_text
from dictlp.model import _DIMENSION_RE, ParseError, StandardLP, dual_lp, parse_lp, serialize_lp
from dictlp.render import _solver_trace_lines, format_dictionary
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
    # Only the pivot count is read: the path is kept as positions, never replayed.
    outcome, trace = solve(lp, args.rule, keep=False)
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
        # Every dictionary is rendered: kept as the loop makes it, so none is pivoted twice.
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
