"""Output checks that share no code with ``dictlp``.

Each check parses the CLI's stdout and substitutes the printed certificate
back into the instance with plain ``Fraction`` arithmetic, so a wrong answer
is caught even on seeds that have no committed digest. Every check returns
``None`` when the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from corpus import Instance, Op

EXIT_CODES = {"optimal": 0, "unbounded": 2, "infeasible": 3}
_VERIFIED = re.compile(r"verified (\d+)/(\d+) bases\Z")
_PRIMAL_PIVOT = re.compile(r"pivot: enter x(\d+), leave x(\d+)")


def digest(code: int, stdout: str) -> str:
    """Digest of one call: exit code and stdout."""
    return hashlib.sha256(f"exit={code}\n{stdout}".encode()).hexdigest()


@dataclass(frozen=True)
class Summary:
    """What a call claimed, for checks that compare calls with each other."""

    outcome: str
    value: Fraction | None = None
    pivots: int | None = None


def _fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _vector(text: str, length: int) -> list[Fraction]:
    values = [Fraction(tok) for tok in text.split()]
    if len(values) != length:
        raise ValueError(f"expected {length} entries, got {len(values)}")
    return values


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _column(inst: Instance, j: int) -> list[Fraction]:
    return [row[j] for row in inst.A]


def _feasible(inst: Instance, x: list[Fraction]) -> bool:
    return all(v >= 0 for v in x) and all(_dot(row, x) <= rhs for row, rhs in zip(inst.A, inst.b))


def substitute_solve(inst: Instance, code: int, stdout: str) -> str | None:
    """Substitute a ``solve`` certificate into the instance."""
    f = _fields(stdout)
    if "outcome" not in f:
        return f"no outcome printed, exit {code}"
    try:
        outcome = f["outcome"]
        if EXIT_CODES.get(outcome) != code:
            return f"exit code {code} does not match outcome {outcome!r}"
        int(f["pivots"])
        if outcome == "optimal":
            x = _vector(f["point"], inst.n)
            if not _feasible(inst, x):
                return "optimal point is infeasible"
            if _dot(inst.c, x) != Fraction(f["value"]):
                return "value differs from c.point"
        elif outcome == "unbounded":
            x = _vector(f["point"], inst.n)
            ray = _vector(f["ray"], inst.n)
            if not _feasible(inst, x):
                return "unbounded point is infeasible"
            if any(v < 0 for v in ray) or any(_dot(row, ray) > 0 for row in inst.A):
                return "ray is not a recession direction"
            if _dot(inst.c, ray) <= 0:
                return "ray does not improve the objective"
        else:
            u = _vector(f["farkas"], inst.m)
            if any(v < 0 for v in u):
                return "farkas vector has a negative entry"
            if any(_dot(u, _column(inst, j)) < 0 for j in range(inst.n)):
                return "farkas u.A0 has a negative entry"
            if _dot(u, inst.b) >= 0:
                return "farkas u.b is not negative"
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return f"unreadable solve output: {exc!r}"
    return None


def summarize_solve(stdout: str) -> Summary:
    f = _fields(stdout)
    value = Fraction(f["value"]) if "value" in f else None
    return Summary(f["outcome"], value, int(f["pivots"]))


def _constant(line: str) -> Fraction:
    """Constant term of an objective line such as ``z = 14/5 - 1/5x4``."""
    first = line.partition(" = ")[2].split()[0]
    return Fraction(0) if any(ch.isalpha() for ch in first) else Fraction(first)


def check_trace(inst: Instance, code: int, stdout: str) -> tuple[str | None, Summary | None]:
    """Check a ``trace --dual-view`` listing.

    Every primal pivot must be mirrored by the dual pivot that swaps the
    same pair, every dual objective constant must be minus the primal one,
    and the listing must end at the optimum of a bounded, feasible instance.
    """
    if code != 0:
        return f"trace exited {code}", None
    lines = stdout.splitlines()
    primal = [ln for ln in lines if ln.startswith("pivot: enter x")]
    dual = [ln for ln in lines if ln.startswith("pivot: enter y")]
    z_lines = [ln for ln in lines if ln.startswith("z = ")]
    w_lines = [ln for ln in lines if ln.startswith("-w = ")]
    if len(dual) != len(primal) or len(w_lines) != len(z_lines) or not z_lines:
        return "dual view does not mirror the primal listing", None
    for p, d in zip(primal, dual):
        match = _PRIMAL_PIVOT.fullmatch(p)
        if match is None or d != f"pivot: enter y{match.group(2)}, leave y{match.group(1)}":
            return f"dual pivot {d!r} does not mirror {p!r}", None
    try:
        for z, w in zip(z_lines, w_lines):
            if _constant(w) != -_constant(z):
                return "dual objective constant is not minus the primal one", None
        final = _constant(z_lines[-1])
    except (ValueError, ZeroDivisionError) as exc:
        return f"unreadable trace output: {exc!r}", None
    if inst.known_value is not None and final != inst.known_value:
        return f"trace ends at {final}, optimum is {inst.known_value}", None
    return None, Summary("optimal", final, len(primal))


def count_bases(inst: Instance) -> int:
    """Number of m-subsets of the columns of [A0 I] that are linearly independent."""
    m = inst.m
    cols = [_column(inst, j) for j in range(inst.n)]
    cols += [[Fraction(int(i == k)) for i in range(m)] for k in range(m)]
    return sum(_rank([cols[v] for v in combo]) == m for combo in combinations(range(len(cols)), m))


def _rank(vectors: list[list[Fraction]]) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def check_verify(inst: Instance, code: int, stdout: str) -> str | None:
    """``verify`` must pass every basis, and find as many bases as exist."""
    lines = stdout.splitlines()
    match = _VERIFIED.fullmatch(lines[-1]) if lines else None
    if match is None:
        return f"no 'verified k/k bases' line, exit {code}"
    passed, total = int(match.group(1)), int(match.group(2))
    if code != 0 or passed != total:
        return f"verified {passed}/{total} bases, exit {code}"
    if sum(ln.endswith(": pass") for ln in lines) != total:
        return "pass lines do not match the verified count"
    expected = count_bases(inst)
    if total != expected:
        return f"verify found {total} bases, the instance has {expected}"
    return None


def check(op: Op, code: int, stdout: str) -> tuple[str | None, Summary | None]:
    """Check one call on its own; returns (reason or None, summary)."""
    if op.command == "solve":
        reason = substitute_solve(op.instance, code, stdout)
        if reason is not None:
            return reason, None
        summary = summarize_solve(stdout)
        known = op.instance.known_value
        if known is not None and summary.value != known:
            return f"value {summary.value}, optimum is {known}", None
        return None, summary
    if op.command == "trace":
        return check_trace(op.instance, code, stdout)
    return check_verify(op.instance, code, stdout), Summary("verified")


def cross_check(ops: list[Op], summaries: dict[str, Summary]) -> dict[str, str]:
    """Checks between calls on the same instance.

    Both rules must reach the same outcome and optimal value, and a trace
    must list as many pivots as ``solve`` reports under the same rule.
    Returns op id -> reason for every op that disagrees.
    """
    by_instance: dict[str, list[Op]] = {}
    for op in ops:
        if op.id in summaries:
            by_instance.setdefault(op.instance.key, []).append(op)
    bad: dict[str, str] = {}
    for group in by_instance.values():
        solves = [op for op in group if op.command == "solve"]
        claims = {(summaries[op.id].outcome, summaries[op.id].value) for op in solves}
        if len(claims) > 1:
            for op in solves:
                bad[op.id] = f"rules disagree on the outcome: {sorted(map(str, claims))}"
        pivots = {op.rule: summaries[op.id].pivots for op in solves}
        for op in group:
            if op.command == "trace" and op.rule in pivots and summaries[op.id].pivots != pivots[op.rule]:
                bad[op.id] = f"trace lists {summaries[op.id].pivots} pivots, solve reports {pivots[op.rule]}"
    return bad
