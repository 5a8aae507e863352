"""Seeded corpora for the three benchmark workloads.

This module only builds inputs and never imports ``dictlp``: the program
under test receives nothing but the generated ``lp v1`` files. Random
instances follow the recipe of ``dictlp random`` (Mersenne Twister, integer
entries uniform in [-bound, bound], drawn in file order), so any instance can
be reproduced with ``dictlp random --m M --n N --seed S --bound K`` before
its variant is applied.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("solve_random", "pivot_chain", "verify_enum")
RULES = ("bland", "dantzig")

# solve_random: (size, instances, rules). Runs are compared across seeds, so
# one seed's corpus must cost about what another's does, and p50 and p90 must
# fall inside dense size classes: p50 among 10x10, p90 among 15x15. A few
# larger instances carry the bit growth; 30x30 runs under Dantzig only, whose
# cost varies least between instances. There is no 40x40: its one or two
# traces set peak RSS, and their pivot counts range from 33 to 80 by seed.
SOLVE_SIZES = (
    (5, 60, RULES),
    (10, 165, RULES),
    (15, 66, RULES),
    (20, 5, RULES),
    (25, 3, RULES),
    (30, 1, ("dantzig",)),
)
SOLVE_VARIANTS = ("general", "feasible", "degenerate")

# pivot_chain: Klee-Minty dimensions.
CUBE_DIMS = (6, 7, 8, 9, 10)

# verify_enum: (m, n, bound, instances). bound 1 gives entries in {-1, 0, 1},
# so some column subsets are singular and basis_yield < 1. Cost follows the
# shape, so p50 falls among the 3x5 and p90 among the 4x5 instances.
VERIFY_SHAPES = (
    (3, 4, 10, 6),
    (3, 4, 1, 4),
    (3, 5, 10, 10),
    (4, 4, 10, 3),
    (4, 4, 1, 2),
    (4, 5, 10, 5),
    (5, 5, 10, 1),
    (5, 5, 1, 1),
)

HUGE_DIGITS = 5000
# Wall budget of one probe; a fixed probe finishes in well under a second.
PROBE_BUDGET_S = 3.0


@dataclass(frozen=True)
class Instance:
    """One max-form LP: maximize c.x subject to A x <= b, x >= 0."""

    key: str
    A: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]
    # Optimal value known in closed form (Klee-Minty: 5^d; Beale: 5/4).
    known_value: Fraction | None = None

    @property
    def m(self) -> int:
        return len(self.b)

    @property
    def n(self) -> int:
        return len(self.c)

    def text(self) -> str:
        """The instance in the ``lp v1`` file format."""
        lines = ["lp v1", f"{self.m} {self.n}", " ".join(map(str, self.c))]
        for row, rhs in zip(self.A, self.b):
            lines.append(" ".join(map(str, (*row, rhs))))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Op:
    """One CLI call: ``dictlp <command> <instance file> <flags>``."""

    id: str
    command: str
    instance: Instance
    flags: tuple[str, ...] = ()
    rule: str | None = None

    @property
    def kind(self) -> str:
        """Operation kind; setup warms up each kind once."""
        return self.command if self.rule is None else f"{self.command}-{self.rule}"


@dataclass
class Corpus:
    workload: str
    seed: int
    ops: list[Op] = field(default_factory=list)
    # Calls that expose a known defect: run out of process, never timed.
    probes: list[Op] = field(default_factory=list)


def _frac_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def random_instance(m: int, n: int, seed: int, bound: int = 10, variant: str = "general") -> Instance:
    """The ``dictlp random`` instance for (m, n, seed, bound), then its variant.

    ``feasible`` takes |b| (slack basis feasible, one phase); ``degenerate``
    also zeroes every other right-hand side.
    """
    rng = random.Random(seed)
    c = [rng.randint(-bound, bound) for _ in range(n)]
    rows, b = [], []
    for _ in range(m):
        rows.append([rng.randint(-bound, bound) for _ in range(n)])
        b.append(rng.randint(-bound, bound))
    if variant == "feasible":
        b = [abs(x) for x in b]
    elif variant == "degenerate":
        b = [0 if i % 2 == 0 else abs(x) for i, x in enumerate(b)]
    elif variant != "general":
        raise ValueError(f"unknown variant {variant!r}")
    return Instance(
        key=f"r{m}x{n}-k{bound}-{variant}-s{seed}",
        A=_frac_rows(rows),
        b=tuple(map(Fraction, b)),
        c=tuple(map(Fraction, c)),
    )


def klee_minty(d: int, rng: random.Random, rule: str) -> Instance:
    """Klee-Minty cube (Klee & Minty 1972), disguised by the seed for one rule.

    maximize sum_j 2^(d-j) x_j  s.t.  2 sum_{j<i} 2^(i-j) x_j + x_i <= 5^i.
    The optimum is 5^d. For Dantzig the rows and columns are permuted: no two
    objective coefficients or ratios tie, so the rule still visits all 2^d
    vertices. For Bland, whose path depends on the labels, rows and columns
    are instead scaled by positive integers, which keeps every pivot choice.
    Either way the seed changes the numbers but not the pivot path.
    """
    c = [2 ** (d - j) for j in range(1, d + 1)]
    rows = [[2 * 2 ** (i - j) if j < i else int(i == j) for j in range(1, d + 1)] for i in range(1, d + 1)]
    b = [5**i for i in range(1, d + 1)]
    cols = list(range(d))
    order = list(range(d))
    col_scale = [1] * d
    row_scale = [1] * d
    if rule == "dantzig":
        rng.shuffle(cols)
        rng.shuffle(order)
    else:
        col_scale = [rng.randint(1, 9) for _ in range(d)]
        row_scale = [rng.randint(1, 9) for _ in range(d)]
    return Instance(
        key=f"km{d}-{'permuted' if rule == 'dantzig' else 'scaled'}",
        A=_frac_rows([[rows[i][j] * row_scale[i] * col_scale[j] for j in cols] for i in order]),
        b=tuple(Fraction(b[i] * row_scale[i]) for i in order),
        c=tuple(Fraction(c[j] * col_scale[j]) for j in cols),
        known_value=Fraction(5**d),
    )


def beale() -> Instance:
    """Beale's cycling example (Beale 1955) in max form; optimum 5/4."""
    return Instance(
        key="beale",
        A=_frac_rows([[Fraction(1, 4), -8, -1, 9], [Fraction(1, 2), -12, Fraction(-1, 2), 3], [0, 0, 1, 0]]),
        b=(Fraction(0), Fraction(0), Fraction(1)),
        c=(Fraction(3, 4), Fraction(-20), Fraction(1, 2), Fraction(-6)),
        known_value=Fraction(5, 4),
    )


def huge_rhs(rng: random.Random) -> Instance:
    """max x s.t. x <= B with a HUGE_DIGITS-digit B; optimum B at x = B."""
    digits = str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(HUGE_DIGITS - 1))
    big = _fraction_from_digits(digits)
    return Instance(key="huge", A=((Fraction(1),),), b=(big,), c=(Fraction(1),), known_value=big)


def _fraction_from_digits(digits: str) -> Fraction:
    # Built in chunks: int() of more than 4,300 digits is refused by default.
    value = 0
    for k in range(0, len(digits), 1000):
        chunk = digits[k : k + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return Fraction(value)


def _spread(groups: list[list[Op]]) -> list[Op]:
    """Interleave groups so every prefix of the result holds a similar mix."""
    keyed = []
    for g, ops in enumerate(groups):
        for i, op in enumerate(ops):
            keyed.append(((i + 0.5) / len(ops), g, i, op))
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


def _solve_ops(inst: Instance, rules: tuple[str, ...]) -> list[Op]:
    return [Op(f"solve-{rule}-{inst.key}", "solve", inst, ("--rule", rule), rule) for rule in rules]


def build(workload: str, seed: int) -> Corpus:
    """The corpus of one workload for one seed; the same seed gives the same corpus."""
    rng = random.Random(f"{workload}:{seed}")
    corpus = Corpus(workload, seed)
    if workload == "solve_random":
        groups = []
        for size, count, rules in SOLVE_SIZES:
            ops = []
            for k in range(count):
                variant = SOLVE_VARIANTS[k % len(SOLVE_VARIANTS)]
                inst = random_instance(size, size, rng.randrange(1, 2**31), variant=variant)
                ops.extend(_solve_ops(inst, rules))
            groups.append(ops)
        corpus.ops = _spread(groups)
        huge = huge_rhs(rng)
        corpus.probes = [Op("probe-solve-huge", "solve", huge, ("--rule", "bland"), "bland")]
    elif workload == "pivot_chain":
        # Beale's example under Bland is the timed twin of the Dantzig probe.
        pairs = [(klee_minty(d, rng, rule), rule) for d in CUBE_DIMS for rule in RULES] + [(beale(), "bland")]
        groups = []
        for inst, rule in pairs:
            trace = Op(f"trace-{rule}-{inst.key}", "trace", inst, ("--dual-view", "--rule", rule), rule)
            groups.append(_solve_ops(inst, (rule,)) + [trace])
        corpus.ops = _spread(groups)
        corpus.probes = [Op("probe-solve-beale", "solve", beale(), ("--rule", "dantzig"), "dantzig")]
    elif workload == "verify_enum":
        groups = []
        for m, n, bound, count in VERIFY_SHAPES:
            ops = []
            for _ in range(count):
                inst = random_instance(m, n, rng.randrange(1, 2**31), bound=bound)
                ops.append(Op(f"verify-{inst.key}", "verify", inst))
            groups.append(ops)
        corpus.ops = _spread(groups)
        huge = huge_rhs(rng)
        corpus.probes = [Op("probe-verify-huge", "verify", huge)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return corpus
