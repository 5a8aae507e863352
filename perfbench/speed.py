"""Machine-speed correction for the benchmark's timings.

The shared machines this benchmark runs on switch between a fast and a slow
state (up to 2x) within fractions of a second, and for minutes on end run
slower in both; the slowdown costs CPU time as well as wall time, so no clock
tells it apart from the program's own cost. A fixed reference kernel, exact
Gaussian elimination on an 8x9 ``Fraction`` matrix (the same kind of work
as dictlp's), is timed before and after each call. An op's latency is its
best call time times ``REF_S / best reference time around its calls``: the
best of several calls is the one the fast state ran, and the reference
corrects for how fast that state was. The kernel shares no code with dictlp, so a change
to dictlp moves the corrected timings as much as the raw ones.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Kernel time in the fast state of the 2-vCPU Xeon (Sapphire Rapids) KVM
# guest, Python 3.11, that the benchmark was written on.
REF_S = 1.6e-3

_RNG = random.Random(5)
_MATRIX = [[Fraction(_RNG.randint(-9, 9)) for _ in range(9)] for _ in range(8)]


def _eliminate() -> None:
    rows = [list(r) for r in _MATRIX]
    for c in range(len(rows)):
        p = next(i for i in range(c, len(rows)) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i, row in enumerate(rows):
            if i != c and row[c] != 0:
                f = row[c]
                rows[i] = [a - f * b for a, b in zip(row, rows[c])]


def reference_seconds() -> float:
    """One timing of the reference kernel, now."""
    start = time.perf_counter()
    _eliminate()
    return time.perf_counter() - start


def scale() -> float:
    """Factor that converts a timing taken now to reference speed (best of three)."""
    return REF_S / min(reference_seconds() for _ in range(3))
