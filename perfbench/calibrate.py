"""A fixed reference loop that measures how fast the machine runs right now.

On a shared host the same ``analyze`` call can take anywhere from 1.0 to
2.0 times its fastest latency, in stretches that last from one second to
tens of seconds: the process keeps the core (its CPU time equals its wall
time) but the core runs slower.  A 25 s run can fall wholly inside a slow
stretch, so raw latencies of one run tell more about the neighbours than
about the program.

The benchmark therefore times this loop, which imports nothing from
fanorank and does the same kinds of pure-Python work (integer elimination,
``Fraction`` sums, frozensets of index combinations, dict updates), right
after every operation.  Each operation's latency is scaled by
``REFERENCE_S`` over the mean of the loop's times just before and just
after it: the result is that latency in seconds at the speed at which the
loop takes ``REFERENCE_S``.  On one machine over 150 s, this took the
spread of 10 s window medians from 24% to 2% of their median.

The loop runs between operations, never during one.  A program that left
work running after an operation returned would slow the loop and look
faster; the raw wall-clock figures stay in every run's details line.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from time import perf_counter

# The loop's time on a 2-core x86-64 virtual machine with CPython 3.11.7,
# in its fastest stretches.  Only the scale of the reported seconds
# depends on it, not their ratios.
REFERENCE_S = 0.0036
ROUNDS = 3
# A loop time this recent is taken as the time after an operation too, so
# that runs of short operations do not spend most of their time here.
STALE_S = 0.02

_rng = random.Random(5)
_MATRICES = [[[_rng.randint(-3, 3) for _ in range(5)] for _ in range(5)] for _ in range(40)]


def _determinant(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _work() -> tuple:
    total = sum(_determinant(m) for m in _MATRICES)
    frac = Fraction(0)
    for m in _MATRICES[:10]:
        for r in m:
            frac += Fraction(sum(r), 1 + abs(r[0]))
    seen = {frozenset(c) for c in combinations(range(14), 5)}
    by_min: dict[int, int] = {}
    for s in seen:
        by_min[min(s)] = by_min.get(min(s), 0) + len(s)
    return total, frac, sorted(by_min.items())


EXPECTED = _work()


def loop_seconds() -> float:
    """Time ``ROUNDS`` rounds of the loop, checking its result."""
    start = perf_counter()
    for _ in range(ROUNDS):
        result = _work()
    took = perf_counter() - start
    if result != EXPECTED:
        raise AssertionError("reference loop gave a different result")
    return took / ROUNDS


class Clock:
    """Scales latencies to reference speed, from loop times around each one."""

    def __init__(self) -> None:
        self.factors: list[float] = []
        self._measure()

    def _measure(self) -> None:
        self.last = loop_seconds()
        self.measured_at = perf_counter()

    def scale(self, latency: float) -> float:
        """``latency`` just measured, in reference seconds.

        Times the loop again unless its last time is under ``STALE_S`` old.
        """
        before = self.last
        if perf_counter() - self.measured_at >= STALE_S:
            self._measure()
        factor = REFERENCE_S / ((before + self.last) / 2)
        self.factors.append(factor)
        return latency * factor
