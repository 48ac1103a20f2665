"""Independent exact arithmetic the benchmark checks outputs against.

Nothing here imports qmeasure.  The binomial tail uses the term recurrence
t(m+1) = t(m) * (n - m) * a / ((m + 1) * b) over integers, where p = a/q and
b = q - a, so one tail costs a few thousand small multiplications even at
eight thousand tosses.
"""

from __future__ import annotations

import math
from fractions import Fraction


def tail_numerators(n: int, p: Fraction, stop: int):
    """Yield (m, numerator of P[heads <= m]) over the denominator q**n, for
    m = 0 .. stop."""
    a, q = p.numerator, p.denominator
    b = q - a
    term = b**n
    running = 0
    for m in range(stop + 1):
        running += term
        yield m, running
        if m < n:
            term = term * (n - m) * a // ((m + 1) * b)


def lower_tail(n: int, p: Fraction, heads: int) -> Fraction:
    """P[heads <= the given count] for n tosses with heads probability p."""
    for m, running in tail_numerators(n, p, heads):
        if m == heads:
            return Fraction(running, p.denominator**n)
    raise ValueError("heads out of range")


def tail_cutoff(n: int, p: Fraction, eps: Fraction) -> int | None:
    """The greatest heads count whose lower tail is below eps, or None."""
    bound = eps.numerator * p.denominator**n
    cutoff = None
    for m, running in tail_numerators(n, p, n):
        if running * eps.denominator >= bound:
            break
        cutoff = m
    return cutoff


def straddle_cardinality(n: int, eps: Fraction) -> int:
    """For the fair coin: the least S with eps <= tail + S / 2**n, where
    tail is the lower tail at the cutoff."""
    half = Fraction(1, 2)
    cutoff = tail_cutoff(n, half, eps)
    gap = eps - lower_tail(n, half, cutoff)
    return math.ceil(gap * 2**n)


def mobius(values: list[Fraction], n: int) -> list[Fraction]:
    """Subset Moebius transform of a table indexed by event mask."""
    out = list(values)
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                out[mask] -= out[mask ^ bit]
    return out


def is_partition(blocks: list[int], n: int) -> bool:
    """Are the masks nonempty, pairwise disjoint and covering n histories?"""
    seen = 0
    for block in blocks:
        if block == 0 or block & seen:
            return False
        seen |= block
    return seen == (1 << n) - 1
