"""Transforms over the subset lattice of n histories, in exact integers.

A function on the event algebra is a list of ``2**n`` Python ints indexed by
event bitmask; a family of events is one Python int whose bit ``A`` marks
membership of event ``A``.  Every transform is Yates' method: one pass per
history, each pass combining every event without the history with the event
that adds it, so O(n * 2**n) integer operations (Bjorklund, Husfeldt, Kaski
and Koivisto, "Fourier meets Moebius: fast subset convolution", STOC 2007).
The passes run as slice operations, so the per-event work stays in C.
The family operations are the down closure, the minimal members, the Z2
Moebius transform and the events inside a mask (``inside``), each at most
one big-int pass per history.

Rational data enters through ``over_common_denominator``; integer arithmetic
keeps every result exact.
"""

from __future__ import annotations

import math
from operator import add, sub

_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def over_common_denominator(pairs: list[tuple[int, int]]) -> tuple[list[int], int]:
    """Rationals given as ``(numerator, denominator)`` pairs, denominators
    positive but not necessarily reduced, as integers t over their least
    common denominator L: ``(t, L)`` with ``t[i] / L`` the i-th rational."""
    denom = math.lcm(*{q for _, q in pairs})
    scaled = [p * (denom // q) for p, q in pairs]
    common = math.gcd(denom, *scaled)
    return [v // common for v in scaled], denom // common


def _passes(values: list[int], n: int, op) -> list[int]:
    """Apply ``values[A | bit] = op(values[A | bit], values[A])`` for every
    history bit and every event A without it, in place."""
    size = 1 << n
    if len(values) != size:
        raise ValueError(f"expected {size} values for {n} histories, got {len(values)}")
    for i in range(n):
        step = 1 << i
        span = step << 1
        if step * span <= size:
            # few long strided slices: one per offset inside a block
            for r in range(step):
                values[step + r::span] = map(op, values[step + r::span], values[r::span])
        else:
            # few long contiguous slices: one per block
            for lo in range(0, size, span):
                mid, hi = lo + step, lo + span
                values[mid:hi] = map(op, values[mid:hi], values[lo:mid])
    return values


def zeta(values: list[int], n: int) -> list[int]:
    """Subset sums in place: ``values[A]`` becomes the sum of ``values[B]``
    over all ``B`` contained in ``A``.  Returns the list."""
    return _passes(values, n, add)


def moebius(values: list[int], n: int) -> list[int]:
    """The inverse of ``zeta`` in place: ``values[A]`` becomes the sum of
    ``(-1)**|A - B| * values[B]`` over all ``B`` contained in ``A``.
    Returns the list."""
    return _passes(values, n, sub)


def dense(values: dict[int, int], n: int) -> list[int]:
    """The function on the events over n histories that is ``values`` at
    their masks and zero elsewhere."""
    out = [0] * (1 << n)
    for mask, v in values.items():
        out[mask] = v
    return out


def _without(i: int, n: int) -> int:
    """The family of events that do not contain history ``i``."""
    step = 1 << i
    pattern = (1 << step) - 1
    width = step << 1
    while width < 1 << n:
        pattern |= pattern << width
        width <<= 1
    return pattern


def inside(mask: int) -> int:
    """The family of events contained in ``mask``."""
    family = 1
    for i in range(mask.bit_length()):
        if mask >> i & 1:
            # the events so far all lie below bit 1 << i: add history i
            family |= family << (1 << i)
    return family


def down_closure(family: int, n: int) -> int:
    """The events contained in some member of the family (superset-OR)."""
    for i in range(n):
        family |= (family >> (1 << i)) & _without(i, n)
    return family


def minimal(family: int, n: int) -> int:
    """The members of the family none of whose one-history deletions is a
    member."""
    out = family
    for i in range(n):
        out &= ~((family & _without(i, n)) << (1 << i))
    return out


def z2_moebius(family: int, n: int) -> int:
    """The Z2 Moebius transform, its own inverse: member ``A`` of the result
    is the parity of the members contained in ``A``."""
    for i in range(n):
        family ^= (family & _without(i, n)) << (1 << i)
    return family


def submasks(mask: int):
    """The events contained in ``mask``, in ascending mask order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def family_of(flags) -> int:
    """The family whose member ``A`` is marked by the truth of ``flags[A]``,
    for an iterable of truth values in ascending mask order."""
    return int(bytes(flags)[::-1].translate(_DIGITS), 2)


def members(family: int) -> list[int]:
    """The members of a family in ascending mask order."""
    digits = bin(family)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out
