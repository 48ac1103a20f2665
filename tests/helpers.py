"""Independent oracles used to freeze expected values.

These deliberately re-derive quantities from first principles (direct
superset scans, literal inclusion-exclusion formulas, explicit enumeration)
so the library paths they check stay independent of them.  The LP reference
is an exact rational two-phase simplex, independent of the Moebius closed form
that decides feasibility in the library.  The binomial tail reference sums
every term from math.comb, independent of the term recurrence in the library.
The quadratic reference scans every disjoint triple, independent of the
algebraic normal form that decides the identity in the library.  The
feasibility reference stores every row of a system as 0/1 coefficients and
checks witnesses with sums over that matrix, independent of the lattice
passes over implicit rows in the library.  The table-load reference reads
a theory file's table entry by entry (every key through ``parse_mask``, the
cover check on sets, every value through ``rational_parts`` in mask order),
independent of the C-level passes and the one parse per distinct value in
the library.  The decoherence references add the real and imaginary parts
of the matrix entries one at a time, independent of the integer rows over
one common denominator that the library sums.  The partition references
compare every null event with every null subset of each block, test each
primitive dual against each block, and chain duals with a union-find over
histories, independent of the family passes that answer all three in the
library.
The simulation reference draws one ``getrandbits(64)`` word per toss and
compares it with p by cross multiplication, independent of the chunked draws
and the top-byte table in the library.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from qmeasure.coevents import CoEvent
from qmeasure.core import STORAGE_CAP, Event, HistoriesTheory, SampleSpace, SizeCapError, format_mask, parse_mask
from qmeasure.dynamics import FeasibilityResult, QuadraticReport
from qmeasure.exact import ComplexRational, rational_parts
from qmeasure.lattice import over_common_denominator

ZERO = Fraction(0)
ONE = Fraction(1)


def submasks(mask: int):
    """All submasks of a mask, ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def quadratic_scan(phi: CoEvent) -> QuadraticReport:
    """Scan all disjoint triples for a failure of the three-event identity.

    Triples with an empty component never fail, so the scan is equivalent to
    the unrestricted identity.  The witness is the first failure in
    ascending (A, B, C) mask order.
    """
    n = phi.space.n
    full = (1 << n) - 1
    v = phi.value_mask
    for a in range(1 << n):
        for b in submasks(full ^ a):
            rest = full ^ a ^ b
            for c in submasks(rest):
                total = (
                    v(a | b | c) + v(a | b) + v(b | c) + v(c | a)
                    + v(a) + v(b) + v(c)
                )
                if total % 2:
                    space = phi.space
                    return QuadraticReport(False, (
                        Event(space, a), Event(space, b), Event(space, c)
                    ))
    return QuadraticReport(True, None)


@dataclass(frozen=True)
class FeasibilityRow:
    event_mask: int
    coefficients: tuple[int, ...]  # 1 where the co-event affirms the event
    rhs: Fraction


def dense_rows(theory: HistoriesTheory, coevents) -> tuple[FeasibilityRow, ...]:
    """Every row of the feasibility system over multiplicative co-events in
    ascending dual order, stored: one per event in ascending mask order."""
    duals = [phi.dual_mask for phi in coevents]
    rows = []
    for mask in range(1 << theory.space.n):
        coeffs = tuple(1 if d & ~mask == 0 else 0 for d in duals)
        rows.append(FeasibilityRow(mask, coeffs, theory.mu_mask(mask)))
    return tuple(rows)


def dense_verify_assignment(rows, x) -> None:
    for row in rows:
        total = sum((xi for xi, c in zip(x, row.coefficients) if c), ZERO)
        assert total == row.rhs, "assignment violates an equality row"
    assert all(xi >= 0 for xi in x), "assignment violates nonnegativity"


def dense_verify_farkas(rows, y: dict) -> None:
    """Check multipliers ``{event mask: y}`` against the stored rows, each
    row at the index of its event mask."""
    k = len(rows[0].coefficients)
    for j in range(k):
        col = sum(
            (yi for a, yi in y.items() if rows[a].coefficients[j]), ZERO
        )
        assert col <= 0, "certificate fails on a column"
    rhs = sum((yi * rows[a].rhs for a, yi in y.items()), ZERO)
    assert rhs > 0, "certificate fails on the right-hand side"


def dense_solve(rows, duals) -> FeasibilityResult:
    """The closed-form verdict over stored rows: the first row with no
    co-event and a nonzero measure, certified by that row alone with the
    sign of its measure; else the Moebius transform of the right-hand sides
    by direct signed sums, read at the duals; else the signed Moebius row
    of the first event where it is negative or lies off the duals.
    Witnesses are checked against the rows."""
    for row in rows:
        if not any(row.coefficients) and row.rhs != 0:
            y = {row.event_mask: ONE if row.rhs > 0 else -ONE}
            dense_verify_farkas(rows, y)
            return FeasibilityResult(False, None, y)
    m = [
        sum(((-1) ** (b ^ a).bit_count() * rows[a].rhs for a in submasks(b)), ZERO)
        for b in range(len(rows))
    ]
    bad = next((b for b, v in enumerate(m) if v < 0 or (v and b not in duals)), None)
    if bad is None:
        x = tuple(m[d] for d in duals)
        dense_verify_assignment(rows, x)
        return FeasibilityResult(True, x, None)
    y = {a: (-1) ** (bad ^ a).bit_count() * (ONE if m[bad] > 0 else -ONE) for a in submasks(bad)}
    dense_verify_farkas(rows, y)
    return FeasibilityResult(False, None, y)


def per_entry_table_load(n: int, raw: dict) -> tuple[list[int], int]:
    """``(t, L)`` of the table ``raw`` (the "values" object of a theory file
    over n histories), read entry by entry, raising what the library raises
    for a table it refuses."""
    values = {parse_mask(key): v for key, v in raw.items()}
    if len(values) < len(raw):
        twice = Counter(map(parse_mask, raw)).most_common(1)[0][0]
        raise ValueError(f"table lists event {format_mask(twice)} more than once")
    if n > STORAGE_CAP:
        raise SizeCapError(f"table measure over {n} histories exceeds cap {STORAGE_CAP}")
    size = 1 << n
    if set(values) != set(range(size)):
        missing = sorted(set(range(size)) - set(values))[:3]
        extra = sorted(set(values) - set(range(size)))[:3]
        raise ValueError(
            f"table must cover every event exactly once "
            f"(missing {[hex(m) for m in missing]}, extra {[hex(m) for m in extra]})"
        )
    return over_common_denominator([rational_parts(values[m]) for m in range(size)])


def amplitude_theory(amplitudes) -> HistoriesTheory:
    """Decoherence functional of a pure amplitude vector (rank one)."""
    amps = [
        a if isinstance(a, ComplexRational) else ComplexRational.of(a)
        for a in amplitudes
    ]
    labels = tuple(chr(ord("a") + i) for i in range(len(amps)))
    # x conj(y) = (x.re y.re + x.im y.im) + i (x.im y.re - x.re y.im)
    matrix = [[ComplexRational(x.real * y.real + x.imag * y.imag, x.imag * y.real - x.real * y.imag)
               for y in amps] for x in amps]
    return HistoriesTheory.from_decoherence(SampleSpace(labels), matrix)


def amplitude_mu_oracle(amplitudes, mask: int) -> Fraction:
    """|sum of the amplitudes in the event|^2, computed directly."""
    re = Fraction(0)
    im = Fraction(0)
    for i, amp in enumerate(amplitudes):
        if mask >> i & 1:
            a = amp if isinstance(amp, ComplexRational) else ComplexRational.of(amp)
            re += a.real
            im += a.imag
    return re * re + im * im


def block_sum_reference(matrix, xmask: int, ymask: int) -> ComplexRational:
    """D(X, Y): the entries in rows X and columns Y of a ComplexRational
    matrix, added one at a time."""
    acc = ComplexRational(ZERO, ZERO)
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            if xmask >> i & 1 and ymask >> j & 1:
                acc = acc + entry
    return acc


def decoherence_axioms_reference(matrix) -> tuple[list[str], str | None]:
    """The witnesses "(i,j)" of the entries that are not the conjugate of
    their transpose, in row order, and the normalization message when
    D(Omega, Omega) is not 1 (None when it is)."""
    n = len(matrix)
    broken = [f"({i},{j})" for i in range(n) for j in range(n)
              if matrix[i][j] != ComplexRational(matrix[j][i].real, -matrix[j][i].imag)]
    full = (1 << n) - 1
    total = block_sum_reference(matrix, full, full)
    return broken, None if total == ComplexRational(ONE, ZERO) else f"D(Omega,Omega) = {total!r}, expected 1"


def brute_negligible(table: list[Fraction], mask: int, eps: Fraction) -> bool:
    """Direct definition: some superset is (eps-)null, read off the measure
    of every event (``theory.full_table()``)."""
    n = len(table).bit_length() - 1
    rest = ((1 << n) - 1) ^ mask
    for extra in submasks(rest):
        value = table[mask | extra]
        if (eps == 0 and value == 0) or (eps > 0 and value < eps):
            return True
    return False


def brute_minimal_nonnegligible(theory: HistoriesTheory, eps: Fraction) -> tuple[int, ...]:
    """Minimal nonempty sets with no (eps-)null superset, by direct double
    scan; the empty set is never a dual, so a deletion down to it always
    counts."""
    n = theory.space.n
    table = theory.full_table()
    out = []
    for mask in range(1, 1 << n):
        if brute_negligible(table, mask, eps):
            continue
        rest = mask
        minimal = True
        while rest:
            bit = rest & -rest
            if mask ^ bit and not brute_negligible(table, mask ^ bit, eps):
                minimal = False
                break
            rest ^= bit
        if minimal:
            out.append(mask)
    return tuple(out)


def scan_separable(theory: HistoriesTheory, block_masks) -> bool:
    """Preclusive separability by scanning: every nonempty trace of a null
    event on a block lies inside some null event contained in that block."""
    nulls = [mask for mask, v in enumerate(theory.full_table()) if not v]
    for block in block_masks:
        nulls_in_block = [z for z in nulls if z & ~block == 0]
        for z in nulls:
            trace = z & block
            if trace and not any(trace & ~za == 0 for za in nulls_in_block):
                return False
    return True


def scan_classical_wrt_m(duals, block_masks) -> bool:
    """Every primitive dual inside some block."""
    return all(any(d & ~b == 0 for b in block_masks) for d in duals)


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def union_find_principle(duals, n: int) -> dict:
    """The principle partition from the primitive duals, by uniting each
    dual's histories in a union-find: blocks, classes (ascending, ordered
    by least dual), class sizes, fat duals and uncovered histories, as
    masks."""
    uf = _UnionFind(n)
    lowest = [(mask & -mask).bit_length() - 1 for mask in duals]
    for mask, first in zip(duals, lowest):
        rest = mask & (mask - 1)
        while rest:
            bit = rest & -rest
            uf.union(first, bit.bit_length() - 1)
            rest ^= bit
    by_root: dict[int, list[int]] = {}
    for mask, first in zip(duals, lowest):
        by_root.setdefault(uf.find(first), []).append(mask)
    classes = sorted((sorted(masks) for masks in by_root.values()), key=min)
    fat = []
    for masks in classes:
        union = 0
        for mask in masks:
            union |= mask
        fat.append(union)
    covered = sum(fat)
    uncovered = [1 << i for i in range(n) if not covered >> i & 1]
    return {
        "blocks": sorted(fat + uncovered, key=lambda b: b & -b),
        "classes": classes,
        "class_sizes": [len(masks) for masks in classes],
        "fat_duals": fat,
        "uncovered": uncovered,
    }


def literal_interference(theory: HistoriesTheory, *events) -> Fraction:
    """The order-1..3 terms written out literally."""
    mu = theory.mu
    if len(events) == 1:
        (x,) = events
        return mu(x)
    if len(events) == 2:
        x, y = events
        return mu(x | y) - mu(x) - mu(y)
    if len(events) == 3:
        x, y, z = events
        return (
            mu(x | y | z)
            - mu(x | y) - mu(y | z) - mu(z | x)
            + mu(x) + mu(y) + mu(z)
        )
    raise ValueError("literal forms written out up to order three only")


def disjoint_tuples(n: int, k: int, nonempty: bool = True):
    """All ordered k-tuples of pairwise-disjoint event masks over n histories."""
    full = (1 << n) - 1

    def rec(remaining: int, chosen: list[int]):
        if len(chosen) == k:
            yield tuple(chosen)
            return
        for mask in submasks(remaining) if not nonempty else _nonempty_submasks(remaining):
            chosen.append(mask)
            yield from rec(remaining ^ mask, chosen)
            chosen.pop()

    def _nonempty_submasks(mask: int):
        for sub in submasks(mask):
            if sub:
                yield sub

    yield from rec(full, [])


def level_oracle(theory: HistoriesTheory) -> int:
    """Smallest k such that all order-(k+1) terms on disjoint nonempty tuples
    vanish, by direct scan."""
    n = theory.space.n
    space = theory.space
    for k in range(1, n + 1):
        all_zero = True
        for masks in disjoint_tuples(n, k + 1):
            events = [space.event_from_mask(m) for m in masks]
            if theory.interference(*events) != 0:
                all_zero = False
                break
        if all_zero:
            return k
    return n


def direct_tail_numerators(n: int, p: Fraction) -> list[int]:
    """Lower-tail numerators over q**n (p = a/q) for heads = 0..n: running
    sums of C(n,m) * a**m * b**(n-m), each term built directly, b = q - a."""
    a, q = p.numerator, p.denominator
    b = q - a
    return list(itertools.accumulate(
        math.comb(n, m) * a**m * b ** (n - m) for m in range(n + 1)))


def direct_tail_cutoff(n: int, p: Fraction, eps: Fraction) -> tuple[int | None, int]:
    """The greatest heads count whose direct lower tail is below eps, with the
    tail numerator there; None and 0 when no count qualifies."""
    below = [t for t in direct_tail_numerators(n, p) if Fraction(t, p.denominator**n) < eps]
    return (len(below) - 1, below[-1]) if below else (None, 0)


def direct_simulate(n: int, p: Fraction, seed: int) -> str:
    """The outcome string of n tosses: toss i is heads exactly when the i-th
    ``getrandbits(64)`` word u of ``random.Random(seed)`` has u / 2**64 < p."""
    draw = random.Random(seed).getrandbits
    num_shifted = p.numerator << 64
    return "".join("h" if draw(64) * p.denominator < num_shifted else "t" for _ in range(n))


class ExactSimplex:
    """Primal simplex over the rationals with Bland's rule (no cycling).

    Solves {A x = b, x >= 0}.  Phase one minimizes the sum of artificial
    variables; a positive optimum yields an exact Farkas certificate.  Phase
    two minimizes a given cost over the structural variables.
    """

    def __init__(self, rows, rhs, nvars: int):
        self.nvars = nvars
        self.nrows = len(rows)
        self.flipped = []
        tab = []
        for row, b in zip(rows, rhs):
            coeffs = [Fraction(x) for x in row]
            b = Fraction(b)
            if b < 0:
                coeffs = [-x for x in coeffs]
                b = -b
                self.flipped.append(True)
            else:
                self.flipped.append(False)
            tab.append(coeffs + [ZERO] * self.nrows + [b])
        for i in range(self.nrows):
            tab[i][nvars + i] = ONE
        self.tab = tab
        self.basis = [nvars + i for i in range(self.nrows)]
        self.ncols = nvars + self.nrows

    def _pivot(self, r: int, c: int, obj: list[Fraction]) -> None:
        tab = self.tab
        piv = tab[r][c]
        tab[r] = [x / piv for x in tab[r]]
        prow = tab[r]
        for i in range(self.nrows):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                tab[i] = [x - f * y for x, y in zip(tab[i], prow)]
        if obj[c] != 0:
            f = obj[c]
            obj[:] = [x - f * y for x, y in zip(obj, prow)]
        self.basis[r] = c

    def _reduced_costs(self, costs: list[Fraction]) -> list[Fraction]:
        obj = list(costs) + [ZERO]
        for i, bvar in enumerate(self.basis):
            cb = costs[bvar]
            if cb != 0:
                obj = [x - cb * y for x, y in zip(obj, self.tab[i])]
        return obj

    def _minimize(self, costs: list[Fraction], allowed) -> list[Fraction]:
        obj = self._reduced_costs(costs)
        while True:
            enter = next((j for j in allowed if obj[j] < 0), None)
            if enter is None:
                return obj
            leave = None
            best = None
            for i in range(self.nrows):
                a = self.tab[i][enter]
                if a > 0:
                    ratio = self.tab[i][-1] / a
                    if (best is None or ratio < best
                            or (ratio == best and self.basis[i] < self.basis[leave])):
                        best = ratio
                        leave = i
            if leave is None:
                raise ArithmeticError("unbounded linear program")
            self._pivot(leave, enter, obj)

    def phase_one(self):
        """Returns (feasible, farkas-multipliers-or-None)."""
        costs = [ZERO] * self.nvars + [ONE] * self.nrows
        obj = self._minimize(costs, range(self.ncols))
        value = sum(
            self.tab[i][-1] for i in range(self.nrows) if self.basis[i] >= self.nvars
        )
        if value > 0:
            # multipliers from the final reduced costs of the artificials;
            # flip back the rows that were negated for a nonnegative rhs
            y = [ONE - obj[self.nvars + i] for i in range(self.nrows)]
            y = [-v if flip else v for v, flip in zip(y, self.flipped)]
            return False, y
        # drive any basic artificial out (it sits at zero)
        for i in range(self.nrows):
            if self.basis[i] >= self.nvars:
                enter = next(
                    (j for j in range(self.nvars) if self.tab[i][j] != 0), None
                )
                if enter is not None:
                    self._pivot(i, enter, obj)
        return True, None

    def solution(self) -> list[Fraction]:
        x = [ZERO] * self.nvars
        for i, bvar in enumerate(self.basis):
            if bvar < self.nvars:
                x[bvar] = self.tab[i][-1]
        return x

    def phase_two_min(self, costs: list[Fraction]) -> Fraction:
        self._minimize(list(costs) + [ZERO] * self.nrows, range(self.nvars))
        x = self.solution()
        return sum((c * v for c, v in zip(costs, x)), ZERO)
