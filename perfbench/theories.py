"""Seeded theory generators.  They write the JSON theory format directly and
never call qmeasure, so the inputs stay fixed while the program changes.

Each generator returns a ``Theory``: the JSON document plus the exact data
the checks need (real parts of the decoherence matrix, or the weights of a
classical measure).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Theory:
    family: str                # "decoherence", "classical" or "uniform"
    n: int
    doc: dict
    real: list[list[Fraction]] | None = None   # Re D, decoherence only
    weights: list[Fraction] | None = None      # additive measures only

    def mu(self, mask: int) -> Fraction:
        members = [i for i in range(self.n) if mask >> i & 1]
        if self.weights is not None:
            return sum((self.weights[i] for i in members), Fraction(0))
        return sum((self.real[i][j] for i in members for j in members), Fraction(0))

    def table(self) -> list[Fraction]:
        return [self.mu(mask) for mask in range(1 << self.n)]


def _labels(n: int) -> list[str]:
    return [f"g{i}" for i in range(n)]


def decoherence(rng: random.Random, n: int, rank: int, feasible: bool | None = None) -> Theory:
    """A positive decoherence functional of the given rank: a weighted sum
    of v v* over small complex-integer amplitude vectors, normalized so the
    whole block sums to one.  Hermitian and level two by construction.

    Level two puts the Moebius transform of the measure on singletons and
    pairs, with 2 Re D_ij on the pair {i, j}; so a feasibility system over
    singletons and pairs has a solution exactly when no Re D_ij is
    negative.  With ``feasible`` True the amplitudes lie in the first
    quadrant, which makes that so; with False, draws where it holds are
    drawn again; with None the draw stands as it falls."""
    low = 0 if feasible else -3
    while True:
        weights = [rng.randint(1, 3) for _ in range(rank)]
        vectors = [
            [(rng.randint(low, 3), rng.randint(low, 3)) for _ in range(n)] for _ in range(rank)
        ]
        total = 0
        for w, vec in zip(weights, vectors):
            re = sum(x for x, _ in vec)
            im = sum(y for _, y in vec)
            total += w * (re * re + im * im)
        if not total:
            continue
        real, rows = [], []
        for i in range(n):
            real_row, row = [], []
            for j in range(n):
                re = im = 0
                for w, vec in zip(weights, vectors):
                    (a, b), (c, d) = vec[i], vec[j]
                    # (a + bi)(c - di)
                    re += w * (a * c + b * d)
                    im += w * (b * c - a * d)
                real_row.append(Fraction(re, total))
                row.append([str(Fraction(re, total)), str(Fraction(im, total))])
            real.append(real_row)
            rows.append(row)
        if feasible is not False or any(x < 0 for row in real for x in row):
            break
    doc = {"histories": _labels(n), "measure": {"type": "decoherence", "matrix": rows}}
    return Theory("decoherence", n, doc, real=real)


def _table_theory(family: str, weights: list[Fraction]) -> Theory:
    n = len(weights)
    table = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        table[mask] = table[mask ^ low] + weights[low.bit_length() - 1]
    values = {hex(mask): str(value) for mask, value in enumerate(table)}
    doc = {"histories": _labels(n), "measure": {"type": "table", "values": values}}
    return Theory(family, n, doc, weights=weights)


def classical_weights(rng: random.Random, n: int) -> list[Fraction]:
    """Random additive weights; a quarter of the histories (rounded down)
    weigh zero.  The count is fixed because it sets the cost of the
    feasibility simplex."""
    raw = [rng.randint(1, 8) for _ in range(n)]
    for i in rng.sample(range(n), n // 4):
        raw[i] = 0
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def classical(rng: random.Random, n: int) -> Theory:
    """A random classical measure in table form (all 2**n events listed)."""
    return _table_theory("classical", classical_weights(rng, n))


def uniform(n: int) -> Theory:
    """The uniform measure in table form."""
    return _table_theory("uniform", [Fraction(1, n)] * n)


def weights_theory(rng: random.Random, n: int) -> Theory:
    """A random classical measure given by its weights alone."""
    weights = classical_weights(rng, n)
    doc = {"histories": _labels(n), "weights": [str(w) for w in weights]}
    return Theory("weights", n, doc, weights=weights)


def random_blocks(rng: random.Random, n: int) -> list[int]:
    """A random partition of n histories into two or three nonempty blocks."""
    count = rng.randint(2, min(3, n))
    while True:
        owner = [rng.randrange(count) for _ in range(n)]
        blocks = [sum(1 << i for i in range(n) if owner[i] == k) for k in range(count)]
        if all(blocks):
            return blocks


def random_event(rng: random.Random, n: int) -> int:
    return rng.randrange(1, 1 << n)


def disjoint_events(rng: random.Random, n: int, count: int) -> list[int]:
    """``count`` pairwise-disjoint nonempty events (count <= n)."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), count - 1)) if count > 1 else []
    events, start = [], 0
    for stop in cuts + [rng.randint(cuts[-1] + 1 if cuts else 1, n)]:
        events.append(sum(1 << i for i in order[start:stop]))
        start = stop
    return events
