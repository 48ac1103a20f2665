"""Partitions of the sample space and their classicality.

Three graded notions of classicality are computed for a partition:

* *dynamical* (decoherence): the off-diagonal blocks of the decoherence
  functional vanish between distinct blocks, so the coarse-grained measure is
  an honest probability measure;
* *preclusive separability*: every null event meets each block inside a null
  event contained in that block;
* *classicality with respect to the primitive co-events*: every primitive
  preclusive multiplicative co-event restricts to a homomorphism on the
  subalgebra the partition generates, which happens exactly when each
  primitive dual sits inside a single block.

Among the partitions classical with respect to the primitives there is a
unique finest one, the principle classical partition.  Primitive duals that
intersect are chained into classes; each class is merged into one "fat"
dual, and histories not covered by any fat dual are appended as singleton
blocks.

Each question reads families of events held as one int (``lattice``),
built once per eps by the theory: the null family and its down closure for
separability and the minimal family of primitive duals for the other two,
so each is a few big-int passes per block.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_

from . import lattice
from .core import (
    Event,
    HistoriesTheory,
    PairMeasure,
    SampleSpace,
    _parse_eps,
    _validate_partition_blocks,
    format_mask,
    parse_mask,
)
from .exact import ceil_rational

ZERO = Fraction(0)

#: Ceiling on how many primitive duals the uniform fast path will materialize.
_FAT_CLASS_LIMIT = 2_000_000


@dataclass(frozen=True)
class Partition:
    """Pairwise-disjoint nonempty events covering the sample space.

    Blocks are kept in canonical order (ascending least member index), so two
    partitions with the same blocks compare equal regardless of input order.
    """

    space: SampleSpace
    blocks: tuple[Event, ...]

    def __post_init__(self):
        _validate_partition_blocks(self.space, self.blocks)
        ordered = tuple(sorted(self.blocks, key=lambda b: b.mask & -b.mask))
        object.__setattr__(self, "blocks", ordered)

    @classmethod
    def of_masks(cls, space: SampleSpace, masks) -> "Partition":
        return cls(space, tuple(space.event_from_mask(int(m)) for m in masks))

    @classmethod
    def of_blocks(cls, space: SampleSpace, blocks) -> "Partition":
        return cls(space, tuple(blocks))

    @classmethod
    def singletons(cls, space: SampleSpace) -> "Partition":
        return cls(space, space.singletons())

    @classmethod
    def trivial(cls, space: SampleSpace) -> "Partition":
        return cls(space, (space.omega,))

    @property
    def size(self) -> int:
        return len(self.blocks)

    def block_of(self, event: Event) -> Event | None:
        """The block containing the event, if one does."""
        for block in self.blocks:
            if event.issubset(block):
                return block
        return None

    def __repr__(self) -> str:
        return "Partition(" + ", ".join(b.label() for b in self.blocks) + ")"


@dataclass(frozen=True)
class FatCoEventSet:
    """The intersection-equivalence structure over the primitive duals.

    ``classes`` lists the equivalence classes (each a tuple of primitive dual
    events), ``fat_duals`` the per-class unions, and ``uncovered`` the
    singleton events of histories missed by every primitive dual.  Fat duals
    are pairwise disjoint and every primitive dual lies in exactly one.

    Uniform product measures can have astronomically many primitive duals
    (every subset of one fixed cardinality); the per-class member lists are
    then left unmaterialized (``classes`` is None) while ``class_sizes``
    still carries the exact counts.
    """

    classes: tuple[tuple[Event, ...], ...] | None
    class_sizes: tuple[int, ...]
    fat_duals: tuple[Event, ...]
    uncovered: tuple[Event, ...]


def refines(fine: Partition, coarse: Partition) -> bool:
    """Is every block of ``coarse`` a union of blocks of ``fine``?

    The singleton partition refines everything; everything refines the
    one-block partition.
    """
    if fine.space != coarse.space:
        raise ValueError("partitions over different sample spaces")
    return all(
        any(b1.issubset(b2) for b2 in coarse.blocks) for b1 in fine.blocks
    )


def is_decoherent(theory: HistoriesTheory, partition: Partition) -> bool:
    """Do distinct blocks have exactly zero interference?

    Requires the off-diagonal data of the pair form: one pass over the
    nonzero off-diagonal entries sums each into D(A, B) for its blocks A
    before B, so a weights theory (no pairs) is always decoherent.
    Table-form theories are rejected since their off-diagonal values are
    unknown.
    """
    if partition.space != theory.space:
        raise ValueError("partition over a different sample space")
    if not isinstance(theory.measure, PairMeasure):
        raise ValueError("decoherence check needs off-diagonal data (decoherence form)")
    block_of = {i: b for b, block in enumerate(partition.blocks) for i in lattice.members(block.mask)}
    sums: Counter = Counter()
    for part, rows in enumerate(theory.measure.pairs):
        for i, row in rows.items():
            for j, v in row.items():
                if block_of[i] < block_of[j]:
                    sums[part, block_of[i], block_of[j]] += v
    return not any(sums.values())


def is_preclusively_separable(theory: HistoriesTheory, partition: Partition,
                              override_cap: bool = False) -> bool:
    """For every null event Z and block A: Z misses A, or some null subset of
    A contains Z's trace on A.

    Containment is read non-strictly, so a null trace may serve as its own
    witness.  Additive monotone measures are always separable: the trace of
    a null event is itself null.
    """
    if partition.space != theory.space:
        raise ValueError("partition over a different sample space")
    if theory.measure.additive:
        return True
    n = theory.space.n
    nulls, negligible, _ = theory._families(ZERO, override_cap)
    for block in partition.blocks:
        # a nonempty trace lies under a null event inside the block exactly
        # when every nonempty subset of the block under a null event does
        inside = lattice.inside(block.mask)
        if negligible & inside & ~lattice.down_closure(nulls & inside, n) & ~1:
            return False
    return True


def _uniform_weight(theory: HistoriesTheory) -> Fraction | None:
    """The common history weight if the measure is additive and monotone
    with one weight on every history, else None."""
    if theory.measure.additive:
        weights = theory.measure.diag[0]
        if weights.count(weights[0]) == len(weights):
            return Fraction(weights[0], theory.measure.denom)
    return None


def _uniform_min_cardinality(weight: Fraction, eps: Fraction) -> int:
    """Minimal cardinality of a nonempty non-(eps-)null event under uniform
    weights."""
    return max(1, ceil_rational(eps / weight))


def is_classical_wrt_M(theory: HistoriesTheory, partition: Partition, eps=ZERO,
                       override_cap: bool = False) -> bool:
    """Is every primitive (eps-)preclusive multiplicative co-event classical
    on the partition?  Holds exactly when every primitive dual lies inside a
    single block."""
    if partition.space != theory.space:
        raise ValueError("partition over a different sample space")
    eps = _parse_eps(eps)
    weight = _uniform_weight(theory)
    if weight is not None and weight > 0:
        m = _uniform_min_cardinality(weight, eps)
        # no duals at all (m > n) and singleton duals fit every partition;
        # otherwise some dual holds any two histories
        return m == 1 or m > theory.space.n or partition.size == 1
    duals = theory._families(eps, override_cap)[2]
    return not duals & ~reduce(or_, (lattice.inside(block.mask) for block in partition.blocks))


def _assemble(space: SampleSpace, class_lists) -> tuple[Partition, FatCoEventSet]:
    """The partition and fat structure from the classes of primitive duals,
    each an ascending list of masks, listed in the order of their least
    dual."""
    fat_masks = [reduce(or_, masks) for masks in class_lists]
    covered = reduce(or_, fat_masks, 0)
    event = space.event_from_mask
    fat_set = FatCoEventSet(
        classes=tuple(tuple(map(event, masks)) for masks in class_lists),
        class_sizes=tuple(map(len, class_lists)),
        fat_duals=tuple(map(event, fat_masks)),
        uncovered=tuple(event(1 << i) for i in range(space.n) if not covered >> i & 1),
    )
    return Partition(space, fat_set.fat_duals + fat_set.uncovered), fat_set


def principle_classical_partition(theory: HistoriesTheory, eps=ZERO,
                                  override_cap: bool = False) -> tuple[Partition, FatCoEventSet]:
    """The unique finest partition classical with respect to the primitive
    (eps-)preclusive multiplicative co-events.

    Construction, on the family M of primitive duals: grow a block from the
    lowest covered history not yet in a block, setting it to the histories
    of every dual that meets it until it stops changing.  The duals inside
    a grown block form one class, whose union is its fat dual; classes are
    listed by least dual, and uncovered histories are appended as singleton
    blocks.

    Uniform additive measures take a closed-form path: the primitive duals are
    exactly the subsets of the minimal non-(eps-)null cardinality m, so the
    answer is the singleton partition for m <= 1 and the one-block partition
    for m >= 2 (any two histories sit inside a common m-subset).
    """
    eps = _parse_eps(eps)
    space = theory.space
    n = space.n
    weight = _uniform_weight(theory)
    if weight is not None and weight > 0:
        m = _uniform_min_cardinality(weight, eps)
        if m > n:
            # the whole space is eps-null: no primitive co-events, all
            # histories uncovered
            return _assemble(space, [])
        if m == 1:
            return _assemble(space, [[1 << i] for i in range(n)])
        count = math.comb(n, m)
        if count > _FAT_CLASS_LIMIT:
            # a single class covering everything; too many duals to list
            fat_set = FatCoEventSet(
                classes=None,
                class_sizes=(count,),
                fat_duals=(space.omega,),
                uncovered=(),
            )
            return Partition(space, (space.omega,)), fat_set
        return _assemble(space, [sorted(
            sum(1 << i for i in subset) for subset in combinations(range(n), m)
        )])
    duals = theory._families(eps, override_cap)[2]
    holding = [duals & ~lattice._without(k, n) for k in range(n)]  # the duals holding k
    classes = []
    done = 0
    for k in range(n):
        if done >> k & 1 or not holding[k]:
            continue
        # grow the block to the histories of every dual that meets it
        block, grown = 0, 1 << k
        while grown != block:
            block = grown
            meets = reduce(or_, (holding[j] for j in range(n) if block >> j & 1))
            grown = sum(1 << j for j in range(n) if meets & holding[j])
        done |= block
        classes.append(meets)
    classes.sort(key=lambda family: family & -family)  # by least dual
    return _assemble(space, [lattice.members(family) for family in classes])


def iter_partitions(space: SampleSpace):
    """All partitions of the sample space, in a deterministic order.

    Generated by the standard recursion: each history joins an existing block
    or starts a new one.
    """
    n = space.n

    def rec(i: int, blocks: list[int]):
        if i == n:
            yield Partition(space, tuple(space.event_from_mask(m) for m in blocks))
            return
        bit = 1 << i
        for k in range(len(blocks)):
            blocks[k] |= bit
            yield from rec(i + 1, blocks)
            blocks[k] ^= bit
        blocks.append(bit)
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def partition_to_json(partition: Partition) -> list[str]:
    return [format_mask(block.mask) for block in partition.blocks]


def partition_from_json(space: SampleSpace, doc) -> Partition:
    if not isinstance(doc, list):
        raise ValueError("partition document must be an array of bitmask strings")
    return Partition.of_masks(space, [parse_mask(item) for item in doc])
