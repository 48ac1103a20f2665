"""One measure in every stored form: a weights theory, its table, and its
diagonal decoherence theory answer every query they share alike, and each
shortcut taken for an additive monotone measure gives the lattice's answer
on the same theory."""

import copy
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import partitions as pt
from qmeasure.core import HistoriesTheory, SampleSpace

EPS = (Fraction(0), Fraction(1, 7), Fraction(1, 3))


@st.composite
def weights_and_partition(draw):
    """Up to six weights, often zero, now and then negative, all equal, or
    normalized to sum to one; and a partition of the histories as block
    indices."""
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["any", "normalized", "uniform"]))
    if shape == "uniform":
        # weights at, and at fractions of, the thresholds in EPS
        weights = [draw(st.sampled_from([Fraction(0), Fraction(1, n), *EPS[1:], Fraction(1, 14),
                                         Fraction(1, 6), Fraction(2, 7)]))] * n
    else:
        raw = draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 3, -1, -2]), min_size=n, max_size=n))
        total = sum(raw)
        weights = [Fraction(w, total if shape == "normalized" and total else 4) for w in raw]
    block_of = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return weights, block_of


def _forms(weights):
    space = SampleSpace(tuple(f"h{i}" for i in range(len(weights))))
    classical = HistoriesTheory.from_weights(space, weights)
    table = HistoriesTheory.from_table(space, dict(enumerate(classical.full_table())))
    diagonal = HistoriesTheory.from_decoherence(
        space, [[[w if i == j else 0, 0] for j in range(len(weights))] for i, w in enumerate(weights)])
    return classical, table, diagonal


def _lattice_only(theory: HistoriesTheory) -> HistoriesTheory:
    """The same measure with the additive shortcuts switched off."""
    measure = copy.copy(theory.measure)
    measure.additive = False
    return HistoriesTheory(theory.space, measure)


def _answers(theory: HistoriesTheory, partition_masks) -> dict:
    space = theory.space
    partition = pt.Partition.of_masks(space, partition_masks)
    out = {
        "mu": [theory.mu_mask(mask) for mask in range(1 << space.n)],
        "level": theory.level(),
        "valid": theory.validate().valid,
        "separable": pt.is_preclusively_separable(theory, partition),
    }
    for eps in EPS:
        principle, fat = pt.principle_classical_partition(theory, eps)
        out[eps] = {
            "negligible": [theory.is_negligible(space.event_from_mask(mask), eps)
                           for mask in range(1 << space.n)],
            "minimal": theory.minimal_nonnegligible(eps),
            "principle": [block.mask for block in principle.blocks],
            "classes": [[dual.mask for dual in cls] for cls in fat.classes],
            "class_sizes": fat.class_sizes,
            "classical_m": pt.is_classical_wrt_M(theory, partition, eps),
        }
    return out


@settings(max_examples=100, deadline=None)
@given(weights_and_partition())
def test_weights_table_and_diagonal_decoherence_forms_agree(case):
    weights, block_of = case
    masks = {}
    for i, b in enumerate(block_of):
        masks[b] = masks.get(b, 0) | 1 << i
    classical, table, diagonal = _forms(weights)
    assert classical.measure.additive == diagonal.measure.additive == (min(weights) >= 0)
    expected = _answers(table, masks.values())
    for theory in (classical, diagonal):
        assert _answers(theory, masks.values()) == expected
        assert _answers(_lattice_only(theory), masks.values()) == expected
    # the two forms with off-diagonal data: none, so every partition decoheres
    partition = pt.Partition.of_masks(classical.space, masks.values())
    assert pt.is_decoherent(classical, partition) and pt.is_decoherent(diagonal, partition)
    full = (1 << len(weights)) - 1
    for x, y in ((full, full), (full & 0b1011, full & 0b0110), (1, full ^ 1)):
        ex, ey = classical.space.event_from_mask(x), classical.space.event_from_mask(y)
        value = classical.decoherence_value(ex, ey)
        assert value == diagonal.decoherence_value(ex, ey)
        assert value.real == classical.mu_mask(x & y) and value.imag == 0
