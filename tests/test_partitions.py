import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmeasure import coevents as cv
from qmeasure import partitions as pt
from qmeasure import bernoulli as be
from qmeasure.checks import (
    _classical_on_oracle,
    coin_theory,
    random_classical_theory,
    random_decoherence_theory,
    three_path_theory,
)
from qmeasure.core import HistoriesTheory, SampleSpace, theory_from_json, theory_to_json

from helpers import scan_classical_wrt_m, scan_separable, union_find_principle

HALF = Fraction(1, 2)
EPS = (Fraction(0), Fraction(1, 7), Fraction(1, 3))


def _partition(space, *mask_groups):
    return pt.Partition.of_masks(space, mask_groups)


# ---------------------------------------------------------------------------
# Partition structure
# ---------------------------------------------------------------------------


def test_partition_validation():
    space = SampleSpace.of("a", "b", "c")
    with pytest.raises(ValueError):
        _partition(space, 0b011, 0b110)  # overlap
    with pytest.raises(ValueError):
        _partition(space, 0b011)  # no cover
    with pytest.raises(ValueError):
        _partition(space, 0b011, 0b100, 0b000)  # empty block
    with pytest.raises(ValueError):
        pt.Partition.of_blocks(space, [])


def test_partition_canonical_order_and_equality():
    space = SampleSpace.of("a", "b", "c")
    p1 = _partition(space, 0b100, 0b011)
    p2 = _partition(space, 0b011, 0b100)
    assert p1 == p2
    assert [b.mask for b in p1.blocks] == [0b011, 0b100]
    assert p1.block_of(space.event("a")) == space.event("a", "b")


def test_iter_partitions_counts_are_bell_numbers():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for n, count in bell.items():
        space = SampleSpace(tuple(f"g{i}" for i in range(n)))
        partitions = list(pt.iter_partitions(space))
        assert len(partitions) == count
        assert len(set(partitions)) == count


def test_refines():
    space = SampleSpace.of("a", "b", "c")
    singles = pt.Partition.singletons(space)
    trivial = pt.Partition.trivial(space)
    mixed = _partition(space, 0b101, 0b010)
    assert pt.refines(singles, mixed)
    assert pt.refines(singles, trivial)
    assert pt.refines(mixed, trivial)
    assert not pt.refines(mixed, singles)
    assert not pt.refines(trivial, mixed)
    assert pt.refines(mixed, mixed)


# ---------------------------------------------------------------------------
# Decoherence
# ---------------------------------------------------------------------------


def test_trivial_partition_is_decoherent():
    theory = three_path_theory()
    assert pt.is_decoherent(theory, pt.Partition.trivial(theory.space))


def test_three_path_partition_interferes():
    theory = three_path_theory()
    space = theory.space
    partition = _partition(space, 0b101, 0b010)
    value = theory.decoherence_value(space.event("a", "c"), space.event("b"))
    assert value.real == -2 and value.imag == 0
    assert not pt.is_decoherent(theory, partition)


def test_diagonal_functional_is_always_decoherent():
    theory = coin_theory(Fraction(1, 3))  # weights-backed, diagonal by construction
    for partition in pt.iter_partitions(theory.space):
        assert pt.is_decoherent(theory, partition)


def test_table_form_rejected_for_decoherence_check():
    space = SampleSpace.of("a", "b")
    theory = HistoriesTheory.from_table(space, {0: 0, 1: HALF, 2: HALF, 3: 1})
    with pytest.raises(ValueError):
        pt.is_decoherent(theory, pt.Partition.trivial(space))


def test_decoherent_partitions_coarse_grain_to_level_one():
    rng = random.Random(37)
    for _ in range(8):
        theory = random_decoherence_theory(rng, rng.randint(2, 5))
        for partition in pt.iter_partitions(theory.space):
            if pt.is_decoherent(theory, partition):
                assert theory.coarse_grain(partition).level() == 1


# ---------------------------------------------------------------------------
# Preclusive separability
# ---------------------------------------------------------------------------


def test_classical_measure_is_always_separable():
    theory = coin_theory(Fraction(1, 3))
    for partition in pt.iter_partitions(theory.space):
        assert pt.is_preclusively_separable(theory, partition)


def test_three_path_separability():
    theory = three_path_theory()
    space = theory.space
    bad = _partition(space, 0b011, 0b100)  # null {b,c} meets {c} with no null cover
    assert not pt.is_preclusively_separable(theory, bad)
    principle = _partition(space, 0b101, 0b010)
    separable = pt.is_preclusively_separable(theory, principle)
    classical = pt.is_classical_wrt_M(theory, principle)
    assert (not separable) or classical  # separability must imply classicality


def test_separable_implies_classical_empirically():
    # logged as a finding rather than asserted false: the implication is the
    # expected behaviour, a counterexample would be research-worthy
    rng = random.Random(51)
    findings = []
    for _ in range(40):
        theory = random_decoherence_theory(rng, rng.randint(2, 6))
        for partition in pt.iter_partitions(theory.space):
            if pt.is_preclusively_separable(theory, partition):
                if not pt.is_classical_wrt_M(theory, partition):
                    findings.append((theory, partition))
    if findings:  # pragma: no cover - would be a notable finding
        print(f"FINDING: {len(findings)} separable-but-nonclassical partitions")
    assert True


# ---------------------------------------------------------------------------
# Classicality with respect to the primitives
# ---------------------------------------------------------------------------


def test_classical_wrt_M_three_path():
    theory = three_path_theory()
    space = theory.space
    assert pt.is_classical_wrt_M(theory, _partition(space, 0b101, 0b010))
    assert not pt.is_classical_wrt_M(theory, _partition(space, 0b011, 0b100))
    assert pt.is_classical_wrt_M(theory, pt.Partition.trivial(space))


def test_trivial_partition_always_classical():
    rng = random.Random(53)
    for _ in range(10):
        theory = random_decoherence_theory(rng, rng.randint(2, 5))
        assert pt.is_classical_wrt_M(theory, pt.Partition.trivial(theory.space))


def test_classical_coin_singletons_classical():
    theory = coin_theory(Fraction(1, 3))
    assert pt.is_classical_wrt_M(theory, pt.Partition.singletons(theory.space))


def test_classical_wrt_M_matches_per_coevent_restriction():
    rng = random.Random(59)
    for _ in range(10):
        theory = random_decoherence_theory(rng, rng.randint(2, 5))
        prims = cv.primitives(theory)
        for partition in pt.iter_partitions(theory.space):
            expected = all(cv.is_classical_on(phi, partition) for phi in prims)
            oracle = all(_classical_on_oracle(phi, partition) for phi in prims)
            assert pt.is_classical_wrt_M(theory, partition) == expected == oracle


def test_uniform_fast_path_agrees_with_generic():
    eps = Fraction(3, 16)
    weights_theory = be.explicit_theory(be.BernoulliModel(4, HALF, eps))
    table_theory = HistoriesTheory.from_table(
        weights_theory.space, dict(enumerate(weights_theory.full_table()))
    )
    for partition in (
        pt.Partition.trivial(weights_theory.space),
        pt.Partition.singletons(weights_theory.space),
    ):
        for e in (eps, Fraction(1, 32)):
            assert pt.is_classical_wrt_M(weights_theory, partition, e) == \
                pt.is_classical_wrt_M(table_theory, partition, e)


# ---------------------------------------------------------------------------
# The principle classical partition
# ---------------------------------------------------------------------------


def test_principle_partition_three_path():
    theory = three_path_theory()
    space = theory.space
    partition, fat = pt.principle_classical_partition(theory)
    assert partition == _partition(space, 0b101, 0b010)
    assert fat.fat_duals == (space.event("a", "c"),)
    assert fat.classes == ((space.event("a", "c"),),)
    assert fat.uncovered == (space.event("b"),)


def test_principle_partition_classical_coin_is_singletons():
    theory = coin_theory(Fraction(1, 3))
    partition, fat = pt.principle_classical_partition(theory)
    assert partition == pt.Partition.singletons(theory.space)
    assert fat.uncovered == ()


def test_principle_partition_uniform_collapse():
    theory = be.explicit_theory(be.BernoulliModel(4, HALF, Fraction(3, 16)))
    collapsed, fat = pt.principle_classical_partition(theory, Fraction(3, 16))
    assert collapsed == pt.Partition.trivial(theory.space)
    assert len(fat.classes) == 1
    assert fat.class_sizes == (560,)
    assert len(fat.classes[0]) == 560  # all 3-subsets of the 16 sequences
    assert all(d.cardinality == 3 for d in fat.classes[0])
    fine, _ = pt.principle_classical_partition(theory, Fraction(1, 32))
    assert fine == pt.Partition.singletons(theory.space)


def test_principle_partition_huge_class_left_unmaterialized():
    import math

    theory = be.explicit_theory(be.BernoulliModel(12, HALF, Fraction(1, 1000)))
    eps = Fraction(1, 1000)
    collapsed, fat = pt.principle_classical_partition(theory, eps)
    assert collapsed == pt.Partition.trivial(theory.space)
    assert fat.classes is None
    expected = be.uniform_primitive_cardinality(be.BernoulliModel(12, HALF, eps))
    assert fat.class_sizes == (math.comb(4096, expected),)
    assert fat.fat_duals == (theory.space.omega,)


def test_principle_partition_minimal_and_unique_small():
    theory = three_path_theory()
    partition, _ = pt.principle_classical_partition(theory)
    assert pt.is_classical_wrt_M(theory, partition)
    for candidate in pt.iter_partitions(theory.space):
        if pt.is_classical_wrt_M(theory, candidate):
            assert pt.refines(partition, candidate)


def test_fat_structure_invariants_random():
    rng = random.Random(61)
    for _ in range(20):
        theory = (
            random_decoherence_theory(rng, rng.randint(2, 6))
            if rng.random() < 0.5
            else random_classical_theory(rng, rng.randint(2, 6))
        )
        partition, fat = pt.principle_classical_partition(theory)
        seen = 0
        for d in fat.fat_duals:
            assert d.mask & seen == 0
            seen |= d.mask
        duals = theory.minimal_nonnegligible()
        for dual in duals:
            owners = [f for f in fat.fat_duals if dual & ~f.mask == 0]
            assert len(owners) == 1
        for single in fat.uncovered:
            assert single.cardinality == 1
            assert single.mask & seen == 0
        assert partition.blocks == tuple(
            sorted(fat.fat_duals + fat.uncovered, key=lambda b: b.mask & -b.mask)
        )


def _pairwise_classes(duals):
    """Classes of the transitive closure of pairwise intersection, each in
    ascending order, ordered by least member: the direct definition."""
    classes = []
    for dual in duals:
        touching = [c for c in classes if any(dual & other for other in c)]
        merged = sorted([dual] + [m for c in touching for m in c])
        classes = [c for c in classes if c not in touching] + [merged]
    return sorted(classes, key=min)


def _union(masks):
    out = 0
    for mask in masks:
        out |= mask
    return out


def test_fat_classes_match_pairwise_chaining():
    rng = random.Random(67)
    uniform = HistoriesTheory.from_table(
        SampleSpace(tuple(f"u{i}" for i in range(8))),
        {m: Fraction(m.bit_count(), 8) for m in range(1 << 8)},
    )
    cases = [(uniform, HALF), (uniform, Fraction(1, 4))]
    for _ in range(12):
        theory = (
            random_decoherence_theory(rng, rng.randint(2, 6))
            if rng.random() < 0.5
            else random_classical_theory(rng, rng.randint(2, 6))
        )
        cases.append((theory, rng.choice([Fraction(0), Fraction(1, 10), Fraction(1, 3)])))
    for theory, eps in cases:
        _, fat = pt.principle_classical_partition(theory, eps)
        expected = _pairwise_classes(theory.minimal_nonnegligible(eps))
        assert [[d.mask for d in c] for c in fat.classes] == expected
        assert fat.class_sizes == tuple(len(c) for c in expected)
        fat_masks = [_union(c) for c in expected]
        assert [d.mask for d in fat.fat_duals] == fat_masks
        covered = _union(fat_masks)
        assert [d.mask for d in fat.uncovered] == [
            1 << i for i in range(theory.space.n) if not covered >> i & 1]


# ---------------------------------------------------------------------------
# The family passes against the references, and under relabelling
# ---------------------------------------------------------------------------


@st.composite
def theories_and_partitions(draw, max_n=7):
    """A decoherence theory, a classical theory (weights or table) or a
    table with about 40% of its events zeroed; and a partition of its
    histories as block masks."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["decoherence", "weights", "classical", "zeroed"]))
    if kind == "zeroed":
        space = SampleSpace(tuple(f"h{i}" for i in range(n)))
        values = draw(st.lists(st.sampled_from([0, 0, 0, 0, 1, 1, 2, 3, -1, HALF]),
                               min_size=1 << n, max_size=1 << n))
        theory = HistoriesTheory.from_table(space, dict(enumerate(map(Fraction, values))))
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        theory = (random_decoherence_theory(rng, n) if kind == "decoherence"
                  else random_classical_theory(rng, n, table_form=kind == "classical"))
    masks = {}
    for i, b in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))):
        masks[b] = masks.get(b, 0) | 1 << i
    return theory, sorted(masks.values())


def _table(*values):
    space = SampleSpace(tuple(f"h{i}" for i in range(len(values).bit_length() - 1)))
    return HistoriesTheory.from_table(space, dict(enumerate(map(Fraction, values))))


def _principle_masks(theory, eps) -> dict:
    partition, fat = pt.principle_classical_partition(theory, eps)
    return {
        "blocks": [block.mask for block in partition.blocks],
        "classes": [[dual.mask for dual in cls] for cls in fat.classes],
        "class_sizes": list(fat.class_sizes),
        "fat_duals": [dual.mask for dual in fat.fat_duals],
        "uncovered": [single.mask for single in fat.uncovered],
    }


@settings(max_examples=60, deadline=None)
@given(theories_and_partitions())
# mu(0) = 1, so no null event lies inside {h1}: the empty trace of the null
# {h0} on it must not count against separability
@example((_table(1, 0, 1, 1), [0b01, 0b10]))
def test_partition_layer_matches_the_references(case):
    theory, masks = case
    partition = pt.Partition.of_masks(theory.space, masks)
    assert pt.is_preclusively_separable(theory, partition) == scan_separable(theory, masks)
    for eps in EPS:
        duals = theory.minimal_nonnegligible(eps)
        assert pt.is_classical_wrt_M(theory, partition, eps) == scan_classical_wrt_m(duals, masks)
        assert _principle_masks(theory, eps) == union_find_principle(duals, theory.space.n)


def _relabel(theory, perm):
    """The theory with history i renamed perm[i], through its JSON document."""
    n = theory.space.n
    doc = theory_to_json(theory)
    measure = doc["measure"]
    doc["histories"] = [doc["histories"][perm.index(i)] for i in range(n)]
    if measure["type"] == "table":
        measure["values"] = {hex(_move(int(k, 16), perm)): v for k, v in measure["values"].items()}
    elif measure["type"] == "weights":
        measure["weights"] = [measure["weights"][perm.index(i)] for i in range(n)]
    else:
        old = measure["matrix"]
        measure["matrix"] = [[old[perm.index(i)][perm.index(j)] for j in range(n)] for i in range(n)]
    return theory_from_json(doc)


def _move(mask, perm):
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


def _fat_by_dual(theory, eps, perm):
    """The principle partition as order-free data, its masks moved by perm:
    blocks, each fat dual with its class size and duals, uncovered."""
    partition, fat = pt.principle_classical_partition(theory, eps)
    return (
        {_move(block.mask, perm) for block in partition.blocks},
        {_move(dual.mask, perm): (size, sorted(_move(d.mask, perm) for d in cls))
         for dual, size, cls in zip(fat.fat_duals, fat.class_sizes, fat.classes)},
        {_move(single.mask, perm) for single in fat.uncovered},
    )


@settings(max_examples=40, deadline=None)
@given(theories_and_partitions(), st.data())
def test_partition_layer_moves_with_a_relabelling(case, data):
    theory, masks = case
    n = theory.space.n
    perm = data.draw(st.permutations(range(n)))
    moved = _relabel(theory, perm)
    identity = list(range(n))
    partition = pt.Partition.of_masks(theory.space, masks)
    moved_partition = pt.Partition.of_masks(moved.space, [_move(m, perm) for m in masks])
    assert pt.is_preclusively_separable(moved, moved_partition) == \
        pt.is_preclusively_separable(theory, partition)
    for eps in EPS:
        assert pt.is_classical_wrt_M(moved, moved_partition, eps) == \
            pt.is_classical_wrt_M(theory, partition, eps)
        assert _fat_by_dual(moved, eps, identity) == _fat_by_dual(theory, eps, perm)


def test_negative_eps_is_refused_everywhere():
    space = SampleSpace.of("a", "b", "c")
    uniform = HistoriesTheory.from_weights(space, [Fraction(1, 3)] * 3)
    table = HistoriesTheory.from_table(space, dict(enumerate(uniform.full_table())))
    singletons = pt.Partition.singletons(space)
    eps = Fraction(-1, 2)
    for theory in (uniform, table):
        for call in (
            lambda: theory.is_negligible(space.omega, eps),
            lambda: theory.minimal_nonnegligible(eps),
            lambda: pt.principle_classical_partition(theory, eps),
            lambda: pt.is_classical_wrt_M(theory, singletons, eps),
            lambda: cv.primitives(theory, "-1/2"),
            lambda: cv.is_preclusive(cv.CoEvent.from_dual(space.omega), theory, eps),
            lambda: cv.classify(cv.CoEvent.from_dual(space.omega), theory, "-1/2"),
            lambda: cv.classify(cv.CoEvent.from_table(space, [0b001, 0b010]), theory, "-1/2"),
            lambda: theory.is_null(space.omega, -1),
        ):
            with pytest.raises(ValueError, match="eps must be nonnegative"):
                call()


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def test_partition_json_round_trip():
    space = SampleSpace.of("a", "b", "c")
    partition = _partition(space, 0b101, 0b010)
    doc = pt.partition_to_json(partition)
    assert doc == ["0x5", "0x2"]
    assert pt.partition_from_json(space, doc) == partition
    with pytest.raises(ValueError):
        pt.partition_from_json(space, {"not": "a list"})
