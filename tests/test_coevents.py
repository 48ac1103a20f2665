import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmeasure import coevents as cv
from qmeasure import bernoulli as be
from qmeasure.checks import coin_theory, random_classical_theory, random_decoherence_theory, three_path_theory
from qmeasure.core import HistoriesTheory, SampleSpace
from qmeasure.partitions import Partition

from helpers import brute_minimal_nonnegligible

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Construction and evaluation
# ---------------------------------------------------------------------------


def test_dual_of_empty_event_rejected():
    space = SampleSpace.of("a", "b")
    with pytest.raises(ValueError):
        cv.dual(space.empty)


def test_zero_map_rejected():
    space = SampleSpace.of("a", "b")
    with pytest.raises(ValueError):
        cv.CoEvent.from_table(space, set())
    with pytest.raises(ValueError):
        cv.CoEvent.from_table(space, {0})  # affirming the empty event


def test_evaluation_examples():
    coin_space = SampleSpace.of("h", "t")
    omega_star = cv.dual(coin_space.omega)
    assert omega_star(coin_space.event("h")) == 0
    assert omega_star(coin_space.omega) == 1
    h_star = cv.dual(coin_space.event("h"))
    assert h_star(coin_space.event("h", "t")) == 1
    space = SampleSpace.of("a", "b", "c")
    ac_star = cv.dual(space.event("a", "c"))
    assert ac_star(space.event("a", "b")) == 0
    assert ac_star(space.omega) == 1


def test_dual_is_an_involution():
    space = SampleSpace.of("a", "b", "c")
    for mask in range(1, 8):
        event = space.event_from_mask(mask)
        assert cv.dual(cv.dual(event)) == event
    gamma_star = cv.dual(space.event("b"))
    assert gamma_star.dual_event().cardinality == 1


def test_dual_of_full_space_affirms_only_the_full_space():
    space = SampleSpace.of("a", "b", "c")
    omega_star = cv.dual(space.omega)
    affirmed = [m for m in range(8) if omega_star.value_mask(m)]
    assert affirmed == [0b111]


def test_multiplicativity_over_all_pairs():
    for n in range(1, 6):
        space = SampleSpace(tuple(f"g{i}" for i in range(n)))
        for dual_mask in range(1, 1 << n):
            phi = cv.CoEvent(space, dual_mask=dual_mask)
            for a in range(1 << n):
                for b in range(1 << n):
                    assert phi.value_mask(a & b) == phi.value_mask(a) * phi.value_mask(b)


def test_table_form_multiplicativity_detection():
    space = SampleSpace.of("a", "b", "c")
    # supersets of {a}: a genuine multiplicative table
    filt = {m for m in range(8) if m & 0b001}
    phi = cv.CoEvent.from_table(space, filt)
    assert phi.is_multiplicative()
    assert phi.to_multiplicative().dual_mask == 0b001
    # affirming only the full space and one singleton is not multiplicative
    broken = cv.CoEvent.from_table(space, {0b111, 0b001})
    assert not broken.is_multiplicative()
    with pytest.raises(ValueError):
        broken.to_multiplicative()


# ---------------------------------------------------------------------------
# Preclusion
# ---------------------------------------------------------------------------


def test_coin_preclusion():
    theory = coin_theory(Fraction(1, 3))
    space = theory.space
    for mask in range(1, 4):
        assert cv.is_preclusive(cv.CoEvent(space, dual_mask=mask), theory)


def test_three_path_preclusion():
    theory = three_path_theory()
    space = theory.space
    b_star = cv.dual(space.event("b"))
    assert not cv.is_preclusive(b_star, theory)  # {b} sits inside the null {a,b}
    ac_star = cv.dual(space.event("a", "c"))
    assert cv.is_preclusive(ac_star, theory)


def test_approximate_preclusion_of_singletons():
    eps = Fraction(1, 1000)
    for n, expected in ((10, False), (9, True)):
        theory = be.explicit_theory(be.BernoulliModel(n, HALF, eps))
        for singleton in theory.space.singletons():
            phi = cv.CoEvent.from_dual(singleton)
            assert cv.is_preclusive(phi, theory, eps) is expected


def test_preclusion_requires_multiplicative_form():
    theory = coin_theory(Fraction(1, 3))
    phi = cv.CoEvent.from_table(theory.space, {0b11})
    with pytest.raises(ValueError):
        cv.is_preclusive(phi, theory)


# ---------------------------------------------------------------------------
# Domination and primitivity
# ---------------------------------------------------------------------------


def test_domination_examples():
    coin_space = SampleSpace.of("h", "t")
    h_star = cv.dual(coin_space.event("h"))
    t_star = cv.dual(coin_space.event("t"))
    omega_star = cv.dual(coin_space.omega)
    assert cv.dominates(h_star, omega_star)
    assert cv.dominates(t_star, omega_star)
    assert not cv.dominates(omega_star, omega_star)
    space = SampleSpace.of("a", "b", "c")
    assert cv.dominates(cv.dual(space.event("a")), cv.dual(space.event("a", "c")))


def test_domination_is_a_strict_partial_order():
    space = SampleSpace(tuple(f"g{i}" for i in range(4)))
    duals = [cv.CoEvent(space, dual_mask=m) for m in range(1, 16)]
    for x in duals:
        assert not cv.dominates(x, x)
        for y in duals:
            if cv.dominates(x, y):
                assert not cv.dominates(y, x)
            for z in duals:
                if cv.dominates(x, y) and cv.dominates(y, z):
                    assert cv.dominates(x, z)


def test_primitives_coin_and_three_path():
    coin = coin_theory(Fraction(1, 3))
    assert {phi.dual_mask for phi in cv.primitives(coin)} == {0b01, 0b10}
    t3 = three_path_theory()
    assert [phi.dual_mask for phi in cv.primitives(t3)] == [0b101]


def test_primitives_are_ascending_and_deterministic():
    rng = random.Random(2)
    theory = random_decoherence_theory(rng, 5)
    prims = cv.primitives(theory)
    masks = [phi.dual_mask for phi in prims]
    assert masks == sorted(masks)
    assert masks == [phi.dual_mask for phi in cv.primitives(theory)]


def test_primitives_match_brute_force_oracle():
    rng = random.Random(31)
    cases = []
    for _ in range(4):
        cases.append((random_decoherence_theory(rng, rng.randint(2, 6)), Fraction(0)))
        cases.append((random_classical_theory(rng, rng.randint(2, 6)), Fraction(0)))
        cases.append((random_decoherence_theory(rng, rng.randint(2, 5)), Fraction(rng.randint(1, 4), 9)))
    cases.append((three_path_theory(), Fraction(0)))
    # one larger instance against the direct superset-scan oracle
    cases.append((random_classical_theory(rng, 12), Fraction(1, 17)))
    for theory, eps in cases:
        assert theory.minimal_nonnegligible(eps) == brute_minimal_nonnegligible(theory, eps)


def test_primitives_of_uniform_trials_are_fixed_cardinality_subsets():
    eps = Fraction(1, 4)
    theory = be.explicit_theory(be.BernoulliModel(3, HALF, eps))
    duals = {phi.dual_mask for phi in cv.primitives(theory, eps)}
    expected = {m for m in range(1 << 8) if m.bit_count() == 2}  # ceil(8/4) = 2
    assert duals == expected
    assert be.uniform_primitive_cardinality(be.BernoulliModel(3, HALF, eps)) == 2


def test_primitives_nonempty_when_full_space_survives():
    rng = random.Random(13)
    for _ in range(10):
        theory = random_decoherence_theory(rng, rng.randint(2, 5))
        eps = Fraction(rng.randint(0, 3), 7)
        omega = theory.space.omega
        if not theory.is_negligible(omega, eps):
            assert cv.primitives(theory, eps)


def test_primitivity_equals_undominated_preclusive():
    rng = random.Random(41)
    for _ in range(6):
        theory = random_decoherence_theory(rng, 4)
        space = theory.space
        preclusive = [
            cv.CoEvent(space, dual_mask=m)
            for m in range(1, 16)
            if cv.is_preclusive(cv.CoEvent(space, dual_mask=m), theory)
        ]
        undominated = {
            phi.dual_mask
            for phi in preclusive
            if not any(cv.dominates(psi, phi) for psi in preclusive)
        }
        assert undominated == {phi.dual_mask for phi in cv.primitives(theory)}


def _space(n):
    return SampleSpace(tuple(f"h{i}" for i in range(n)))


# mu(0) = 1 and no event null: both singletons are primitive duals
NO_NULLS = HistoriesTheory.from_table(_space(2), {0: 1, 1: Fraction(1, 3), 2: Fraction(2, 3), 3: 1})

values = st.one_of(st.just(Fraction(0)), st.fractions(min_value=0, max_value=1, max_denominator=9))
thresholds = (Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(1))


@st.composite
def tables(draw, max_n):
    """Table theories of nonnegative values, mu(0) included."""
    n = draw(st.integers(1, max_n))
    table = draw(st.lists(values, min_size=1 << n, max_size=1 << n))
    return HistoriesTheory.from_table(_space(n), dict(enumerate(table)))


@st.composite
def small_theories(draw):
    """Table, decoherence and weights theories of up to six histories."""
    kind = draw(st.sampled_from(["table", "decoherence", "weights"]))
    if kind == "table":
        return draw(tables(6))
    n = draw(st.integers(1, 6))
    if kind == "weights":
        return HistoriesTheory.from_weights(_space(n), draw(st.lists(values, min_size=n, max_size=n)))
    return random_decoherence_theory(random.Random(draw(st.integers(0, 2**32))), n)


def test_primitives_when_no_event_is_null():
    space = NO_NULLS.space
    assert not any(NO_NULLS.is_negligible(s) for s in space.singletons())
    assert [phi.dual_mask for phi in cv.primitives(NO_NULLS)] == [0b01, 0b10]


def test_classify_reads_no_lattice_for_a_negligible_dual_of_weights():
    # 4,096 histories: a null singleton is answered from its own measure
    theory = HistoriesTheory.from_weights(_space(4096), [Fraction(1, 4096)] * 4096)
    flags = cv.classify(cv.CoEvent(theory.space, dual_mask=1), theory, Fraction(1, 1000))
    assert (flags.classical, flags.preclusive, flags.primitive) == (True, False, False)


@settings(max_examples=60, deadline=None)
@given(tables(4), st.sampled_from(thresholds))
@example(NO_NULLS, Fraction(0))
def test_primitives_are_the_undominated_preclusive_duals(theory, eps):
    space = theory.space
    preclusive = [
        phi for phi in (cv.CoEvent(space, dual_mask=m) for m in range(1, 1 << space.n))
        if cv.is_preclusive(phi, theory, eps)
    ]
    undominated = [
        phi.dual_mask for phi in preclusive
        if not any(cv.dominates(psi, phi) for psi in preclusive)
    ]
    assert undominated == [phi.dual_mask for phi in cv.primitives(theory, eps)]


@settings(max_examples=80, deadline=None)
@given(small_theories())
@example(NO_NULLS)
def test_families_move_monotonically_across_thresholds(theory):
    """The negligible family only grows with eps, so each primitive dual at
    a larger eps contains a primitive dual at a smaller one."""
    events = [theory.space.event_from_mask(m) for m in range(1 << theory.space.n)]
    negligible = {eps: {e.mask for e in events if theory.is_negligible(e, eps)} for eps in thresholds}
    duals = {eps: theory.minimal_nonnegligible(eps) for eps in thresholds}
    for low, high in combinations(thresholds, 2):
        assert negligible[low] <= negligible[high]
        for dual in duals[high]:
            assert any(d & ~dual == 0 for d in duals[low])


# ---------------------------------------------------------------------------
# Classical co-events
# ---------------------------------------------------------------------------


def test_classical_coevents_examples():
    coin = coin_theory(Fraction(1, 3))
    assert {phi.dual_mask for phi in cv.classical_coevents(coin)} == {0b01, 0b10}
    assert cv.classical_coevents(three_path_theory()) == ()
    space = SampleSpace.of("a", "b")
    skewed = HistoriesTheory.from_table(space, {0: 0, 1: 1, 2: 0, 3: 1})
    assert [phi.dual_mask for phi in cv.classical_coevents(skewed)] == [0b01]


def test_classicality_on_partitions():
    coin = coin_theory(Fraction(1, 3))
    coin_space = coin.space
    omega_star = cv.dual(coin_space.omega)
    both = Partition.singletons(coin_space)
    assert not cv.is_classical_on(omega_star, both)
    space = SampleSpace.of("a", "b", "c")
    ac_star = cv.dual(space.event("a", "c"))
    partition = Partition.of_blocks(space, [space.event("a", "c"), space.event("b")])
    assert cv.is_classical_on(ac_star, partition)
    rng = random.Random(3)
    from qmeasure.partitions import iter_partitions

    for _ in range(20):
        mask = rng.randrange(1, 8)
        gamma_star = cv.dual(space.event_from_mask(1 << rng.randrange(3)))
        for partition in iter_partitions(space):
            assert cv.is_classical_on(gamma_star, partition)


def test_classify_flag_implications():
    rng = random.Random(19)
    for _ in range(5):
        theory = random_decoherence_theory(rng, 4)
        space = theory.space
        eps = Fraction(rng.randint(0, 2), 11)
        for mask in range(1, 16):
            flags = cv.classify(cv.CoEvent(space, dual_mask=mask), theory, eps)
            assert flags.multiplicative
            if flags.classical:
                assert flags.multiplicative
            if flags.primitive:
                assert flags.preclusive
        gamma = cv.CoEvent(space, dual_mask=1)
        assert cv.classify(gamma, theory, eps).classical


def test_classify_primitive_is_membership_in_the_minimal_family():
    rng = random.Random(23)
    cases = []
    for _ in range(6):
        theory = random_decoherence_theory(rng, rng.randint(2, 6))
        eps = Fraction(rng.randint(0, 3), 10)
        cases.append((theory, eps, range(1, 1 << theory.space.n)))
    space16 = SampleSpace.of(*(f"h{i}" for i in range(16)))
    uniform16 = HistoriesTheory.from_table(space16, {m: Fraction(m.bit_count(), 16) for m in range(1 << 16)})
    cases.append((uniform16, HALF, [rng.randrange(1, 1 << 16) for _ in range(300)]))
    for theory, eps, masks in cases:
        duals = set(theory.minimal_nonnegligible(eps))
        for mask in masks:
            flags = cv.classify(cv.CoEvent(theory.space, dual_mask=mask), theory, eps)
            assert flags.primitive == (mask in duals)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def test_coevent_json_round_trip():
    space = SampleSpace.of("a", "b", "c")
    phi = cv.dual(space.event("a", "c"))
    doc = cv.coevent_to_json(phi)
    assert doc == {"dual": "0x5"}
    assert cv.coevent_from_json(space, doc) == phi
    table = cv.CoEvent.from_table(space, {0b111, 0b101})
    doc2 = cv.coevent_to_json(table)
    assert cv.coevent_from_json(space, doc2) == table
    with pytest.raises(ValueError):
        cv.coevent_from_json(space, {"neither": 1})
    # JSON true and 1.0 are not the integer 1
    for bit in (2, True, 1.0):
        with pytest.raises(ValueError):
            cv.coevent_from_json(space, {"table": {"0x1": bit}})
    # two spellings of one event, in either order
    for bits in ({"0x3": 1, "0x03": 0}, {"0x03": 0, "0x3": 1}):
        with pytest.raises(ValueError, match="0x3"):
            cv.coevent_from_json(space, {"table": bits})
