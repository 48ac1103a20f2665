import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmeasure import bernoulli as be
from qmeasure import coevents as cv
from qmeasure.core import SizeCapError, format_rational

from helpers import direct_simulate, direct_tail_cutoff, direct_tail_numerators

HALF = Fraction(1, 2)
MILLI = Fraction(1, 1000)


def fair(n, eps=MILLI):
    return be.BernoulliModel(n, HALF, eps)


# ---------------------------------------------------------------------------
# Model and sequences
# ---------------------------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError):
        be.BernoulliModel(0, HALF, MILLI)
    with pytest.raises(ValueError):
        be.BernoulliModel(3, Fraction(3, 2), MILLI)
    with pytest.raises(ValueError):
        be.BernoulliModel(3, HALF, Fraction(0))
    with pytest.raises(ValueError):
        be.BernoulliModel(3, HALF, Fraction(2))


def test_trial_sequence():
    seq = be.TrialSequence("hhtht")
    assert seq.n == 5
    assert seq.heads == 3
    for outcomes in ("hxh", "", "thx", "xht", "hth ", "hté"):
        with pytest.raises(ValueError, match=r"^outcomes must be a nonempty string over \{h, t\}$"):
            be.TrialSequence(outcomes)


# ---------------------------------------------------------------------------
# Point and tail masses
# ---------------------------------------------------------------------------


def test_single_history_weights():
    assert be.prob_history(fair(10), 3) == Fraction(1, 1024)
    assert be.prob_history(fair(10), 3) < MILLI
    assert be.prob_history(fair(9), 0) == Fraction(1, 512)
    assert be.prob_history(fair(9), 0) >= MILLI
    assert be.prob_history(be.BernoulliModel(2, Fraction(1, 3), MILLI), 1) == Fraction(2, 9)
    with pytest.raises(ValueError):
        be.prob_history(fair(10), 11)


def test_heads_count_masses():
    assert be.prob_heads_count(fair(4), 2) == Fraction(6, 16)
    assert be.prob_heads_count(fair(1000), 500) == Fraction(math.comb(1000, 500), 2**1000)
    for model in (fair(7), be.BernoulliModel(7, Fraction(1, 3), MILLI),
                  be.BernoulliModel(5, Fraction(0), MILLI), be.BernoulliModel(5, Fraction(1), MILLI)):
        assert sum(be.prob_heads_count(model, h) for h in range(model.n + 1)) == 1


def test_cumulative_values_and_monotonicity():
    assert be.cumulative(fair(2), 0) == Fraction(1, 4)
    for model in (fair(9), be.BernoulliModel(9, Fraction(2, 7), MILLI)):
        values = [be.cumulative(model, h) for h in range(model.n + 1)]
        assert values[-1] == 1
        assert all(a < b for a, b in zip(values, values[1:]))  # strict for 0 < p < 1


def test_cumulative_against_explicit_enumeration():
    model = be.BernoulliModel(8, Fraction(2, 5), MILLI)
    for k in range(9):
        total = Fraction(0)
        for mask in range(1 << 8):
            if mask.bit_count() <= k:
                total += be.prob_history(model, mask.bit_count())
        assert be.cumulative(model, k) == total


def test_cumulative_refuses_a_count_that_is_not_an_integer():
    # whether or not the memo already holds the mass at 2 heads
    model = fair(10)
    be._lower_tail.cache_clear()
    with pytest.raises(TypeError):
        be.cumulative(model, 2.0)
    assert be.cumulative(model, 2) == Fraction(1 + 10 + 45, 2**10)
    with pytest.raises(TypeError):
        be.cumulative(model, 2.0)
    with pytest.raises(TypeError):
        be.prob_history(model, 2.0)


def test_lower_tail_memo_stays_within_its_bound():
    n, p = be.LOWER_TAIL_CACHE_SIZE + 20, Fraction(1, 3)
    tails = direct_tail_numerators(n, p)
    be._lower_tail.cache_clear()
    for heads in range(n + 1):
        model = be.BernoulliModel(n, p, Fraction(1, 1 + heads % 7))
        assert be.cumulative(model, heads) == Fraction(tails[heads], 3**n)
        assert be._lower_tail.cache_info().currsize <= be.LOWER_TAIL_CACHE_SIZE
    assert be._lower_tail.cache_info().currsize == be.LOWER_TAIL_CACHE_SIZE
    # the oldest keys were dropped and are walked again, to the same mass
    assert be.cumulative(be.BernoulliModel(n, p, MILLI), 0) == Fraction(tails[0], 3**n)


def test_tail_cutoff_values():
    assert be.tail_cutoff(be.BernoulliModel(1000, HALF, MILLI)) == 450
    assert be.tail_cutoff(fair(10)) == 0
    assert be.cumulative(fair(10), 0) < MILLI <= be.cumulative(fair(10), 1)
    assert be.tail_cutoff(fair(2)) is None
    assert be.tail_cutoff(be.BernoulliModel(5, Fraction(1), MILLI)) == 4
    assert be.tail_cutoff(be.BernoulliModel(5, Fraction(0), MILLI)) is None


def test_tail_cutoff_defining_property():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 40)
        p = Fraction(rng.randint(0, 6), 6)
        eps = Fraction(rng.randint(1, 99), 100)
        model = be.BernoulliModel(n, p, eps)
        cutoff = be.tail_cutoff(model)
        if cutoff is None:
            assert be.cumulative(model, 0) >= eps
        else:
            assert be.cumulative(model, cutoff) < eps
            if cutoff < n:
                assert be.cumulative(model, cutoff + 1) >= eps


def test_tail_rows():
    model = fair(4)
    rows = list(be.tail_rows(model))
    assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
    assert rows[2][1] == "3/8"
    assert rows[-1][2] == "1"
    assert all(Fraction(rows[i][2]) == sum(Fraction(r[1]) for r in rows[: i + 1])
               for i in range(5))


# ---------------------------------------------------------------------------
# The one tail pass against direct binomial sums
# ---------------------------------------------------------------------------


def _direct_rows(n, p):
    """The tail rows spelled from direct sums: ``format_rational`` of each
    mass as a ``Fraction`` over q**n."""
    denom = p.denominator**n
    tails = direct_tail_numerators(n, p)
    return [(m, format_rational(Fraction(t - prev, denom)), format_rational(Fraction(t, denom)))
            for m, (prev, t) in enumerate(zip([0] + tails, tails))]


def _direct_half_greater(half, cutoff):
    return sum(math.comb(half, k) for k in range(cutoff + 1, half + 1))


@st.composite
def coin_models(draw):
    q = draw(st.integers(1, 12))
    eps_den = draw(st.sampled_from((2, 100, 1000, 10**6)))
    return be.BernoulliModel(
        draw(st.integers(1, 60)),
        Fraction(draw(st.integers(0, q)), q),  # p = 0 and p = 1 included
        Fraction(draw(st.integers(1, eps_den)), eps_den),
    )


@settings(max_examples=200, deadline=None)
@given(coin_models())
def test_one_pass_matches_direct_sums(model):
    n, p, eps = model.n, model.p, model.eps
    rows = _direct_rows(n, p)
    assert [format_rational(be.cumulative(model, m)) for m in range(n + 1)] == [row[2] for row in rows]
    assert list(be.tail_rows(model)) == rows
    assert be.tail_cutoff(model) == direct_tail_cutoff(n, p, eps)[0]

    fair_model = be.BernoulliModel(n, HALF, eps)
    cutoff, tail = direct_tail_cutoff(n, HALF, eps)
    if cutoff is None:
        with pytest.raises(ValueError):
            be.straddle_set_cardinality(fair_model)
    else:
        assert be.straddle_set_cardinality(fair_model) == math.ceil(eps * 2**n - tail)

    # n tosses are the half length of the even/odd analysis
    witness = be.even_odd_witness(be.BernoulliModel(2 * n, HALF, eps))
    assert witness.cutoff == cutoff
    if cutoff is None:
        assert witness.greater_count is None and witness.cross_count is None
    else:
        half_greater = _direct_half_greater(n, cutoff)
        assert witness.greater_count == half_greater * 2**n
        assert witness.cross_count == half_greater**2


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from((1, 6, 30, 60)), st.integers(1, 60)).flatmap(
        lambda q: st.tuples(st.integers(0, q), st.just(q))),  # p = 0 and p = 1 included
    st.integers(1, 80),
)
# a mass whose 2-adic valuation exceeds that of q**n: 16/216 at p = 5/6, n = 3
@example((5, 6), 3)
@example((3, 10), 3)
def test_tail_rows_spell_each_mass_in_lowest_terms(ratio, n):
    p = Fraction(*ratio)
    assert list(be.tail_rows(be.BernoulliModel(n, p, MILLI))) == _direct_rows(n, p)


@pytest.mark.parametrize("p", [HALF, Fraction(1, 3), Fraction(5, 6)])
def test_tail_rows_spelling_at_1000_tosses(p):
    assert list(be.tail_rows(be.BernoulliModel(1000, p, MILLI))) == _direct_rows(1000, p)


@pytest.mark.parametrize("p", [HALF, Fraction(1, 3), Fraction(5, 6)])
def test_one_pass_matches_direct_sums_at_2000_tosses(p):
    n = 2000
    assert list(be.tail_rows(be.BernoulliModel(n, p, MILLI))) == _direct_rows(n, p)
    for eps in (MILLI, Fraction(1, 100), HALF):
        model = be.BernoulliModel(n, p, eps)
        cutoff, tail = direct_tail_cutoff(n, p, eps)
        assert be.tail_cutoff(model) == cutoff
        assert be.cumulative(model, cutoff) == Fraction(tail, p.denominator**n)
        if p == HALF:
            assert be.straddle_set_cardinality(model) == math.ceil(eps * 2**n - tail)
            witness = be.even_odd_witness(be.BernoulliModel(2 * n, p, eps))
            half_greater = _direct_half_greater(n, cutoff)
            assert (witness.cutoff, witness.greater_count, witness.cross_count) == (
                cutoff, half_greater * 2**n, half_greater**2)


# ---------------------------------------------------------------------------
# Straddle sets and uniform primitive cardinality
# ---------------------------------------------------------------------------


def test_straddle_small_case():
    model = fair(10)
    assert be.straddle_set_cardinality(model) == 1


def test_straddle_sandwich_bound():
    for n in (10, 100, 1000):
        model = fair(n)
        size = be.straddle_set_cardinality(model)
        tail = be.cumulative(model, be.tail_cutoff(model))
        weight = HALF**n
        assert MILLI <= tail + size * weight < MILLI + weight


def test_straddle_errors():
    with pytest.raises(ValueError):
        be.straddle_set_cardinality(be.BernoulliModel(10, Fraction(1, 3), MILLI))
    with pytest.raises(ValueError):
        be.straddle_set_cardinality(fair(2))  # no cutoff at this threshold


def test_uniform_primitive_cardinality():
    assert be.uniform_primitive_cardinality(fair(4, Fraction(3, 16))) == 3
    assert be.uniform_primitive_cardinality(fair(4, Fraction(1, 16))) == 1
    expected = (2**1000 + 999) // 1000
    assert be.uniform_primitive_cardinality(fair(1000)) == expected
    with pytest.raises(ValueError):
        be.uniform_primitive_cardinality(be.BernoulliModel(4, Fraction(1, 3), MILLI))


def test_uniform_negligibility_is_cardinality():
    eps = Fraction(3, 16)
    model = fair(4, eps)
    theory = be.explicit_theory(model)
    cutoff_card = be.uniform_primitive_cardinality(model)
    space = theory.space
    for mask in range(1 << 16):
        if mask % 97:  # deterministic subsample of the 65536 events
            continue
        event = space.event_from_mask(mask)
        assert theory.is_negligible(event, eps) == (mask.bit_count() < cutoff_card)
    for mask in (0, 1, 0b11, 0b111, 0b1111, (1 << 16) - 1):
        event = space.event_from_mask(mask)
        assert theory.is_negligible(event, eps) == (mask.bit_count() < cutoff_card)


# ---------------------------------------------------------------------------
# Even/odd witness
# ---------------------------------------------------------------------------


def test_even_odd_witness_small_supported():
    eps = Fraction(5, 64)
    witness = be.even_odd_witness(be.BernoulliModel(8, HALF, eps))
    assert witness.cutoff == 0
    assert witness.primitive_cardinality == 20
    assert witness.greater_count == 240
    assert witness.cross_count == 225
    assert witness.greater_exceeds_eps
    assert witness.witness_supported
    assert witness.valuations == {"L_even": 0, "G_even": 1, "L_odd": 0, "G_odd": 0}
    assert len(witness.witness_histories) == 20
    assert witness.alternating == 0b10101010
    assert witness.alternating in witness.witness_histories


def test_even_odd_witness_materialized_up_to_the_explicit_cap():
    eps = Fraction(5, 64)
    witness = be.even_odd_witness(be.BernoulliModel(12, HALF, eps))
    assert witness.witness_supported and witness.cutoff == 0
    assert len(witness.witness_histories) == witness.primitive_cardinality == 320
    assert witness.alternating in witness.witness_histories
    even_mask, odd_mask = be.position_masks(12)
    assert all((h & even_mask).bit_count() > 0 for h in witness.witness_histories)
    assert any((h & odd_mask).bit_count() > 0 for h in witness.witness_histories)

    beyond = be.even_odd_witness(be.BernoulliModel(14, HALF, eps))
    assert beyond.witness_supported and beyond.cutoff == 1
    assert beyond.primitive_cardinality == 1280
    assert beyond.witness_histories is None


def test_even_odd_witness_no_cutoff_reports_cardinality():
    witness = be.even_odd_witness(be.BernoulliModel(8, HALF, Fraction(3, 256)))
    assert witness.cutoff is None
    assert witness.primitive_cardinality == 3
    assert witness.valuations is None


def test_even_odd_witness_validated_on_explicit_theory():
    eps = Fraction(5, 64)
    model = be.BernoulliModel(8, HALF, eps)
    witness = be.even_odd_witness(model)
    theory = be.explicit_theory(model)
    space = theory.space
    even_mask, odd_mask = be.position_masks(8)
    cutoff = witness.cutoff
    events = {
        "L_even": be.event_where(theory, lambda h: (h & even_mask).bit_count() <= cutoff),
        "G_even": be.event_where(theory, lambda h: (h & even_mask).bit_count() > cutoff),
        "L_odd": be.event_where(theory, lambda h: (h & odd_mask).bit_count() <= cutoff),
        "G_odd": be.event_where(theory, lambda h: (h & odd_mask).bit_count() > cutoff),
    }
    dual_mask = sum(1 << h for h in witness.witness_histories)
    phi = cv.CoEvent.from_dual(space.event_from_mask(dual_mask))
    for name, expected in witness.valuations.items():
        assert phi(events[name]) == expected
    assert cv.is_preclusive(phi, theory, eps)
    # the lower-tail event itself is ruled out, the greater tail is not
    assert theory.mu(events["L_even"]) < eps
    assert theory.mu(events["G_even"]) > eps


def test_even_odd_witness_errors():
    with pytest.raises(ValueError):
        be.even_odd_witness(be.BernoulliModel(7, HALF, MILLI))
    with pytest.raises(ValueError):
        be.even_odd_witness(be.BernoulliModel(8, Fraction(1, 3), MILLI))


def test_alternating_history_membership():
    # heads on even trials puts the history in the greater tail of the even
    # sub-experiment whenever the cutoff sits below the half length
    for n in (4, 8, 12):
        gamma = be.alternating_history(n)
        even_mask, odd_mask = be.position_masks(n)
        assert (gamma & even_mask).bit_count() == n // 2
        assert (gamma & odd_mask).bit_count() == 0


# ---------------------------------------------------------------------------
# Hypothesis testing and simulation
# ---------------------------------------------------------------------------


def test_hypothesis_test_examples():
    all_tails = be.TrialSequence("t" * 20)
    result = be.hypothesis_test(all_tails, HALF, MILLI)
    assert result.decision == "Reject" and result.rejected
    assert result.cumulative == Fraction(1, 2**20)
    all_heads = be.TrialSequence("h" * 20)
    result = be.hypothesis_test(all_heads, HALF, MILLI)
    assert result.decision == "FailToReject"
    assert result.cumulative == 1
    balanced = be.TrialSequence("h" * 10 + "t" * 10)
    result = be.hypothesis_test(balanced, HALF, MILLI)
    assert result.decision == "FailToReject"
    assert result.cumulative == Fraction(308333, 524288)


def test_simulate_determinism_and_regression():
    assert be.simulate(12, Fraction(1, 3), 42).outcomes == "hthhhttthhht"
    assert be.simulate(12, Fraction(1, 3), 42).outcomes == "hthhhttthhht"
    assert be.simulate(30, HALF, 7).outcomes == "thhthtthhhhthtttththhthhttttht"


def test_simulate_degenerate_probabilities():
    assert be.simulate(50, Fraction(1), 3).outcomes == "h" * 50
    assert be.simulate(50, Fraction(0), 3).outcomes == "t" * 50


def test_simulate_frequency_sanity():
    seq = be.simulate(2000, Fraction(1, 3), 5)
    assert abs(seq.heads / 2000 - 1 / 3) < 0.05


@st.composite
def heads_probabilities(draw):
    """p with a power-of-two denominator up to 2**70, with any denominator,
    or within 2**-64 of a multiple of 1/256, where the top byte of the
    threshold ties with a word's."""
    kind = draw(st.sampled_from(("dyadic", "any", "tie")))
    if kind == "dyadic":
        q = 1 << draw(st.integers(0, 70))
    elif kind == "any":
        q = draw(st.integers(1, 2**70))
    else:
        a = (draw(st.integers(0, 256)) << 56) + draw(st.integers(-1, 1))
        return Fraction(min(max(a, 0), 2**64), 2**64)
    return Fraction(draw(st.integers(0, q)), q)


SEEDS = st.integers(-(2**80), 2**80)
THRESHOLDS = st.integers(1, 1000).map(lambda k: Fraction(k, 1000))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), heads_probabilities(), SEEDS, THRESHOLDS, THRESHOLDS)
@example(100, HALF, 1, Fraction(1, 100), Fraction(1, 2))
def test_simulate_and_test_match_the_per_word_loop(n, p, seed, eps, other_eps):
    sequence = be.simulate(n, p, seed)
    assert sequence.outcomes == direct_simulate(n, p, seed)
    tail = Fraction(direct_tail_numerators(n, p)[sequence.heads], p.denominator**n)
    # the memoised tail is read again under another eps and with p spelled
    # as text ("1/2" for Fraction(1, 2)), and must not change with either
    for p0, threshold in ((p, eps), (p, other_eps), (str(p), eps), (p, eps)):
        result = be.hypothesis_test(sequence, p0, threshold)
        assert result.heads == sequence.heads
        assert result.cumulative == tail
        assert result.eps == threshold
        assert result.rejected == (tail < threshold)


@pytest.mark.parametrize("n", [be.SIMULATE_CHUNK_WORDS + d for d in (-1, 0, 1)])
@pytest.mark.parametrize("p, seed", [
    (Fraction(1, 3), 7), (Fraction(128, 256), -11), (Fraction(2**63 + 1, 2**64), 2**64 + 5),
])
def test_simulate_matches_the_per_word_loop_across_chunks(n, p, seed):
    assert be.simulate(n, p, seed).outcomes == direct_simulate(n, p, seed)


@pytest.mark.parametrize("n", [0, -3])
def test_simulate_refuses_an_empty_run(n):
    with pytest.raises(ValueError, match=r"^outcomes must be a nonempty string over \{h, t\}$"):
        be.simulate(n, HALF, 1)


@pytest.mark.parametrize("p", [Fraction(-1, 2), Fraction(3, 2), "-1/2", "3/2"])
def test_simulate_refuses_a_probability_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match=r"^heads probability must lie in \[0, 1\]$"):
        be.simulate(10, p, 1)


# ---------------------------------------------------------------------------
# Consistency with explicit theories
# ---------------------------------------------------------------------------


def test_symbolic_and_explicit_theories_agree():
    model = be.BernoulliModel(10, Fraction(2, 7), Fraction(1, 50))
    theory = be.explicit_theory(model)
    for h in (0, 3, 7, 10):
        lower = be.event_where(theory, lambda m, h=h: m.bit_count() <= h)
        exact = be.event_where(theory, lambda m, h=h: m.bit_count() == h)
        assert theory.mu(lower) == be.cumulative(model, h)
        assert theory.mu(exact) == be.prob_heads_count(model, h)
    single = theory.space.event_from_mask(1 << 0b1011011)
    assert theory.mu(single) == be.prob_history(model, (0b1011011).bit_count())


def test_explicit_theory_labels_and_cap():
    theory = be.explicit_theory(be.BernoulliModel(3, HALF, MILLI))
    assert theory.space.labels[0] == "ttt"
    assert theory.space.labels[0b101] == "hth"
    assert theory.space.labels[-1] == "hhh"
    with pytest.raises(SizeCapError):
        be.explicit_theory(be.BernoulliModel(13, HALF, MILLI))


def test_twelve_toss_explicit_theory_matches_symbolic_results():
    from qmeasure import partitions as pt

    eps = Fraction(1, 1000)
    model = be.BernoulliModel(12, HALF, eps)
    theory = be.explicit_theory(model)
    cutoff = be.tail_cutoff(model)
    lower = be.event_where(theory, lambda m: m.bit_count() <= cutoff)
    lower_next = be.event_where(theory, lambda m: m.bit_count() <= cutoff + 1)
    assert theory.mu(lower) == be.cumulative(model, cutoff) < eps
    assert theory.mu(lower_next) == be.cumulative(model, cutoff + 1) >= eps
    # minimal non-precluded cardinality drives the principle partition
    card = be.uniform_primitive_cardinality(model)
    sample = theory.space.event_from_mask((1 << card) - 1)
    assert not theory.is_negligible(sample, eps)
    assert theory.is_negligible(theory.space.event_from_mask((1 << (card - 1)) - 1), eps)
    collapsed, _ = pt.principle_classical_partition(theory, eps)
    expected = (
        pt.Partition.trivial(theory.space)
        if card >= 2
        else pt.Partition.singletons(theory.space)
    )
    assert collapsed == expected
