"""Symbolic analytics for n-fold repeated coin trials.

An n-fold repeated trial of a coin with heads probability p carries the
product measure on the 2**n outcome sequences.  Everything here is computed
over the single common denominator q**n (p = a/q), never by enumerating the
2**n sequences: lower-tail masses, the greatest heads count whose tail mass
stays below a threshold eps, the cardinality of the smallest event
straddling the eps line, and the even/odd-position witness showing that
tail co-events of one sub-experiment answer both tail propositions of the
other with "no".  All of them read one exact pass over the binomial terms,
each stepped from the last by an integer ratio; the straddle set and the
even/odd witness take their cutoff and its tail from a single pass.
``cumulative`` memoises its mass on (tosses, p, heads count), never on eps,
for the ``LOWER_TAIL_CACHE_SIZE`` most recently used keys, so a calibration
run of many trials of one coin walks each tail once, not once per trial.

Simulated trials read the Mersenne Twister seeded with the given seed: toss
i is heads exactly when the i-th word u that successive ``getrandbits(64)``
calls return satisfies u / 2**64 < p.  The words are drawn in chunks of
``SIMULATE_CHUNK_WORDS`` per ``getrandbits`` call, which yields the same
words in order, and the top byte of each word decides its toss except in the
one byte value that ties with the threshold's.

A small bridge to explicit theories is included for cross-checks: for a
modest number of tosses the full product space can be materialized as a
weights-backed histories theory whose histories are the outcome sequences.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import Event, HistoriesTheory, SampleSpace, SizeCapError
from .exact import ceil_rational, parse_rational, rational_parts

#: Explicit product theories (2**n histories) are refused above this many tosses.
EXPLICIT_TOSS_CAP = 12

#: 64-bit words drawn per ``getrandbits`` call in ``simulate``: 512 KiB of
#: draws held at a time, whatever the number of tosses.
SIMULATE_CHUNK_WORDS = 1 << 16

#: Lower-tail masses ``cumulative`` keeps, keyed on (tosses, p, heads count):
#: a run of 100-toss trials reads at most 101 of them.
LOWER_TAIL_CACHE_SIZE = 256


@dataclass(frozen=True)
class BernoulliModel:
    """An n-fold repeated coin: trial count, heads probability, threshold."""

    n: int
    p: Fraction
    eps: Fraction

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one trial")
        p, eps = parse_rational(self.p), parse_rational(self.eps)
        # a Fraction's denominator is positive
        if not 0 <= p.numerator <= p.denominator:
            raise ValueError("heads probability must lie in [0, 1]")
        if not 0 < eps.numerator <= eps.denominator:
            raise ValueError("threshold must lie in (0, 1]")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "eps", eps)


@dataclass(frozen=True)
class TrialSequence:
    """An ordered record of outcomes, one character per trial: 'h' or 't'."""

    outcomes: str

    def __post_init__(self):
        outcomes = self.outcomes
        if not outcomes or outcomes.count("h") + outcomes.count("t") != len(outcomes):
            raise ValueError("outcomes must be a nonempty string over {h, t}")

    @property
    def n(self) -> int:
        return len(self.outcomes)

    @property
    def heads(self) -> int:
        return self.outcomes.count("h")


def _check_heads(model: BernoulliModel, heads: int) -> None:
    # operator.index refuses a float count such as 2.0 with TypeError
    if not 0 <= operator.index(heads) <= model.n:
        raise ValueError(f"heads count {heads} out of range 0..{model.n}")


def prob_history(model: BernoulliModel, heads: int) -> Fraction:
    """Probability of one fixed sequence with the given heads count:
    p**H * (1-p)**(n-H)."""
    _check_heads(model, heads)
    return model.p ** heads * (1 - model.p) ** (model.n - heads)


def prob_heads_count(model: BernoulliModel, heads: int) -> Fraction:
    """Probability that the number of heads is exactly the given count."""
    _check_heads(model, heads)
    return math.comb(model.n, heads) * prob_history(model, heads)


def _tail_numerators(n: int, p: Fraction):
    """Yield the lower-tail numerators over q**n of n tosses for heads =
    0..n, where p = a/q, in one exact pass.

    The term C(n,m) * a**m * b**(n-m) (b = q - a) is stepped by the exact
    integer ratio t(m+1) = t(m) * (n-m) * a / ((m+1) * b).
    """
    a = p.numerator
    b = p.denominator - a
    if b == 0:  # p = 1: every toss lands heads
        yield from (int(m == n) for m in range(n + 1))
        return
    term = b**n
    running = 0
    for m in range(n + 1):
        running += term
        yield running
        term = term * (n - m) * a // ((m + 1) * b)


@functools.lru_cache(maxsize=LOWER_TAIL_CACHE_SIZE)
def _lower_tail(n: int, p: Fraction, heads: int) -> Fraction:
    running = next(itertools.islice(_tail_numerators(n, p), heads, None))
    return Fraction(running, p.denominator**n)


def cumulative(model: BernoulliModel, heads: int) -> Fraction:
    """Probability that the number of heads is at most the given count.

    Monotone nondecreasing in the count and equal to one at n.  The count
    zero term is included.  The mass is memoised on (n, p, heads), never on
    eps, for the ``LOWER_TAIL_CACHE_SIZE`` most recently used keys.  A count
    that is not an integer (2.0) raises TypeError.
    """
    _check_heads(model, heads)
    return _lower_tail(model.n, model.p, heads)


def _cutoff_and_tail(model: BernoulliModel) -> tuple[int | None, int]:
    """The tail cutoff and the lower-tail numerator over q**n at it (0 when
    there is no cutoff), from one pass."""
    # compare running / q**n < eps by integer cross-multiplication
    bound = model.eps.numerator * model.p.denominator**model.n
    cutoff, tail = None, 0
    for m, running in enumerate(_tail_numerators(model.n, model.p)):
        if running * model.eps.denominator >= bound:
            break
        cutoff, tail = m, running
    return cutoff, tail


def tail_cutoff(model: BernoulliModel) -> int | None:
    """The greatest heads count whose lower-tail mass is below the model's
    threshold, or None when even the count-zero tail already reaches it."""
    return _cutoff_and_tail(model)[0]


def tail_rows(model: BernoulliModel):
    """Yield (heads, point mass, lower-tail mass) rows from one pass, both
    masses spelled as ``format_rational`` spells them ("p/q" in lowest terms,
    or "p").

    A mass is x / q**n (p = a/q) and every prime of gcd(x, q**n) divides q,
    so the gcd is stripped off x by small gcds, against q and then against
    the square of the last factor (a high valuation takes a few steps), and
    capped at q**n.  Each reduced denominator is spelled once.
    """
    q = model.p.denominator
    denom = q**model.n
    spelled: dict[int, str] = {}  # gcd -> "/reduced denominator", "" for an integer

    def spell(x: int) -> str:
        if not x:
            return "0"
        g, rest, h = 1, x, math.gcd(x, q)
        while h > 1:
            g *= h
            rest //= h
            h = math.gcd(rest, h * h)
        g = math.gcd(g, denom)
        if g not in spelled:
            spelled[g] = f"/{denom // g}" if g != denom else ""
        return f"{x // g}{spelled[g]}"

    previous = 0
    for m, running in enumerate(_tail_numerators(model.n, model.p)):
        yield m, spell(running - previous), spell(running)
        previous = running


def _require_fair(model: BernoulliModel, what: str) -> None:
    if model.p != Fraction(1, 2):
        raise ValueError(f"{what} requires equal single-history weights (p = 1/2)")


def straddle_set_cardinality(model: BernoulliModel) -> int:
    """Cardinality of the smallest set of sequences that, added on top of the
    precluded lower tail, pushes the total mass back over the threshold.

    Only defined for the fair coin, whose sequences all weigh 2**-n: the
    answer is the least integer at least (eps - tail) / 2**-n.  The result S
    satisfies the exact sandwich  eps <= tail + |S| * 2**-n < eps + 2**-n.
    """
    _require_fair(model, "straddle-set cardinality")
    cutoff, tail = _cutoff_and_tail(model)
    if cutoff is None:
        raise ValueError("no tail cutoff exists at this threshold")
    return ceil_rational(model.eps * 2**model.n - tail)


def uniform_primitive_cardinality(model: BernoulliModel) -> int:
    """Minimal cardinality of an event that is not below the threshold under
    the fair product measure: the least integer at least eps * 2**n.  Events
    of smaller cardinality are precluded at the eps level and the events of
    exactly this cardinality are the duals of the primitive approximate
    co-events."""
    _require_fair(model, "uniform primitive cardinality")
    return ceil_rational(model.eps * 2**model.n)


# ---------------------------------------------------------------------------
# Even/odd sub-experiment witness
# ---------------------------------------------------------------------------

#: History encoding: bit i of a history mask records a heads outcome on trial
#: i+1.  "Even trials" are the 1-indexed even positions, i.e. odd bit indices.


def position_masks(n: int) -> tuple[int, int]:
    even = sum(1 << i for i in range(n) if (i + 1) % 2 == 0)
    odd = sum(1 << i for i in range(n) if (i + 1) % 2 == 1)
    return even, odd


def alternating_history(n: int) -> int:
    """The sequence with heads exactly on the even trials (mask form)."""
    even, _ = position_masks(n)
    return even


@dataclass(frozen=True)
class EvenOddWitness:
    """Certificate that a tail co-event of the even sub-experiment answers
    both tail propositions of the odd sub-experiment with 0.

    All counts are exact.  ``valuations`` gives the witness co-event's
    answers on the four tail events (lower/greater for even/odd); they are
    certified whenever ``witness_supported``.  Up to EXPLICIT_TOSS_CAP tosses,
    where ``explicit_theory`` can check it, the explicit dual is materialized
    as ``witness_histories``.
    """

    trials: int
    half: int
    eps: Fraction
    cutoff: int | None
    primitive_cardinality: int
    greater_count: int | None
    greater_exceeds_eps: bool | None
    cross_count: int | None
    witness_supported: bool | None
    valuations: dict[str, int] | None
    witness_histories: tuple[int, ...] | None
    alternating: int


def even_odd_witness(model: BernoulliModel) -> EvenOddWitness:
    """Analyse the even/odd coarse grainings of a fair repeated trial.

    Both sub-experiments share the same tail cutoff (same length, same
    threshold).  The witness co-event is dual to a set carved out of the
    even sub-experiment's "greater" tail: it contains the history with heads
    exactly on even trials (whose odd sub-history is all tails) plus at least
    one history whose odd heads count also clears the cutoff.  Such a dual
    answers the even tail events classically but maps both odd tail events
    to 0.
    """
    _require_fair(model, "even/odd witness")
    if model.n % 2 != 0:
        raise ValueError("even/odd analysis needs an even number of trials")
    half = model.n // 2
    cutoff, half_tail = _cutoff_and_tail(BernoulliModel(half, model.p, model.eps))
    card = uniform_primitive_cardinality(model)
    gamma = alternating_history(model.n)

    if cutoff is None:
        return EvenOddWitness(
            trials=model.n, half=half, eps=model.eps, cutoff=None,
            primitive_cardinality=card, greater_count=None,
            greater_exceeds_eps=None, cross_count=None,
            witness_supported=None, valuations=None,
            witness_histories=None, alternating=gamma,
        )

    # sequences of half-length with heads count above the cutoff
    half_greater = 2**half - half_tail
    greater_count = half_greater * 2**half
    greater_exceeds = greater_count > model.eps * 2**model.n
    cross_count = half_greater * half_greater
    supported = (
        card >= 2
        and greater_count >= card
        and cross_count >= 1
        and cutoff < half  # the alternating history lies in the even greater tail
    )
    valuations = (
        {"L_even": 0, "G_even": 1, "L_odd": 0, "G_odd": 0} if supported else None
    )

    witness: tuple[int, ...] | None = None
    if supported and model.n <= EXPLICIT_TOSS_CAP:
        even_mask, odd_mask = position_masks(model.n)
        greater = [h for h in range(1 << model.n) if (h & even_mask).bit_count() > cutoff]
        # gamma, one history whose odd heads count also clears the cutoff, and
        # the first remaining histories of the even greater tail
        cross = next(h for h in greater if (h & odd_mask).bit_count() > cutoff)
        rest = (h for h in greater if h not in (gamma, cross))
        witness = tuple(sorted([gamma, cross, *itertools.islice(rest, card - 2)]))

    return EvenOddWitness(
        trials=model.n, half=half, eps=model.eps, cutoff=cutoff,
        primitive_cardinality=card, greater_count=greater_count,
        greater_exceeds_eps=greater_exceeds, cross_count=cross_count,
        witness_supported=supported, valuations=valuations,
        witness_histories=witness, alternating=gamma,
    )


# ---------------------------------------------------------------------------
# Hypothesis testing and simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisTestResult:
    decision: str  # "Reject" | "FailToReject"
    heads: int
    cumulative: Fraction
    eps: Fraction

    @property
    def rejected(self) -> bool:
        return self.decision == "Reject"


def hypothesis_test(sequence: TrialSequence, p0, eps) -> HypothesisTestResult:
    """One-tailed test of the hypothesis "heads probability is p0".

    Rejects at the eps level when the lower-tail mass at the observed heads
    count falls below eps; a heads-heavy sequence therefore never rejects.
    """
    model = BernoulliModel(sequence.n, p0, eps)
    heads = sequence.heads
    tail = cumulative(model, heads)
    decision = "Reject" if tail < model.eps else "FailToReject"
    return HypothesisTestResult(decision, heads, tail, model.eps)


def simulate(n: int, p, seed: int) -> TrialSequence:
    """Deterministic i.i.d. Bernoulli draws.

    Toss i reads the i-th 64-bit word u that successive calls of
    ``random.Random(seed).getrandbits(64)`` return (the Mersenne Twister) and
    is heads exactly when u / 2**64 < p = a/q, i.e. when u is below
    bound = ceil(a * 2**64 / q); the threshold is exact.  The words are drawn
    ``SIMULATE_CHUNK_WORDS`` to a ``getrandbits`` call, which returns the same
    words with the first in the low bits.  A word's top byte decides its toss
    unless it equals the top byte of bound; that tie (about one toss in 256)
    compares the whole word.
    """
    a, q = rational_parts(p)
    if not 0 <= a <= q:
        raise ValueError("heads probability must lie in [0, 1]")
    if n < 1:
        raise ValueError("outcomes must be a nonempty string over {h, t}")
    bound = -(-a << 64) // q
    top = bound >> 56  # 256 when p = 1: every byte is below it
    by_top_byte = (b"h" * top + b"?" + b"t" * 255)[:256]
    draw = random.Random(seed).getrandbits
    chunks = []
    for start in range(0, n, SIMULATE_CHUNK_WORDS):
        k = min(SIMULATE_CHUNK_WORDS, n - start)
        words = draw(64 * k).to_bytes(8 * k, "little")
        tosses = bytearray(words[7::8].translate(by_top_byte))
        i = tosses.find(b"?")
        while i >= 0:
            tosses[i] = b"th"[int.from_bytes(words[8 * i:8 * i + 8], "little") < bound]
            i = tosses.find(b"?", i + 1)
        chunks.append(tosses.decode())
    return TrialSequence("".join(chunks))


# ---------------------------------------------------------------------------
# Bridge to explicit histories theories
# ---------------------------------------------------------------------------


def sequence_label(mask: int, n: int) -> str:
    """The outcome string of a history mask (bit i = heads on trial i+1)."""
    return "".join("h" if mask >> i & 1 else "t" for i in range(n))


def explicit_theory(model: BernoulliModel) -> HistoriesTheory:
    """Materialize the full product space as a weights-backed theory.

    Histories are the 2**n outcome sequences ordered by mask, so the history
    index in the sample space equals the history mask.  Refused above
    EXPLICIT_TOSS_CAP tosses.
    """
    if model.n > EXPLICIT_TOSS_CAP:
        raise SizeCapError(
            f"{model.n} tosses means 2**{model.n} histories; cap is {EXPLICIT_TOSS_CAP}"
        )
    size = 1 << model.n
    labels = tuple(sequence_label(mask, model.n) for mask in range(size))
    weights = [prob_history(model, mask.bit_count()) for mask in range(size)]
    return HistoriesTheory.from_weights(SampleSpace(labels), weights)


def event_where(theory: HistoriesTheory, predicate) -> Event:
    """The event of all histories whose mask satisfies the predicate (for
    theories built by explicit_theory, where index == history mask)."""
    mask = 0
    for h in range(theory.space.n):
        if predicate(h):
            mask |= 1 << h
    return theory.space.event_from_mask(mask)
