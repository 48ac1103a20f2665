"""Named reproduction checks: the package's worked numbers and property
batteries, each with an exact verdict and a wall-clock budget.

Every check is self-contained and deterministic (fixed seeds).  The CLI's
``paper-check`` subcommand runs them all and exits nonzero on any failure;
the test suite asserts them one by one.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import bernoulli as be
from . import coevents as cv
from . import dynamics as dy
from . import lattice
from . import partitions as pt
from .core import HistoriesTheory, SampleSpace

HALF = Fraction(1, 2)
MILLI = Fraction(1, 1000)


@dataclass(frozen=True)
class CheckResult:
    ident: str
    name: str
    passed: bool
    seconds: float
    budget: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.ident}: {self.name} "
            f"({self.seconds * 1000:.1f} ms of {self.budget * 1000:.0f} ms) {self.detail}"
        )


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------


def coin_theory(p) -> HistoriesTheory:
    """Single toss with heads probability p, over labels h and t."""
    p = Fraction(p)
    return HistoriesTheory.from_weights(SampleSpace.of("h", "t"), [p, 1 - p])


def three_path_theory() -> HistoriesTheory:
    """Three histories with amplitudes (1, -1, 1): pairwise destructive
    interference, null events {a,b} and {b,c}, and measure 4 on {a,c}."""
    amps = (1, -1, 1)
    return HistoriesTheory.from_decoherence(
        SampleSpace.of("a", "b", "c"), [[[x * y, 0] for y in amps] for x in amps])


def random_classical_theory(rng: random.Random, n: int, table_form: bool = True) -> HistoriesTheory:
    """Random additive measure with occasional zero-weight histories."""
    space = SampleSpace(tuple(f"g{i}" for i in range(n)))
    while True:
        raw = [0 if rng.random() < 0.25 else rng.randint(1, 8) for _ in range(n)]
        total = sum(raw)
        if total:
            break
    theory = HistoriesTheory.from_weights(space, [Fraction(r, total) for r in raw])
    if not table_form:
        return theory
    return HistoriesTheory.from_table(space, dict(enumerate(theory.full_table())))


def random_decoherence_theory(rng: random.Random, n: int) -> HistoriesTheory:
    """Random positive decoherence functional built from amplitude mixtures.

    Entries are sums of rank-one terms w_k v_i conj(v_j) with small random
    integer amplitudes v = a + ib, normalized so the full block sums to one;
    positivity of every block sum and Hermiticity hold by construction.
    """
    space = SampleSpace(tuple(f"g{i}" for i in range(n)))
    while True:
        rank = rng.randint(1, 2)
        weights = [rng.randint(1, 3) for _ in range(rank)]
        vectors = [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)] for _ in range(rank)]
        # D(Omega, Omega) = sum_k w_k |sum_i v_i|^2
        total = sum(w * (sum(a for a, _ in vec) ** 2 + sum(b for _, b in vec) ** 2)
                    for w, vec in zip(weights, vectors))
        if total:
            break
    terms = list(zip(weights, vectors))
    # v_i conj(v_j) = (a_i a_j + b_i b_j) + i (b_i a_j - a_i b_j)
    matrix = [[[Fraction(sum(w * (v[i][0] * v[j][0] + v[i][1] * v[j][1]) for w, v in terms), total),
                Fraction(sum(w * (v[i][1] * v[j][0] - v[i][0] * v[j][1]) for w, v in terms), total)]
               for j in range(n)] for i in range(n)]
    return HistoriesTheory.from_decoherence(space, matrix)


def _dual_masks(coevs) -> set[int]:
    return {phi.dual_mask for phi in coevs}


def _run(ident, name, budget, body) -> CheckResult:
    start = time.perf_counter()
    passed, detail = body()
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        passed = False
        detail += f" [over budget: {elapsed:.3f}s]"
    return CheckResult(ident, name, passed, elapsed, budget, detail)


# ---------------------------------------------------------------------------
# 1. Single-coin co-events
# ---------------------------------------------------------------------------


def check_coin_coevents() -> CheckResult:
    def body():
        coin = coin_theory(Fraction(1, 3))
        space = coin.space
        classical = cv.classical_coevents(coin)
        prims = cv.primitives(coin)
        omega_star = cv.dual(space.omega)
        truth_table = tuple(
            omega_star(space.event_from_mask(mask)) for mask in range(4)
        )
        ok = (
            _dual_masks(classical) == {0b01, 0b10}
            and _dual_masks(prims) == {0b01, 0b10}
            and truth_table == (0, 0, 0, 1)
        )
        return ok, f"classical={sorted(_dual_masks(classical))} primitives={sorted(_dual_masks(prims))} omega-table={truth_table}"

    return _run("1", "single coin: classical co-events, primitives, full-space dual table", 0.001, body)


# ---------------------------------------------------------------------------
# 2. Singleton preclusion thresholds (10 vs 9 trials)
# ---------------------------------------------------------------------------


def check_singleton_preclusion() -> CheckResult:
    def body():
        eps = MILLI
        # every sequence of a fair repeated trial has the same weight, so one
        # exact comparison per length decides all singletons at once
        w10 = be.prob_history(be.BernoulliModel(10, HALF, eps), 5)
        w9 = be.prob_history(be.BernoulliModel(9, HALF, eps), 4)
        ok = w10 < eps <= w9
        return ok, f"2**-10={w10} < {eps} <= 2**-9={w9}"

    result = _run("2", "singleton preclusion flips between 9 and 10 fair trials", 0.001, body)
    if not result.passed:
        return result
    # untimed cross-check on the explicit product theories with real co-events
    eps = MILLI
    for n, expect_ruled_out in ((10, True), (9, False)):
        theory = be.explicit_theory(be.BernoulliModel(n, HALF, eps))
        for singleton in theory.space.singletons():
            phi = cv.CoEvent.from_dual(singleton)
            if cv.is_preclusive(phi, theory, eps) == expect_ruled_out:
                return CheckResult(
                    result.ident, result.name, False, result.seconds, result.budget,
                    f"explicit check failed at n={n}, history {singleton.label()}",
                )
    return CheckResult(
        result.ident, result.name, True, result.seconds, result.budget,
        result.detail + "; explicit 2**10 and 2**9 theories agree",
    )


# ---------------------------------------------------------------------------
# 3. Tail cutoff of the thousand-toss fair coin
# ---------------------------------------------------------------------------


def check_tail_cutoff() -> CheckResult:
    def body():
        model = be.BernoulliModel(1000, HALF, MILLI)
        cutoff = be.tail_cutoff(model)
        below = be.cumulative(model, 450)
        above = be.cumulative(model, 451)
        ok = cutoff == 450 and below < MILLI <= above
        return ok, f"cutoff={cutoff}, tail(450)<1/1000<=tail(451): {below < MILLI <= above}"

    return _run("3", "thousand-toss tail cutoff is 450, certified exactly", 5.0, body)


# ---------------------------------------------------------------------------
# 4. Straddle-set cardinality
# ---------------------------------------------------------------------------


def _two_digit_mantissa(value: int) -> tuple[int, int]:
    digits = str(value)
    exponent = len(digits) - 1
    first3 = int(digits[:3].ljust(3, "0"))
    mantissa = (first3 + 5) // 10
    if mantissa == 100:
        mantissa = 10
        exponent += 1
    return mantissa, exponent


def check_straddle_cardinality() -> CheckResult:
    def body():
        model = be.BernoulliModel(1000, HALF, MILLI)
        size = be.straddle_set_cardinality(model)
        mantissa, exponent = _two_digit_mantissa(size)
        tail = be.cumulative(model, 450)
        weight = HALF**1000
        sandwich = MILLI <= tail + size * weight < MILLI + weight
        ok = (mantissa, exponent) == (14, 297) and sandwich
        return ok, f"|S| ~ {mantissa / 10:.1f}e{exponent}, sandwich exact: {sandwich}"

    return _run("4", "straddle set cardinality rounds to 1.4e297 with exact sandwich", 5.0, body)


# ---------------------------------------------------------------------------
# 5. Even/odd sub-experiment witness
# ---------------------------------------------------------------------------


def _tail_events(theory, n, cutoff):
    even_mask, odd_mask = be.position_masks(n)
    L_even = be.event_where(theory, lambda h: (h & even_mask).bit_count() <= cutoff)
    G_even = be.event_where(theory, lambda h: (h & even_mask).bit_count() > cutoff)
    L_odd = be.event_where(theory, lambda h: (h & odd_mask).bit_count() <= cutoff)
    G_odd = be.event_where(theory, lambda h: (h & odd_mask).bit_count() > cutoff)
    return L_even, G_even, L_odd, G_odd


def _small_scale_even_odd_ok() -> tuple[bool, str]:
    # (a) four tosses: full generic enumeration of the approximate primitives
    eps4 = Fraction(3, 16)
    theory4 = be.explicit_theory(be.BernoulliModel(4, HALF, eps4))
    duals = _dual_masks(cv.primitives(theory4, eps4))
    expected = {
        sum(1 << i for i in combo) for combo in combinations(range(16), 3)
    }
    if duals != expected:
        return False, "generic enumeration at 4 tosses disagrees with the 3-subsets"

    # (b) eight tosses, threshold 3/256: no tail cutoff exists, but the
    # primitive cardinality claim is checked against the explicit theory
    eps8 = Fraction(3, 256)
    model8 = be.BernoulliModel(8, HALF, eps8)
    witness8 = be.even_odd_witness(model8)
    if witness8.cutoff is not None or witness8.primitive_cardinality != 3:
        return False, "eight-toss threshold 3/256 report is wrong"
    theory8 = be.explicit_theory(model8)
    space8 = theory8.space
    weights = [theory8.mu_mask(1 << i) for i in range(space8.n)]
    if len(set(weights)) != 1:
        return False, "product theory is not exchangeable"
    # all events below cardinality three are ruled out, exhaustively
    for i in range(256):
        if cv.is_preclusive(cv.CoEvent.from_dual(space8.event_from_mask(1 << i)), theory8, eps8):
            return False, "a singleton survived at 3/256"
    for i, j in combinations(range(256), 2):
        ev = space8.event_from_mask((1 << i) | (1 << j))
        if not theory8.is_negligible(ev, eps8):
            return False, "a pair survived at 3/256"
    # a deterministic sample of 3-subsets is primitive (exchangeability
    # extends the verdict to all of them)
    rng = random.Random(8256)
    triples = list(combinations(range(18), 3)) + [
        tuple(sorted(rng.sample(range(256), 3))) for _ in range(500)
    ]
    for triple in triples:
        mask = sum(1 << i for i in triple)
        phi = cv.CoEvent.from_dual(space8.event_from_mask(mask))
        if not cv.is_preclusive(phi, theory8, eps8):
            return False, "a 3-subset failed preclusion at 3/256"
        for i in triple:
            if not theory8.is_negligible(space8.event_from_mask(mask ^ (1 << i)), eps8):
                return False, "a 3-subset was not minimal at 3/256"

    # (c) eight tosses, threshold 5/64: the full witness machinery runs and
    # its dual is validated with real co-event evaluations
    eps8b = Fraction(5, 64)
    model8b = be.BernoulliModel(8, HALF, eps8b)
    witness = be.even_odd_witness(model8b)
    if not (witness.cutoff == 0 and witness.witness_supported and witness.primitive_cardinality == 20):
        return False, "eight-toss threshold 5/64 witness not supported"
    theory8b = be.explicit_theory(model8b)
    space = theory8b.space
    events = _tail_events(theory8b, 8, witness.cutoff)
    mask = sum(1 << h for h in witness.witness_histories)
    phi = cv.CoEvent.from_dual(space.event_from_mask(mask))
    got = tuple(phi(event) for event in events)
    if got != (0, 1, 0, 0):
        return False, f"witness valuations {got} != (0, 1, 0, 0)"
    if not cv.is_preclusive(phi, theory8b, eps8b):
        return False, "witness dual is ruled out"
    for h in witness.witness_histories:
        if not theory8b.is_negligible(space.event_from_mask(mask ^ (1 << h)), eps8b):
            return False, "witness dual is not minimal"
    return True, "4-toss enumeration, 3/256 cardinality, and 5/64 witness all agree"


def check_even_odd_witness() -> CheckResult:
    def body():
        witness = be.even_odd_witness(be.BernoulliModel(2000, HALF, MILLI))
        ok = (
            witness.cutoff == 450
            and witness.greater_exceeds_eps is True
            and witness.witness_supported is True
            and witness.valuations == {"L_even": 0, "G_even": 1, "L_odd": 0, "G_odd": 0}
        )
        detail = f"cutoff={witness.cutoff}, greater tail exceeds eps: {witness.greater_exceeds_eps}"
        if not ok:
            return False, detail
        small_ok, small_detail = _small_scale_even_odd_ok()
        return small_ok, detail + "; " + small_detail

    return _run("5", "even/odd witness at 2000 tosses plus small-scale enumeration", 10.0, body)


# ---------------------------------------------------------------------------
# 6. Collapse of the uniform repeated trial
# ---------------------------------------------------------------------------


def check_uniform_collapse() -> CheckResult:
    def body():
        theory = be.explicit_theory(be.BernoulliModel(4, HALF, Fraction(3, 16)))
        coarse, _ = pt.principle_classical_partition(theory, Fraction(3, 16))
        fine, _ = pt.principle_classical_partition(theory, Fraction(1, 32))
        ok = (
            coarse == pt.Partition.trivial(theory.space)
            and fine == pt.Partition.singletons(theory.space)
        )
        return ok, f"eps=3/16 -> {coarse.size} block(s), eps=1/32 -> {fine.size} blocks"

    result = _run("6", "uniform four-toss trial: principle partition collapses at 3/16", 0.010, body)
    if not result.passed:
        return result
    # untimed: the generic lattice construction agrees with the closed form,
    # and the thousand-toss collapse is certified by the minimal cardinality
    theory = be.explicit_theory(be.BernoulliModel(4, HALF, Fraction(3, 16)))
    table_theory = HistoriesTheory.from_table(
        theory.space, dict(enumerate(theory.full_table()))
    )
    coarse_generic, _ = pt.principle_classical_partition(table_theory, Fraction(3, 16))
    fine_generic, _ = pt.principle_classical_partition(table_theory, Fraction(1, 32))
    classical_ok = pt.is_classical_wrt_M(theory, coarse_generic, Fraction(3, 16))
    big_m = be.uniform_primitive_cardinality(be.BernoulliModel(1000, HALF, MILLI))
    ok = (
        coarse_generic == pt.Partition.trivial(theory.space)
        and fine_generic == pt.Partition.singletons(theory.space)
        and classical_ok
        and big_m >= 2
    )
    detail = result.detail + f"; generic path agrees, thousand-toss minimal cardinality >= 2"
    return CheckResult(result.ident, result.name, ok, result.seconds, result.budget, detail)


# ---------------------------------------------------------------------------
# 7. Positive probability forces the three-event identity
# ---------------------------------------------------------------------------


def check_quadratic_obstruction() -> CheckResult:
    def body():
        space = SampleSpace.of("a", "b", "c")
        theory = HistoriesTheory.from_weights(space, [Fraction(1, 3)] * 3)
        candidates = [cv.CoEvent(space, dual_mask=m) for m in range(1, 8)]
        system = dy.build_feasibility(theory, candidates)
        solved = dy.solve_feasibility(system)
        if not solved.feasible:
            return False, "system unexpectedly infeasible"
        omega_star = cv.dual(space.omega)
        report = dy.is_quadratic(omega_star)
        witness_masks = (
            tuple(e.mask for e in report.witness) if report.witness else None
        )
        nonquadratic = [
            phi for phi in candidates if not dy.is_quadratic(phi).quadratic
        ]
        caps = [dy.max_probability(system, phi) for phi in nonquadratic]
        ok = (
            not report.quadratic
            and witness_masks == (0b001, 0b010, 0b100)
            and all(value == 0 for value in caps)
            and _dual_masks(nonquadratic) == {0b111}
        )
        return ok, (
            f"non-quadratic duals: {sorted(_dual_masks(nonquadratic))}, "
            f"max probabilities: {[str(v) for v in caps]}, witness {witness_masks}"
        )

    return _run("7", "probability on co-events vanishes off the quadratic identity", 0.100, body)


# ---------------------------------------------------------------------------
# 8. Property batteries
# ---------------------------------------------------------------------------


def _homomorphism_tables(n: int) -> set[int]:
    """Exhaustive search for nonzero ring homomorphisms over n histories;
    each table is a bitvector indexed by event mask."""
    size = 1 << n
    found = set()
    for bits in range(1, 1 << (size - 1)):
        table = bits << 1  # empty event fixed at 0
        ok = True
        for a in range(size):
            va = table >> a & 1
            for b in range(a, size):
                vb = table >> b & 1
                if (table >> (a ^ b) & 1) != va ^ vb:
                    ok = False
                    break
                if (table >> (a & b) & 1) != va & vb:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.add(table)
    return found


def _homomorphisms_ok() -> tuple[bool, str]:
    for n in range(1, 5):
        size = 1 << n
        expected = set()
        for i in range(n):
            table = 0
            for mask in range(size):
                if mask >> i & 1:
                    table |= 1 << mask
            expected.add(table)
        if _homomorphism_tables(n) != expected:
            return False, f"homomorphism search at n={n} disagrees with the singleton duals"
    return True, "homomorphisms = singleton duals up to n=4"


def _principal_filter_ok() -> tuple[bool, str]:
    for n in range(1, 6):
        space = SampleSpace(tuple(f"g{i}" for i in range(n)))
        size = 1 << n
        for dual_mask in range(1, size):
            phi = cv.CoEvent(space, dual_mask=dual_mask)
            affirmed = [m for m in range(size) if phi.value_mask(m)]
            affirmed_set = set(affirmed)
            for m in affirmed:
                for i in range(n):
                    if not m >> i & 1 and (m | 1 << i) not in affirmed_set:
                        return False, "affirmed family is not upward closed"
            for a in affirmed:
                for b in affirmed:
                    if a & b not in affirmed_set:
                        return False, "affirmed family is not intersection closed"
            meet = (1 << n) - 1
            for m in affirmed:
                meet &= m
            if meet != dual_mask or meet not in affirmed_set:
                return False, "filter minimum differs from the dual"
            for a in range(size):
                for b in range(size):
                    if phi.value_mask(a & b) != phi.value_mask(a) * phi.value_mask(b):
                        return False, "multiplicativity identity failed"
    # at n=3, the table co-events that pass the multiplicativity test are
    # exactly the duals
    space3 = SampleSpace.of("a", "b", "c")
    mult_tables = set()
    for bits in range(1, 1 << 7):
        true_masks = frozenset(m for m in range(1, 8) if bits >> (m - 1) & 1)
        phi = cv.CoEvent.from_table(space3, true_masks)
        if phi.is_multiplicative():
            mult_tables.add(phi.to_multiplicative().dual_mask)
            expected = frozenset(m for m in range(8) if phi.to_multiplicative().value_mask(m))
            if expected != true_masks:
                return False, "dual-form conversion changed the valuation"
    if mult_tables != set(range(1, 8)):
        return False, "multiplicative table co-events at n=3 are not the 7 duals"
    return True, "principal filters up to n=5"


def _classical_primitives_ok(rng: random.Random) -> tuple[bool, str]:
    for _ in range(100):
        n = rng.randint(2, 6)
        theory = random_classical_theory(rng, n, table_form=rng.random() < 0.5)
        if _dual_masks(cv.primitives(theory)) != _dual_masks(cv.classical_coevents(theory)):
            return False, "primitives differ from classical co-events on a classical measure"
    return True, "primitives = classical co-events on 100 random classical measures"


def _affirmation_coverage_ok(rng: random.Random) -> tuple[bool, str]:
    epsilons = [Fraction(0), Fraction(1, 7), Fraction(1, 13)]
    theories = []
    for _ in range(6):
        theories.append(random_classical_theory(rng, rng.randint(2, 6)))
        theories.append(random_decoherence_theory(rng, rng.randint(2, 6)))
    theories.append(three_path_theory())
    for theory in theories:
        size = 1 << theory.space.n
        for eps in epsilons:
            duals = theory.minimal_nonnegligible(eps)
            for mask in range(size):
                event = theory.space.event_from_mask(mask)
                if theory.is_negligible(event, eps):
                    continue
                if not any(d & ~mask == 0 for d in duals):
                    return False, f"non-negligible event {hex(mask)} contains no primitive dual"
    return True, "every non-negligible event affirms some primitive (eps in {0, 1/7, 1/13})"


def _defect_identities_ok() -> tuple[bool, str]:
    # all 128 truth tables over 3 histories, the zero map included
    n = 3
    size = 1 << n
    full = size - 1
    for bits in range(1 << (size - 1)):
        table = bits << 1

        def val(mask: int) -> int:
            return table >> mask & 1

        identity_everywhere = all(
            (val(a ^ b ^ c) ^ val(a ^ b) ^ val(b ^ c) ^ val(c ^ a) ^ val(a) ^ val(b) ^ val(c)) == 0
            for a in range(size) for b in range(size) for c in range(size)
        )
        zero_on_disjoint = True
        for a in range(size):
            for b in lattice.submasks(full ^ a):
                for c in lattice.submasks(full ^ a ^ b):
                    q = (val(a | b | c) + val(a | b) + val(b | c) + val(c | a)
                         + val(a) + val(b) + val(c)) % 2
                    r = (val(a | b | c) - val(a | b) - val(b | c) - val(c | a)
                         + val(a) + val(b) + val(c))
                    if q != 0:
                        zero_on_disjoint = False
                    if q != r % 2:
                        return False, "Z2 defect is not the integer defect mod 2"
        if identity_everywhere != zero_on_disjoint:
            return False, "disjoint-triple restriction is not equivalent to the full identity"
    # integer defect of multiplicative co-events stays in {0, 1} up to n=5
    for n in range(1, 6):
        space = SampleSpace(tuple(f"g{i}" for i in range(n)))
        full = (1 << n) - 1
        for dual_mask in range(1, 1 << n):
            phi = cv.CoEvent(space, dual_mask=dual_mask)
            for a in range(1 << n):
                for b in lattice.submasks(full ^ a):
                    for c in lattice.submasks(full ^ a ^ b):
                        triple = [space.event_from_mask(m) for m in (a, b, c)]
                        r = dy.real_defect(phi, *triple)
                        if r not in (0, 1):
                            return False, "integer defect outside {0,1} for a multiplicative co-event"
                        if r == 0 and dy.quadratic_defect(phi, *triple) != 0:
                            return False, "zero integer defect with nonzero Z2 defect"
    return True, "defect identities exhaustively verified (128 tables at n=3; duals to n=5)"


def _classical_on_oracle(phi: cv.CoEvent, partition: pt.Partition) -> bool:
    """Direct check that the restriction to the block subalgebra is a
    homomorphism (independent of the containment criterion)."""
    space = partition.space
    k = partition.size
    unions = []
    for mask in range(1 << k):
        u = 0
        for i in range(k):
            if mask >> i & 1:
                u |= partition.blocks[i].mask
        unions.append(u)
    values = {u: phi.value_mask(u) for u in unions}
    if all(v == 0 for v in values.values()):
        return False  # zero restriction is not a homomorphism
    for a in unions:
        for b in unions:
            if values[a ^ b] != values[a] ^ values[b]:
                return False
            if values[a & b] != values[a] & values[b]:
                return False
    return True


def _principle_partition_ok(rng: random.Random) -> tuple[bool, str]:
    for trial in range(100):
        n = rng.randint(2, 6)
        if rng.random() < 0.5:
            theory = random_classical_theory(rng, n)
        else:
            theory = random_decoherence_theory(rng, n)
        finest, fat = pt.principle_classical_partition(theory)
        if not pt.is_classical_wrt_M(theory, finest):
            return False, "constructed partition is not classical"
        seen = 0
        for fat_dual in fat.fat_duals:
            if fat_dual.mask & seen:
                return False, "fat duals overlap"
            seen |= fat_dual.mask
        duals = theory.minimal_nonnegligible(Fraction(0))
        for d in duals:
            owners = [f for f in fat.fat_duals if d & ~f.mask == 0]
            if len(owners) != 1:
                return False, "a primitive dual is not in exactly one fat dual"
        prims = cv.primitives(theory)
        for candidate in pt.iter_partitions(theory.space):
            classical = pt.is_classical_wrt_M(theory, candidate)
            oracle = all(_classical_on_oracle(phi, candidate) for phi in prims)
            containment = all(
                cv.is_classical_on(phi, candidate) for phi in prims
            )
            if classical != oracle or classical != containment:
                return False, "classicality criteria disagree"
            if classical and not pt.refines(finest, candidate):
                return False, "a classical partition is not refined by the principle partition"
    return True, "principle partition minimal/unique over 100 random measures"


def check_property_batteries() -> CheckResult:
    def body():
        rng = random.Random(20260810)
        for runner in (_homomorphisms_ok, _principal_filter_ok, _defect_identities_ok):
            ok, detail = runner()
            if not ok:
                return False, detail
        for runner in (_classical_primitives_ok, _affirmation_coverage_ok, _principle_partition_ok):
            ok, detail = runner(rng)
            if not ok:
                return False, detail
        return True, "all property batteries green"

    return _run("8", "property batteries: homomorphisms, filters, defects, principle partition", 60.0, body)


# ---------------------------------------------------------------------------
# 9. Interference hierarchy of decoherence functionals
# ---------------------------------------------------------------------------


def check_interference_hierarchy() -> CheckResult:
    def body():
        rng = random.Random(94)
        for _ in range(100):
            n = rng.randint(3, 6)
            theory = random_decoherence_theory(rng, n)
            if not theory.validate().valid:
                return False, "random decoherence functional failed validation"
            table = theory.full_table()
            full = (1 << n) - 1
            for a in range(1 << n):
                for b in lattice.submasks(full ^ a):
                    for c in lattice.submasks(full ^ a ^ b):
                        i3 = (
                            table[a | b | c]
                            - table[a | b] - table[b | c] - table[c | a]
                            + table[a] + table[b] + table[c]
                        )
                        if i3 != 0:
                            return False, f"third-order interference {i3} at ({hex(a)},{hex(b)},{hex(c)})"
            if theory.level() > 2:
                return False, "decoherence-backed theory above level 2"
        # diagonal functionals are additive, hence level one
        for _ in range(10):
            n = rng.randint(2, 5)
            classical = random_classical_theory(rng, n, table_form=False)
            diag = [[[classical.mu_mask(1 << i) if i == j else 0, 0] for j in range(n)] for i in range(n)]
            diag_theory = HistoriesTheory.from_decoherence(classical.space, diag)
            if diag_theory.level() != 1:
                return False, "diagonal decoherence functional not level one"
        return True, "100 random functionals: third-order interference vanishes, level <= 2"

    return _run("9", "interference hierarchy: level two from decoherence functionals", 30.0, body)


# ---------------------------------------------------------------------------
# 10. Rejection-rate calibration of the one-tailed test
# ---------------------------------------------------------------------------


def check_calibration() -> CheckResult:
    def body():
        eps = Fraction(1, 100)
        model = be.BernoulliModel(100, HALF, eps)
        cutoff = be.tail_cutoff(model)
        exact_mass = be.cumulative(model, cutoff) if cutoff is not None else Fraction(0)
        trials = 100_000
        rejections = 0
        for i in range(trials):
            sequence = be.simulate(100, HALF, seed=77_000_000 + i)
            if be.hypothesis_test(sequence, HALF, eps).rejected:
                rejections += 1
        freq = Fraction(rejections, trials)
        # |freq - mass| <= 3 * sqrt(mass (1 - mass) / trials), squared to stay exact
        gap = freq - exact_mass
        ok = gap * gap * trials <= 9 * exact_mass * (1 - exact_mass)
        return ok, (
            f"cutoff={cutoff}, exact mass={float(exact_mass):.5f}, "
            f"observed {rejections}/{trials}"
        )

    return _run("10", "one-tailed rejection rate matches the exact tail mass", 30.0, body)


ALL_CHECKS = (
    check_coin_coevents,
    check_singleton_preclusion,
    check_tail_cutoff,
    check_straddle_cardinality,
    check_even_odd_witness,
    check_uniform_collapse,
    check_quadratic_obstruction,
    check_property_batteries,
    check_interference_hierarchy,
    check_calibration,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
