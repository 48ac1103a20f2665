"""battery: the Python API on small theories, as ``qmeasure.checks`` uses it.

Each theory request builds one seeded theory (decoherence form at n = 3..6,
table or weights form at n = 3..5) and puts it through the request shapes of criteria
7-10: validation and level, primitives and the principle classical
partition at eps 0 and a seeded eps, classification of every primitive,
classicality on a seeded partition, the quadratic scan of a seeded table
co-event, and feasibility over the primitive duals, singletons and pairs.
The decoherence theories at n = 5 have a feasible system, those at n = 6
do not.  Calibration requests run 1,000 simulated 100-toss trials through
the one-tailed test.  Here ``dynamics`` does most of the work and ``core`` runs
only at small n, so a lattice kernel that adds fixed cost shows here.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from qmeasure import bernoulli as be
from qmeasure import coevents as cv
from qmeasure import dynamics as dy
from qmeasure import partitions as pt
from qmeasure.core import HistoriesTheory, SampleSpace, theory_from_json

from . import oracles, theories
from .harness import Plan, Request

#: (form, n) of the theory requests in one round; a calibration request
#: follows every third.  Classical theories stop at n = 5: at n = 6 their
#: feasibility simplex takes 0.5 to 2 s depending on the weights, which
#: would make the figures depend on the seed.
ROUND = (
    ("decoherence", 6), ("table", 3), ("weights", 5), ("decoherence", 4),
    ("table", 5), ("weights", 3), ("decoherence", 5), ("table", 4),
    ("weights", 5), ("decoherence", 3), ("table", 5), ("weights", 4),
    ("decoherence", 6),
)

#: Whether the feasibility system of a decoherence theory of size n has a
#: solution.  Fixed so that every round holds the same mix: at n = 6 a
#: feasible system takes 2 to 4 s to solve and maximise, an infeasible one
#: 0.1 to 0.4 s, and a chance draw is feasible a few times in a hundred.
FEASIBLE_DECOHERENCE = {5: True, 6: False}

#: Rounds of distinct inputs generated at set-up, about 48 seconds at the
#: seed commit; the schedule cycles them.
ROUNDS = 40

CALIBRATION_TRIALS = 1000
CALIBRATION_TOSSES = 100
HALF = Fraction(1, 2)
CALIBRATION_EPS = Fraction(1, 100)


def _build(spec: theories.Theory):
    if spec.family == "weights":
        space = SampleSpace(tuple(spec.doc["histories"]))
        return HistoriesTheory.from_weights(space, spec.doc["weights"])
    return theory_from_json(spec.doc)


def _theory_request(key: str, spec: theories.Theory, rng: random.Random) -> Request:
    n = spec.n
    full = (1 << n) - 1
    eps_seeded = Fraction(rng.randint(1, 10), 40)
    blocks = theories.random_blocks(rng, n)
    if rng.random() < 0.5:
        true_masks = [m for m in range(1, full + 1) if rng.random() < 0.5] or [full]
    else:
        dual = 0
        while not 0 < dual.bit_count() <= 2:
            dual = theories.random_event(rng, n)
        true_masks = [m for m in range(1, full + 1) if dual & ~m == 0]
    pairs = {1 << i | 1 << j for i in range(n) for j in range(i + 1, n)}
    singletons = {1 << i for i in range(n)}
    phi_pick = rng.random()

    def run() -> tuple[int, str]:
        theory = _build(spec)
        space = theory.space
        report = theory.validate()
        out = {"valid": report.valid, "level": theory.level(), "eps": {}}
        for eps in (Fraction(0), eps_seeded):
            prims = cv.primitives(theory, eps)
            partition, fat = pt.principle_classical_partition(theory, eps)
            flags = [cv.classify(phi, theory, eps) for phi in prims]
            out["eps"][str(eps)] = {
                "primitives": [phi.dual_mask for phi in prims],
                "blocks": [b.mask for b in partition.blocks],
                "classes": list(fat.class_sizes),
                "classify": [[f.multiplicative, f.classical, f.preclusive, f.primitive]
                             for f in flags],
            }
        out["classical_wrt_M"] = pt.is_classical_wrt_M(
            theory, pt.Partition.of_masks(space, blocks), eps_seeded)
        quad = dy.is_quadratic(cv.CoEvent.from_table(space, true_masks))
        out["quadratic"] = [quad.quadratic, [e.mask for e in quad.witness or ()]]
        candidates = sorted(set(out["eps"]["0"]["primitives"]) | singletons | pairs)
        system = dy.build_feasibility(
            theory, [cv.CoEvent(space, dual_mask=m) for m in candidates])
        result = dy.solve_feasibility(system)
        out["candidates"] = candidates
        out["feasible"] = result.feasible
        if result.feasible:
            out["assignment"] = [str(x) for x in result.assignment]
            phi = candidates[int(phi_pick * len(candidates))]
            out["max"] = [phi, str(dy.max_probability(system, cv.CoEvent(space, dual_mask=phi)))]
        return 0, json.dumps(out, sort_keys=True)

    def check(code: int, text: str) -> str | None:
        out = json.loads(text)
        if not out["valid"]:
            return "theory failed validation"
        limit = 2 if spec.family == "decoherence" else 1
        if not 1 <= out["level"] <= limit:
            return f"level {out['level']}, expected at most {limit}"
        for eps, part in out["eps"].items():
            if not oracles.is_partition(part["blocks"], n):
                return f"principle blocks at eps {eps} do not partition"
        # the rows are the zeta transform of the assignment, so the only
        # candidate solution is the Moebius transform of the measure
        m = oracles.mobius(spec.table(), n)
        candidates = out["candidates"]
        support = {d for d in range(1, full + 1) if m[d] != 0}
        feasible = support <= set(candidates) and all(m[d] >= 0 for d in support)
        if out["feasible"] != feasible:
            return f"feasible = {out['feasible']}, Moebius transform says {feasible}"
        if feasible:
            if [Fraction(x) for x in out["assignment"]] != [m[d] for d in candidates]:
                return "assignment is not the Moebius transform"
            phi, value = out["max"]
            if Fraction(value) != m[phi]:
                return f"max probability of {hex(phi)} is {value}, expected {m[phi]}"
        return None

    return Request(key, run, check)


class Calibration:
    """Rejections of the one-tailed test over the run's distinct trials.

    The rejection rate must stay within three standard deviations of the
    exact lower-tail mass at the cutoff, squared to stay exact as in
    criterion 10.
    """

    def __init__(self):
        self.cutoff = oracles.tail_cutoff(CALIBRATION_TOSSES, HALF, CALIBRATION_EPS)
        self.mass = oracles.lower_tail(CALIBRATION_TOSSES, HALF, self.cutoff)
        self.rejections: dict[str, int] = {}

    def request(self, key: str, first_seed: int) -> Request:
        def run() -> tuple[int, str]:
            heads = []
            rejected = 0
            for seed in range(first_seed, first_seed + CALIBRATION_TRIALS):
                sequence = be.simulate(CALIBRATION_TOSSES, HALF, seed)
                if be.hypothesis_test(sequence, HALF, CALIBRATION_EPS).rejected:
                    rejected += 1
                heads.append(sequence.heads)
            return 0, json.dumps({"rejected": rejected, "heads": heads})

        def check(code: int, text: str) -> str | None:
            out = json.loads(text)
            expected = sum(h <= self.cutoff for h in out["heads"])
            if out["rejected"] != expected:
                return f"{out['rejected']} rejections, {expected} trials at or below the cutoff"
            self.rejections[key] = out["rejected"]
            return None

        return Request(key, run, check)

    def finish(self) -> list[str]:
        trials = CALIBRATION_TRIALS * len(self.rejections)
        if not trials:
            return []
        gap = Fraction(sum(self.rejections.values()), trials) - self.mass
        if gap * gap * trials <= 9 * self.mass * (1 - self.mass):
            return []
        return [f"calibration: rejection rate {float(gap + self.mass):.5f} is more than "
                f"3 sigma from the exact mass {float(self.mass):.5f} over {trials} trials"]


def setup(seed: int, workdir: Path) -> Plan:
    rng = random.Random(f"battery:{seed}")
    calibration = Calibration()
    schedule: list[Request] = []
    for r in range(ROUNDS):
        for t, (form, n) in enumerate(ROUND):
            if form == "decoherence":
                spec = theories.decoherence(rng, n, rank=1 + (r + t) % 2,
                                            feasible=FEASIBLE_DECOHERENCE.get(n))
            elif form == "table":
                spec = theories.classical(rng, n)
            else:
                spec = theories.weights_theory(rng, n)
            schedule.append(_theory_request(f"r{r}.{t}.{form}{n}", spec, rng))
            if t % 3 == 2:
                schedule.append(calibration.request(f"r{r}.{t}.calibration", rng.getrandbits(48)))
    return Plan(schedule, calibration.finish, period=len(schedule) // ROUNDS)
