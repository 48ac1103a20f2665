"""cli-lattice: CLI requests on theories near the enumeration cap.

Every request is an in-process ``qmeasure.cli.main(argv)`` call that reloads
its theory file, as a CLI user pays.  A round visits one theory of each
(family, size) in ``THEORIES``, its requests interleaved theory by theory.
Sizes are fixed; the seed draws the measures, events, blocks and eps
levels, so each seed costs about the same.  The cheap per-event ``--mu``
requests sit beside the lattice scans, so work moved into theory loading
shows in the median latency.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from . import oracles, theories
from .harness import Plan, Request, run_cli

#: Theories of one round, about 17 seconds at the nominal speed of
#: ``harness.py`` at the seed commit.  A run sends whole rounds.
THEORIES = (
    ("decoherence", 14), ("classical", 12), ("uniform", 13), ("feasibility", 7),
    ("decoherence", 11), ("classical", 14), ("uniform", 12), ("decoherence", 13),
    ("feasibility", 6), ("classical", 13), ("decoherence", 12),
)

#: Rounds of distinct theories written at set-up; the schedule cycles them.
ROUNDS = 2


#: ``measure --mu`` requests per theory.
MU_REQUESTS = 16

EPS_CHOICES = ("0", "1/100", "1/20", "1/10")
UNIFORM_EPS = "1/2"


def _json_check(test):
    def check(code: int, text: str) -> str | None:
        return test(json.loads(text))
    return check


def _mu_request(key, path, theory: theories.Theory, rng: random.Random) -> Request:
    n = theory.n
    events = [theories.random_event(rng, n) for _ in range(2)]
    group = theories.disjoint_events(rng, n, rng.randint(2, 3))
    argv = ["measure", "--theory", path, "--format", "json"]
    for mask in events:
        argv += ["--mu", hex(mask)]
    argv += ["--interference", ",".join(hex(m) for m in group)]

    def test(payload):
        for mask in events:
            if Fraction(payload["mu"][hex(mask)]) != theory.mu(mask):
                return f"mu({hex(mask)}) = {payload['mu'][hex(mask)]}"
        expected = Fraction(0)
        for subset in range(1, 1 << len(group)):
            union = sum(m for i, m in enumerate(group) if subset >> i & 1)
            sign = -1 if (len(group) - subset.bit_count()) % 2 else 1
            expected += sign * theory.mu(union)
        if Fraction(payload["interference"][0]["value"]) != expected:
            return f"interference {payload['interference'][0]['value']} != {expected}"
        return None

    return Request(key, lambda: run_cli(argv), _json_check(test), stdout=True)


def _theory_requests(prefix: str, path: str, family: str, theory: theories.Theory,
                     rotate: int, rng: random.Random) -> list[Request]:
    n = theory.n
    eps = UNIFORM_EPS if family == "uniform" else rng.choice(EPS_CHOICES)
    additive = theory.weights is not None
    blocks = theories.random_blocks(rng, n)

    def cli(name, argv, test=None):
        argv = [argv[0], "--theory", path, "--format", "json"] + argv[1:]
        return Request(f"{prefix}.{name}", lambda: run_cli(argv),
                       _json_check(test) if test else None, stdout=True)

    def valid(payload):
        return None if payload["valid"] else f"invalid: {payload['violations'][:1]}"

    def level(payload):
        limit = 1 if additive else 2
        return None if payload["level"] <= limit else f"level {payload['level']} > {limit}"

    def primitives(payload):
        duals = [int(d["dual"], 16) for d in payload]
        if family == "uniform":
            size = math.ceil(n / 2)
            if len(duals) != math.comb(n, size) or any(d.bit_count() != size for d in duals):
                return f"{len(duals)} primitive duals, expected all {size}-subsets"
        elif additive and eps == "0":
            positive = [1 << i for i in range(n) if theory.weights[i] > 0]
            if duals != positive:
                return "primitive duals are not the positive-weight singletons"
        return None

    def principle(payload):
        blocks_out = [int(b, 16) for b in payload["blocks"]]
        return None if oracles.is_partition(blocks_out, n) else "principle blocks do not partition"

    def classical_m(payload):
        if additive and eps == "0" and payload["classical-m"] is not True:
            return "classical measure at eps 0 must be classical on every partition"
        if family == "uniform" and payload["classical-m"] is not False:
            return "uniform measure at eps 1/2 is classical only on the trivial partition"
        return None

    scans = [
        cli("validate", ["validate"], valid),
        cli("level", ["measure", "--level"], level),
        cli("primitives", ["primitives", "--eps", eps], primitives),
        cli("principle", ["partition", "--principle", "--eps", eps], principle),
        cli("classical-m", ["partition", "--blocks", ",".join(hex(b) for b in blocks),
                            "--check", "classical-m", "--eps", eps], classical_m),
    ]
    if family == "feasibility":
        # classical measure: the Moebius transform is the weights on the
        # singletons, so the unique assignment puts each weight on its
        # singleton co-event and nothing elsewhere
        duals = ",".join(hex(m) for m in range(1, 1 << n))
        phi = theories.random_event(rng, n) if rng.random() < 0.5 else 1 << rng.randrange(n)

        def assigned(mask):
            return theory.weights[mask.bit_length() - 1] if mask.bit_count() == 1 else 0

        def solve(payload):
            if payload["status"] != "feasible":
                return "classical all-dual system is infeasible"
            wrong = [m for m, v in payload["assignment"].items()
                     if Fraction(v) != assigned(int(m, 16))]
            return f"assignment differs at {wrong[:3]}" if wrong else None

        def maximum(payload):
            got = Fraction(payload["max_probability"])
            return None if got == assigned(phi) else f"max probability {got} != {assigned(phi)}"

        scans += [
            cli("solve", ["feasibility", "solve", "--duals", duals], solve),
            cli("max", ["feasibility", "max", "--duals", duals, "--phi", hex(phi)], maximum),
        ]
    # spread the cheap --mu requests between the scans, and start each
    # theory at another scan so that scans of one kind do not run together
    rotate %= len(scans)
    scans = scans[rotate:] + scans[:rotate]
    mus = [_mu_request(f"{prefix}.mu{i}", path, theory, rng) for i in range(MU_REQUESTS)]
    share = -(-MU_REQUESTS // len(scans))
    requests = []
    for i, scan in enumerate(scans):
        requests += [scan] + mus[i * share:(i + 1) * share]
    return requests


def setup(seed: int, workdir: Path) -> Plan:
    rng = random.Random(f"cli-lattice:{seed}")
    schedule: list[Request] = []
    for r in range(ROUNDS):
        per_theory = []
        for t, (family, n) in enumerate(THEORIES):
            if family == "decoherence":
                theory = theories.decoherence(rng, n, rank=1 + t % 2)
            elif family == "uniform":
                theory = theories.uniform(n)
            else:
                theory = theories.classical(rng, n)
            path = workdir / f"r{r}-{t}-{family}{n}.json"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(theory.doc, handle)
            theory.doc = None
            per_theory.append(
                _theory_requests(f"r{r}.{t}.{family}{n}", str(path), family, theory, t, rng))
        schedule += [requests[j] for j in range(max(map(len, per_theory)))
                     for requests in per_theory if j < len(requests)]
    return Plan(schedule, period=len(schedule) // ROUNDS)

