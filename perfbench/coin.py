"""cli-coin: CLI requests on the repeated-coin analytics.

``coin h-epsilon|straddle|even-odd`` at n from 1,000 to 8,000 tosses, where
the big-integer tail sums of ``bernoulli`` dominate; ``coin tail`` at n up
to 1,000, which prints a CSV of about a megabyte of exact rationals; and a
one-shot ``hypothesis`` at n from 1,000 to 4,000.  Most requests sit at the
low end of the range so that a run holds enough requests to resolve its
tail latency.  Straddle stops at 2,800 tosses and h-epsilon at p = 1/2 at
4,000, where one request already takes about a second.  The shapes of a round are fixed;
the seed moves each n within 5% and draws eps and the simulation seeds.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from . import oracles
from .harness import Plan, Request, run_cli

#: (action, p, n before jitter) of the requests above 1,600 tosses.
HEAVY = (
    ("even-odd", "1/2", 8000), ("h-epsilon", "1/3", 6000), ("straddle", "1/2", 2800),
    ("hypothesis", "1/2", 4000), ("h-epsilon", "1/2", 4000), ("h-epsilon", "1/3", 4000),
    ("even-odd", "1/2", 4000), ("straddle", "1/2", 2000), ("h-epsilon", "1/2", 2000),
    ("hypothesis", "1/3", 2000), ("h-epsilon", "1/3", 2800), ("tail", "1/2", 1000),
    ("tail", "1/3", 1000),
)

#: Shapes of the light requests, cycled at n rising from 1,000 to 1,675
#: (200 to 470 for tail).
LIGHT = (
    ("h-epsilon", "1/2"), ("h-epsilon", "1/3"), ("straddle", "1/2"), ("even-odd", "1/2"),
    ("hypothesis", "1/2"), ("hypothesis", "1/3"), ("tail", "1/3"), ("straddle", "1/2"),
)
LIGHT_PER_HEAVY = 6


def _round() -> list[tuple[str, str, int]]:
    """One round: six light requests before each heavy one."""
    shapes = []
    for i in range(len(HEAVY) * LIGHT_PER_HEAVY):
        action, p = LIGHT[i % len(LIGHT)]
        step = i // len(LIGHT)
        shapes.append((action, p, 200 + 30 * step if action == "tail" else 1000 + 75 * step))
        if i % LIGHT_PER_HEAVY == LIGHT_PER_HEAVY - 1:
            shapes.append(HEAVY[i // LIGHT_PER_HEAVY])
    return shapes


#: Rounds of distinct inputs generated at set-up, about 52 seconds at the
#: seed commit; the schedule cycles them.
ROUNDS = 8

EPS_CHOICES = ("1/1000", "1/100")


def _check_h_epsilon(n, p, eps):
    def check(code, text):
        got = json.loads(text)["h_epsilon"]
        want = oracles.tail_cutoff(n, p, eps)
        return None if got == want else f"h_epsilon {got}, expected {want}"
    return check


def _check_straddle(n, eps):
    def check(code, text):
        got = json.loads(text)["cardinality"]
        want = oracles.straddle_cardinality(n, eps)
        return None if got == want else f"cardinality {got}, expected {want}"
    return check


def _check_even_odd(n, eps):
    def check(code, text):
        out = json.loads(text)
        cutoff = oracles.tail_cutoff(n // 2, Fraction(1, 2), eps)
        card = math.ceil(eps * 2**n)
        if (out["trials"], out["half"], out["cutoff"], out["primitive_cardinality"]) != (
                n, n // 2, cutoff, card):
            return f"even-odd header {out['trials'], out['half'], out['cutoff']}"
        return None
    return check


def _check_tail(n, p):
    def check(code, text):
        lines = text.splitlines()
        if lines[0] != "H,P_N,P_L" or len(lines) != n + 2:
            return f"tail CSV has {len(lines)} lines"
        denominator = p.denominator**n
        previous = 0
        for (m, running), line in zip(oracles.tail_numerators(n, p, n), lines[1:]):
            heads, point, tail = line.split(",")
            if (int(heads) != m or Fraction(point) != Fraction(running - previous, denominator)
                    or Fraction(tail) != Fraction(running, denominator)):
                return f"tail row {m} differs"
            previous = running
        return None
    return check


def _check_hypothesis(n, p0, eps):
    def check(code, text):
        out = json.loads(text)
        tail = oracles.lower_tail(n, p0, out["heads"])
        if out["n"] != n or Fraction(out["cumulative"]) != tail:
            return f"lower tail at {out['heads']} heads differs"
        if out["decision"] != ("Reject" if tail < eps else "FailToReject"):
            return f"decision {out['decision']} at lower tail {float(tail):.3g}"
        return None
    return check


def _request(key: str, action: str, p_text: str, n: int, rng: random.Random) -> Request:
    eps_text = rng.choice(EPS_CHOICES)
    p, eps = Fraction(p_text), Fraction(eps_text)
    if action == "hypothesis":
        argv = ["hypothesis", "--n", str(n), "--p0", p_text, "--eps", eps_text,
                "--seed", str(rng.getrandbits(32)), "--format", "json"]
        check = _check_hypothesis(n, p, eps)
    else:
        argv = ["coin", action, "--n", str(n), "--p", p_text, "--eps", eps_text]
        if action != "tail":
            argv += ["--format", "json"]
        check = {
            "h-epsilon": lambda: _check_h_epsilon(n, p, eps),
            "straddle": lambda: _check_straddle(n, eps),
            "even-odd": lambda: _check_even_odd(n, eps),
            "tail": lambda: _check_tail(n, p),
        }[action]()
    return Request(key, lambda: run_cli(argv), check, stdout=True)


def setup(seed: int, workdir: Path) -> Plan:
    rng = random.Random(f"cli-coin:{seed}")
    schedule = []
    for r in range(ROUNDS):
        for t, (action, p_text, base) in enumerate(_round()):
            n = round(base * (1 + rng.uniform(-0.05, 0.05)))
            if action == "even-odd":
                n -= n % 2
            schedule.append(_request(f"r{r}.{t}.{action}", action, p_text, n, rng))
    return Plan(schedule, period=len(schedule) // ROUNDS)
