import json
import random

import pytest

from perfbench import coin
from perfbench.harness import (
    Checker, Clock, Plan, Request, closed_loop, digest, execute, tail_latency,
)
from perfbench.run import EXPECTED


@pytest.mark.parametrize("n, percentile, rank", [
    (20, 50.0, 10),
    (99, 50.0, 50),
    (100, 90.0, 90),
    (999, 90.0, 900),
    (1000, 99.0, 990),
    (9999, 99.0, 9900),
    (10000, 99.9, 9990),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile, rank):
    samples = list(range(1, n + 1))
    random.Random(n).shuffle(samples)
    value, got_percentile, beyond = tail_latency(samples)
    assert (value, got_percentile, beyond) == (rank, percentile, n - rank)
    assert beyond >= 10


def test_tail_without_a_qualifying_percentile_is_the_maximum():
    assert tail_latency([3.0, 1.0, 2.0] * 6) == (3.0, 100.0, 0)


def _request(text, code=0, check=None):
    return Request("k", lambda: (code, text), check)


def _execute(request, checker):
    clock = Clock()
    clock.start()
    return execute(request, checker, clock)


def test_clock_rescales_intervals_to_the_nominal_reference():
    clock = Clock()
    # nine intervals at full speed, one at half speed with twice the work
    clock.intervals = [(1.0, 0.001)] * 9 + [(4.0, 0.002)]
    assert clock.scaled() == [1.0] * 9 + [2.0]


@pytest.mark.parametrize("period", [1, 3])
def test_closed_loop_stops_between_periods(period):
    plan = Plan([_request("hello")] * 2, period=period)
    sent = closed_loop(plan, 1e-9, Checker(None), Clock())
    assert len(sent) == period


def test_matching_digest_passes():
    checker = Checker({"k": digest(0, "hello")})
    _execute(_request("hello"), checker)
    assert (checker.attempted, checker.failed) == (1, 0)


@pytest.mark.parametrize("request_", [
    _request("hullo"),
    _request("hello", code=1),
    _request("hello", check=lambda code, text: "broken invariant"),
    Request("k", lambda: 1 / 0),
])
def test_each_kind_of_miss_counts_as_a_failure(request_):
    checker = Checker({"k": digest(0, "hello")})
    _execute(request_, checker)
    assert (checker.attempted, checker.failed) == (1, 1)


def test_unseeded_run_requires_repeated_keys_to_agree():
    outputs = iter(["a", "a", "b"])
    request = Request("k", lambda: (0, next(outputs)))
    checker = Checker(None)
    for _ in range(3):
        _execute(request, checker)
    assert (checker.attempted, checker.failed) == (3, 1)


def test_wrong_committed_digest_fails_a_real_request(tmp_path):
    committed = json.loads((EXPECTED / "cli-coin.json").read_text())["1"]
    request = coin.setup(1, tmp_path).schedule[0]
    assert request.key in committed
    good = Checker(committed)
    _execute(request, good)
    wrong = Checker({**committed, request.key: "0:0000000000000000"})
    _execute(request, wrong)
    assert (good.failed, wrong.failed) == (0, 1)
    assert "expected 0:0000000000000000" in wrong.messages[0]
