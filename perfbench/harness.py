"""The closed loop shared by every workload.

One client sends one request at a time and waits for it, with no threads.
Each request is timed on its own; its output is checked after the clock
stops, so checking costs no measured time.  A request fails when it raises,
exits with a nonzero code, breaks an invariant, or produces output whose
digest differs from the expected one.

On a shared two-CPU virtual machine (Intel Xeon, Python 3.11) each CPU
switches between a fast and a slow state, about 1.7 times slower, every
fraction of a second to a few seconds, and the share of slow time changes
from run to run.  So every timed interval is bracketed by a fixed reference
computation, and ``Clock.scaled`` rescales each interval to a nominal
machine on which the reference takes ``NOMINAL_REFERENCE_S``.  A fixed
nominal speed keeps the scale the same in every run, whatever share of it
was slow.  A change in the program moves the intervals but not the
references, so it still shows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

#: Percentiles, in tenths of a percent, that the tail latency may report.
TAIL_LADDER = (500, 900, 990, 999)

#: A percentile qualifies only when at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10

#: Intervals are rescaled to a machine on which one reference takes this
#: long; on the machine above it takes 1.1 to 2 ms.
NOMINAL_REFERENCE_S = 0.001

#: A run stops after this multiple of its seconds of unscaled request time
#: even if its rescaled time falls short.
RAW_LIMIT = 1.5


@dataclass
class Request:
    """One request of a workload's schedule.

    ``key`` names the request uniquely within the workload's input pool, so
    the same key always carries the same output.  ``run`` returns the exit
    code and the output text; ``check`` returns a message when an invariant
    fails.  ``stdout`` marks requests whose output is the CLI's stdout.
    """

    key: str
    run: Callable[[], tuple[int, str]]
    check: Callable[[int, str], str | None] | None = None
    stdout: bool = False


@dataclass
class Plan:
    """A workload's schedule, cycled by the closed loop, and its whole-run
    invariants, which return one message per failure.  A run stops only
    after a multiple of ``period`` requests, so that it holds whole
    periods of the schedule's mix."""

    schedule: list[Request]
    finish: Callable[[], list[str]] = lambda: []
    period: int = 1


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python exact arithmetic, one to
    two milliseconds: how fast the machine runs right now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


class Clock:
    """Timed intervals, each with the mean of the references just before
    and just after it."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []
        self._before: float | None = None

    def start(self) -> None:
        self._before = reference()

    def stop(self, seconds: float) -> None:
        after = reference()
        self.intervals.append((seconds, (self._before + after) / 2))
        self._before = after

    def scaled(self) -> list[float]:
        """Every interval rescaled to the nominal reference time."""
        return [seconds * NOMINAL_REFERENCE_S / ref for seconds, ref in self.intervals]


def digest(code: int, text: str) -> str:
    """The recorded form of one output: exit code and a short SHA-256."""
    return f"{code}:{hashlib.sha256(text.encode()).hexdigest()[:16]}"


@dataclass
class Checker:
    """Checks every output against the committed digest when the seed has
    one, else against the first output seen for the same key in this run."""

    expected: dict[str, str] | None
    seen: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def verify(self, request: Request, code: int | None, text: str, error: str | None) -> bool:
        self.attempted += 1
        problem = error
        if problem is None:
            got = digest(code, text)
            if self.expected is not None:
                want = self.expected.get(request.key, "missing")
            else:
                want = self.seen.setdefault(request.key, got)
            if code != 0:
                problem = f"exit code {code}"
            elif got != want:
                problem = f"digest {got}, expected {want}"
            elif request.check is not None:
                problem = request.check(code, text)
        if problem is not None:
            self.fail(f"{request.key}: {problem}")
            return False
        return True


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``qmeasure.cli.main`` in process with stdout and stderr captured.

    ``main`` is looked up on every call, so a traced run sees its wrapper.
    A nonzero exit code carries stderr in the text, for the failure report.
    """
    import qmeasure.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qmeasure.cli.main(argv)
    return code, out.getvalue() if code == 0 else out.getvalue() + err.getvalue()


def execute(request: Request, checker: Checker, clock: Clock) -> str:
    """Run one request on the clock, check it off the clock, and return its
    output text."""
    start = time.perf_counter()
    try:
        code, text = request.run()
        error = None
    except Exception as exc:  # a raising request is a failed request
        code, text, error = None, "", f"raised {exc!r}"
    clock.stop(time.perf_counter() - start)
    checker.verify(request, code, text, error)
    return text


def closed_loop(plan: Plan, seconds: float, checker: Checker, clock: Clock) -> list[Request]:
    """Send the schedule's requests in order, cycling, in whole periods of
    the plan, and stop at the end of the period nearest to ``seconds`` of
    rescaled request time, or to ``RAW_LIMIT`` times ``seconds`` of
    unscaled time if that comes first.  Counting rescaled time keeps the
    length of a run the same however slow the machine is, and whole periods
    keep its mix the same.  Returns the requests sent."""
    schedule = plan.schedule
    sent: list[Request] = []
    busy = raw = 0.0
    clock.start()
    while True:
        if sent and len(sent) % plan.period == 0:
            # one more half period, at the mean period so far
            more = 1 + 0.5 / (len(sent) // plan.period)
            if busy * more >= seconds or raw * more >= RAW_LIMIT * seconds:
                return sent
        request = schedule[len(sent) % len(schedule)]
        execute(request, checker, clock)
        sent.append(request)
        latency, ref = clock.intervals[-1]
        busy += latency * NOMINAL_REFERENCE_S / ref
        raw += latency


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Uses the nearest-rank percentile: rank ``ceil(p * n)`` of the sorted
    samples.  Returns (value, percentile, samples beyond it).  With fewer
    than twenty samples no percentile qualifies and the maximum is returned
    as the 100th percentile with nothing beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = (ordered[-1], 100.0, 0)
    for per_mille in TAIL_LADDER:
        rank = -(-per_mille * n // 1000)
        beyond = n - rank
        if rank >= 1 and beyond >= TAIL_MIN_BEYOND:
            best = (ordered[rank - 1], per_mille / 10, beyond)
    return best
