"""Run one qmeasure benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli-lattice|battery|cli-coin
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports qmeasure from ``src/`` of
the same checkout and writes its inputs under ``.perfbench-work/``, which it
removes on exit.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a report with the tail percentile, sample counts, failure messages, the
Python version and the CPU count.

``--trace 0`` measures the end-to-end metrics, each interval rescaled to
the machine speed as ``harness.py`` describes.  ``--trace 1`` runs the
schedule for half the time untraced, then runs the same requests again with
every layer's public functions wrapped, and reports per-layer metrics and
the tracing overhead.  ``--record`` runs every request of the input pool on
the committed seeds and rewrites their expected digests.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected"
WORKLOADS = ("cli-lattice", "battery", "cli-coin")

#: The default seed and a held-out seed; both have committed digests.
COMMITTED_SEEDS = (1, 2027)

#: Set-up runs per measurement; setup_s is their median.
SETUP_PROBES = 9


def _workload(name: str):
    from perfbench import battery, coin, lattice

    return {"cli-lattice": lattice, "battery": battery, "cli-coin": coin}[name]


def _setup_probes(args, workdir: Path, clock) -> None:
    """Time from process start to the first request, over fresh processes
    that import qmeasure, generate the inputs and write them.  Each probe
    times the reference itself, because it may run on another CPU than
    this process, at another speed."""
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"probe-{k}"
        start = time.time()
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe", str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        ready, ref = map(float, done.stdout.split()[-2:])
        clock.intervals.append((ready - start, ref))
        shutil.rmtree(probe_dir, ignore_errors=True)


def _expected(workload: str) -> dict:
    """Committed digests of the workload, by seed and request key."""
    path = EXPECTED / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(args, plan, checker, workdir: Path):
    from perfbench.harness import Clock, closed_loop, tail_latency

    clock = Clock()
    _setup_probes(args, workdir, clock)
    gc.collect()
    closed_loop(plan, args.seconds, checker, clock)
    scaled = clock.scaled()
    setup, latencies = scaled[:SETUP_PROBES], scaled[SETUP_PROBES:]
    tail, percentile, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "throughput_rps": _metric(len(latencies) / sum(latencies), "1/s"),
        "latency_p50_s": _metric(statistics.median(latencies), "s"),
        "latency_tail_s": _metric(tail, "s"),
        "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    raw = [seconds for seconds, _ in clock.intervals[SETUP_PROBES:]]
    report = {"tail_percentile": percentile, "samples": len(latencies),
              "samples_beyond_tail": beyond, "setup_samples_s": setup,
              "unscaled_request_s": sum(raw), "scaled_request_s": sum(latencies)}
    return metrics, report


def _traced(args, plan, checker):
    from perfbench.harness import Clock, closed_loop, execute
    from perfbench.tracing import Tracer

    clock = Clock()
    gc.collect()
    sent = closed_loop(plan, args.seconds / 2, checker, clock)
    tracer = Tracer()
    tracer.install()
    try:
        clock.start()
        for request in sent:
            text = execute(request, checker, clock)
            tracer.end_request()
            if request.stdout:
                tracer.count("cli.stdout_bytes", len(text.encode()))
    finally:
        tracer.uninstall()
    scaled = clock.scaled()
    untraced, traced = sum(scaled[:len(sent)]), sum(scaled[len(sent):])
    metrics = {name: _metric(value, unit) for name, (value, unit) in tracer.metrics().items()}
    metrics["trace.overhead_ratio"] = _metric(traced / untraced - 1, "ratio")
    report = {"requests_per_pass": len(sent), "untraced_s": untraced, "traced_s": traced}
    return metrics, report


def _record(args, workdir: Path) -> int:
    """Run every request of the pool once per committed seed and store the
    digests.  Refuses to record an output that fails its own checks."""
    from perfbench.harness import Checker, Clock, execute

    expected = {}
    for seed in COMMITTED_SEEDS:
        (workdir / f"record-{seed}").mkdir()
        plan = _workload(args.workload).setup(seed, workdir / f"record-{seed}")
        checker = Checker(None)
        digests = {}
        clock = Clock()
        clock.start()
        for request in plan.schedule:
            execute(request, checker, clock)
            digests[request.key] = checker.seen[request.key]
        for message in plan.finish():
            checker.fail(message)
        if checker.failed:
            print("\n".join(checker.messages), file=sys.stderr)
            return 1
        expected[str(seed)] = digests
    EXPECTED.mkdir(exist_ok=True)
    path = EXPECTED / f"{args.workload}.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=COMMITTED_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qmeasure" / "__init__.py").is_file():
        print(f"error: no qmeasure sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    if args.setup_probe:
        from perfbench.harness import reference

        # the fastest of three references, so that a first, unspecialised
        # pass or a preemption does not count; their own time is left out
        timing = time.time()
        before = min(reference() for _ in range(3))
        timing = time.time() - timing
        probe_dir = Path(args.setup_probe)
        probe_dir.mkdir(parents=True)
        import qmeasure.cli  # noqa: F401  (every layer, as a CLI process loads)

        _workload(args.workload).setup(args.seed, probe_dir)
        ready = time.time() - timing
        print(ready, (before + min(reference() for _ in range(3))) / 2)
        return 0

    import qmeasure

    if not Path(qmeasure.__file__).resolve().is_relative_to(src):
        print(f"error: qmeasure imported from {qmeasure.__file__}, not {src}", file=sys.stderr)
        return 2

    from perfbench.harness import Checker

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.record:
            return _record(args, workdir)
        import qmeasure.cli  # noqa: F401

        (workdir / "main").mkdir()
        plan = _workload(args.workload).setup(args.seed, workdir / "main")
        committed = _expected(args.workload)
        checker = Checker(committed.get(str(args.seed)))
        if args.trace:
            metrics, report = _traced(args, plan, checker)
        else:
            metrics, report = _end_to_end(args, plan, checker, workdir)
        for message in plan.finish():
            checker.fail(message)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    report.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "committed_digests": checker.expected is not None,
        "failed_ratio": checker.failed / checker.attempted,
        "failures": checker.messages,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
    })
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
