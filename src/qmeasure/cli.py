"""Command-line surface: load and validate theories, run every analysis, and
reproduce the named worked numbers."""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys

from . import bernoulli as be
from . import checks
from . import coevents as cv
from . import dynamics as dy
from . import partitions as pt
from .core import SizeCapError, format_mask, format_rational, load_theory, parse_mask
from .exact import parse_rational


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "json"), default="table",
                        help="output format (default: human table)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after:
    parsing keeps no state between calls, and ``append`` options copy their
    default list."""
    parser = argparse.ArgumentParser(
        prog="qmeasure",
        description="exact analyses of finite quantum measure theories and co-events",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the measure axioms of a theory file")
    p.add_argument("--theory", required=True)
    p.add_argument("--relax-normalization", action="store_true",
                   help="downgrade a non-unit decoherence normalization to a warning")
    _common(p)

    p = sub.add_parser("measure", help="measures, interference terms, and the level")
    p.add_argument("--theory", required=True)
    p.add_argument("--mu", action="append", default=[], metavar="HEX",
                   help="event bitmask to measure (repeatable)")
    p.add_argument("--interference", action="append", default=[], metavar="HEX,HEX,...",
                   help="comma-separated disjoint events (repeatable)")
    p.add_argument("--level", action="store_true", help="compute the theory level")
    p.add_argument("--override-cap", action="store_true")
    _common(p)

    p = sub.add_parser("primitives", help="primitive preclusive multiplicative co-events")
    p.add_argument("--theory", required=True)
    p.add_argument("--eps", default="0", help="approximate-preclusion level (rational)")
    p.add_argument("--override-cap", action="store_true")
    _common(p)

    p = sub.add_parser("partition", help="partition predicates and the principle classical partition")
    p.add_argument("--theory", required=True)
    p.add_argument("--blocks", metavar="HEX,HEX,...",
                   help="partition blocks for --check")
    p.add_argument("--check", choices=("decoherent", "separable", "classical-m"),
                   help="predicate to evaluate on --blocks")
    p.add_argument("--principle", action="store_true",
                   help="compute the principle classical partition")
    p.add_argument("--eps", default="0")
    p.add_argument("--override-cap", action="store_true")
    _common(p)

    p = sub.add_parser("coin", help="repeated fair/biased coin analytics")
    p.add_argument("action", choices=("h-epsilon", "straddle", "even-odd", "tail"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", default="1/2")
    p.add_argument("--eps", required=True)
    _common(p)

    p = sub.add_parser("feasibility", help="probability measures on co-event sets")
    p.add_argument("action", choices=("build", "solve", "max"))
    p.add_argument("--theory", required=True)
    p.add_argument("--duals", required=True, metavar="HEX,HEX,...",
                   help="duals of the candidate multiplicative co-events")
    p.add_argument("--phi", metavar="HEX", help="dual of the co-event to maximize")
    p.add_argument("--override-cap", action="store_true")
    _common(p)

    p = sub.add_parser("hypothesis", help="simulate a repeated trial and run the one-tailed test")
    p.add_argument("--n", type=int)
    p.add_argument("--p0", required=True, help="hypothesised heads probability")
    p.add_argument("--eps", required=True)
    p.add_argument("--sequence", help="outcome string over {h,t}; simulated when absent")
    p.add_argument("--p", help="true heads probability for simulation (default: p0)")
    p.add_argument("--seed", type=int, default=0)
    _common(p)

    p = sub.add_parser("paper-check", help="run the full reproduction recipe")
    _common(p)

    return parser


def _emit(args, lines, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _parse_block_list(space, text: str):
    return [space.event_from_mask(parse_mask(part)) for part in text.split(",") if part]


def _cmd_validate(args) -> int:
    theory = load_theory(args.theory)
    with _exact_output():
        report = theory.validate(strict_normalization=not args.relax_normalization)
        payload = {
            "valid": report.valid,
            "violations": [
                {"axiom": v.axiom, "witness": v.witness, "detail": v.detail}
                for v in report.violations
            ],
            "warnings": list(report.warnings),
            "null_events": (
                [format_mask(m) for m in report.null_events]
                if report.null_events is not None else None
            ),
        }
        _emit(args, [report.summary()], payload)
    return 0 if report.valid else 1


def _cmd_measure(args) -> int:
    theory = load_theory(args.theory)
    space = theory.space
    events = [space.parse_event(text) for text in args.mu]
    groups = [_parse_block_list(space, group) for group in args.interference]
    if not (events or groups or args.level):
        raise ValueError("nothing to compute: pass --mu, --interference, or --level")
    lines = []
    payload: dict = {}
    with _exact_output():
        if events:
            payload["mu"] = {}
            for event in events:
                value = format_rational(theory.mu(event))
                lines.append(f"mu {event.hex_mask} {event.label()} = {value}")
                payload["mu"][event.hex_mask] = value
        if groups:
            payload["interference"] = []
            for group in groups:
                value = format_rational(theory.interference(*group))
                keys = ",".join(e.hex_mask for e in group)
                lines.append(f"interference[{len(group)}] {keys} = {value}")
                payload["interference"].append({"events": keys, "value": value})
        if args.level:
            level = theory.level(override_cap=args.override_cap)
            lines.append(f"level = {level}")
            payload["level"] = level
        _emit(args, lines, payload)
    return 0


def _cmd_primitives(args) -> int:
    theory = load_theory(args.theory)
    eps = parse_rational(args.eps)
    with _exact_output():
        prims = cv.primitives(theory, eps, override_cap=args.override_cap)
        lines = [
            f"{phi.dual_event().hex_mask} {phi.dual_event().label()}" for phi in prims
        ]
        payload = [cv.coevent_to_json(phi) for phi in prims]
        _emit(args, lines, payload)
    return 0


def _cmd_partition(args) -> int:
    theory = load_theory(args.theory)
    eps = parse_rational(args.eps)
    with _exact_output():
        if args.principle:
            partition, fat = pt.principle_classical_partition(
                theory, eps, override_cap=args.override_cap
            )
            lines = ["blocks: " + " ".join(b.hex_mask for b in partition.blocks)]
            lines += [f"fat dual: {d.hex_mask} {d.label()}" for d in fat.fat_duals]
            lines += [f"uncovered: {s.hex_mask} {s.label()}" for s in fat.uncovered]
            payload = {
                "blocks": pt.partition_to_json(partition),
                "fat_duals": [d.hex_mask for d in fat.fat_duals],
                "classes": (
                    [[d.hex_mask for d in cls] for cls in fat.classes]
                    if fat.classes is not None else None
                ),
                "class_sizes": list(fat.class_sizes),
                "uncovered": [s.hex_mask for s in fat.uncovered],
            }
            _emit(args, lines, payload)
            return 0
        if not args.blocks or not args.check:
            raise ValueError("pass --principle, or both --blocks and --check")
        partition = pt.Partition.of_blocks(theory.space, _parse_block_list(theory.space, args.blocks))
        if args.check == "decoherent":
            verdict = pt.is_decoherent(theory, partition)
        elif args.check == "separable":
            verdict = pt.is_preclusively_separable(theory, partition, override_cap=args.override_cap)
        else:
            verdict = pt.is_classical_wrt_M(theory, partition, eps, override_cap=args.override_cap)
        _emit(args, [f"{args.check}: {verdict}"], {args.check: verdict})
        return 0


@contextlib.contextmanager
def _exact_output():
    """Lift Python's limit on int/str conversions (4,300 digits, since 3.10.7
    and 3.11) while exact results are spelled, and restore it after: a coin
    mass or count can run to any size.  Inputs are parsed under the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):  # older 3.10: no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_coin(args) -> int:
    model = be.BernoulliModel(args.n, parse_rational(args.p), parse_rational(args.eps))
    with _exact_output():
        _coin_output(args, model)
    return 0


def _coin_output(args, model) -> None:
    if args.action == "h-epsilon":
        cutoff = be.tail_cutoff(model)
        _emit(args, [str(cutoff) if cutoff is not None else "none"], {"h_epsilon": cutoff})
        return
    if args.action == "straddle":
        size = be.straddle_set_cardinality(model)
        _emit(args, [str(size)], {"cardinality": size})
        return
    if args.action == "even-odd":
        witness = be.even_odd_witness(model)
        payload = {
            "trials": witness.trials,
            "half": witness.half,
            "eps": format_rational(witness.eps),
            "cutoff": witness.cutoff,
            "primitive_cardinality": witness.primitive_cardinality,
            "greater_count": witness.greater_count,
            "greater_exceeds_eps": witness.greater_exceeds_eps,
            "cross_count": witness.cross_count,
            "witness_supported": witness.witness_supported,
            "valuations": witness.valuations,
            "alternating_history": format_mask(witness.alternating),
        }
        lines = [f"{key} = {value}" for key, value in payload.items()]
        _emit(args, lines, payload)
        return
    # tail: one (heads count, point mass, lower-tail mass) row per count; the
    # CSV streams, so a large n never holds every row's text at once
    rows = be.tail_rows(model)
    if args.format == "json":
        _emit(args, (), [{"heads": h, "point": pt, "tail": t} for h, pt, t in rows])
    else:
        _emit(args, itertools.chain(["H,P_N,P_L"], (f"{h},{pt},{t}" for h, pt, t in rows)), None)


def _cmd_feasibility(args) -> int:
    theory = load_theory(args.theory)
    space = theory.space
    duals = _parse_block_list(space, args.duals)
    candidates = [cv.CoEvent.from_dual(event) for event in duals]
    with _exact_output():
        system = dy.build_feasibility(theory, candidates, override_cap=args.override_cap)
        if args.action == "build":
            # the normalised columns and the row count; the rows are the
            # events, each read from the theory
            rows = len(system.rows)
            duals = [phi.dual_event() for phi in system.coevents]
            lines = [f"{d.hex_mask} {d.label()}" for d in duals] + [f"rows = {rows}"]
            payload = {"coevents": [cv.coevent_to_json(phi) for phi in system.coevents], "rows": rows}
            _emit(args, lines, payload)
            return 0
        if args.action == "solve":
            result = dy.solve_feasibility(system)
            payload = dy.feasibility_result_to_json(system, result)
            name, values = (("p", payload["assignment"]) if result.feasible
                            else ("farkas", payload["certificate"]["farkas"]))
            lines = [payload["status"]] + [f"  {name}[{mask}] = {v}" for mask, v in sorted(values.items())]
            _emit(args, lines, payload)
            return 0
        if not args.phi:
            raise ValueError("max needs --phi")
        phi = cv.CoEvent.from_dual(space.parse_event(args.phi))
        value = dy.max_probability(system, phi)
        _emit(args, [format_rational(value)], {"max_probability": format_rational(value)})
        return 0


def _cmd_hypothesis(args) -> int:
    p0 = parse_rational(args.p0)
    eps = parse_rational(args.eps)
    if args.sequence is not None:
        sequence = be.TrialSequence(args.sequence)
        if args.n is not None and args.n != sequence.n:
            raise ValueError("--n disagrees with the length of --sequence")
    else:
        if args.n is None:
            raise ValueError("pass --sequence, or --n to simulate")
        p_true = parse_rational(args.p) if args.p else p0
        sequence = be.simulate(args.n, p_true, args.seed)
    with _exact_output():
        result = be.hypothesis_test(sequence, p0, eps)
        payload = {
            "decision": result.decision,
            "heads": result.heads,
            "n": sequence.n,
            "cumulative": format_rational(result.cumulative),
            "eps": format_rational(result.eps),
        }
        lines = [
            f"{result.decision} (heads {result.heads}/{sequence.n}, "
            f"lower-tail mass {format_rational(result.cumulative)}, eps {format_rational(eps)})"
        ]
        _emit(args, lines, payload)
    return 0


def _cmd_paper_check(args) -> int:
    results = checks.run_all()
    if args.format == "json":
        payload = [
            {
                "id": r.ident,
                "name": r.name,
                "passed": r.passed,
                "seconds": round(r.seconds, 6),
                "detail": r.detail,
            }
            for r in results
        ]
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "measure": _cmd_measure,
    "primitives": _cmd_primitives,
    "partition": _cmd_partition,
    "coin": _cmd_coin,
    "feasibility": _cmd_feasibility,
    "hypothesis": _cmd_hypothesis,
    "paper-check": _cmd_paper_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; malformed input is exit 1 here
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
