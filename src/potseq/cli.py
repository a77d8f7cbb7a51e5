"""Command-line front end.

Commands: check-graphic, check, realize, sigma, verify.  Exit codes are
uniform across commands: 0 = yes/success, 1 = principled no, 2 = usage or
bounds error, 3 = internal invariant breach or any other unexpected error.
Data goes to stdout; progress and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .characterize import explain
from .graphs import encode_graph6, to_dot, to_edgelist
from .search import TARGETS, NotPotentialError, OracleBoundError, sigma_search, verify_range
from .sequences import (
    DegreeSequence, NotationError, is_graphic, is_graphic_layoff, parse_notation, render_notation
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BREACH = 3


def _parse_sequence_or_exit(text: str) -> DegreeSequence:
    try:
        return parse_notation(text)
    except NotationError as exc:
        print(f"error: cannot parse sequence: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_check_graphic(args: argparse.Namespace) -> int:
    seq = _parse_sequence_or_exit(args.sequence)
    by_inequalities = is_graphic(seq)
    by_layoff = is_graphic_layoff(seq)
    if by_inequalities != by_layoff:
        print(
            f"internal error: graphicality tests disagree on {render_notation(seq)}",
            file=sys.stderr,
        )
        return EXIT_BREACH
    if args.json:
        _emit_json(
            {
                "input": args.sequence,
                "normalized": render_notation(seq),
                "stripped_zeros": seq.stripped_zeros,
                "sigma": seq.sigma,
                "graphic": by_inequalities,
            }
        )
    else:
        print(f"sequence: {render_notation(seq)}")
        print(f"sigma: {seq.sigma}")
        verdict = "graphic" if by_inequalities else "not graphic"
        print(f"{verdict} (inequality test and layoff recursion agree)")
    return EXIT_YES if by_inequalities else EXIT_NO


def _cmd_check(args: argparse.Namespace) -> int:
    seq = _parse_sequence_or_exit(args.sequence)
    verdict = TARGETS[args.target].decide(seq)
    if args.json:
        _emit_json(
            {
                "input": args.sequence,
                "normalized": render_notation(seq),
                "target": verdict.target,
                "graphic": verdict.reason != "NOT_GRAPHIC",
                "potential": verdict.is_yes,
                "reason": verdict.reason,
                "matched_exception": verdict.matched_exception,
                "exception_index": verdict.exception_index,
                "lhs": verdict.lhs,
                "rhs": verdict.rhs,
                "family_k": verdict.family_k,
                "family_i": verdict.family_i,
            }
        )
    else:
        print(f"sequence: {render_notation(seq)}")
        print(f"target: {verdict.target}")
        print(f"verdict: {verdict.decision} ({verdict.reason})")
        print(explain(verdict))
    return EXIT_YES if verdict.is_yes else EXIT_NO


def _cmd_realize(args: argparse.Namespace) -> int:
    seq = _parse_sequence_or_exit(args.sequence)
    try:
        cert = TARGETS[args.target].realize(seq)
    except NotPotentialError as exc:
        print(f"sequence: {render_notation(seq)}")
        print(explain(exc.verdict))
        return EXIT_NO
    comments = [
        f"sequence: {render_notation(seq)}",
        f"target: {args.target}",
        "hosts: " + " ".join(str(v) for v in cert.hosts),
        "hubs: " + " ".join(str(v) for v in cert.hubs),
        "pairs: " + " ".join(f"({a},{b})" for a, b in cert.pairs),
    ]
    if args.format == "edgelist":
        sys.stdout.write(to_edgelist(cert.graph, comments=comments))
    elif args.format == "graph6":
        try:
            g6 = encode_graph6(cert.graph)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        for c in comments:
            print(f"# {c}")
        print(g6)
    else:
        sys.stdout.write(to_dot(cert.graph, comments=comments))
    return EXIT_YES


def _cmd_sigma(args: argparse.Namespace) -> int:
    target = TARGETS[args.target]
    pattern = target.pattern
    if args.n < pattern.vertex_count:
        print(f"error: sigma for {pattern.name} needs n >= {pattern.vertex_count}", file=sys.stderr)
        return EXIT_USAGE
    if target.sigma_formula is None and args.mode != "search":
        print("error: no closed-form sigma for this target; use --mode search", file=sys.stderr)
        return EXIT_USAGE
    if args.mode in ("search", "both"):
        try:
            found = sigma_search(args.n, pattern, bound=args.oracle_bound)
        except OracleBoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    if args.mode == "formula":
        print(target.sigma_formula(args.n))
        return EXIT_YES
    if args.mode == "search":
        print(found.value)
        return EXIT_YES
    formula = target.sigma_formula(args.n)
    witness = render_notation(found.witness) if found.witness is not None else "-"
    print(f"formula={formula} search={found.value} witness=({witness})")
    if formula != found.value:
        print(
            f"error: search value {found.value} contradicts formula {formula}; "
            f"witness {witness}",
            file=sys.stderr,
        )
        return EXIT_BREACH
    return EXIT_YES


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_n_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    values = range(int(lo), int(hi if sep else lo) + 1)
    if not values:
        raise ValueError(f"empty range {text!r}")
    if values.start < 1:
        raise ValueError(f"n must be at least 1, got {values.start}")
    return values


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        ns = _parse_n_range(args.n)
    except ValueError as exc:
        print(f"error: bad --n value: {exc}", file=sys.stderr)
        return EXIT_USAGE
    target = TARGETS[args.target].pattern
    reports = []
    for n in ns:
        def progress(done: int, total: int, n: int = n) -> None:
            step = max(1, total // 10)
            if done % step == 0 or done == total:
                print(f"verify n={n}: {done}/{total}", file=sys.stderr)
        try:
            rep = verify_range(n, target, bound=args.oracle_bound, jobs=args.jobs, progress=progress)
        except OracleBoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        reports.append(rep)
    if args.json:
        payload = [r.to_dict() for r in reports]
        _emit_json(payload[0] if len(payload) == 1 else {"reports": payload})
    else:
        for rep in reports:
            print(rep.summary())
            for m in rep.mismatches:
                print(f"  mismatch: {m.sequence}: decider={m.decider} ({m.decider_reason}) oracle={'yes' if m.oracle else 'no'}")
    return EXIT_YES if all(not r.mismatches for r in reports) else EXIT_BREACH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potseq",
        description="Graphic degree sequences and potentially K6-C4 / K5-C4-graphic deciders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-graphic", help="is the sequence graphic?")
    p.add_argument("sequence", help="degree sequence, e.g. '5^2,4^6' or '3,3,2'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_graphic)

    p = sub.add_parser("check", help="is the sequence potentially target-graphic?")
    p.add_argument("sequence")
    p.add_argument("--target", choices=sorted(TARGETS), default="k6-c4")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("realize", help="emit a realization carrying the target")
    p.add_argument("sequence")
    p.add_argument("--target", choices=sorted(TARGETS), default="k6-c4")
    p.add_argument("--format", choices=("edgelist", "graph6", "dot"), default="edgelist")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("sigma", help="smallest sum forcing the target, by formula or search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", choices=sorted(TARGETS), default="k6-c4")
    p.add_argument("--mode", choices=("formula", "search", "both"), default="both")
    p.add_argument("--oracle-bound", type=int, default=None)
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("verify", help="compare decider against the exhaustive oracle")
    p.add_argument("--n", required=True, help="length, or an inclusive range like 5..8")
    p.add_argument("--target", choices=sorted(TARGETS), default="k6-c4")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--oracle-bound", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # every failure a command does not handle is a breach
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BREACH


if __name__ == "__main__":
    sys.exit(main())
