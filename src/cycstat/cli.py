"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 malformed input or parse
error, 3 resource limit, 4 internal consistency violation (an identity the
engine certifies failed, which would falsify one of the structural claims).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import indicator
from .asymptotics import alpha_limit, variance_limit
from .dsl import parse_statistic
from .errors import (
    DegenerateEvaluationError,
    DivergenceError,
    InternalConsistencyError,
    MalformedInputError,
    ParseError,
    ResourceLimitError,
)
from .poly import decimal, to_json_dict, to_text
from .translates import check_exponent

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_CONSISTENCY = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycstat",
        description="Exact moment polynomials of regular permutation "
        "statistics by conjugacy class.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("expr", help="statistic expression, e.g. 'maj' or "
                       "'T(U=(1);V=(2);C={};f=1)'")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--cache", metavar="PATH",
                       help="JSON disk cache for indicator polynomials")

    p = sub.add_parser("moment", help="symbolic d-th class moment")
    common(p)
    p.add_argument("-d", type=int, default=1, dest="d", help="moment order")
    p.add_argument("--lambda", dest="lam", metavar="a,b,c",
                   help="evaluate at this cycle type")
    p.add_argument("--variance", action="store_true",
                   help="report the class variance instead of the raw moment")

    p = sub.add_parser("limit", help="scaled asymptotic mean or variance")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mean", action="store_true")
    group.add_argument("--variance", action="store_true")

    p = sub.add_parser("verify", help="compare against brute force on all "
                       "classes up to --nmax")
    common(p)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("-d", type=int, default=1, dest="d", help="largest moment order")

    p = sub.add_parser("expand", help="print the canonical translate expansion")
    common(p)
    return parser


def _parse_lambda(text: str) -> tuple[int, ...]:
    try:
        lam = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise MalformedInputError(f"bad cycle type {text!r}; expected e.g. 4,2,1")
    if any(x < 1 for x in lam):
        raise MalformedInputError("cycle lengths must be positive")
    return tuple(sorted(lam, reverse=True))


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    """Print the result; a reader that has closed stdout gets nothing more,
    and stdout then points at os.devnull so the exit flush is quiet too."""
    try:
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _base_payload(args, stat) -> dict:
    return {
        "command": args.command,
        "statistic": args.expr,
        "power": stat.power,
        "shift": stat.shift,
        "size": stat.size,
    }


def _check_moment(args) -> None:
    """moment's arguments before any work, as verify's: the malformed first,
    --lambda parsed into a cycle type, then the exponent cap."""
    if args.d < 1:
        raise MalformedInputError("-d must be >= 1")
    if args.variance and args.d != 2:
        raise MalformedInputError("--variance requires -d 2")
    if args.lam is not None:
        args.lam = _parse_lambda(args.lam)
    check_exponent(args.d)


def _cmd_moment(args, stat) -> int:
    d = args.d
    if args.variance:
        result = stat.variance()
        label = "variance"
    else:
        result = stat.expectation(d)
        label = f"moment d={d}"
    lines = [f"{label}: {result}"]
    payload = _base_payload(args, stat)
    payload["result"] = result.to_json_dict()
    if not args.variance:
        cleared, bound = stat.cleared_moment(result, d)
        degree = cleared.graded_degree()
        lines.append(f"graded degree {degree} (bound {bound})")
        payload["result"] |= {"degree": str(degree), "bound": bound}
    if args.lam is not None:
        lam = args.lam
        if args.variance:
            value = stat.variance_at(lam)
        else:
            value = stat.moment_at(lam, d)
        lines.append(f"value at lambda=({','.join(map(str, lam))}): {decimal(value)}")
        payload["result"]["evaluations"] = [
            {"lambda": list(lam), "value": decimal(value)}
        ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_limit(args, stat) -> int:
    payload = _base_payload(args, stat)
    if args.variance:
        v1, v2 = variance_limit(stat)
        lines = [
            f"p={stat.power}",
            f"V1(alpha) = {to_text(v1, ('alpha',))}",
            f"V2(alpha) = {to_text(v2, ('alpha',))}",
        ]
        payload["result"] = {
            "numerator": {
                "V1": to_json_dict(v1, ("alpha",)),
                "V2": to_json_dict(v2, ("alpha",)),
            },
            "denominator": {"falling": []},
        }
    else:
        f = alpha_limit(stat)
        lines = [f"p={stat.power}, f(alpha) = {to_text(f, ('alpha',))}"]
        payload["result"] = {
            "numerator": to_json_dict(f, ("alpha",)),
            "denominator": {"falling": []},
        }
    _emit(args, payload, lines)
    return EXIT_OK


def _check_verify(args) -> None:
    """verify's arguments before any work: the malformed first, then the caps."""
    from .oracle import N_CAP
    if args.nmax < 1:
        raise MalformedInputError("--nmax must be >= 1")
    if args.d < 1:
        raise MalformedInputError("-d must be >= 1")
    if args.nmax > N_CAP:
        raise ResourceLimitError(f"--nmax is capped at {N_CAP}")
    check_exponent(args.d)


def class_moment(evaluator, lam, d: int = 1) -> Fraction:
    """Exact average of evaluator(w)^d over the class of cycle type lam.
    The powers are added as they come, exact ints for an int-valued
    evaluator, and the sum is divided by the class size once."""
    from .oracle import conjugacy_class
    members = conjugacy_class(lam)
    return Fraction(sum(evaluator(w) ** d for w in members)) / len(members)


def _cmd_verify(args, stat) -> int:
    from .oracle import conjugacy_class, partitions
    failures = 0
    cells = []
    for n in range(1, args.nmax + 1):
        for lam in partitions(n):
            # each member is evaluated once, and every d reads its value back
            members = conjugacy_class(lam)
            value = dict(zip(members, map(stat.evaluate, members))).__getitem__
            for d in range(1, args.d + 1):
                engine = stat.moment_at(lam, d)
                oracle = class_moment(value, lam, d)
                ok = engine == oracle
                failures += 0 if ok else 1
                cells.append((lam, d, ok, engine, oracle))
    lines = []
    for lam, d, ok, engine, oracle in cells:
        tag = "PASS" if ok else "FAIL"
        line = f"{tag} lambda=({','.join(map(str, lam))}) d={d}"
        if not ok:
            line += f" engine={decimal(engine)} oracle={decimal(oracle)}"
        lines.append(line)
    lines.append(f"{len(cells) - failures}/{len(cells)} cells passed")
    payload = _base_payload(args, stat)
    payload["result"] = {
        "evaluations": [
            {
                "lambda": list(lam),
                "d": d,
                "pass": ok,
                "engine": decimal(engine),
                "oracle": decimal(oracle),
            }
            for lam, d, ok, engine, oracle in cells
        ]
    }
    _emit(args, payload, lines)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _cmd_expand(args, stat) -> int:
    lines = [f"size={stat.size} shift={stat.shift} power={stat.power}"]
    lines.extend(str(t) for t in stat.translates)
    payload = _base_payload(args, stat)
    payload["result"] = {"translates": [str(t) for t in stat.translates]}
    _emit(args, payload, lines)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "moment":
            _check_moment(args)
        if args.command == "verify":
            _check_verify(args)
        if args.cache is not None:
            indicator.configure_disk_cache(args.cache)
        stat = parse_statistic(args.expr)
        if args.command == "moment":
            return _cmd_moment(args, stat)
        if args.command == "limit":
            return _cmd_limit(args, stat)
        if args.command == "verify":
            return _cmd_verify(args, stat)
        return _cmd_expand(args, stat)
    except (ParseError, MalformedInputError, DegenerateEvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InternalConsistencyError, DivergenceError) as exc:
        print(f"consistency violation: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    finally:
        # the types the command computed reach the --cache file in one
        # write as it ends, by an exit 3 or 4 too
        indicator.write_disk_cache()


if __name__ == "__main__":
    sys.exit(main())
