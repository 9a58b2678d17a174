"""Command-line front end.

Data-producing commands (generate, flow, miura, kdv-check) print JSON;
degrees and verify print text tables unless --json is given.  All sampling
is driven by --seed and the seed is echoed in JSON output, so identical
command lines produce byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
error (an ``ArithmeticError`` or ``AssertionError`` raised inside the engine,
such as a truncation instability, a Wronskian step with no solution or a
failed internal guard).

``main`` builds its argparse parser once per process, on the first call,
and reuses it; ``build_parser()`` returns a fresh parser on every call.

Parameter lists that start with a minus sign must be attached with ``=``,
as in ``--c=-3,2``: argparse reads ``--c -3,2`` as an option with no value.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .exact import rat_to_str
from .generation import check_basic, degree_walk, generate_multistep
from .flows import check_r, flow_sample
from .miura import diagram_sides, miura_from_trace
from .verify import RunConfig, SUITES


def _parse_word(text: Optional[str]) -> tuple:
    if not text:
        return ()
    return check_basic(tuple(int(t) for t in text.split(",")))


def _parse_params(text: Optional[str], expected: int) -> tuple:
    if not text:
        values: tuple = ()
    else:
        try:
            values = tuple(Fraction(t) for t in text.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad parameter list {text!r}: {exc}")
    if len(values) != expected:
        raise UsageError(f"expected {expected} parameters, got {len(values)}")
    return values


class UsageError(ValueError):
    """A malformed command line; reported like any ``ValueError`` (exit 2)."""


def _family(args) -> tuple:
    """The word J and the parameters c of a family command."""
    word = _parse_word(args.J)
    return word, _parse_params(args.c, len(word))


def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ": "), indent=1)


def cmd_degrees(args) -> int:
    word = _parse_word(args.J)
    walk = degree_walk(word)
    if args.json:
        print(_dump({"J": list(word), "degrees": [[k.k0, k.k1] for k in walk]}))
    else:
        for step, k in enumerate(walk):
            prefix = ",".join(str(j) for j in word[:step]) or "-"
            print(f"{step:2d}  {prefix:<12} ({k.k0}, {k.k1})")
    return 0


def cmd_generate(args) -> int:
    trace = generate_multistep(*_family(args))
    print(_dump(trace.to_json()))
    return 0


def cmd_flow(args) -> int:
    sample = flow_sample(*_family(args), args.r)
    print(_dump(sample.to_json()))
    return 0


def cmd_miura(args) -> int:
    oper = miura_from_trace(generate_multistep(*_family(args)))
    print(_dump(oper.to_json()))
    return 0


def cmd_kdv_check(args) -> int:
    word, c = _family(args)
    check_r(args.r)
    if args.i not in (None, 0, 1, 2):
        raise UsageError("scalar map index must be 0, 1, or 2")
    maps = [args.i] if args.i is not None else [0, 1, 2]
    trace = generate_multistep(word, c)
    results, scalar_ops = {}, {}
    for i, (scalar_op, pushed, kdv) in diagram_sides(trace, args.r, maps).items():
        results[str(i)] = pushed == kdv
        scalar_ops[str(i)] = scalar_op.to_json()
    print(
        _dump(
            {
                "J": list(word),
                "c": [rat_to_str(ci) for ci in c],
                "r": args.r,
                "consistent": results,
                "scalar_operators": scalar_ops,
            }
        )
    )
    return 0 if all(results.values()) else 1


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if any(name not in SUITES for name in names):
        raise UsageError(f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)} or all")
    config = RunConfig(seed=args.seed, samples=args.samples, tolerance=args.tolerance)
    reports = [SUITES[name](config) for name in names]
    payload = _dump({"reports": [r.to_json() for r in reports]})
    if args.json:
        print(payload)
    else:
        for rep in reports:
            for line in rep.lines():
                print(line)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write the report to {args.output!r}: {exc.strerror}")
    return 0 if all(r.ok for r in reports) else 1


_C_HELP = (
    "comma-separated rationals, e.g. 2,5/3; write --c=-3,2 when the list starts with a minus sign"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkdv-a22",
        description="Exact critical-point generation and twisted mKdV/KdV flow checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degrees", help="degree-vector walk along a direction word")
    p.add_argument("J", nargs="?", default="", help="comma-separated word, e.g. 0,1,0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_degrees)

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("J", nargs="?", default="")
    family.add_argument("--c", default="", help=_C_HELP)
    json_help = "accepted for uniformity; always JSON"

    p = sub.add_parser(
        "generate", parents=[family], help="run the Wronskian generation, print the trace"
    )
    p.add_argument("--json", action="store_true", help=json_help)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "flow", parents=[family], help="evaluate one mKdV flow on a generated family"
    )
    p.add_argument("--r", type=int, required=True, help="flow index, 1 or 5 mod 6")
    p.add_argument("--json", action="store_true", help=json_help)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser(
        "miura", parents=[family], help="print the Miura oper attached to a generated pair"
    )
    p.add_argument("--json", action="store_true", help=json_help)
    p.set_defaults(func=cmd_miura)

    p = sub.add_parser(
        "kdv-check", parents=[family], help="mKdV/KdV consistency through the scalar maps"
    )
    p.add_argument(
        "--r",
        type=int,
        required=True,
        help="flow index, 1 or 5 mod 6; the cost grows roughly as r**4 and is mostly the"
        " cube-root solve",
    )
    p.add_argument("--i", type=int, default=None, help="scalar map index (default: all)")
    p.add_argument("--json", action="store_true", help=json_help)
    p.set_defaults(func=cmd_kdv_check)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="one of %s, or all" % ", ".join(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` parses with: built on the first call, then reused
    for the life of the process (parsing leaves a parser unchanged)."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    # exact answers and parameters may exceed the interpreter's limit on
    # int <-> str digits; lift it for this call only
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
