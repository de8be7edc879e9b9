"""Command-line surface: generate instances, compute norms, classify maps,
and run verification suites.

Exit codes: 0 for a passing verdict, 1 for a failing verdict, 2 for usage or
input errors (malformed JSON, shape mismatches, unsupported exponents).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize as ser
from .algebra import make_algebra, random_faithful_state
from .errors import NclpError
from .isometry import build_isometry, classify
from .lp import lp_norm
from .samples import patterned_inclusion, random_isometry_data
from .suites import SuiteConfig, run_suite


def _parse_blocks(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _parse_sizes(text: str) -> list[list[int]]:
    return [_parse_blocks(part) for part in text.split(";") if part.strip()]


def _parse_tol(text: str) -> dict:
    out = {}
    for item in text.split(","):
        if not item.strip():
            continue
        key, _, val = item.partition("=")
        out[key.strip()] = float(val)
    return out


def _cmd_gen(args) -> int:
    if args.kind == "algebra":
        alg = make_algebra(_parse_blocks(args.blocks))
        ser.dump(ser.algebra_to_json(alg), args.out)
    elif args.kind == "state":
        if args.algebra:
            alg = ser.algebra_from_json(ser.load(args.algebra))
        else:
            alg = make_algebra(_parse_blocks(args.blocks))
        state = random_faithful_state(alg, args.seed)
        ser.dump(ser.state_to_json(state), args.out)
    elif args.kind == "subalgebra":
        A, pattern, m, _ = patterned_inclusion(args.seed, args.pattern, args.dim)
        obj = ser.subalgebra_to_json(A)
        obj["pattern"] = pattern
        ser.dump(obj, args.out)
    elif args.kind == "isometry":
        data = random_isometry_data(args.seed)
        ser.dump(ser.isometry_data_to_json(data), args.out)
        if args.map_out:
            T = build_isometry(data, args.p)
            ser.dump(ser.lp_map_to_json(T), args.map_out)
    return 0


def _cmd_norm(args) -> int:
    obj = ser.load(args.vector)
    if args.p is not None:
        obj = {**obj, "p": args.p}
    print(repr(lp_norm(ser.lp_vector_from_json(obj))))
    return 0


def _cmd_classify(args) -> int:
    T = ser.lp_map_from_json(ser.load(args.map))
    state = ser.state_from_json(ser.load(args.state), T.source)
    p = args.p if args.p is not None else T.p
    report = classify(T, state, p)
    ser.dump(ser.classification_report_to_json(report), args.out)
    return 0 if report.accepted else 1


def _cmd_verify(args) -> int:
    config = SuiteConfig(
        suite=args.suite,
        seed=args.seed,
        sizes=_parse_sizes(args.sizes) if args.sizes else None,
        exponents=[float(p) for p in args.p_list.split(",")] if args.p_list else None,
        sample_count=args.samples,
        tolerances=_parse_tol(args.tol) if args.tol else None,
    )
    report = run_suite(config)
    ser.dump(report.to_json(), args.out)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclp",
        description="finite-dimensional noncommutative L_p toolkit",
    )
    sub = parser.add_subparsers(dest="command")

    gen = sub.add_parser("gen", help="generate instances as JSON")
    gen.add_argument("kind", choices=["algebra", "state", "subalgebra", "isometry"])
    gen.add_argument("--blocks", default="2", help="comma-separated block dimensions")
    gen.add_argument("--algebra", help="algebra JSON file (for gen state)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--pattern", default=None, help="subalgebra pattern name")
    gen.add_argument("--dim", type=int, default=None, help="parent dimension for subalgebra")
    gen.add_argument("--p", type=float, default=3.0, help="exponent for --map-out")
    gen.add_argument("--map-out", help="also write the assembled map (gen isometry)")
    gen.add_argument("-o", "--out", help="output file (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    norm = sub.add_parser("norm", help="L_p norm of a vector file")
    norm.add_argument("vector")
    norm.add_argument("--p", type=float, default=None)
    norm.set_defaults(func=_cmd_norm)

    cls = sub.add_parser("classify", help="classify a map file")
    cls.add_argument("map")
    cls.add_argument("--state", required=True, help="reference state JSON on the source")
    cls.add_argument("--p", type=float, default=None)
    cls.add_argument("-o", "--out", help="report file (default stdout)")
    cls.set_defaults(func=_cmd_classify)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("--suite", required=True)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--sizes", help="semicolon-separated block lists, e.g. '2;3;1,2'")
    ver.add_argument("--p-list", dest="p_list", help="comma-separated exponents")
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--tol", help="comma-separated key=value tolerance overrides")
    ver.add_argument("-o", "--out", help="report file (default stdout)")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except NclpError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, OSError, KeyError, TypeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
