"""Deterministic command-line front end.

Every command is a pure function of its arguments and input files: identical
invocations print byte-identical output.  Exit codes: 0 affirmative or
success, 1 negative verdict, 2 input error, 3 unknown verdict.  The witness
search depth defaults to 4 and can be overridden by --depth or the MF_DEPTH
environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import serialize
from .curves import class_count, enumerate_classes
from .errors import CapacityError, InputError, NotApplicable, Unsupported
from .fibration import (
    WITNESS_DEPTH,
    build,
    hurwitz_move,
    reduce,
    substitution_witness,
    total_space_invariants,
    universality_report,
)
from .homology import SurfaceSpec

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3


def _read_fibration(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return serialize.fibration_loads(text)


def _emit(doc, out: str | None) -> None:
    text = serialize.dumps(doc)
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from None


def cmd_census(args) -> int:
    surface = SurfaceSpec(args.genus, args.boundary)
    report: dict = {
        "surface": serialize.surface_to_json(surface),
        "count": class_count(surface),
    }
    if args.enumerate:
        classes = enumerate_classes(surface)
        assert len(classes) == report["count"], "census formula disagrees with enumeration"
        report["classes"] = [serialize.curve_class_to_json(c) for c in classes]
    _emit(report, args.out)
    return EXIT_OK


def cmd_build(args) -> int:
    f = build(args.name, args.g)
    _emit(serialize.fibration_to_json(f), args.out)
    return EXIT_OK


def cmd_invariants(args) -> int:
    f = _read_fibration(args.file)
    report = total_space_invariants(f)
    _emit(serialize.invariant_report_to_json(report), args.out)
    return EXIT_OK


def cmd_check_universal(args) -> int:
    f = _read_fibration(args.file)
    report = universality_report(f)
    _emit(serialize.universality_report_to_json(report), args.out)
    verdict = report.strongly_universal if args.strong else report.universal
    return {"yes": EXIT_OK, "no": EXIT_NEGATIVE, "unknown": EXIT_UNKNOWN}[verdict]


def cmd_witness(args) -> int:
    u = _read_fibration(args.source)
    f = _read_fibration(args.target)
    if args.depth is not None:
        depth = args.depth
    else:
        raw = os.environ.get("MF_DEPTH", str(WITNESS_DEPTH))
        try:
            depth = int(raw)
        except ValueError:
            raise InputError(f"MF_DEPTH must be an integer, got {raw!r}") from None
    plan = substitution_witness(u, f, depth)
    if plan is None:
        _emit({"found": False, "depth": depth}, args.out)
        return EXIT_UNKNOWN
    doc = {"found": True, "depth": depth}
    doc.update(serialize.plan_to_json(plan))
    _emit(doc, args.out)
    return EXIT_OK


def cmd_reduce(args) -> int:
    f = _read_fibration(args.file)
    result = reduce(f, args.budget)
    if result.exhausted:
        sys.stderr.write(
            f"budget {args.budget} exhausted: {result.explored} destabilizations "
            f"explored, {result.states} distinct states, best after "
            f"{result.steps} steps\n")
    _emit(serialize.fibration_to_json(result.fibration), args.out)
    return EXIT_OK


def _parse_move(text: str) -> tuple[int, str]:
    parts = text.split(":")
    if len(parts) != 2 or parts[1] not in ("L", "R"):
        raise InputError(f"--move wants the form INDEX:L or INDEX:R, got {text!r}")
    try:
        index = int(parts[0])
    except ValueError:
        raise InputError(f"bad move index in {text!r}") from None
    return index, parts[1]


def cmd_hurwitz(args) -> int:
    f = _read_fibration(args.file)
    for spec in args.move:
        index, direction = _parse_move(spec)
        f = hurwitz_move(f, index, direction)
    _emit(serialize.fibration_to_json(f), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefschetz",
        description="Monodromy calculus for Lefschetz fibrations over bounded surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="count (and list) curve types on a fiber")
    p.add_argument("genus", type=int)
    p.add_argument("boundary", type=int)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("build", help="emit a standard fibration file")
    p.add_argument("name", choices=["u_11", "u_10", "u_g1", "p_g"])
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("invariants", help="total-space invariants of a fibration file")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("check-universal", help="universality report and verdict exit code")
    p.add_argument("file")
    p.add_argument("--strong", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_universal)

    p = sub.add_parser("witness", help="search a pullback witness plan")
    p.add_argument("-u", "--source", required=True)
    p.add_argument("-f", "--target", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser(
        "reduce", help="breadth-first search for a maximally destabilized fibration")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("hurwitz", help="apply elementary moves to the cycle sequence")
    p.add_argument("file")
    p.add_argument("--move", action="append", required=True, metavar="INDEX:L|R")
    p.add_argument("--out")
    p.set_defaults(func=cmd_hurwitz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, CapacityError, NotApplicable, Unsupported) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
