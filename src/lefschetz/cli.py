"""Deterministic command-line front end.

Every command is a pure function of its arguments and input files: identical
invocations print byte-identical output.  Exit codes: 0 affirmative or
success, 1 negative verdict, 2 input error, 3 unknown verdict.  The witness
search depth defaults to 4 and can be overridden by --depth or the MF_DEPTH
environment variable.

Each command returns its document and exit code; ``main`` writes the
document to stdout or to ``--out``, and maps every refusal (InputError,
CapacityError, NotApplicable, Unsupported), a failed write and a document
with an integer of over 4300 digits to one ``error:`` line and exit 2.

Importing this module loads no library module: each command imports the
modules it runs, so ``census`` loads no mapping class code and only
``check-universal``, ``reduce`` and ``witness`` load the modules of the
universality report, the reduction search and the witness search.
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3


def _integer(text: str) -> int:
    """An integer argument.  argparse's ``type=int`` would echo a refused
    value in full: thousands of bytes for one past the int-string digit limit."""
    try:
        return int(text)
    except ValueError:
        from .errors import clipped

        raise argparse.ArgumentTypeError(f"invalid int value: {clipped(text)!r}") from None


def _read_fibration(path: str):
    from . import serialize
    from .errors import InputError

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return serialize.fibration_loads(text)


def cmd_census(args) -> tuple[dict, int]:
    from . import serialize
    from .curves import class_count, enumerate_classes
    from .homology import SurfaceSpec

    surface = SurfaceSpec(args.genus, args.boundary)
    report = {"surface": serialize.surface_to_json(surface), "count": class_count(surface)}
    if args.enumerate:
        classes = enumerate_classes(surface)
        assert len(classes) == report["count"], "census formula disagrees with enumeration"
        report["classes"] = [serialize.curve_class_to_json(c) for c in classes]
    return report, EXIT_OK


def cmd_build(args) -> tuple[dict, int]:
    from . import serialize
    from .fibration import build

    return serialize.fibration_to_json(build(args.name, args.g)), EXIT_OK


def cmd_invariants(args) -> tuple[dict, int]:
    from . import serialize
    from .fibration import total_space_invariants

    report = total_space_invariants(_read_fibration(args.file))
    return serialize.invariant_report_to_json(report), EXIT_OK


def cmd_check_universal(args) -> tuple[dict, int]:
    from . import serialize
    from .universality import universality_report

    report = universality_report(_read_fibration(args.file))
    verdict = report.strongly_universal if args.strong else report.universal
    code = {"yes": EXIT_OK, "no": EXIT_NEGATIVE, "unknown": EXIT_UNKNOWN}[verdict]
    return serialize.universality_report_to_json(report), code


def cmd_witness(args) -> tuple[dict, int]:
    from . import serialize
    from .errors import InputError, clipped
    from .witness import WITNESS_DEPTH, substitution_witness

    u = _read_fibration(args.source)
    f = _read_fibration(args.target)
    depth = args.depth
    if depth is None:
        raw = os.environ.get("MF_DEPTH", str(WITNESS_DEPTH))
        try:
            depth = int(raw)
        except ValueError:
            raise InputError(
                f"MF_DEPTH must be an integer of at most 4300 digits, got {clipped(raw)!r}"
            ) from None
    plan = substitution_witness(u, f, depth)
    if plan is None:
        return {"found": False, "depth": depth}, EXIT_UNKNOWN
    return {"found": True, "depth": depth, **serialize.plan_to_json(plan)}, EXIT_OK


def cmd_reduce(args) -> tuple[dict, int]:
    from . import serialize
    from .reduction import reduce

    result = reduce(_read_fibration(args.file), args.budget)
    if result.exhausted:
        sys.stderr.write(
            f"budget {args.budget} exhausted: {result.explored} destabilizations "
            f"explored, {result.states} distinct states, best after "
            f"{result.steps} steps\n")
    return serialize.fibration_to_json(result.fibration), EXIT_OK


def _parse_move(text: str, size: int) -> tuple[int, str]:
    """``INDEX:L`` or ``INDEX:R`` as (index, direction) for a fibration of
    ``size`` cycles; a refusal echoes the value clipped."""
    from .errors import InputError, clipped

    parts = text.split(":")
    if len(parts) != 2 or parts[1] not in ("L", "R"):
        raise InputError(f"--move wants the form INDEX:L or INDEX:R, got {clipped(text)!r}")
    try:
        index = int(parts[0])
    except ValueError:
        raise InputError(f"bad move index in {clipped(text)!r}") from None
    if not 1 <= index < size:  # hurwitz_move's refusal would echo every digit
        raise InputError(f"move position {clipped(index)} out of range 1..{size - 1}")
    return index, parts[1]


def cmd_hurwitz(args) -> tuple[dict, int]:
    from . import serialize
    from .fibration import hurwitz_move

    f = _read_fibration(args.file)
    for spec in args.move:
        index, direction = _parse_move(spec, f.size)
        f = hurwitz_move(f, index, direction)
    return serialize.fibration_to_json(f), EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefschetz",
        description="Monodromy calculus for Lefschetz fibrations over bounded surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *positionals):
        p = sub.add_parser(name, help=help)
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(func=func)
        return p

    p = command("census", cmd_census, "count (and list) curve types on a fiber")
    p.add_argument("genus", type=_integer)
    p.add_argument("boundary", type=_integer)
    p.add_argument("--enumerate", action="store_true")

    p = command("build", cmd_build, "emit a standard fibration file")
    p.add_argument("name", choices=["u_11", "u_10", "u_g1", "p_g"])
    p.add_argument("--g", type=_integer, default=None)

    command("invariants", cmd_invariants, "total-space invariants of a fibration file", "file")

    p = command("check-universal", cmd_check_universal,
                "universality report and verdict exit code", "file")
    p.add_argument("--strong", action="store_true")

    p = command("witness", cmd_witness, "search a pullback witness plan")
    p.add_argument("-u", "--source", required=True)
    p.add_argument("-f", "--target", required=True)
    p.add_argument("--depth", type=_integer, default=None)

    p = command("reduce", cmd_reduce,
                "breadth-first search for a maximally destabilized fibration", "file")
    p.add_argument("--budget", type=_integer, default=100)

    p = command("hurwitz", cmd_hurwitz, "apply elementary moves to the cycle sequence", "file")
    p.add_argument("--move", action="append", required=True, metavar="INDEX:L|R")

    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: write its document to stdout or --out, and return
    its exit code; a refused input or a failed write is one error line on
    stderr and exit 2, with nothing written."""
    args = _build_parser().parse_args(argv)
    from . import serialize
    from .errors import CapacityError, InputError, NotApplicable, Unsupported

    try:
        doc, code = args.func(args)
        try:
            text = serialize.dumps(doc)
        except ValueError:  # json writes no int past the int-string digit limit
            raise CapacityError("the result has an integer of more than 4300 digits") from None
        if args.out is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise InputError(f"cannot write {args.out}: {exc}") from None
    except (InputError, CapacityError, NotApplicable, Unsupported) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
