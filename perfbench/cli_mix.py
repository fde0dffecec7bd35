"""The ``cli`` workload: all seven subcommands, one call at a time.

Fixture files are written once, during set-up, into a work directory of
the checkout.  Every round runs the same commands in a seeded order, so
repeated calls of one command can be compared byte for byte.  Untraced runs
start ``python -m lefschetz.cli`` as a subprocess per call, which is what a
user pays; the traced run calls ``lefschetz.cli.main(argv)`` in-process so
that spans reach below it.

Each command's expected exit code and stdout are rendered in-process with
``serialize.dumps`` from the same library calls, outside the timed region.
A small share of the inputs are malformed: two are refused with exit 2
today, and three (a non-UTF-8 file, ``MF_DEPTH=abc`` and an unwritable
``--out``) are known to escape as a traceback with exit 1.  All five are
expected to exit 2 with empty stdout, so the three known defects count as
failed operations.
"""

from __future__ import annotations

import importlib
import io
import os
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import lefschetz.fibration as fib
import lefschetz.serialize as ser
from lefschetz.curves import (
    class_count,
    enumerate_classes,
    nonseparating_curve,
    separating_curve,
)
from lefschetz.fibration import ANNULUS, DISK, LefschetzFibration, SignedCycle
from lefschetz.homology import SurfaceSpec
from lefschetz.mapping import boundary_permutation_gen, twist_catalog

from workloads import Op, random_curve, random_word, round_rng, unreachable_target

EXIT_OK, EXIT_NEGATIVE, EXIT_INPUT, EXIT_UNKNOWN = 0, 1, 2, 3


def _ac7_fibration(rng, genus: int, boundary: int, n: int) -> LefschetzFibration:
    s = SurfaceSpec(genus, boundary)
    return LefschetzFibration(s, DISK, tuple(
        SignedCycle(random_curve(rng, s), rng.choice((1, -1))) for _ in range(n)))


class Command:
    """One CLI invocation and the in-process rendering it must match."""

    def __init__(self, subcommand: str, argv: list[str], expect, env=None,
                 known_defect: bool = False, budgeted: bool = False) -> None:
        self.subcommand = subcommand
        self.argv = argv
        self.expect = expect  # () -> (exit code, stdout bytes, stderr flag)
        self.env = env or {}
        self.known_defect = known_defect
        self.budgeted = budgeted
        self._expected = None
        self.first_stdout: bytes | None = None

    def expected(self):
        if self._expected is None:
            self._expected = self.expect()
        return self._expected


def _refused():
    return EXIT_INPUT, b"", None


class CliMix:
    name = "cli"
    trace_rounds = 10

    def __init__(self, seed: int, workdir: Path, pythonpath: str) -> None:
        self.seed = seed
        self.dir = workdir
        # the witness default depth must be the documented 4, in-process too
        os.environ.pop("MF_DEPTH", None)
        self.env = dict(os.environ, PYTHONPATH=pythonpath)
        self.in_process = False
        self.commands = self._fixtures(round_rng(self.name, seed, "fixtures"))

    # -- fixtures ---------------------------------------------------------

    def _write(self, name: str, f: LefschetzFibration) -> str:
        path = self.dir / name
        path.write_text(ser.fibration_dumps(f), encoding="utf-8")
        return str(path)

    def _fixtures(self, rng) -> list[Command]:
        cmds: list[Command] = []
        dumps = ser.dumps

        def fibration_out(f):
            return EXIT_OK, dumps(ser.fibration_to_json(f)).encode(), None

        # census
        for enum in (False, True, True):
            g, b = rng.randint(0, 3), rng.randint(1, 5)

            def census(g=g, b=b, enum=enum):
                s = SurfaceSpec(g, b)
                doc = {"surface": ser.surface_to_json(s), "count": class_count(s)}
                if enum:
                    doc["classes"] = [ser.curve_class_to_json(c) for c in enumerate_classes(s)]
                return EXIT_OK, dumps(doc).encode(), None

            cmds.append(Command("census", ["census", str(g), str(b)]
                                + (["--enumerate"] if enum else []), census))

        # build
        for name in ("u_g1", "p_g", "u_g1", "u_11"):
            g = rng.randint(2, 6) if name != "u_11" else None
            argv = ["build", name] + (["--g", str(g)] if g is not None else [])
            cmds.append(Command("build", argv,
                                lambda name=name, g=g: fibration_out(fib.build(name, g))))

        # invariants
        for i in range(4):
            f = _ac7_fibration(rng, rng.randint(1, 3), rng.randint(0, 3), rng.randint(3, 12))
            path = self._write(f"inv{i}.json", f)
            cmds.append(Command("invariants", ["invariants", path], lambda f=f: (
                EXIT_OK, dumps(ser.invariant_report_to_json(
                    fib.total_space_invariants(f))).encode(), None)))

        # check-universal: certified catalog, positive family (not strongly
        # universal), a catalog missing one curve (obstructed), and an
        # annulus fibration whose verdict stays unknown
        g = rng.randint(2, 4)
        s = SurfaceSpec(2, 1)
        short = list(twist_catalog(s))
        del short[rng.randrange(len(short))]
        fs = SurfaceSpec(1, 2)
        swap = boundary_permutation_gen(fs, (1, 0), "swap")
        a, b = nonseparating_curve(fs, (1, 0, 0), "a"), nonseparating_curve(fs, (0, 1, 0), "b")
        annulus = LefschetzFibration(fs, ANNULUS, (
            SignedCycle(a, 1), SignedCycle(b, -1),
            SignedCycle(separating_curve(fs, {1}, (0, 1), "d"), rng.choice((1, -1)))), (swap,))
        for i, (f, strong) in enumerate([
            (fib.u_g1(g), True),
            (fib.p_g(rng.randint(2, 3)), True),
            (LefschetzFibration(s, DISK, tuple(SignedCycle(c, 1) for c in short)), False),
            (annulus, False),
        ]):
            path = self._write(f"uni{i}.json", f)

            def universal(f=f, strong=strong):
                r = fib.universality_report(f)
                verdict = r.strongly_universal if strong else r.universal
                code = {"yes": EXIT_OK, "no": EXIT_NEGATIVE, "unknown": EXIT_UNKNOWN}[verdict]
                return code, dumps(ser.universality_report_to_json(r)).encode(), None

            cmds.append(Command("check-universal", ["check-universal", path]
                                + (["--strong"] if strong else []), universal, budgeted=True))

        # witness: two reachable targets and one out of reach at depth 2
        u = fib.u_g1(2)
        source = self._write("u.json", u)
        targets = [fib.global_conjugate(u, random_word(rng, u, 1, 2)) for _ in range(2)]
        targets.append(unreachable_target(rng, u, 2))
        for i, (t, depth) in enumerate(zip(targets, (None, 3, 2))):
            path = self._write(f"target{i}.json", t)

            def witness(t=t, depth=depth):
                d = 4 if depth is None else depth
                plan = fib.substitution_witness(u, t, d)
                if plan is None:
                    return EXIT_UNKNOWN, dumps({"found": False, "depth": d}).encode(), None
                doc = {"found": True, "depth": d}
                doc.update(ser.plan_to_json(plan))
                return EXIT_OK, dumps(doc).encode(), None

            cmds.append(Command("witness", ["witness", "-u", source, "-f", path]
                                + ([] if depth is None else ["--depth", str(depth)]),
                                witness, budgeted=True))
        leak_target = path  # the unreachable one

        # reduce: small and stabilized inputs, and u_g1(9), which exhausts
        # the command's default budget of 100
        for i, f in enumerate([
            fib.u_g1(rng.randint(2, 4)),
            fib.stabilize(fib.p_g(rng.randint(2, 4)), "boundary_up", rng.choice((1, -1))),
            fib.u_g1(rng.randint(5, 6)),
            fib.u_g1(9),
        ]):
            path = self._write(f"reduce{i}.json", f)

            def reduce_(f=f):
                r = fib.reduce(f, 100)
                return EXIT_OK, dumps(ser.fibration_to_json(r.fibration)).encode(), r.exhausted

            cmds.append(Command("reduce", ["reduce", path], reduce_, budgeted=True))

        # hurwitz
        for i in range(3):
            f = _ac7_fibration(rng, rng.randint(1, 2), rng.randint(1, 3), rng.randint(3, 8))
            path = self._write(f"hurwitz{i}.json", f)
            moves = [(rng.randint(1, f.size - 1), rng.choice("LR")) for _ in range(rng.randint(1, 4))]

            def hurwitz(f=f, moves=moves):
                for index, direction in moves:
                    f = fib.hurwitz_move(f, index, direction)
                return fibration_out(f)

            cmds.append(Command("hurwitz", ["hurwitz", path]
                                + [x for m in moves for x in ("--move", f"{m[0]}:{m[1]}")], hurwitz))

        # malformed inputs, refused with exit 2 today
        bad = self.dir / "unknown_field.json"
        doc = ser.fibration_to_json(fib.u_g1(2))
        doc["extra"] = rng.randint(0, 9)
        bad.write_text(ser.dumps(doc), encoding="utf-8")
        cmds.append(Command("invariants", ["invariants", str(bad)], _refused))
        cmds.append(Command("hurwitz", ["hurwitz", source, "--move", f"{rng.randint(1, 4)}:Q"],
                            _refused))

        # known defects: these escape as a traceback with exit 1 today
        latin = self.dir / "latin1.json"
        latin.write_bytes(ser.fibration_dumps(fib.u_g1(2)).encode()[:-2] + b"\xff\xfe}\n")
        cmds.append(Command("invariants", ["invariants", str(latin)], _refused,
                            known_defect=True))
        cmds.append(Command("witness", ["witness", "-u", source, "-f", leak_target],
                            _refused, env={"MF_DEPTH": "abc"}, known_defect=True))
        cmds.append(Command("build", ["build", "u_g1", "--g", str(rng.randint(2, 4)),
                                      "--out", str(self.dir / "missing" / "out.json")],
                            _refused, known_defect=True))
        return cmds

    # -- running ----------------------------------------------------------

    def _subprocess(self, cmd: Command):
        env = dict(self.env, **cmd.env)
        p = subprocess.run([sys.executable, "-m", "lefschetz.cli", *cmd.argv],
                           env=env, cwd=self.dir, capture_output=True, timeout=120)
        return p.returncode, p.stdout, p.stderr

    def _in_process(self, cmd: Command):
        cli = importlib.import_module("lefschetz.cli")
        out, err = io.StringIO(), io.StringIO()
        saved = {k: os.environ.get(k) for k in cmd.env}
        os.environ.update(cmd.env)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(cmd.argv)
                except SystemExit as exc:  # argparse refusals
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # what the interpreter would print, with exit 1
                    traceback.print_exc()
                    code = 1
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return code, out.getvalue().encode(), err.getvalue().encode()

    def _op(self, cmd: Command) -> Op:
        def run():
            return self._in_process(cmd) if self.in_process else self._subprocess(cmd)

        def check(result) -> bool:
            code, stdout, stderr = result
            want_code, want_stdout, exhausted = cmd.expected()
            if cmd.first_stdout is None:
                cmd.first_stdout = stdout
            if (code, stdout) != (want_code, want_stdout) or stdout != cmd.first_stdout:
                return False
            if want_code == EXIT_INPUT:
                return stderr.startswith(b"error:") and stderr.count(b"\n") == 1
            return bool(exhausted) == (b"exhausted" in stderr)

        def undecided(result) -> bool:
            code, _, stderr = result
            return code == EXIT_UNKNOWN or b"exhausted" in stderr

        return Op(cmd.subcommand, run, check,
                  undecided if cmd.budgeted else None, cmd.known_defect)

    def per_run_ops(self) -> list[Op]:
        return []

    def round_ops(self, k: int) -> list[Op]:
        order = list(self.commands)
        round_rng(self.name, self.seed, k).shuffle(order)
        return [self._op(c) for c in order]
