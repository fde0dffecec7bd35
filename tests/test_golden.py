"""CLI stdout and exit codes, and each demo's stdout, pinned byte for byte.

``data/cli_golden.json`` lists argv, exit code and stdout of ``cli.main``
calls on the fixtures below, which are written to a temporary directory; an
argv entry naming a fixture file is replaced by its path.  Each call is run
again with ``--out``, which must write that stdout to the file instead.
``data/demos`` holds each demo's stdout.  Both run in-process.
"""

from __future__ import annotations

import json
import runpy
from pathlib import Path

import pytest

from lefschetz.cli import main
from lefschetz.curves import nonseparating_curve
from lefschetz.fibration import (
    ANNULUS,
    LefschetzFibration,
    SignedCycle,
    global_conjugate,
    p_g,
    u_10,
    u_11,
    u_g1,
)
from lefschetz.homology import SurfaceSpec
from lefschetz.mapping import TwistGen, boundary_permutation_gen, twist_catalog, twist_word
from lefschetz.reduction import stabilize
from lefschetz.serialize import fibration_dumps

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "data" / "cli_golden.json").read_text(encoding="utf-8"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _annulus() -> LefschetzFibration:
    fib = SurfaceSpec(1, 2)
    cycles = (
        SignedCycle(nonseparating_curve(fib, (1, 0, 0), "a"), 1),
        SignedCycle(nonseparating_curve(fib, (0, 1, 0), "b"), -1),
        SignedCycle(nonseparating_curve(fib, (1, 1, 1), "e"), 1),
    )
    return LefschetzFibration(fib, ANNULUS, cycles, (boundary_permutation_gen(fib, (1, 0), "swap"),))


def fixtures() -> dict[str, LefschetzFibration]:
    b1, _, a1 = twist_catalog(SurfaceSpec(3, 1))[:3]
    return {
        "u_11.json": u_11(),
        "u_10.json": u_10(),
        "u_g1_2.json": u_g1(2),
        "u_g1_3.json": u_g1(3),
        "p_g_1.json": p_g(1),
        "p_g_2.json": p_g(2),
        "p_g_3.json": p_g(3),
        "stab_u_g1_2.json": stabilize(u_g1(2), "boundary_up"),
        "conj_u_g1_3.json": global_conjugate(u_g1(3), twist_word(TwistGen(b1), TwistGen(a1))),
        "annulus.json": _annulus(),
    }


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, f in fixtures().items():
        (root / name).write_text(fibration_dumps(f), encoding="utf-8")
    return root


def test_golden_covers_every_fixture_and_subcommand():
    names = set(fixtures())
    used = {a for call in GOLDEN for a in call["argv"] if a in names}
    assert used == names
    assert {call["argv"][0] for call in GOLDEN} == {
        "census", "build", "invariants", "check-universal", "witness", "reduce", "hurwitz"}


def _argv(call, fixture_dir) -> list[str]:
    return [str(fixture_dir / a) if a.endswith(".json") else a for a in call["argv"]]


@pytest.mark.parametrize("call", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_cli_output_is_pinned(call, fixture_dir, capsys):
    code = main(_argv(call, fixture_dir))
    assert (code, capsys.readouterr().out) == (call["exit"], call["stdout"])


@pytest.mark.parametrize("call", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_cli_out_file_holds_the_pinned_stdout(call, fixture_dir, tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = _argv(call, fixture_dir)
    code = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (call["exit"], "")
    # stderr is one error line on exit 2, else empty but for reduce's budget line
    lines = captured.err.splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()
    else:
        assert lines == [] or (argv[0] == "reduce" and len(lines) == 1
                               and lines[0].startswith("budget "))
        assert out.read_bytes() == call["stdout"].encode("utf-8")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_output_is_pinned(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    want = (ROOT / "tests" / "data" / "demos" / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
