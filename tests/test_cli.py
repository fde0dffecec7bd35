"""Wire format and command-line behavior, including the exit-code contract."""

from __future__ import annotations

import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import cli
from lefschetz.cli import main
from lefschetz.curves import nonseparating_curve, separating_curve
from lefschetz.errors import CapacityError, InputError
from lefschetz.fibration import ANNULUS, DISK, LefschetzFibration, SignedCycle, p_g, u_11, u_g1
from lefschetz.homology import MAX_CYCLES, SurfaceSpec
from lefschetz.mapping import Letter, MCWord, TwistGen, boundary_permutation_gen
from lefschetz.reduction import reduce
from lefschetz.serialize import (
    dumps,
    fibration_dumps,
    fibration_loads,
    fibration_to_json,
    plan_from_json,
    plan_to_json,
)
from lefschetz.witness import MeridianPlan, PlanEntry, identity_plan


def _write(tmp_path, name, fibration):
    path = tmp_path / name
    path.write_text(fibration_dumps(fibration), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_fibration_round_trip_byte_stable():
    for f in (u_11(), u_g1(3), p_g(2)):
        text = fibration_dumps(f)
        again = fibration_loads(text)
        assert again == f
        assert fibration_dumps(again) == text


def test_bundle_round_trip():
    fib = SurfaceSpec(1, 2)
    swap = boundary_permutation_gen(fib, (1, 0), "swap")
    f = LefschetzFibration(
        fib, ANNULUS, (SignedCycle(nonseparating_curve(fib, (1, 0, 0), "a"), 1),),
        (swap,))
    doc = fibration_to_json(f)
    assert doc["bundle"][0]["perm"] == [2, 1]  # 1-based on the wire
    assert fibration_loads(fibration_dumps(f)) == f


def test_unknown_fields_rejected():
    doc = fibration_to_json(u_11())
    doc["extra"] = 1
    with pytest.raises(InputError):
        fibration_loads(json.dumps(doc))
    doc = fibration_to_json(u_11())
    doc["cycles"][0]["curve"]["color"] = "red"
    with pytest.raises(InputError):
        fibration_loads(json.dumps(doc))


def test_invalid_content_rejected():
    doc = fibration_to_json(u_11())
    doc["cycles"][0]["curve"]["hom"] = [0, 0]  # inessential
    with pytest.raises(InputError):
        fibration_loads(json.dumps(doc))
    doc = fibration_to_json(u_11())
    doc["cycles"][0]["sign"] = 2
    with pytest.raises(InputError):
        fibration_loads(json.dumps(doc))
    with pytest.raises(InputError):
        fibration_loads("not json")
    plan = json.loads(json.dumps(FUZZ_PLAN))
    plan["entries"][0]["conjugator"][0]["handed"] = "both"
    with pytest.raises(InputError, match="bad handedness"):
        plan_from_json(plan, FUZZ_PLAN_SURFACE)


def test_plan_round_trip():
    u = u_g1(2)
    plan = identity_plan(u)
    doc = plan_to_json(plan)
    again = plan_from_json(doc, u.fiber)
    assert again == plan
    assert dumps(plan_to_json(again)) == dumps(doc)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

# one argv per subcommand -> its parsed namespace, defaults included
PARSED = [
    (["census", "2", "1"],
     {"command": "census", "genus": 2, "boundary": 1, "enumerate": False, "out": None}),
    (["build", "u_g1"], {"command": "build", "name": "u_g1", "g": None, "out": None}),
    (["invariants", "f.json"], {"command": "invariants", "file": "f.json", "out": None}),
    (["check-universal", "f.json"],
     {"command": "check-universal", "file": "f.json", "strong": False, "out": None}),
    (["witness", "-u", "u.json", "-f", "f.json"],
     {"command": "witness", "source": "u.json", "target": "f.json", "depth": None,
      "out": None}),
    (["reduce", "f.json"], {"command": "reduce", "file": "f.json", "budget": 100, "out": None}),
    (["hurwitz", "f.json", "--move", "1:R", "--out", "o.json"],
     {"command": "hurwitz", "file": "f.json", "move": ["1:R"], "out": "o.json"}),
]


# what each subcommand's --help must name, besides -h, --help and --out
HELP_NAMES = {
    "census": ["genus", "boundary", "--enumerate"],
    "build": ["u_11", "u_10", "u_g1", "p_g", "--g"],
    "invariants": ["file"],
    "check-universal": ["file", "--strong"],
    "witness": ["-u", "--source", "-f", "--target", "--depth"],
    "reduce": ["file", "--budget"],
    "hurwitz": ["file", "--move", "INDEX:L|R"],
}


@pytest.mark.parametrize("argv, want", PARSED, ids=[a[0] for a, _ in PARSED])
def test_parser_namespace_and_help(argv, want, capsys):
    args = cli._build_parser().parse_args(argv)
    func = vars(args).pop("func")
    assert vars(args) == want
    assert func is getattr(cli, "cmd_" + argv[0].replace("-", "_"))
    # argparse's help layout differs across Python versions: check names only
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for name in ["-h", "--help", "--out"] + HELP_NAMES[argv[0]]:
        assert name in text


def test_top_level_help_names_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for command in HELP_NAMES:
        assert command in text


def test_census_command(capsys):
    assert main(["census", "1", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1
    assert main(["census", "0", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2
    assert main(["census", "2", "3", "--enumerate"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 4 and len(doc["classes"]) == 4


def test_build_and_invariants(tmp_path, capsys):
    out = str(tmp_path / "f.json")
    assert main(["build", "u_g1", "--g", "3", "--out", out]) == 0
    assert fibration_loads((tmp_path / "f.json").read_text()) == u_g1(3)
    assert main(["invariants", out]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "allowable": True,
        "euler": 2,
        "h1_free_rank": 0,
        "h1_torsion": [],
        "h2_rank": 1,
        "signs": {"negative": 2, "positive": 5},
    }


def test_build_argument_errors(capsys):
    assert main(["build", "u_g1"]) == 2  # missing genus
    capsys.readouterr()
    assert main(["build", "p_g", "--g", "0"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["build", "nonsense"])  # argparse rejects the choice
    assert exc.value.code == 2


@pytest.mark.parametrize("name", ["u_11", "u_10"])
def test_build_refuses_a_genus_for_a_fixed_fiber(name, capsys):
    # these two have a torus fiber; a genus used to be ignored silently
    assert main(["build", name, "--g", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: builder {name} takes no genus parameter\n"
    assert main(["build", name]) == 0
    assert fibration_loads(capsys.readouterr().out).fiber.genus == 1


def test_check_universal_exit_codes(tmp_path, capsys):
    strong = _write(tmp_path, "u.json", u_g1(2))
    positive = _write(tmp_path, "p.json", p_g(2))
    assert main(["check-universal", strong, "--strong"]) == 0
    capsys.readouterr()
    assert main(["check-universal", positive, "--strong"]) == 1
    capsys.readouterr()
    assert main(["check-universal", positive]) == 0
    capsys.readouterr()

    fib = SurfaceSpec(1, 2)
    cyc = (
        SignedCycle(nonseparating_curve(fib, (1, 0, 0), "a"), 1),
        SignedCycle(nonseparating_curve(fib, (0, 1, 0), "b"), -1),
    )
    disk2 = _write(tmp_path, "d.json", LefschetzFibration(fib, DISK, cyc))
    assert main(["check-universal", disk2]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["cond_perm"] is False

    # all checkable conditions hold but there is no generating certificate
    # for a two-boundary fiber, so the verdict stays open
    cyc3 = cyc + (SignedCycle(separating_curve(fib, {1}, (0, 1), "d"), 1),)
    swap = boundary_permutation_gen(fib, (1, 0), "swap")
    unknown = _write(
        tmp_path, "unk.json", LefschetzFibration(fib, ANNULUS, cyc3, (swap,)))
    code = main(["check-universal", unknown])
    doc = json.loads(capsys.readouterr().out)
    assert doc["cond_lef"]["status"] == "unknown"
    assert code == 3


def test_witness_command(tmp_path, capsys):
    u = _write(tmp_path, "u.json", u_g1(2))
    assert main(["witness", "-u", u, "-f", u]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["found"] is True and doc["immersion"] is True
    assert doc["depth"] == 4

    other = _write(tmp_path, "o.json", u_11())
    assert main(["witness", "-u", u, "-f", other]) == 2


def test_witness_depth_env(tmp_path, capsys, monkeypatch):
    u = _write(tmp_path, "u.json", u_g1(2))
    monkeypatch.setenv("MF_DEPTH", "1")
    assert main(["witness", "-u", u, "-f", u]) == 0
    assert json.loads(capsys.readouterr().out)["depth"] == 1
    assert main(["witness", "-u", u, "-f", u, "--depth", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["depth"] == 2


def test_witness_past_word_bound_refused(tmp_path, capsys):
    # 20 distinct non-separating classes give 40 letters: depth 4 counts
    # 2,625,641 words; the walk once ran past 30 s on such a source
    s = SurfaceSpec(3, 1)
    vectors = [v for v in itertools.product((0, 1), repeat=6) if any(v)][:20]
    source = LefschetzFibration(s, DISK, tuple(
        SignedCycle(nonseparating_curve(s, v), 1) for v in vectors))
    u = _write(tmp_path, "u.json", source)
    f = _write(tmp_path, "f.json", u_g1(3))
    start = time.perf_counter()
    _assert_refused(main(["witness", "-u", u, "-f", f]), capsys)
    _assert_refused(main(["witness", "-u", f, "-f", f, "--depth", str(10**9)]), capsys)
    assert time.perf_counter() - start < 5


def test_reduce_command(tmp_path, capsys):
    path = _write(tmp_path, "u.json", u_g1(2))
    assert main(["reduce", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fiber"] == {"boundary": 3, "genus": 0}
    assert sorted(c["sign"] for c in doc["cycles"]) == [-1, -1, 1]
    _assert_refused(main(["reduce", path, "--budget", "-3"]), capsys)
    _assert_refused(main(["reduce", path, "--budget", str(10**6 + 1)]), capsys)


def test_reduce_exhausted_names_budget_and_counts(tmp_path, capsys):
    path = _write(tmp_path, "u.json", u_g1(9))
    assert main(["reduce", path, "--budget", "5"]) == 0
    captured = capsys.readouterr()
    r = reduce(u_g1(9), 5)
    assert r.exhausted
    assert captured.out == fibration_dumps(r.fibration)
    assert captured.err == (
        f"budget 5 exhausted: {r.explored} destabilizations explored, "
        f"{r.states} distinct states, best after {r.steps} steps\n")


def test_hurwitz_round_trip_bytes(tmp_path, capsys):
    path = _write(tmp_path, "u.json", u_g1(2))
    assert main(["hurwitz", path, "--move", "1:R", "--move", "1:L"]) == 0
    out = capsys.readouterr().out
    assert out == (tmp_path / "u.json").read_text()
    assert main(["hurwitz", path, "--move", "9:R"]) == 2
    capsys.readouterr()
    assert main(["hurwitz", path, "--move", "bogus"]) == 2
    capsys.readouterr()


def test_determinism_repeat_invocations(capsys):
    assert main(["census", "3", "5", "--enumerate"]) == 0
    first = capsys.readouterr().out
    assert main(["census", "3", "5", "--enumerate"]) == 0
    assert capsys.readouterr().out == first
    assert main(["build", "p_g", "--g", "3"]) == 0
    b1 = capsys.readouterr().out
    assert main(["build", "p_g", "--g", "3"]) == 0
    assert capsys.readouterr().out == b1


def test_missing_file(capsys):
    assert main(["invariants", "/nonexistent/f.json"]) == 2


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "lefschetz.cli", "census", "0", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 2


def _assert_refused(code, capsys):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_non_utf8_file_refused(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(fibration_dumps(u_g1(2)).encode()[:-2] + b"\xff\xfe}\n")
    _assert_refused(main(["invariants", str(path)]), capsys)


def test_non_integer_depth_env_refused(tmp_path, capsys, monkeypatch):
    u = _write(tmp_path, "u.json", u_g1(2))
    monkeypatch.setenv("MF_DEPTH", "abc")
    _assert_refused(main(["witness", "-u", u, "-f", u]), capsys)


def test_unwritable_out_refused(tmp_path, capsys):
    out = str(tmp_path / "missing" / "out.json")
    _assert_refused(main(["build", "u_g1", "--g", "2", "--out", out]), capsys)


def test_deeply_nested_json_refused(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    _assert_refused(main(["invariants", str(path)]), capsys)


def test_oversized_fiber_refused(tmp_path, capsys):
    # genus 1000: the Smith form ran out of memory and the oracle's order of
    # Sp(2000, 2) was past the int-string digit limit
    doc = {"fiber": {"genus": 1000, "boundary": 1}, "base": {"genus": 0, "boundary": 1},
           "cycles": [], "bundle": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("invariants", "check-universal"):
        _assert_refused(main([command, str(path)]), capsys)
    with pytest.raises(CapacityError):
        fibration_loads(json.dumps(doc))


def _torus_cycles(count):
    t = SurfaceSpec(1, 1)
    a, b = nonseparating_curve(t, (1, 0), "a"), nonseparating_curve(t, (0, 1), "b")
    return t, tuple(SignedCycle((a, b)[k % 2], 1) for k in range(count))


def test_cycle_count_bound(tmp_path, capsys):
    # invariants on F(50, 1) with 1,000 cycles took 33 s in the Smith form
    t, cycles = _torus_cycles(MAX_CYCLES)
    f = LefschetzFibration(t, DISK, cycles)
    assert fibration_loads(fibration_dumps(f)) == f
    assert main(["invariants", _write(tmp_path, "at.json", f)]) == 0
    capsys.readouterr()
    t, cycles = _torus_cycles(MAX_CYCLES + 1)
    message = f"^{MAX_CYCLES + 1} vanishing cycles exceed the desk-scale bound {MAX_CYCLES}$"
    with pytest.raises(CapacityError, match=message):
        LefschetzFibration(t, DISK, cycles)
    doc = fibration_to_json(f)
    doc["cycles"].append(doc["cycles"][0])
    path = tmp_path / "past.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CapacityError, match=message):
        fibration_loads(path.read_text())
    _assert_refused(main(["invariants", str(path)]), capsys)
    # the reader counts before it builds a curve
    doc["cycles"] = [{}] * (MAX_CYCLES + 1)
    with pytest.raises(CapacityError, match=message):
        fibration_loads(json.dumps(doc))


def test_census_enumeration_past_rank_bound_refused(capsys):
    # census 1500 1500 --enumerate ran for 33 s; the closed-form count is kept
    assert main(["census", "50", "1", "--enumerate"]) == 0  # rank 100
    assert len(json.loads(capsys.readouterr().out)["classes"]) == 1
    for genus, boundary in (("50", "2"), ("1500", "1500")):
        _assert_refused(main(["census", genus, boundary, "--enumerate"]), capsys)
    assert main(["census", "1500", "1500"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1125001


def test_build_past_rank_bound_refused(tmp_path, capsys):
    # build u_g1 --g 100 wrote a rank-200 file that every reader refused
    out = tmp_path / "f.json"
    assert main(["build", "u_g1", "--g", "50", "--out", str(out)]) == 0
    assert fibration_loads(out.read_text()) == u_g1(50)
    for name in ("u_g1", "p_g"):
        _assert_refused(main(["build", name, "--g", "51"]), capsys)
    with pytest.raises(CapacityError):
        u_g1(10**6)


# G has 4,300 digits, the most that int() parses by default; H has 2,200
G, H = "9" * 4300, "9" * 2200


@pytest.mark.parametrize("argv", [
    ["census", H, H],                      # the count has over 4,300 digits
    ["census", G, "1", "--enumerate"],     # so has the fiber rank 2G
    ["build", "u_g1", "--g", G],           # these two built lists of 2G + 1 signs
    ["build", "p_g", "--g", G],
    ["census", H, "1", "--enumerate"],     # these three echoed all 2,201 digits of 2H
    ["build", "u_g1", "--g", H],
    ["build", "p_g", "--g", H],
], ids=["census", "census-enumerate", "build-u_g1", "build-p_g", "census-enumerate-rank",
        "build-u_g1-rank", "build-p_g-rank"])
def test_oversized_integer_argument_refused(argv, capsys):
    # the G calls used to leak a ValueError or OverflowError traceback as exit 1
    _assert_one_short_refusal(main(argv), capsys)


@pytest.mark.parametrize("builder", [u_g1, p_g])
def test_builder_checks_the_rank_before_allocating(builder):
    # u_g1(10**6) allocated 30.5 MB before it refused the fiber
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            builder(10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_oversized_depth_is_not_echoed(tmp_path, capsys, monkeypatch):
    # the two refusals used to print the whole 4,300- or 4,301-digit depth
    u = _write(tmp_path, "u.json", u_g1(2))
    for env, argv in [(G + "9", []), (None, ["--depth", G])]:
        if env is None:
            monkeypatch.delenv("MF_DEPTH", raising=False)
        else:
            monkeypatch.setenv("MF_DEPTH", env)
        code = main(["witness", "-u", u, "-f", u, *argv])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 200


@pytest.mark.parametrize("argv", [
    ["census", G + "9", "1"],
    ["census", "1", G + "9"],
    ["build", "u_g1", "--g", G + "9"],
    ["witness", "-u", "u.json", "-f", "f.json", "--depth", G + "9"],
    ["reduce", "f.json", "--budget", G + "9"],
], ids=["census-genus", "census-boundary", "build", "witness", "reduce"])
def test_integer_argument_past_the_digit_limit_is_not_echoed(argv, capsys):
    # argparse's type=int printed all 4,301 digits of the refused value
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert len(err.encode()) < 400
    assert err.endswith(": invalid int value: '99999999999999999999...'\n")


@pytest.mark.parametrize("spec", [G + "9:L", G + "9:X", G + ":L"],
                         ids=["past-the-limit", "bad-direction", "out-of-range"])
def test_oversized_move_is_not_echoed(spec, tmp_path, capsys):
    # the three refusals printed all 4,300 or 4,301 digits of the index
    path = _write(tmp_path, "u.json", u_g1(2))
    code = main(["hurwitz", path, "--move", spec])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 400
    assert "99999999999999999999..." in err


def test_short_move_refusals_are_echoed_as_before(tmp_path, capsys):
    path = _write(tmp_path, "u.json", u_g1(2))
    n = u_g1(2).size
    for spec, message in [("0:L", f"move position 0 out of range 1..{n - 1}"),
                          ("x:R", "bad move index in 'x:R'"),
                          ("1:X", "--move wants the form INDEX:L or INDEX:R, got '1:X'")]:
        assert main(["hurwitz", path, "--move", spec]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_short_non_integer_argument_is_echoed_as_before(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "x", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument genus: invalid int value: 'x'\n")


def test_integer_past_the_digit_limit_refused(tmp_path, capsys):
    doc = fibration_to_json(u_g1(2))
    text = dumps(doc).replace('"hom": [', '"hom": [' + "1" * 4401 + ",", 1)
    path = tmp_path / "big.json"
    path.write_text(text, encoding="utf-8")
    _assert_refused(main(["invariants", str(path)]), capsys)


def _assert_one_short_refusal(code, capsys) -> str:
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 400
    return err


@pytest.mark.parametrize("keys, value, command, shown", [
    # the base's 2G + 1 free loops are past the digit limit: a traceback, exit 1
    (("base", "genus"), G, "invariants", " (too many digits to show) "),
    (("base", "genus"), G, "check-universal", " (too many digits to show) "),
    (("base", "genus"), G, "reduce", " (too many digits to show) "),
    (("fiber", "genus"), "-" + G, "invariants", "(-9999999999999999999..., 2)"),
    (("fiber", "genus"), H, "invariants", "fiber rank 19999999999999999999... exceeds"),
    (("base", "boundary"), G, "invariants", " 99999999999999999999... "),
    (("cycles", 2, "curve", "class", "sep", 0, 0), G, "invariants", "((1, 1), (9999999999..."),
    (("cycles", 2, "curve", "hom", 2), G, "invariants", "(0, 0, 9999999999999..."),
    (("bundle", 0, "perm", 0), G, "invariants", "(9999999999999999999..."),
    (("cycles", 2, "curve", "class", "sep", 1), f"[{G}, 0]", "invariants",
     "sides ((0, 1), (9999999999..."),
    (("cycles", 2, "curve", "class"), f'"{G}"', "invariants", " '9999999999999999999..."),
    (("x" * 4300,), "1", "invariants", " ['xxxxxxxxxxxxxxxxxx..."),
], ids=["base-genus-invariants", "base-genus-check-universal", "base-genus-reduce",
        "fiber-genus", "fiber-rank", "base-boundary", "separating-sides", "separating-class",
        "perm", "separating-side-without-boundary", "curve-class-kind", "unknown-field"])
def test_oversized_file_value_is_clipped(keys, value, command, shown, tmp_path, capsys):
    # each refusal echoed a 4,300-digit value in full, or leaked a ValueError
    # traceback as exit 1
    doc = fibration_to_json(_annulus_fixture())
    entry = doc
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = "@"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc).replace('"@"', value), encoding="utf-8")
    assert shown in _assert_one_short_refusal(main([command, str(path)]), capsys)


# a field value of the right JSON shape that a record constructor refuses,
# and the one line the CLI prints for it
FIELD_VALUE_REFUSALS = [
    (("fiber", "genus"), True, "surface genus must be an int"),
    (("base", "boundary"), 1.5, "base boundary must be an int"),
    (("cycles", 0, "curve", "hom", 0), 1.0, "curve class entry must be an int"),
    (("cycles", 0, "sign"), True, "cycle sign must be an int"),
    (("cycles", 0, "curve", "label"), 5, "curve label must be a str"),
    (("cycles", 2, "curve", "class", "sep", 0, 0), False, "separating side entry must be an int"),
    (("bundle", 0, "matrix", 0, 0), True, "matrix entry must be an int"),
    # true - 1 would be a valid 0-based entry
    (("bundle", 0, "perm", 1), True, "perm entry must be an int"),
    (("bundle", 0, "label"), [], "bundle label must be a str"),
]


@pytest.mark.parametrize("path, value, message", FIELD_VALUE_REFUSALS,
                         ids=[m for *_, m in FIELD_VALUE_REFUSALS])
def test_field_values_are_refused_by_the_record_constructors(path, value, message,
                                                             tmp_path, capsys):
    doc = fibration_to_json(_annulus_fixture())
    obj = doc
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    file = tmp_path / "f.json"
    file.write_text(dumps(doc), encoding="utf-8")
    assert main(["hurwitz", str(file), "--move", "1:R"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_census_of_an_oversized_negative_genus_is_clipped(capsys):
    err = _assert_one_short_refusal(main(["census", "-" + G, "1"]), capsys)
    assert err == "error: invalid surface (-9999999999999999999..., 1)\n"


# ---------------------------------------------------------------------------
# exit-code fuzzing on mutated fixture files
# ---------------------------------------------------------------------------

def _annulus_fixture():
    fib = SurfaceSpec(1, 2)
    cycles = (
        SignedCycle(nonseparating_curve(fib, (1, 0, 0), "a"), 1),
        SignedCycle(nonseparating_curve(fib, (0, 1, 0), "b"), -1),
        SignedCycle(separating_curve(fib, {1}, (0, 1), "d"), 1),
    )
    return LefschetzFibration(fib, ANNULUS, cycles, (boundary_permutation_gen(fib, (1, 0), "swap"),))


def _plan_fixture():
    u = u_g1(2)
    letters = [Letter(TwistGen(c.curve, h), p)
               for c in u.cycles[:2] for h in ("right", "left") for p in (1, -1)]
    entries = tuple(PlanEntry(i, MCWord(u.fiber, tuple(letters[i:i + 2])), (-1) ** i)
                    for i in range(u.size))
    return u.fiber, plan_to_json(MeridianPlan(entries))


FUZZ_FIBRATIONS = [fibration_to_json(f) for f in (u_11(), u_g1(2), _annulus_fixture())]
FUZZ_PLAN_SURFACE, FUZZ_PLAN = _plan_fixture()

_json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=8)
    | st.sampled_from([0, 1, -1, 2, 3, 7, 10**6, -(10**30), "nonsep", "right", "left"])
    | st.integers(-50, 50) | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["genus", "boundary", "hom", "class", "sep", "sign", "curve",
                         "label", "matrix", "perm", "source", "conjugator", "handed",
                         "power", "local_degree", "entries", "x"]), inner, max_size=3),
    max_leaves=8)


def _nodes(doc, path=()):
    """The path (keys and list indices) of every node below the root of a
    JSON document, in a fixed order."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    out = []
    for k, v in items:
        out.append(path + (k,))
        out.extend(_nodes(v, path + (k,)))
    return out


def _mutate(data, doc, text_edits: bool = True) -> str:
    """One to three structural edits, or one edit of the JSON text.

    An edit changes a number or string leaf to another of its kind (most
    often, so that many mutants still load), replaces a node by any JSON
    value, deletes it, or adds a field or list element.
    """
    if text_edits and data.draw(st.integers(0, 4)) == 0:
        text = dumps(doc)
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 4)))
        return text[:i] + data.draw(st.text(max_size=3)) + text[j:]
    doc = json.loads(json.dumps(doc))

    def node(path):
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        return parent, path[-1]

    for _ in range(data.draw(st.integers(1, 3))):
        nodes = _nodes(doc)
        leaves = [p for p in nodes if isinstance(node(p)[0][p[-1]], (int, str))]
        action = data.draw(st.sampled_from(["tweak", "tweak", "replace", "delete", "add"]))
        if not (leaves if action == "tweak" else nodes):
            break
        parent, key = node(data.draw(st.sampled_from(leaves if action == "tweak" else nodes)))
        if action == "tweak" and isinstance(parent[key], str):
            parent[key] = data.draw(st.sampled_from(["nonsep", "right", "left", "sep", ""]))
        elif action == "tweak":
            parent[key] = data.draw(st.integers(-3, 3) | st.sampled_from([10**6, -(10**30)]))
        elif action == "replace":
            parent[key] = data.draw(_json_values)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[data.draw(st.sampled_from(["x", "label", "power"]))] = data.draw(_json_values)
        else:
            parent.insert(key, data.draw(_json_values))
    return dumps(doc)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzz_fibration_loads_and_cli_exit_codes(data):
    doc = data.draw(st.sampled_from(FUZZ_FIBRATIONS))
    text = _mutate(data, doc)
    try:
        fibration_loads(text)
    except (InputError, CapacityError):
        pass
    command = data.draw(st.sampled_from([
        ["invariants"], ["check-universal"], ["check-universal", "--strong"],
        ["reduce", "--budget", "20"], ["hurwitz", "--move", "1:R"],
        ["witness", "--depth", "1", "-u"], ["witness", "--depth", "1", "-f"]]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if command[0] == "witness":
            other = os.path.join(tmp, "fixture.json")
            with open(other, "w", encoding="utf-8") as fh:
                fh.write(dumps(doc))
            command = command + [path, "-u" if command[-1] == "-f" else "-f", other]
        else:
            command = command[:1] + [path] + command[1:]
        code, out, err = _run_cli(command)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert command[0] == "check-universal"
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzz_plan_from_json(data):
    doc = json.loads(_mutate(data, FUZZ_PLAN, text_edits=False))
    try:
        plan_from_json(doc, FUZZ_PLAN_SURFACE)
    except (InputError, CapacityError):
        pass
