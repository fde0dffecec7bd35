"""Runs one workload in a process of its own; started by ``run.py``.

Prints ``READY`` once set-up is done (``lefschetz`` imported, seeded inputs
and fixture files made), right before the first timed operation, and at the
end one JSON line with the run's figures.  With ``--setup-only`` it stops
after ``READY``, which is how ``run.py`` samples set-up time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

WORKER_START = perf_counter()

MIN_OPS = 100       # so that at least ten latencies lie above the 90th percentile
WALL_LIMIT_S = 120  # stop adding rounds past this, whatever the run length asked

SUBCOMMANDS = ("census", "build", "invariants", "check-universal", "witness",
               "reduce", "hurwitz")


class Tally:
    """Latencies and outcomes of the operations run so far."""

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self.latencies: list[float] = []
        self.failed = 0
        self.unexpected: list[str] = []
        self.budgeted = 0
        self.undecided = 0

    @property
    def timed_s(self) -> float:
        return sum(self.latencies)

    def run(self, ops, tracer=None) -> float:
        """Run the operations one after another; returns their timed total."""
        total = 0.0
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(self.latencies)
                frame = tracer.open_span(f"op.{op.kind}")
                tracer.active = True
            error = None
            t0 = perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # counted as a failed operation
                result, error = None, exc
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
                tracer.close(frame, tracer.stat(f"op.{op.kind}"), t0 + dt)
            total += dt
            self.kinds.append(op.kind)
            self.latencies.append(dt)
            self._account(op, result, error)
        return total

    def _account(self, op, result, error) -> None:
        ok = False
        if error is None:
            try:
                ok = bool(op.check(result))
            except Exception as exc:
                error = exc
        if not ok:
            self.failed += 1
            if not op.known_defect:
                self.unexpected.append(f"{op.kind}: {error!r}" if error else f"{op.kind}: wrong output")
        if op.undecided is not None:
            self.budgeted += 1
            if error is None and op.undecided(result):
                self.undecided += 1


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def make_workload(name: str, seed: int, workdir: Path, root: Path, in_process_cli: bool):
    import workloads
    if name == "cli":
        import cli_mix
        workdir.mkdir(parents=True, exist_ok=True)
        wl = cli_mix.CliMix(seed, workdir, str(root / "src"))
        wl.in_process = in_process_cli
        return wl
    return {"algebra": workloads.Algebra, "oracle": workloads.Oracle,
            "search": workloads.Search}[name](seed)


def timed_run(wl, per_run, first_round, seconds: float) -> dict:
    """Per-run operations, then whole rounds until ``seconds`` of timed work."""
    tally = Tally()
    tally.run(per_run)
    rounds, round_s, ops = 0, 0.0, first_round
    while True:
        round_s += tally.run(ops)
        rounds += 1
        done = tally.timed_s + 0.5 * round_s / rounds >= seconds
        if (done and len(tally.latencies) >= MIN_OPS) or perf_counter() - WORKER_START > WALL_LIMIT_S:
            break
        ops = wl.round_ops(rounds)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    n = len(tally.latencies)
    return {
        "rounds": rounds,
        "attempted": n,
        "failed": tally.failed,
        "unexpected": tally.unexpected[:5],
        "unexpected_count": len(tally.unexpected),
        "budgeted": tally.budgeted,
        "undecided": tally.undecided,
        "timed_s": tally.timed_s,
        "ops_per_s": n / tally.timed_s,
        "op_p50_ms": 1000 * statistics.median(tally.latencies),
        "op_p90_ms": 1000 * percentile(tally.latencies, 90),
        "peak_rss_mb": peak_kb / 1024,
    }


def _median_ms(argv: list[str], env: dict, samples: int = 5) -> float:
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        times.append(perf_counter() - t0)
    return 1000 * statistics.median(times)


def layer_metrics(wl, tracer, plain: list[Tally], traced: Tally, root: Path) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""

    def stat(name: str) -> tracing.Stat:
        return tracer.stats.get(name) or tracing.Stat()

    m: dict[str, tuple[float, str]] = {}
    for name in ("homology.mat_mul", "homology.smith_normal_form",
                 "mapping.mcg_surjectivity_oracle", "fibration.substitution_witness",
                 "fibration.destabilize"):
        m[f"{name}.calls"] = (stat(name).calls, "count")
    m["homology.mat_vec.calls"] = (stat("homology.mat_vec").calls, "count")
    for name in ("homology.mat_mul", "homology.preserves_pairing", "homology.smith_normal_form",
                 "mapping.evaluate", "mapping.twist_matrix", "mapping.mcg_surjectivity_oracle",
                 "mapping.perm_group_surjective", "curves.enumerate_classes",
                 "fibration.hurwitz_move", "fibration.global_conjugate",
                 "fibration.twist_product", "fibration.total_space_invariants",
                 "fibration.universality_report", "fibration.substitution_witness",
                 "fibration.pullback", "fibration.destabilize", "fibration.reduce",
                 "serialize.fibration_loads", "serialize.dumps"):
        m[f"{name}.self_s"] = (stat(name).self_s, "s")
    oracle = stat("mapping.mcg_surjectivity_oracle")
    for status in ("certified", "obstructed", "unknown"):
        m[f"mapping.mcg_surjectivity_oracle.{status}"] = (oracle.outcomes.get(status, 0), "count")
    witness = stat("fibration.substitution_witness")
    m["fibration.substitution_witness.found"] = (witness.outcomes.get("found", 0), "count")
    m["fibration.substitution_witness.mat_mul_per_call"] = (
        witness.mat_mul_inside / witness.calls if witness.calls else 0, "count")
    destab = stat("fibration.destabilize")
    m["fibration.destabilize.applicable_ratio"] = (
        (destab.calls - destab.raised) / destab.calls if destab.calls else 0, "ratio")
    m["fibration.reduce.exhausted"] = (stat("fibration.reduce").outcomes.get("exhausted", 0), "count")

    # The cli figures are only measured on the cli workload; 0 elsewhere.
    interp = imp = 0.0
    by_sub = {s: [] for s in SUBCOMMANDS}
    if wl.name == "cli":
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        interp = _median_ms([sys.executable, "-c", "pass"], env)
        imp = _median_ms([sys.executable, "-c", "import lefschetz.cli"], env) - interp
        for tally in plain:
            for kind, dt in zip(tally.kinds, tally.latencies):
                by_sub[kind].append(dt)
    m["cli.interp_ms"] = (interp, "ms")
    m["cli.import_ms"] = (imp, "ms")
    for sub, times in by_sub.items():
        m[f"cli.{sub}.p50_ms"] = (1000 * statistics.median(times) if times else 0, "ms")
    untraced_s = statistics.mean(t.timed_s for t in plain)
    m["trace.overhead_frac"] = (traced.timed_s / untraced_s - 1, "frac")
    m["src.lines"] = (src_lines(root), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def traced_run(wl, per_run, first_round, root: Path, seed: int) -> dict:
    """A fixed list of operations, run untraced, traced, and untraced again.

    The list (per-run operations plus ``trace_rounds`` rounds) depends only
    on the seed, so every count repeats exactly from run to run.  The
    tracing overhead compares the traced pass with the mean of the two
    untraced ones, which brackets it in time.
    """
    ops = list(per_run) + list(first_round)
    for k in range(1, wl.trace_rounds):
        ops += wl.round_ops(k)
    before, traced, after = Tally(), Tally(), Tally()
    before.run(ops)
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        traced.run(ops, tracer)
    finally:
        tracing.uninstall(patched)
    after.run(ops)
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{wl.name}-{seed}.json")
    unexpected = before.unexpected + traced.unexpected + after.unexpected
    return {
        "attempted": len(traced.latencies),
        "failed": traced.failed,
        "unexpected": unexpected[:5],
        "unexpected_count": len(unexpected),
        "metrics": layer_metrics(wl, tracer, [before, after], traced, root),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    root = Path(args.root)

    import lefschetz  # noqa: F401  (part of set-up)

    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = make_workload(args.workload, args.seed, workdir, root, bool(args.trace))
        per_run = wl.per_run_ops()
        first_round = wl.round_ops(0)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = traced_run(wl, per_run, first_round, root, args.seed)
        else:
            result = timed_run(wl, per_run, first_round, args.seconds)
            result["src_lines"] = src_lines(root)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
