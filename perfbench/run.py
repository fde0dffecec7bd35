"""Benchmark of the lefschetz library: one workload, one closed-loop caller.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 25 --trace 0

runs one workload; all four, one after another:

    for w in algebra oracle search cli; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 25 --trace 0
    done

Run from the root of a checkout; the library is used from ``src/`` as it is.
Workloads: ``algebra``, ``oracle``, ``search`` (in-process library calls) and
``cli`` (``python -m lefschetz.cli`` subprocesses).  See ``workloads.py`` and
``cli_mix.py`` for what each one runs and how its outputs are checked, and
``rationale.json`` for why.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; set-up is sampled several times (each in a fresh
process) and reported as the median.  With ``--trace 1`` it holds the
per-layer metrics of a traced run instead, and the spans are written to
``.perfbench_out/``.  The lines before it say the same for a human reader.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("algebra", "oracle", "search", "cli")
SETUP_SAMPLES = 7
TIMEOUT_S = 170


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, list[str]]:
    """Start a worker; returns (seconds until it printed READY, its stdout lines)."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out") from None
    if first.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return ready, rest.splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lefschetz" / "__init__.py").is_file():
        return fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")

    deadline = perf_counter() + TIMEOUT_S
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--root", str(ROOT)]
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(argv + ["--setup-only"], env, deadline)[0])
        ready, lines = spawn(argv + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                             env, deadline)
    except RuntimeError as exc:
        return fail(str(exc))
    setups.append(ready)
    r = json.loads(lines[-1])
    correct = r["unexpected_count"] == 0
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={r['attempted']} failed={r['failed']} correct={correct}")
    for line in r["unexpected"]:
        print(f"  unexpected failure: {line}")

    if args.trace:
        metrics = r["metrics"]
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    else:
        n, budgeted = r["attempted"], r["budgeted"]
        failed_frac = r["failed"] / n
        undecided_frac = r["undecided"] / budgeted if budgeted else 0.0
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": r["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": r["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": r["op_p90_ms"], "unit": "ms"},
            "ok_frac": {"value": 1 - failed_frac, "unit": "frac"},
            "decided_frac": {"value": 1 - undecided_frac, "unit": "frac"},
            "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB"},
        }
        print(f"  rounds={r['rounds']} timed_s={r['timed_s']:.3f} src_lines={r['src_lines']}")
        print(f"  failed_frac={failed_frac:.4f} ({r['failed']}/{n}) "
              f"undecided_frac={undecided_frac:.4f} ({r['undecided']}/{budgeted})")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}"
                  + (f" (n={n})" if name.startswith("op_p") else "")
                  + (f" (median of {len(setups)})" if name == "setup_s" else ""))
    print(json.dumps({"correct": correct, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
