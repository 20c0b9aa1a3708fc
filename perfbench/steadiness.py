#!/usr/bin/env python3
"""Checks the benchmark against its own bounds; run from a checkout root.

    python3 perfbench/steadiness.py spread --workload W [--runs 10]
        Untraced runs with seeds 1..N; per end-to-end metric prints the
        median, the quartile spread (Q3 - Q1) / median, and the bound from
        BENCHMARK.json.  Exits 1 when a spread exceeds a third of its
        bound.
    python3 perfbench/steadiness.py repeat --workload W [--seed N]
        Two traced runs with one seed; exits 1 unless every exact count
        (sessions, invalidations, per-session traffic, slices per write...)
        reads the same in both.
    python3 perfbench/steadiness.py overhead --workload W [--seed N]
        One untraced and one traced run with one seed; prints traced
        ops_per_s against untraced ops_per_s.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that one seed must reproduce exactly: counted over the
# fixed operation prefix of a traced run, or structural.
EXACT = [
    "service.sessions_executed", "service.invalidations", "service.hit_ratio",
    "core.cover_rows", "core.semijoin_keep_ratio",
    "p2p.messages_per_session", "p2p.bytes_per_session",
    "p2p.rows_streamed_per_session",
    "cluster.rows_per_wire_fetch", "cluster.replica_attempts_per_fetch",
    "cluster.slices_per_write",
]


def run(workload, seed, trace, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run failed or incorrect")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(args):
    runs = [run(args.workload, seed, 0, args.seconds)
            for seed in range(args.first_seed, args.first_seed + args.runs)]
    steady = True
    for metric in CONFIG["end_to_end"]:
        name = metric["name"]
        values = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med
        ok = share <= metric["bound"] / 3
        steady &= ok
        print(f"{args.workload:12} {name:14} median {med:10.4f} "
              f"spread {share:6.3f} bound {metric['bound']:.2f} "
              f"{'ok' if ok else 'WIDE'}  "
              + " ".join(f"{v:.4g}" for v in values))
    return 0 if steady else 1


def repeat(args):
    first = run(args.workload, args.seed, 1, args.seconds)
    second = run(args.workload, args.seed, 1, args.seconds)
    same = True
    for name in EXACT:
        equal = first[name] == second[name]
        same &= equal
        print(f"{args.workload:12} {name:36} {first[name]:.6g} "
              f"{second[name]:.6g} {'same' if equal else 'DIFFERS'}")
    print(f"{args.workload:12} cluster.fetch_stalls "
          f"{first['cluster.fetch_stalls']:.0f} "
          f"{second['cluster.fetch_stalls']:.0f}; cluster.apply_stalls "
          f"{first['cluster.apply_stalls']:.0f} "
          f"{second['cluster.apply_stalls']:.0f}")
    return 0 if same else 1


def overhead(args):
    plain = run(args.workload, args.seed, 0, args.seconds)["ops_per_s"]
    traced = run(args.workload, args.seed, 1, args.seconds)["trace.ops_per_s"]
    print(f"{args.workload:12} untraced {plain:.2f} ops/s, traced "
          f"{traced:.2f} ops/s, traced/untraced {traced / plain:.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("spread", "repeat", "overhead"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=CONFIG["run_seconds"])
    args = parser.parse_args()
    return {"spread": spread, "repeat": repeat, "overhead": overhead}[
        args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
