#!/usr/bin/env python3
"""Builds the hyperion benchmark from source and runs one measurement.

    python3 perfbench/run.py --workload <service_rw|cluster_rw> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test     # build, then run helper tests

Run it from the root of a checkout.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), so the first
run compiles the libraries under src/ and later runs only relink what
changed.  Build output goes to stderr; the run's metric lines and its
closing JSON object go to stdout.  A traced run (--trace 1) also leaves
its spans, one JSON object per line, in <build dir>/spans/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170  # a whole run, build excluded, must end within 180 s


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"error: no hyperion sources under {ROOT / 'src'}")
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j4"], check=True,
                   stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (not args.workload or not args.seconds):
        parser.error("--workload and --seconds are required")

    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"error: build failed: {err}")
    if args.self_test:
        return subprocess.run(["ctest", "--test-dir", str(out),
                               "--output-on-failure"]).returncode

    work_dir = out / "run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    command = [str(out / "hyperion_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir)]
    if args.trace:
        (out / "spans").mkdir(exist_ok=True)
        command += ["--span-out",
                    str(out / "spans" / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.exit(f"error: run exceeded {RUN_TIMEOUT_S} s")
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(run.stdout)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if run.returncode == 0 and not (result and result.get("correct")):
        sys.exit("error: run ended without a correct result")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
