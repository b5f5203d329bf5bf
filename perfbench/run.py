#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under perfbench/, with the library compiled from ../src, so a
plain source checkout is enough. Build output goes to stderr; stdout carries
the benchmark's report, whose last line is the JSON result. A traced run
also writes a Chrome-trace file under <build dir>/traces/.

Exits non-zero without a result when the build fails (for example when the
library sources are missing) or the benchmark refuses to report.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# train-sim runs like the others but BENCHMARK.json does not gate it (README.md).
WORKLOADS = ("serve-miss", "serve-hit", "serve-stream", "train-sim")
RUN_TIMEOUT_S = 175


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "-j", jobs]
    for attempt in range(2):
        if attempt == 1:
            # A stale cache (e.g. configured from another source path).
            shutil.rmtree(build_dir, ignore_errors=True)
        ok = True
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            ok = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
        if ok:
            ok = subprocess.run(compile_, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
        if ok:
            return True
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    command = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace_out",
                    os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print(f"perfbench: benchmark exited with {run.returncode}", file=sys.stderr)
        return run.returncode
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(run.stdout)
        print("perfbench: the last line is not a result", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
