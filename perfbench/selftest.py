#!/usr/bin/env python3
"""Self-test of the benchmark: short runs of every workload.

    python3 perfbench/selftest.py [--seconds 1]

Run it from the repository root. For each workload of BENCHMARK.json, and
for the ungated train-sim, it runs the benchmark untraced and traced on two
seeds (1 and the documented unseen seed 7919) and checks that

  * every metric BENCHMARK.json names is emitted with its declared unit
    (end_to_end untraced, per_layer traced) and nothing else is;
  * each run checked its outputs and none failed;
  * the two seeds generate different inputs (their input fingerprints
    differ) but emit identical metric-name sets;
  * the traced run's trace file loads as Chrome-trace JSON.

Exits 0 when every check holds, 1 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 7919)
# Runnable workloads that BENCHMARK.json does not gate (see README.md).
UNGATED_WORKLOADS = ("train-sim",)


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0 or len(lines) < 2:
        return None, None
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    problems = []
    for workload in [w["name"] for w in spec["workloads"]] + list(UNGATED_WORKLOADS):
        for trace in (0, 1):
            names = {}
            fingerprints = {}
            for seed in SEEDS:
                label = f"{workload} seed {seed} trace {trace}"
                info, result = run(workload, seed, args.seconds, trace)
                if result is None:
                    problems.append(f"{label}: no result")
                    continue
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{label}: outputs failed their checks {info['errors']}")
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if got != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(got))
                    extra = sorted(set(got) - set(expected[trace]))
                    wrong = sorted(n for n in got if n in expected[trace]
                                   and got[n] != expected[trace][n])
                    problems.append(f"{label}: missing {missing} extra {extra} unit {wrong}")
                names[seed] = set(got)
                fingerprints[seed] = info["input_fingerprint"]
                if trace:
                    try:
                        with open(info["trace_file"]) as f:
                            events = json.load(f)
                        if not any(e.get("ph") == "X" for e in events):
                            problems.append(f"{label}: trace file holds no spans")
                    except (KeyError, OSError, ValueError) as error:
                        problems.append(f"{label}: trace file unreadable ({error})")
                print(f"{label}: {len(got)} metrics, inputs {fingerprints[seed]}", flush=True)
            if len(names) == len(SEEDS):
                if names[SEEDS[0]] != names[SEEDS[1]]:
                    problems.append(f"{workload} trace {trace}: seeds emit different metric names")
                if fingerprints[SEEDS[0]] == fingerprints[SEEDS[1]]:
                    problems.append(f"{workload} trace {trace}: seeds generated identical inputs")

    for problem in problems:
        print("FAIL:", problem)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
