#!/usr/bin/env python3
"""The rfidsim benchmark: one command, two workloads.

    python3 perfbench/run.py --workload paper_sweep|fleet_replay \
        --seed N --seconds S --trace 0|1 [--update-golden]

Run from the repository root. Builds perfbench/ (the library sources plus
the rfidbench program, Release) into .bench_build/, runs one workload, checks its
output digests against perfbench/golden_digests.json when that file pins
the seed, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. Exits 0 only when every output
check passed.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN = os.path.join(BENCH_DIR, "golden_digests.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries the report.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed (exit %d): %s" % (done.returncode, " ".join(cmd)))
    return os.path.join(BUILD_DIR, "rfidbench")


def catalogue(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["paper_sweep", "fleet_replay"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--update-golden", action="store_true",
                    help="pin this run's digests for this workload and seed")
    args = ap.parse_args()

    expected_metrics = catalogue(args.trace)
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode not in (0, 1):
        fail("rfidbench exited with %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
        digests = next(json.loads(l[len("DIGESTS "):]) for l in lines
                       if l.startswith("DIGESTS "))
    except (ValueError, StopIteration):
        fail("rfidbench printed no result")

    # BENCHMARK.json is the metric catalogue. A metric outside it, or in
    # another unit, is an error of the benchmark itself. A per-layer metric
    # the workload does not compute reads 0 (the workload bypasses that
    # layer); a missing end-to-end metric is a failed check.
    metrics = result["metrics"]
    unknown = sorted(n for n, m in metrics.items()
                     if expected_metrics.get(n) != m["unit"])
    if unknown:
        fail("metrics outside BENCHMARK.json or in another unit: %s" % unknown)
    for name, unit in expected_metrics.items():
        if name not in metrics:
            metrics[name] = {"value": 0, "unit": unit}
            if not args.trace:
                result["attempted"] += 1
                result["failed"] += 1
                print("CHECK FAILED: end-to-end metric %s was not computed" % name)

    with open(GOLDEN) as f:
        golden = json.load(f)
    pinned = golden.setdefault(args.workload, {}).get(str(args.seed))
    if args.update_golden:
        golden[args.workload][str(args.seed)] = digests
        with open(GOLDEN, "w") as f:
            json.dump(golden, f, indent=2, sort_keys=True)
            f.write("\n")
        print("pinned %s seed %d: %s" % (args.workload, args.seed, digests))
    elif pinned is not None:
        for name, value in sorted(pinned.items()):
            result["attempted"] += 1
            if digests.get(name) != value:
                result["failed"] += 1
                print("CHECK FAILED: digest %s = %s, pinned %s" %
                      (name, digests.get(name), value))
        print("golden digests for seed %d checked" % args.seed)
    else:
        print("no golden digests pinned for seed %d" % args.seed)

    result["correct"] = bool(result["correct"]) and result["failed"] == 0
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
