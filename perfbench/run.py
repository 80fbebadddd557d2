#!/usr/bin/env python3
"""Run one KiWi benchmark workload and print its result line.

    python3 perfbench/run.py --workload read_mostly --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The script builds the benchmark (Release,
KIWI_STATS=ON, KIWI_TRACE=ON) into .bench_build/perfbench from the sources in
the checkout, runs the workload, relays its report, and prints as the last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
metrics are the end_to_end list of BENCHMARK.json for --trace 0 and its
per_layer list for --trace 1.  --selftest builds and runs the verifier's
teeth test instead.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def run_timeout(seconds):
    """Wall-clock limit of one workload run: its measured window plus set-up,
    warm-up, the quiesce check and a traced run's probes."""
    return 1.5 * seconds + 60


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    """Configure once, then (re)build `target`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "kiwi_map.h")):
        fail("no KiWi sources under src/ next to perfbench/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j3", "--target", target])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="measured window; BENCHMARK.json's run_seconds by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_verifier_test")]).returncode)
    if not args.workload:
        fail("--workload is required")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload " + args.workload)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if not 1 <= seconds <= 60:
        fail("--seconds must be in [1, 60]")

    binary = build("kiwi_perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(
            BUILD, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=run_timeout(seconds))
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %.0f s of a %d s window" % (
            run_timeout(seconds), seconds))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("kiwi_perfbench exited with %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])

    source = report["layers"] if args.trace else report["gated"]
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        m = source.get(spec["name"])
        if m is None or m["value"] is None:
            fail("workload %s does not report %s" % (args.workload, spec["name"]))
        if m["unit"] != spec["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s" % (spec["name"], m["unit"], spec["unit"]))
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
