#!/usr/bin/env python3
"""Steadiness evidence for the KiWi benchmark.

    python3 perfbench/steadiness.py --runs 10 [--workloads read_mostly,...]
                                    [--out perfbench/results/FILE.md]

Runs two interleaved sets (A, B) of the same build: for i in 1..runs, one
run of every workload for set A, then for set B, each with its own seed (A
uses seeds 1..runs, B uses runs+1..2*runs).  For every end-to-end metric of
BENCHMARK.json and every workload it prints the median and quartiles of
each set, the spread (interquartile range over the median, as
statistics.quantiles(values, n=4) gives the quartiles), and the change of
B's median against A's in the metric's bad direction, both against the
metric's bound.  The report starts with a host fingerprint.  Run it from
the repository root; it calls perfbench/run.py.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def read_first(path, default="?"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def fingerprint():
    model = "?"
    for line in read_first("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    index = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(index)) if os.path.isdir(index) else []:
        level = read_first(os.path.join(index, entry, "level"))
        kind = read_first(os.path.join(index, entry, "type"))
        size = read_first(os.path.join(index, entry, "size"))
        if kind in ("Unified", "Data"):
            caches.append("L%s %s %s" % (level, kind.lower(), size))
    commit = "?"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                                capture_output=True, text=True).stdout.strip() or "?"
    except OSError:
        pass
    return ["cpu: " + model,
            "nproc: %d" % os.cpu_count(),
            "caches (per cpu0 view): " + ", ".join(caches),
            "kernel: " + platform.release(),
            "build: Release, KIWI_STATS=ON, KIWI_TRACE=ON (perfbench/CMakeLists.txt)",
            "commit: " + commit]


def run_once(workload, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("run failed (%s seed %d): %s" % (workload, seed, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        print("WARNING: %s seed %d reported %d failed of %d" % (
            workload, seed, result["failed"], result["attempted"]), file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    values = {(s, w): [] for s in range(2) for w in workloads}
    started = time.time()
    for i in range(args.runs):
        for s in range(2):
            for w in workloads:
                values[(s, w)].append(run_once(w, 1 + i + s * args.runs, seconds))
        print("round %d/%d done after %.0f s" % (i + 1, args.runs, time.time() - started),
              file=sys.stderr)

    lines = ["# perfbench steadiness: %d runs x 2 sets, %d s per run" % (
        args.runs, seconds), ""]
    lines += ["- " + item for item in fingerprint()]
    lines += ["", "spread = (q3 - q1) / median of one set's runs; change = B's median "
              "against A's, positive when worse; both must stay within the bound.", ""]
    header = "| workload | metric | unit | set | median | q1 | q3 | spread | bound | change |"
    lines += [header, "|" + "---|" * 10]
    worst = 0.0
    for w in workloads:
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            medians = []
            for s in range(2):
                median, q1, q3, spread = summary([v[name] for v in values[(s, w)]])
                medians.append(median)
                worst = max(worst, spread / bound)
                change = ""
                if s == 1:
                    sign = 1 if spec["better"] == "lower" else -1
                    rel = sign * (medians[1] - medians[0]) / medians[0]
                    worst = max(worst, rel / bound)
                    change = "%+.4f" % rel
                lines.append("| %s | %s | %s | %s | %.6g | %.6g | %.6g | %.4f | %.2f | %s |" % (
                    w, name, spec["unit"], "AB"[s], median, q1, q3, spread, bound, change))
    lines += ["", "worst spread or change, as a share of its bound: %.3f" % worst]
    report = "\n".join(lines) + "\n"
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)


if __name__ == "__main__":
    main()
