#!/usr/bin/env python3
"""Build the repository from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve_batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all           # every workload in turn
    python3 perfbench/run.py --workload llc_study --bless   # re-record digests

The program is built with dune in the release profile into .bench_build/
(with dune's shared cache disabled, so nothing is written outside the
checkout), then perfbench/bench.exe runs the workload in its own process.  The last
line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; see perfbench/README.md.
"""

import argparse
import json
import os
import re
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["solve_batch", "llc_study", "replay_csv", "replay_summary"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the benchmark (and the libraries it links) from source."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout of the repository "
             "(dune-project and lib/ are missing)", 2)
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "--cache=disabled",
           "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 3)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (dune exit %d)" % r.returncode, 3)


def ocamlopt_flags():
    """The native-code flags dune applies to perfbench/ in this profile."""
    cmd = ["dune", "printenv", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "--cache=disabled", "perfbench"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120).stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    m = re.search(r"\(ocamlopt_flags\s*\(([^)]*)\)\)", out)
    return " ".join(m.group(1).split()) if m else "unknown"


def declared_metrics(traced):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def run_one(args, workload, flags):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--build-flags", flags]
    if args.bless:
        cmd.append("--bless")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s: no result within %d s" % (workload, RUN_TIMEOUT_S), 4)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail("%s: bench.exe exited with %d" % (workload, r.returncode), 4)
    result = json.loads(lines[-1])
    if sorted(result["metrics"]) != sorted(declared_metrics(args.trace == 1)):
        fail("%s: metric names differ from BENCHMARK.json" % workload, 5)
    return lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--bless", action="store_true",
                   help="re-record the default-seed output digests")
    args = p.parse_args()
    build()
    flags = ocamlopt_flags()
    if args.workload != "all":
        lines, _ = run_one(args, args.workload, flags)
        print("\n".join(lines))
        return
    # Every workload in its own process; the last line folds the results,
    # metric names prefixed with the workload.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        lines, result = run_one(args, w, flags)
        print("\n".join(line for line in lines[:-1]
                        if not line.startswith("report:")))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][w + "." + name] = m
    print(json.dumps(total))


if __name__ == "__main__":
    main()
