#!/usr/bin/env python3
"""Golden determinism oracle: every simulated output is compared exactly.

The simulator is deterministic, so a refactor that claims "no behaviour
change" can be checked mechanically. This script runs each bench and
example at a fixed seed and compares its output with the golden files in
this directory:

  - extension benches: `--smoke --seed 1 --json OUT`; the JSON result with
    every `wall` object removed (host wall-clock fields live there), plus
    stdout. cluster_scaleout's stdout prints wall-clock times, so only its
    JSON is compared.
  - paper benches: stdout of `--seed 1`.
  - examples: stdout.

sim_throughput and micro are left out: they measure only host wall-clock
time, so no output of theirs is reproducible.

Usage:
  golden.py --build BUILD_DIR [NAME ...]           check (all names if none)
  golden.py --build BUILD_DIR --update [NAME ...]  rewrite goldens, print diff
  golden.py --list                                 print the target names

A change that alters simulated behaviour on purpose regenerates the goldens
with --update and lists every changed field in CHANGES.md.
"""

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))

EXTENSION_BENCHES = [
    "cluster_scaleout",
    "dispatch_discipline",
    "fault_resilience",
    "incast",
    "latency_breakdown",
    "multitenant",
    "nic_recovery",
    "overload_surge",
]
# Benches whose stdout carries host wall-clock times.
WALL_CLOCK_STDOUT = {"cluster_scaleout"}

PAPER_BENCHES = [
    "ablation_crypto",
    "ablation_response_path",
    "ablation_tryagain",
    "core_scaling",
    "dynamic_services",
    "endsystem_latency",
    "fig2_rtt",
    "fig5_dispatch",
    "msgsize_crossover",
    "platform_projection",
    "tail_latency",
    "tryagain_energy",
]

EXAMPLES = [
    "cluster",
    "microservice_chain",
    "quickstart",
    "serverless_burst",
    "stack_shootout",
]

ALL_NAMES = EXTENSION_BENCHES + PAPER_BENCHES + EXAMPLES


def strip_wall(value):
    """Returns `value` with every object key named "wall" removed."""
    if isinstance(value, dict):
        return {k: strip_wall(v) for k, v in value.items() if k != "wall"}
    if isinstance(value, list):
        return [strip_wall(v) for v in value]
    return value


def run(name, build_dir):
    """Runs one target; returns {golden file name: text it produced}."""
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        if name in EXAMPLES:
            cmd = [os.path.join(build_dir, "examples", name)]
        else:
            cmd = [os.path.join(build_dir, "bench", name), "--seed", "1"]
        json_path = os.path.join(tmp, "out.json")
        if name in EXTENSION_BENCHES:
            cmd += ["--smoke", "--json", json_path]
        proc = subprocess.run(cmd, cwd=tmp, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{name}: exit status {proc.returncode}")
        if name not in WALL_CLOCK_STDOUT:
            outputs[name + ".stdout"] = proc.stdout
        if name in EXTENSION_BENCHES:
            with open(json_path) as f:
                result = strip_wall(json.load(f))
            outputs[name + ".json"] = json.dumps(result, indent=1) + "\n"
    return outputs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", help="CMake build directory")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden files and print the diff")
    parser.add_argument("--list", action="store_true",
                        help="print the target names, one per line")
    parser.add_argument("names", nargs="*", help="targets (default: all)")
    args = parser.parse_args()
    if args.list:
        print("\n".join(ALL_NAMES))
        return 0
    if args.build is None:
        parser.error("--build is required")

    names = args.names or ALL_NAMES
    unknown = [n for n in names if n not in ALL_NAMES]
    if unknown:
        parser.error("unknown target(s): " + ", ".join(unknown))

    build_dir = os.path.abspath(args.build)
    mismatches = 0
    for name in names:
        try:
            outputs = run(name, build_dir)
        except RuntimeError as err:
            print(err)
            mismatches += 1
            continue
        for file_name, actual in outputs.items():
            path = os.path.join(GOLDEN_DIR, file_name)
            expected = ""
            if os.path.exists(path):
                with open(path) as f:
                    expected = f.read()
            if actual == expected:
                continue
            diff = "".join(difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile="golden/" + file_name, tofile="actual/" + file_name))
            sys.stdout.write(diff)
            if args.update:
                with open(path, "w") as f:
                    f.write(actual)
                print(f"updated {file_name}")
            else:
                mismatches += 1
    if mismatches:
        print(f"{mismatches} golden check(s) failed; if the change is meant, "
              "rerun with --update and list the changed fields in CHANGES.md")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
