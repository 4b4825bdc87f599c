#!/usr/bin/env python3
"""Line coverage of src/**/*.cc from a --coverage build, with a floor.

Build with `--coverage`, run ctest (which writes the .gcda files), then:

  coverage.py --build BUILD_DIR [--floor PERCENT]

Sums executed and executable lines over every src/**/*.cc, using gcov's
JSON output (gcov ships with g++). Headers are left out: their inline code
is counted once per including object, so their sums would depend on how
many objects include them. Exits 1 when coverage is below --floor.
"""

import argparse
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src") + os.sep


def gcda_files(build_dir):
    for root, _, files in os.walk(build_dir):
        for name in files:
            if name.endswith(".gcda"):
                yield os.path.join(root, name)


def line_hits(build_dir):
    """Returns {source path: {line number: executed?}} for src/**/*.cc."""
    hits = {}
    for gcda in sorted(gcda_files(build_dir)):
        proc = subprocess.run(["gcov", "--json-format", "--stdout", gcda],
                              cwd=os.path.dirname(gcda), stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=True)
        for doc in proc.stdout.splitlines():
            if not doc.strip():
                continue
            for entry in json.loads(doc)["files"]:
                path = os.path.realpath(os.path.join(REPO, entry["file"]))
                if not (path.startswith(SRC) and path.endswith(".cc")):
                    continue
                lines = hits.setdefault(path, {})
                for line in entry["lines"]:
                    number = line["line_number"]
                    lines[number] = lines.get(number, False) or line["count"] > 0
    return hits


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", required=True, help="--coverage build directory")
    parser.add_argument("--floor", type=float, default=0.0,
                        help="fail below this line coverage, in percent")
    args = parser.parse_args()

    hits = line_hits(os.path.abspath(args.build))
    if not hits:
        print("no coverage data for src/**/*.cc; build with --coverage and run ctest")
        return 1
    total = sum(len(lines) for lines in hits.values())
    executed = sum(sum(lines.values()) for lines in hits.values())
    for path in sorted(hits):
        lines = hits[path]
        missed = len(lines) - sum(lines.values())
        print(f"{os.path.relpath(path, REPO)}: {missed} of {len(lines)} lines missed")
    percent = 100.0 * executed / total
    print(f"src/**/*.cc line coverage: {percent:.2f}% ({executed} of {total} lines), "
          f"floor {args.floor:.2f}%")
    if percent < args.floor:
        print("coverage is below the floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
