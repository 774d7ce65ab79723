#!/usr/bin/env python3
"""Gate line coverage of the simulator's sources after a --coverage ctest run.

Build with gcc's --coverage in Debug, run ctest, then point this script at
the build tree:

    cmake -B build-coverage -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-coverage -j
    ctest --test-dir build-coverage -j
    python3 tools/check_coverage.py build-coverage --min-line-pct 91.3

It runs gcov (JSON output) on every object under BUILD/src, keeps the
source files matching src/**/*.cc (headers are not counted), and fails when

  * the executed share of their instrumented lines is below --min-line-pct;
  * any line of src/cluster/invariants.cc that reports a violation (a
    `fail(` call) never ran: a checker whose reports no test reaches shows
    nothing about whether it can fail.

It prints the overall figure and the ten least-covered files.
"""
import argparse
import json
import os
import re
import subprocess
import sys

CHECKER = "src/cluster/invariants.cc"
FAIL_CALL = re.compile(r"\bfail\(")


def gcov_files(build_dir):
    """Yields gcov's JSON 'files' entries for every .gcda under build/src."""
    gcdas = []
    for root, _, names in os.walk(os.path.join(build_dir, "src")):
        gcdas.extend(os.path.join(root, n) for n in names
                     if n.endswith(".gcda"))
    for gcda in sorted(gcdas):
        out = subprocess.run(["gcov", "--json-format", "--stdout",
                              "--object-directory", os.path.dirname(gcda),
                              gcda],
                             check=True, capture_output=True, text=True).stdout
        # One JSON document per line of output.
        for doc in out.splitlines():
            if doc.strip():
                yield from json.loads(doc)["files"]


def relative_source(path, source_root):
    path = os.path.normpath(os.path.join(source_root, path))
    return os.path.relpath(path, source_root)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("build_dir")
    parser.add_argument("--min-line-pct", type=float, required=True)
    parser.add_argument("--source-root", default=os.getcwd())
    args = parser.parse_args()
    source_root = os.path.abspath(args.source_root)

    # line number -> executed, per source file. An object is compiled once
    # per library, so a .cc file appears in exactly one gcov run; lines seen
    # twice (a template instantiated twice) count as executed if either ran.
    lines = {}
    for entry in gcov_files(args.build_dir):
        rel = relative_source(entry["file"], source_root)
        if not (rel.startswith("src" + os.sep) and rel.endswith(".cc")):
            continue
        per_file = lines.setdefault(rel, {})
        for line in entry["lines"]:
            n = line["line_number"]
            per_file[n] = per_file.get(n, False) or line["count"] > 0
    if not lines:
        print(f"no src/**/*.cc coverage data under {args.build_dir}",
              file=sys.stderr)
        return 1

    total = sum(len(v) for v in lines.values())
    hit = sum(sum(v.values()) for v in lines.values())
    pct = 100.0 * hit / total
    print(f"src/**/*.cc line coverage: {pct:.2f}% "
          f"({hit} of {total} lines, {len(lines)} files)")
    ranked = sorted(lines.items(),
                    key=lambda kv: sum(kv[1].values()) / max(1, len(kv[1])))
    for rel, per_file in ranked[:10]:
        covered = 100.0 * sum(per_file.values()) / max(1, len(per_file))
        print(f"  {covered:5.1f}%  {rel}")

    failures = []
    if pct < args.min_line_pct:
        failures.append(f"line coverage {pct:.2f}% is below the recorded "
                        f"{args.min_line_pct:.1f}%")
    checker = lines.get(CHECKER)
    if checker is None:
        failures.append(f"no coverage data for {CHECKER}")
    else:
        with open(os.path.join(source_root, CHECKER)) as f:
            for number, text in enumerate(f, start=1):
                if FAIL_CALL.search(text) and not checker.get(number, False):
                    failures.append(f"{CHECKER}:{number} never ran: "
                                    f"{text.strip()}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
