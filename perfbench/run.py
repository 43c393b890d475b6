#!/usr/bin/env python3
"""Build and run the ppfs sweep benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a ppfs source tree. The first call configures and
builds the driver (perfbench/CMakeLists.txt) in .bench_build/perfbench;
later calls only rebuild what changed. The driver's output is passed
through; its last line is the JSON result, whose metric names and units
are checked against BENCHMARK.json before it is printed. --trace 1 also
writes the run's spans to .bench_build/perfbench-traces/. Exit status is
0 only when the build, the run and every correctness check succeeded.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "perfbench-traces"
BINARY = BUILD_DIR / "ppfs_perfbench"
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no ppfs sources (CMakeLists.txt, src/) under {ROOT}")
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        shutil.rmtree(BUILD_DIR)  # configured for another checkout
    if not cache.exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "--target",
                   "ppfs_perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {units}"
    return None


def run(args):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    problem = None
    try:
        problem = check_result(lines[-1], args.trace)
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        problem = f"last line is not a result: {e}"
    if problem is not None:
        print("\n".join(lines))
        fail(problem, 1)
    print("\n".join(lines), flush=True)
    return proc.returncode


def selftest():
    code = subprocess.run([str(BINARY), "--selftest"]).returncode
    listed = subprocess.run([str(BINARY), "--list-metrics"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.split("\n")
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        got = {}
        for row in listed:
            fields = row.split()
            if len(fields) == 3 and fields[0] == kind:
                got[fields[1]] = fields[2]
        ok = got == expected_metrics(trace)
        print(f"{'ok  ' if ok else 'FAIL'} driver {kind} metric names and units match BENCHMARK.json")
        code = code or (0 if ok else 1)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None or args.trace is None):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    build()
    sys.exit(selftest() if args.selftest else run(args))


if __name__ == "__main__":
    main()
