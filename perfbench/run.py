#!/usr/bin/env python3
"""wanplace benchmark: build, run one workload, print every metric.

Run from the repository root:

    python3 perfbench/run.py --workload select-q99 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the library
from src/) into .bench_build/perfbench; later calls only re-check the build.
The binary generates the seeded inputs under .bench_build/inputs, runs the
workload, checks every result and prints one "# metric" line per metric; the
last line of standard output is the result object. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "perfbench"
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build
WORKLOADS = ("select-q99", "serve-demand", "serve-churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the benchmark binary; output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no wanplace sources at {ROOT / 'src'}; run from a full checkout", 2)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH), "-B", str(BUILD),
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--parallel", jobs],
        check=True, stdout=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()))
    if not BINARY.is_file():
        fail("build produced no binary")


def source_identity():
    """git commit when available, plus a digest of the built sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    ident = "src:" + digest.hexdigest()[:16]
    try:
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            ident = "git:" + head.stdout.strip()[:12] + " " + ident
    except (OSError, subprocess.SubprocessError):
        pass
    return ident


def run_binary(workload, seed, seconds, trace, commit):
    """Run one workload; returns (stdout lines, result dict) or exits."""
    inputs = BUILD_ROOT / "inputs" / f"{workload}-{seed}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--dir", str(inputs), "--commit", commit]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        for line in lines:
            print(line, file=sys.stderr)
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result object")
    return lines, result


def deterministic(lines):
    for line in lines:
        if line.startswith("# deterministic "):
            return json.loads(line[len("# deterministic "):])
    return {}


def self_test(seed):
    """Run each workload briefly, untraced once and traced twice, with one
    seed, and require the deterministic outputs to repeat exactly; also
    require every run to be correct and to report exactly the metric names
    BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    commit = source_identity()
    problems = []
    for workload in WORKLOADS:
        runs = []
        for trace in (0, 1, 1):
            started = time.monotonic()
            lines, result = run_binary(workload, seed, 1, trace, commit)
            print(f"self-test: {workload} trace={trace} "
                  f"{time.monotonic() - started:.1f}s correct={result['correct']}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: a check failed")
            if sorted(result["metrics"]) != sorted(declared[trace]):
                problems.append(f"{workload} trace={trace}: metric names differ "
                                "from BENCHMARK.json")
            runs.append(deterministic(lines))
        untraced, first, second = runs
        if first != second:
            for key in sorted(set(first) | set(second)):
                if first.get(key) != second.get(key):
                    problems.append(f"{workload}: traced runs differ in {key}")
        for key, value in untraced.items():
            if first.get(key) != value:
                problems.append(f"{workload}: tracing changed {key}")
    for problem in problems:
        print("self-test FAIL: " + problem)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        build()
    except (subprocess.SubprocessError, OSError) as err:
        fail(f"build failed: {err}")
    if args.self_test:
        return self_test(args.seed)
    lines, _ = run_binary(args.workload, args.seed, args.seconds, args.trace,
                          source_identity())
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
