#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 jbench/run.py --workload paper4_mix --seed 1 --seconds 30 --trace 0
    python3 jbench/run.py --self-test

Run from the repository root. The script configures jbench/ with CMake
(that package compiles ../src unchanged) into .bench_build/jbench, builds it,
and runs the jbench binary with the same arguments. The last line of standard
output is the JSON result; build output goes to standard error. With
--trace 1 the spans are written to .bench_build/traces/trace_<workload>.json
(Chrome trace-event JSON: open it in https://ui.perfetto.dev).

The exit status is the binary's: non-zero when a correctness check fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "jbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"jbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources at {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD / target


def run(cmd, timeout):
    """Run `cmd` with inherited stdout/stderr; kill it on timeout."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out after {timeout} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(run([str(build("jbench_selftest"))], timeout=600))
    if not args.workload:
        parser.error("--workload is required")

    binary = build("jbench")
    traces = ROOT / ".bench_build" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    sys.exit(run([str(binary), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--out", str(traces)],
                 timeout=RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
