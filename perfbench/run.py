#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload trace-30k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The program is built with CMake (Release) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset; the first run pays
for the build.  Its standard output is passed through; its last
line is the JSON result.  See perfbench/README.md for the metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The whole run must end within 180 s; the program measures for --seconds
# and this bounds anything that goes wrong past that.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources under {ROOT}; run from a full checkout")
    tree = out / "perfbench"
    subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(tree),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(tree), "--target", "dollymp_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return tree / "dollymp_perfbench"


def run(cmd):
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    try:
        program = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")
    snapshot = out / "perfbench-snapshot.bin"
    if args.self_test:
        code, _ = run([str(program), "--self-test", "--snapshot", str(snapshot)])
        sys.exit(code)

    traces = out / "perfbench-traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--snapshot", str(snapshot)]
    if args.trace == "1":
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    code, stdout = run(cmd)
    if code != 0:
        fail(f"benchmark exited with code {code}")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark result has unexpected keys")


if __name__ == "__main__":
    main()
