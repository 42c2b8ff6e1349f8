#!/usr/bin/env python3
"""Build the benchmark against this checkout's sources and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload offline-fp32 --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (which compiles
libwino from src/) into .bench_build/perfbench; later runs rebuild only what
changed. The benchmark binary prints its checks and every metric by name
with its unit; this script then checks that the metric set and units match
BENCHMARK.json and prints the result object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics, --trace 1 the per_layer ones.
Detail files (host block, per-phase accounting, sample counts, spans) go to
.bench_out/. Exits non-zero without a result line when anything fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 160


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure until a binary exists, then (re)build; build output goes to
    stderr so the result stays the last line of stdout."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    binary = os.path.join(BUILD_DIR, "perfbench")
    steps = []
    if not os.path.isfile(binary):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary")
    return binary


def expected_metrics(manifest, trace):
    section = manifest["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number >= 0")
    got = result["metrics"]
    if set(got) != set(expected):
        fail(f"metrics missing {sorted(set(expected) - set(got))}, "
             f"unexpected {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        value = got[name].get("value")
        if got[name].get("unit") != unit:
            fail(f"{name}: unit {got[name].get('unit')!r}, manifest {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: value {value!r} is not a finite number")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {manifest_path}: {e}")
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose one of {names}")

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("last line of the benchmark's output is not JSON")
    check_result(result, expected_metrics(manifest, args.trace))

    for line in lines[:-1]:
        print(line)
    detail = os.path.join(
        OUT_DIR, f"{args.workload}.{'trace' if args.trace else 'e2e'}.json")
    with open(detail) as f:
        print("host: " + json.dumps(json.load(f)["details"]["host"]))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
