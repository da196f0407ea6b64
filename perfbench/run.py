#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (default
.bench_build) under perfbench/; run files (the provenance JSON, the trace
file, the map snapshot, determinism records) go to perfbench-work/ beside
it.  Build output goes to stderr; the last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
every end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer
metric (--trace 1).  Exits non-zero, without a result line, when the
engine sources are missing or the build fails, and with a result whose
"correct" is false when a correctness check fails.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_contract():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "eslam.h")):
        fail("engine sources (src/) not found; run from a full checkout")
    log = sys.stderr
    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                            "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=log, stderr=log,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=log, stderr=log,
                       timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")
    return os.path.join(build_dir, "perfbench")


def to_result(line, section, metrics):
    """Turns the program's values line into the contract's result line.

    The program prints {"correct", "attempted", "failed", "values"}; the
    contract's metric list, with its units, lives only in BENCHMARK.json.
    A name the contract does not list, or a missing end-to-end metric, is
    an error; a per-layer metric the workload does not exercise is 0."""
    try:
        run = json.loads(line)
    except ValueError:
        return None, "the last line is not JSON"
    if not isinstance(run, dict) or set(run) != {
            "correct", "attempted", "failed", "values"}:
        return None, "the last line is not a values line"
    values = run["values"]
    unknown = sorted(set(values) - set(metrics))
    if unknown:
        return None, f"metrics not in BENCHMARK.json {section}: {unknown}"
    missing = sorted(set(metrics) - set(values))
    if section == "end_to_end" and missing:
        return None, f"end-to-end metrics not reported: {missing}"
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in metrics.items()},
    }, None


def main():
    contract = load_contract()
    workloads = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    binary = build(os.path.join(target, "perfbench"))
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)

    try:
        run = subprocess.run([binary, "--workload", args.workload,
                              "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", args.trace],
                             cwd=work, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").splitlines()
    section = "per_layer" if args.trace == "1" else "end_to_end"
    metrics = {m["name"]: m["unit"] for m in contract[section]}
    result, error = (to_result(lines[-1], section, metrics) if lines
                     else (None, "no output"))
    for line in lines[:-1]:
        print(line)
    if result is None:
        fail(f"the program exited {run.returncode} without a valid result: {error}")
    print(json.dumps(result))
    sys.exit(0 if run.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
