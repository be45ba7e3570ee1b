#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from anywhere; paths are resolved from this file):

    python3 e2ebench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

The first call configures and builds a Release tree under .bench_build/
at the repository root (the library from src/ plus the e2e_bench binary);
later calls only check that it is up to date. Build output goes to
standard error. A traced run (--trace 1) also writes a Chrome trace-event
file to .bench_build/traces/.

BENCHMARK.json at the repository root is the one list of workloads,
metrics and units. The binary reports metric values by name; this script
checks the names against BENCHMARK.json (and, for the per-layer metrics,
against the workloads layers.json says each is measured on), prints every
metric with its unit, and ends standard output with the JSON result. Exits
non-zero, without a result, when the build fails or the names disagree,
and with the result marked incorrect when the benchmark finds a wrong
answer.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    return 1


def run_build_step(command):
    """Runs one cmake step with its output on stderr; True on success."""
    try:
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as error:
        print(f"run.py: cannot run {command[0]}: {error}", file=sys.stderr)
        return False
    return result.returncode == 0


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_build_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                               "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_build_step(["cmake", "--build", BUILD_DIR, "--target",
                           "e2e_bench", "-j", jobs])


def expected_metrics(benchmark, layers, workload, trace):
    """(unit by name in BENCHMARK.json order, names the binary must report).

    Raises ValueError when layers.json and BENCHMARK.json disagree."""
    listed = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}
    if not trace:
        return units, set(units)
    measured_on = {}
    for layer in layers["layers"]:
        measured_on.update(layer["metrics"])
    if set(measured_on) != set(units):
        raise ValueError("layers.json and BENCHMARK.json list different "
                         "per-layer metrics: "
                         f"{sorted(set(measured_on) ^ set(units))}")
    workloads = {w["name"] for w in benchmark["workloads"]}
    for name, where in measured_on.items():
        if not set(where) <= workloads:
            raise ValueError(f"layers.json: {name} is measured on unknown "
                             f"workloads {sorted(set(where) - workloads)}")
    return units, {name for name, where in measured_on.items()
                   if workload in where}


def run_binary(command):
    """Runs the benchmark binary; returns (exit code, standard output).

    The binary is stopped and waited for if this script is interrupted."""
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = process.communicate()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    return process.returncode, output


def main():
    # A termination request unwinds through run_binary, which stops the
    # binary before this script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            benchmark = json.load(f)
        with open(os.path.join(HERE, "layers.json")) as f:
            layers = json.load(f)
    except (OSError, ValueError) as error:
        return fail(f"cannot read the benchmark definition: {error}")

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    trace = args.trace == "1"
    try:
        units, required = expected_metrics(benchmark, layers, args.workload,
                                           trace)
    except (KeyError, ValueError) as error:
        return fail(str(error))

    if not build():
        return fail("build failed")

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if trace:
        command += ["--trace_out",
                    os.path.join(BUILD_ROOT, "traces",
                                 f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    code, output = run_binary(command)
    lines = output.splitlines()
    try:
        result = json.loads(lines[-1])
        reported = result["metrics"]
    except (IndexError, KeyError, TypeError, ValueError):
        sys.stdout.write(output)
        return fail(f"e2e_bench exited with {code} and no result")
    for line in lines[:-1]:
        print(line)
    if set(reported) != required:
        missing = sorted(required - set(reported))
        unexpected = sorted(set(reported) - required)
        return fail("e2e_bench reported other metrics than BENCHMARK.json "
                    f"and layers.json name: missing {missing}, "
                    f"unexpected {unexpected}")

    # A per-layer metric the workload does not reach reads 0.
    metrics = {name: {"value": float(reported.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"metric   {name} = {metric['value']:.10g} {metric['unit']}")
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
