#!/usr/bin/env python3
"""The repository benchmark: build it from source, then run it.

Usage (from the repository root):

    python3 sysbench/run.py --workload map_stream --seed 1 --seconds 30 --trace 0
    python3 sysbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 sysbench/run.py --selftest

Workloads: map_stream, design_sweep, simulate (README.md says why each).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from
a replay of every op under a span recorder; the spans land in
.bench_build/traces/.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.

Two build trees live under .bench_build/: "plain" (the library as users
build it) for --trace 0 and "obs" (-DSYSMAP_OBS=ON) for --trace 1.  Both
are configured and built on the first run, so later runs only check that
they are up to date.  Build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ["map_stream", "design_sweep", "simulate"]
VARIANTS = {"plain": "OFF", "obs": "ON"}


def fail(message):
    print(f"sysbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(variant):
    """Configures (once) and builds one variant; returns its binary dir."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources under {ROOT}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    tree = BUILD / f"sysbench-{variant}"
    if not (tree / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(tree),
                     "-DCMAKE_BUILD_TYPE=Release",
                     f"-DSYSBENCH_OBS={VARIANTS[variant]}"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(tree, ignore_errors=True)
            fail(f"configuring the {variant} build failed")
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", str(tree), "-j", jobs],
                            stdout=sys.stderr)
    if result.returncode != 0:
        fail(f"building the {variant} build failed")
    return tree


def run_workload(tree, workload, args):
    spans = BUILD / "traces" / f"{workload}.spans.tsv"
    command = [str(tree / "sysbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans)]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    lines = result.stdout.strip().splitlines()
    if result.returncode not in (0, 1) or not lines:
        fail(f"{workload} exited with code {result.returncode}")
    return result.returncode, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest:
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are "
                         "required")
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")

    trees = {variant: build(variant) for variant in VARIANTS}
    if args.selftest:
        sys.exit(subprocess.run([str(trees["plain"] / "sysbench_selftest")])
                 .returncode)
    tree = trees["obs" if args.trace else "plain"]
    if args.workload != "all":
        code, _ = run_workload(tree, args.workload, args)
        sys.exit(code)

    # Every workload in its own process, so peak RSS stays per workload.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_workload(tree, workload, args)
        worst = max(worst, code)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
