#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or all of them.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default: .bench_build). Each workload runs in its own process, so its
peak RSS is its own. The last line of standard output is the workload's
JSON result; with `all`, each workload's table and result line are
printed in turn, then one combined result line whose metric names carry
the workload as a prefix. The exit code is non-zero if the build fails,
any workload fails or answers wrongly, or a result does not carry exactly
the metrics BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["serve-read-200k", "serve-write-2m", "class-rake-100k"]


def declared(trace):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(exe, workload, args):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines))
        sys.exit(f"{workload}: exited with {proc.returncode}")
    result = json.loads(lines[-1])
    want = declared(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        print("\n".join(lines[:-1]))
        sys.exit(f"{workload}: result metrics {sorted(result['metrics'])} "
                 f"differ from BENCHMARK.json {sorted(want)}")
    print("\n".join(lines), flush=True)
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(f"build failed with {build.returncode}")
    exe = os.path.join(target, "release", "ccix-perfbench")

    if args.workload != "all":
        run_one(exe, args.workload, args)
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        r = run_one(exe, w, args)
        combined["correct"] &= r["correct"]
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            combined["metrics"][f"{w}/{name}"] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
