#!/usr/bin/env python3
"""One-command VMC benchmark.

Builds the benchmark binary (perfbench/CMakeLists.txt, which pulls in the
library through the repository's own CMakeLists.txt) and runs one workload:

    python3 perfbench/run.py --workload train-c2h4o --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It prints every metric the workload
measured, with its unit and direction, the per-stage shares of the iteration
time (traced runs) and the run context; then, as the last line of standard
output, one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end ones of BENCHMARK.json with --trace 0 and
the per-layer ones with --trace 1.  perfbench/README.md describes them.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("train-c2h4o", "train-h2o")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configure once, then build the binary incrementally, as Release."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found; run from the root of the repository")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "vmc_bench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "vmc_bench")


def main():
    ap = argparse.ArgumentParser(description="One-command VMC benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found; run from the root of the repository")
    with open(spec_path) as f:
        spec = json.load(f)
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(root, os.path.join(build_root, "perfbench"))
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    scratch = os.path.join(build_root, "runs")
    os.makedirs(scratch, exist_ok=True)
    cmd += ["--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics, notes = result["metrics"], result["notes"]

    direction = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in metrics]
    if not args.trace and missing:
        fail(f"{args.workload} did not report {', '.join(missing)}")
    # A layer that does not run on this workload reports 0.
    not_run = [m["name"] for m in wanted if m["name"] not in metrics]

    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: correct {result['correct']}, attempted {attempted}, "
          f"failed {failed}, fail_frac {failed / attempted:.6g}")
    print(f"  {'metric':<30} {'value':>16}  {'unit':<9} better")
    for name in sorted(metrics):
        v = metrics[name]
        print(f"  {name:<30} {v['value']:>16.6g}  {v['unit']:<9} {direction.get(name, '')}")
    if not_run:
        print(f"  not run on this workload (reported as 0): {', '.join(not_run)}")
    if "trace.iter_s" in metrics:
        base = metrics["trace.iter_s"]["value"]
        print(f"  stage rank-max time as a share of the traced iter_s ({base:.6g} s):")
        shares = [(k[len("share."):], v["value"]) for k, v in metrics.items()
                  if k.startswith("share.")]
        for stage, frac in sorted(shares, key=lambda kv: -kv[1]):
            print(f"    {stage:<14} {100 * frac:7.2f} %  {frac * base:12.6g} s")
    for key in sorted(notes):
        print(f"  {key}: {notes[key]}")

    out = {"correct": result["correct"], "attempted": attempted, "failed": failed,
           "metrics": {m["name"]: {"value": metrics[m["name"]]["value"] if m["name"] in metrics
                                   else 0, "unit": m["unit"]} for m in wanted}}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
