#!/usr/bin/env python3
"""Benchmark regression gate for the CI perf-smoke job.

Compares a fresh google-benchmark JSON (build/BENCH_kernels.json) against the
committed baseline (bench/BENCH_baseline.json) and fails on slowdowns of the
gated timers.

Because the baseline and the current run generally execute on *different*
hosts (a developer box vs. a CI runner, or CI runners of different vintages),
raw time ratios conflate host speed with real regressions.  The gate therefore
normalizes: for every gated benchmark it computes

    ratio_i = cpu_time_current_i / cpu_time_baseline_i

and divides by the median ratio across all gated benchmarks (the host-speed
factor — a uniformly 2x-slower runner moves every ratio by 2x and cancels
out).  A benchmark fails when its normalized ratio exceeds 1 + --tolerance
(default 0.25, i.e. a >25% slowdown relative to its peers).  A *uniform*
regression (every timer slower, e.g. a lost compiler flag) would cancel out of
the normalized check, so the median ratio itself is additionally gated by the
wider 1 + --global-tolerance band (default 1.0: the whole suite may run up to
2x slower than the baseline host before the gate trips — enough slack for
runner variance, not for a broken build).

A gated benchmark that is present in the baseline but missing from the
current run fails the gate too (a silently dropped timer is how a regression
hides), as does any `error_occurred` entry in the current run (e.g. the
zero-allocation decode assertion).

Thread-sensitive benchmarks (the OpenMP-threaded kernel variants and the
teacher-forced evaluate legs) are only gated when the baseline was recorded
on a host with the *same* core count as the current run; otherwise they are
skipped with a notice.  The best baseline is therefore a green CI run's own
`BENCH_kernels.json` artifact, committed as bench/BENCH_baseline.json.

Refreshing the baseline after an intentional change (new benchmark, accepted
perf trade-off, retuned shapes) — either download the artifact from a green
run of the new code, or regenerate locally:

    ./build/microbench_kernels \
        --benchmark_filter='<the perf-smoke filter from .github/workflows/ci.yml>' \
        --benchmark_repetitions=3 \
        --benchmark_out=build/BENCH_kernels.json --benchmark_out_format=json
    python3 bench/check_regression.py build/BENCH_kernels.json \
        bench/BENCH_baseline.json --update

and commit the updated bench/BENCH_baseline.json.
"""

import argparse
import json
import re
import shutil
import statistics
import sys

# Only these families gate the build; other entries in either file are
# informational.  Keep in sync with the perf-smoke filter in ci.yml (the
# L=32/batch=8192 BM_Evaluate acceptance shape is deliberately not gated:
# its whole-batch tape-forward side is memory-bound far beyond cache and too
# noise-sensitive for a 25% band on shared runners).
DEFAULT_FILTER = (
    r"^BM_(DecodeAttnKernel|AttnTrainKernel|DecodeStepSweep|LinearGemm|"
    r"GemmAccumulateTN|Elementwise|ElocBatched|SweepFused|ServeThroughput)\b"
    r"|^BM_Evaluate/[01]/(16|32)/2048\b"
    r"|^BM_BackwardTiled/1/32/2048\b"
)

# Benchmarks whose wall time scales with the host's core count: the
# OpenMP-threaded kernel policy (arg value 2) and the evaluate legs (the
# tile-parallel tape evaluate and the one-tile tape forward's OpenMP
# kernels).  When the baseline and the current run report different
# num_cpus these cannot be compared meaningfully — a baseline recorded
# serially would hide a genuine 2x regression behind a 4x thread speedup —
# so they are skipped (with a notice) until the baseline is refreshed on
# matching hardware.
THREAD_SENSITIVE = (
    r"^BM_(DecodeAttnKernel/2|AttnTrainKernel/2|DecodeStepSweep/2|"
    r"LinearGemm/2|GemmAccumulateTN/2|Elementwise/[0-9]+/2|Evaluate|"
    r"BackwardTiled|SweepFused|ElocBatched/[13]|ServeThroughput)\b"
)

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times(path):
    """name -> (cpu_time_ns, error_occurred).

    With --benchmark_repetitions the JSON carries both the raw repetition
    runs and aggregate rows; the gate prefers each benchmark's *median*
    aggregate (far more noise-robust than any single run — the CI perf-smoke
    job runs 3 repetitions for exactly this reason) and falls back to the
    raw run for repetition-free files.  error_occurred on any repetition
    (e.g. the zero-allocation asserts) is kept either way.

    UseRealTime benchmarks (name suffixed "/real_time", e.g. the
    BM_ServeThroughput client window, whose cost is condition-variable waits
    rather than CPU) are compared on their wall clock; everything else on
    cpu_time.
    """
    with open(path) as f:
        doc = json.load(f)
    times = {}
    errs = {}
    for b in doc.get("benchmarks", []):
        name = b.get("run_name", b["name"])
        errs[name] = errs.get(name, False) or bool(b.get("error_occurred", False))
        if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "median":
            continue
        if b.get("run_type") == "aggregate" or name not in times:
            field = "real_time" if "/real_time" in name else "cpu_time"
            t = float(b.get(field, 0.0)) * _UNIT_NS[b.get("time_unit", "ns")]
            times[name] = t
    cpus = int(doc.get("context", {}).get("num_cpus", 0))
    return {n: (t, errs.get(n, False)) for n, t in times.items()}, cpus


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current", help="fresh benchmark JSON (build/BENCH_kernels.json)")
    ap.add_argument("baseline", help="committed baseline JSON (bench/BENCH_baseline.json)")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="per-benchmark normalized slowdown band (default 0.25)")
    ap.add_argument("--global-tolerance", type=float, default=1.0,
                    help="band on the median raw ratio, catching uniform "
                         "regressions (default 1.0)")
    ap.add_argument("--filter", default=DEFAULT_FILTER,
                    help="regex selecting the gated benchmarks")
    ap.add_argument("--absolute", action="store_true",
                    help="skip the median host normalization (same-host runs)")
    ap.add_argument("--update", action="store_true",
                    help="overwrite the baseline with the current JSON and exit")
    args = ap.parse_args()

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print(f"baseline refreshed: {args.baseline} <- {args.current}")
        return 0

    gate = re.compile(args.filter)
    cur, curCpus = load_times(args.current)
    base, baseCpus = load_times(args.baseline)

    failures = []
    errored = [n for n, (_, err) in sorted(cur.items()) if err]
    for n in errored:
        failures.append(f"{n}: error_occurred in current run")

    gated = sorted(n for n in base if gate.search(n))
    if curCpus != baseCpus:
        sensitive = re.compile(THREAD_SENSITIVE)
        skipped = [n for n in gated if sensitive.search(n)]
        gated = [n for n in gated if not sensitive.search(n)]
        # ::warning:: renders as an annotation in GitHub job summaries, so a
        # partially-inert gate is visible without reading the step log.
        print(f"::warning::perf gate: baseline host has {baseCpus} cpus, "
              f"current has {curCpus} — {len(skipped)} thread-sensitive "
              f"benchmark(s) (BM_Evaluate, threaded kernel variants) are NOT "
              f"gated; refresh bench/BENCH_baseline.json from this run's "
              f"BENCH_kernels.json artifact to gate them")
    if not gated:
        print(f"error: no baseline benchmark matches filter {args.filter!r}",
              file=sys.stderr)
        return 2
    missing = [n for n in gated if n not in cur]
    for n in missing:
        failures.append(f"{n}: gated benchmark missing from current run")

    pairs = [(n, cur[n][0], base[n][0]) for n in gated
             if n in cur and base[n][0] > 0 and cur[n][0] > 0]
    ratios = {n: c / b for n, c, b in pairs}
    host = 1.0
    if not args.absolute and ratios:
        host = statistics.median(ratios.values())
        if host > 1.0 + args.global_tolerance:
            failures.append(
                f"median ratio {host:.2f} exceeds the global band "
                f"{1.0 + args.global_tolerance:.2f} (uniform regression?)")

    width = max((len(n) for n in gated), default=4)
    print(f"host-speed factor (median current/baseline ratio): {host:.3f}")
    print(f"{'benchmark':<{width}}  {'base':>10}  {'current':>10}  "
          f"{'ratio':>6}  {'norm':>6}")
    for n, c, b in pairs:
        norm = ratios[n] / host
        flag = ""
        if norm > 1.0 + args.tolerance:
            flag = "  << REGRESSION"
            failures.append(
                f"{n}: normalized slowdown {norm:.2f}x exceeds "
                f"{1.0 + args.tolerance:.2f}x")
        print(f"{n:<{width}}  {b / 1e6:>8.2f}ms  {c / 1e6:>8.2f}ms  "
              f"{ratios[n]:>6.2f}  {norm:>6.2f}{flag}")

    if failures:
        print(f"\nFAIL: {len(failures)} gated regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(pairs)} gated benchmarks within "
          f"{1.0 + args.tolerance:.2f}x of baseline (normalized)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
