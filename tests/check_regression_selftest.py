#!/usr/bin/env python3
"""Self-test of the perf gate (bench/check_regression.py) on synthetic
google-benchmark JSON.

Usage: check_regression_selftest.py path/to/check_regression.py

Each case writes a baseline and a current run of gated timers, runs the gate
and checks its verdict: a change that makes a minority of timers much faster
passes with a host factor near 1, while a single slow timer, a uniform
slowdown and a slow timer on a slow runner each fail for their own reason.
"""

import json
import os
import random
import re
import subprocess
import sys
import tempfile

N_TIMERS = 63


def names():
    return [f"BM_LinearGemm/0/{i + 1}/64/64" for i in range(N_TIMERS)]


def write_run(path, times_ns):
    doc = {
        "context": {"num_cpus": 4},
        "benchmarks": [
            {"name": n, "run_name": n, "run_type": "iteration",
             "cpu_time": t, "real_time": t, "time_unit": "ns"}
            for n, t in times_ns.items()
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def run_gate(script, ratios):
    """Runs the gate on a baseline of distinct times and a current run that
    scales each by its ratio; returns (exit code, host factor, output)."""
    base = {n: 1000.0 * (i + 1) for i, n in enumerate(names())}
    cur = {n: t * ratios[n] for n, t in base.items()}
    with tempfile.TemporaryDirectory() as d:
        bpath, cpath = os.path.join(d, "base.json"), os.path.join(d, "cur.json")
        write_run(bpath, base)
        write_run(cpath, cur)
        proc = subprocess.run([sys.executable, script, cpath, bpath],
                              capture_output=True, text=True)
    out = proc.stdout + proc.stderr
    m = re.search(r"host-speed factor[^:]*:\s*([0-9.]+)", out)
    return proc.returncode, float(m.group(1)) if m else None, out


def noisy(rng, spread):
    return {n: 1.0 + rng.uniform(-spread, spread) for n in names()}


def main():
    script = sys.argv[1]
    rng = random.Random(31)
    failures = []

    def expect(label, ok, out):
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)
            print(out)

    # 20 of 63 timers 1.3-3.6x faster, the rest within +-8% but one 1.2x
    # slower, inside the 25% band: passes, and the fast minority does not
    # drag the host factor down (the plain median reads 0.951 here, which
    # would put the 1.2x timer at 1.26).
    ratios = noisy(rng, 0.08)
    for k, n in enumerate(names()[::3][:20]):
        ratios[n] = 1.0 / (1.3 + 2.3 * k / 19)
    ratios[names()[1]] = 1.2
    code, host, out = run_gate(script, ratios)
    expect(f"fast minority passes (host factor {host})",
           code == 0 and host is not None and abs(host - 1.0) <= 0.02, out)

    # One timer 1.35x slower among timers within +-2%.
    ratios = noisy(rng, 0.02)
    slow = names()[17]
    ratios[slow] = 1.35
    code, _, out = run_gate(script, ratios)
    expect("one timer 1.35x slower fails",
           code == 1 and re.search(re.escape(slow) + r": normalized slowdown", out), out)

    # Every timer 2.2x slower: cancels out of the normalized check, so the
    # global band must catch it.
    ratios = {n: 2.2 for n in names()}
    code, _, out = run_gate(script, ratios)
    expect("uniform 2.2x slowdown fails", code == 1 and "global band" in out, out)

    # A 1.5x slower runner with one timer 1.4x slower on top of it.
    ratios = {n: 1.5 for n in names()}
    slow = names()[40]
    ratios[slow] = 1.5 * 1.4
    code, host, out = run_gate(script, ratios)
    expect("slow runner plus one 1.4x slower timer fails",
           code == 1 and host == 1.5 and
           re.search(re.escape(slow) + r": normalized slowdown", out), out)

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
