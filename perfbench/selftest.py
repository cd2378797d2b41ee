#!/usr/bin/env python3
"""Self-test of the arbods repository benchmark, on tiny graphs.

Usage (from the repository root):  python3 perfbench/selftest.py

For each workload it checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json,
    each with its declared unit, and passes the correctness gate;
  * a traced run prints every per-layer metric with its unit and writes a
    Chrome trace that tools/check_trace.py accepts;
  * the exact counts (rounds, messages, certified_ratio, alpha) equal a
    direct harness::run_solver solve of the same input file;
  * a corrupted result (one set member removed) is counted as failed and
    makes the run exit 1;
  * where the traced run measures the fault and resilience layers
    (ba3-det), faults were injected and the rounds inflated.
Exits 0 when everything holds, 1 otherwise.
"""
import json
import subprocess
import sys

import run as bench

TINY_N = {"ba3-det": 400, "forest2-paper": 400}
SEED = 7
failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def metrics_match(result, trace):
    expected = bench.expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return got == expected


def main():
    for workload, n in TINY_N.items():
        code, plain = bench.run(workload, SEED, 0.5, False, n)
        check(code == 0 and plain is not None and plain["correct"]
              and plain["failed"] == 0,
              f"{workload}: untraced run passes the gate")
        if plain is None:
            continue
        check(metrics_match(plain, False),
              f"{workload}: every end-to-end metric printed with its unit")

        code, traced = bench.run(workload, SEED, 0.5, True, n)
        check(code == 0 and traced is not None and traced["correct"],
              f"{workload}: traced run passes the gate")
        if traced is None:
            continue
        check(metrics_match(traced, True),
              f"{workload}: every per-layer metric printed with its unit")
        trace_ok = subprocess.run(
            [sys.executable, str(bench.ROOT / "tools" / "check_trace.py"),
             str(bench.trace_file(workload, SEED))]).returncode == 0
        check(trace_ok, f"{workload}: trace passes tools/check_trace.py")

        direct = json.loads(subprocess.run(
            [str(bench.DRIVER), "direct", "--workload", workload, "--seed",
             str(SEED), "--file", str(bench.input_file(workload, SEED, n))],
            stdout=subprocess.PIPE, text=True, check=True).stdout)
        m = plain["metrics"]
        for key in ("rounds", "messages", "certified_ratio"):
            check(m[key]["value"] == direct[key],
                  f"{workload}: {key} {m[key]['value']} equals direct "
                  f"run_solver {direct[key]}")
        check(traced["metrics"]["arboricity.alpha"]["value"] == direct["alpha"],
              f"{workload}: arboricity.alpha equals direct pseudoarboricity")
        if workload == "ba3-det":
            t = traced["metrics"]
            check(t["fault.dropped"]["value"] > 0
                  and t["resilience.round_inflation"]["value"] > 1,
                  f"{workload}: traced run measured the lossy layers")

        code, bad = bench.run(workload, SEED, 0.5, False, n, corrupt=True)
        check(code == 1 and bad is not None and not bad["correct"]
              and bad["failed"] == 1,
              f"{workload}: a corrupted result is counted as failed")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
