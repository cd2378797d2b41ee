#!/usr/bin/env python3
"""Run one workload of the arbods repository benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload ba3-det [--seed 1] [--seconds 48]
                           [--trace 0|1]

Builds the benchmark package (perfbench/CMakeLists.txt: the arbods library
from src/ plus the driver) into .bench_build/perfbench, writes the
workload's graph for --seed to a file there (outside any timing), and runs
the driver on that file in its own process. The driver's human-readable
tables go to stderr. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1 (which
also writes a Chrome trace JSON next to the inputs).

Exit status: 0 when every solve passed the correctness gate, 1 when one
failed (the result line is still printed), 2 when the benchmark could not
run at all (no result line).

--n and --corrupt exist for selftest.py: --n shrinks the generated graph,
--corrupt makes the driver drop one member of one result.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench"
WORKLOADS = ("ba3-det", "forest2-paper")
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark package; cmake's own
    output goes to stderr so stdout carries only the result line."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no arbods sources at {ROOT / 'src'}; run from a checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def input_file(workload, seed, n=None):
    """The workload's graph for `seed`, generated on first use."""
    path = BUILD / "inputs" / f"{workload}-n{n or 'default'}-s{seed}.txt"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        cmd = [str(DRIVER), "gen", "--workload", workload, "--seed",
               str(seed), "--out", str(tmp)]
        if n:
            cmd += ["--n", str(n)]
        subprocess.run(cmd, check=True, timeout=DRIVER_TIMEOUT_S)
        tmp.replace(path)
    return path


def trace_file(workload, seed):
    return BUILD / "traces" / f"{workload}-s{seed}.json"


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode, or
    None when the file is absent."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload, seed, seconds, trace, n=None, corrupt=False):
    """Runs the driver; returns (exit code, parsed result line or None)."""
    build()
    path = input_file(workload, seed, n)
    cmd = [str(DRIVER), "run", "--workload", workload, "--seed", str(seed),
           "--file", str(path), "--seconds", str(seconds)]
    if trace:
        out = trace_file(workload, seed)
        out.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(out)]
    if corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return proc.returncode or 2, None
    return proc.returncode, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=48)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    try:
        code, result = run(args.workload, args.seed, args.seconds,
                           args.trace == 1, args.n, args.corrupt)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(str(e))
    if result is None:
        fail(f"driver exited {code} without a result")
    expected = expected_metrics(args.trace == 1)
    if expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            fail("metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(expected) - set(got))}, "
                 f"extra {sorted(set(got) - set(expected))}, "
                 f"unit mismatches {sorted(k for k in got.keys() & expected.keys() if got[k] != expected[k])}")
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
