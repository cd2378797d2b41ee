#!/usr/bin/env python3
"""Compare a fresh exp12/exp13 scenario JSON against the checked-in baseline.

Usage: compare_bench.py BASELINE.json FRESH.json [--tolerance 0.25]
                        [--uniform-slack 2.0]

Rows are matched on (instance, solver, threads) plus, when BOTH files
carry the field, `seed` and `fault` (new in schema v4 — a multi-seed or
fault-level sweep emits one row per seed and per level, so the key must
include them to stay unique). Rows from older schemas keep matching:
pre-v4 rows missing `seed`/`fault` take the defaults (seed None, fault
"none") when the other file forces the field into the key, and v2-v7
rows, which also carry the in-process shard count that schema v8
dropped, match v8 rows directly as long as that count was 1 (a file
sweeping several shard counts has one row per count and so trips the
duplicate-key check below). A duplicate key within
EITHER file is a hard usage error (exit 2): the old dict build silently
kept only the last duplicate, so a baseline regenerated from a
multi-seed sweep could "pass" while comparing a fraction of its rows.

For every matched row:
  * counter fields (n, m, rounds, messages, total_bits, set_size, weight)
    must be exactly equal — the simulator promises bit-identical results,
    so any drift is a correctness regression, not noise. Deterministic
    fields that only exist from a later schema on are compared the same
    way when BOTH rows carry them, so older baselines still match on the
    shared counters: the v4 fault axis — the `dropped` / `duplicated` /
    `delayed` /
    `killed` counters and the `failed` flag — and the v5 self-healing
    columns (`hit_round_limit`, `repair_rounds`, `repaired_nodes`,
    `post_repair_weight`). Columns present in only one file are listed
    in a one-line notice and skipped. A mismatch prints a per-field diff
    table (baseline vs fresh vs delta) so the failure is diagnosable
    from the CI log alone;
  * the `identical` determinism verdict must be true in the fresh run.

Rows only present in the fresh file (new instances, new fault levels)
are reported but do not fail the gate; rows only present in the baseline
do (exit 2) — the fresh run must cover everything the baseline pins.

Timing is judged robustly against runner-speed differences (the baseline
is regenerated on whatever machine last shifted the engine's numbers, CI
runs on another): each row's seconds ratio is normalized by the geometric
mean ratio over all rows (the "machine factor"), and a row fails when its
NORMALIZED ratio exceeds 1 + threshold — i.e. when it regressed relative
to the rest of the suite. A uniform slowdown hides from that check, so
the machine factor itself fails the gate only past --uniform-slack
(default 2.0x), generous enough for runner-class variance but not for a
catastrophic engine-wide regression. Rows a heavy fault level failed
(`failed` true on both sides) carry no meaningful seconds and are
excluded from the timing gate.

The timing-breakdown columns (`compute_seconds`, `flip_seconds`,
`retransmit_seconds`) are INFORMATIONAL ONLY: when both files carry them a baseline/fresh/delta
table is printed per column, but timing drift there never fails the
gate — only the median-seconds check above gates builds.

Exit code 0 = pass, 1 = regression / mismatch, 2 = usage, missing rows,
or duplicate keys.
"""
import argparse
import json
import math
import sys

# Fields a row may lack when it predates the schema that added them; the
# default keeps old rows addressable under the extended key.
KEY_DEFAULTS = {"seed": None, "fault": "none"}


def make_key(row, key_fields):
    return tuple(row.get(f, KEY_DEFAULTS.get(f)) for f in key_fields)


def key_fields_for(baseline_rows, fresh_rows):
    """(instance, solver, threads) plus each v4 axis field that both
    files actually stamp — a v4/v3 comparison must not split on a field
    the v3 side cannot distinguish."""
    fields = ["instance", "solver", "threads"]
    for axis in ("seed", "fault"):
        if (any(axis in r for r in baseline_rows)
                and any(axis in r for r in fresh_rows)):
            fields.append(axis)
    return tuple(fields)


def build_index(rows, key_fields, label):
    """{key: row}, failing loudly on duplicates instead of silently
    keeping the last one."""
    index = {}
    duplicates = []
    for row in rows:
        k = make_key(row, key_fields)
        if k in index:
            duplicates.append(k)
        index[k] = row
    if duplicates:
        print(f"FAIL: duplicate row keys in {label} "
              f"(key = {', '.join(key_fields)}):")
        for k in sorted(set(duplicates)):
            print(f"  {k}")
        print("  (a multi-seed or multi-fault sweep needs a schema v4 "
              "file so seed/fault can join the key)")
        return None
    return index


def print_counter_diff(k, base, new, counters):
    """One aligned row per counter so a mismatch reads as a table."""
    print(f"  counter diff for {k}:")
    print(f"    {'field':<12} {'baseline':>16} {'fresh':>16} {'delta':>12}")
    for field in counters:
        b, f = base.get(field), new.get(field)
        delta = "" if not (isinstance(b, (int, float)) and
                           isinstance(f, (int, float))) else f"{f - b:+}"
        marker = "" if b == f else "   <-- MISMATCH"
        print(f"    {field:<12} {b!r:>16} {f!r:>16} {delta:>12}{marker}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--tolerance", "--threshold", type=float,
                        dest="tolerance", default=0.25,
                        help="allowed fractional per-row regression after "
                             "machine-speed normalization (default keeps "
                             "the 25%% gate; --threshold is a deprecated "
                             "alias)")
    parser.add_argument("--uniform-slack", type=float, default=2.0,
                        help="allowed uniform (machine-factor) slowdown")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline_rows = json.load(f)
    with open(args.fresh) as f:
        fresh_rows = json.load(f)

    key_fields = key_fields_for(baseline_rows, fresh_rows)
    print(f"row key: ({', '.join(key_fields)})")
    baseline = build_index(baseline_rows, key_fields, "baseline")
    fresh = build_index(fresh_rows, key_fields, "fresh run")
    if baseline is None or fresh is None:
        return 2

    missing = sorted(set(baseline) - set(fresh))
    if missing:
        print(f"FAIL: fresh run is missing baseline rows: {missing}")
        return 2
    fresh_only = sorted(set(fresh) - set(baseline))
    if fresh_only:
        print(f"note: {len(fresh_only)} fresh row(s) have no baseline "
              f"(no baseline, not compared): {fresh_only}")

    counters = ("n", "m", "rounds", "messages", "total_bits", "set_size",
                "weight")
    # Deterministic but schema-gated: compared exactly when both sides
    # carry the field (the fault axis from v4; hit_round_limit and the
    # repair columns from v5), ignored across schema versions.
    optional_counters = ("dropped", "duplicated", "delayed", "killed",
                         "failed", "hit_round_limit", "repair_rounds",
                         "repaired_nodes", "post_repair_weight")
    # Wall-clock breakdown (v7): printed, never gated — timing is noise
    # across machines, and the per-row median gate already covers
    # end-to-end regressions.
    timing_columns = ("compute_seconds", "flip_seconds",
                      "retransmit_seconds")

    # One-line schema-drift notice: columns only one side carries are
    # skipped by the both-sides rule above — say so instead of silently
    # narrowing the comparison.
    baseline_cols = set().union(*(r.keys() for r in baseline_rows)) \
        if baseline_rows else set()
    fresh_cols = set().union(*(r.keys() for r in fresh_rows)) \
        if fresh_rows else set()
    only_fresh = sorted(fresh_cols - baseline_cols)
    only_baseline = sorted(baseline_cols - fresh_cols)
    if only_fresh:
        print(f"note: columns only in fresh (not compared): "
              f"{', '.join(only_fresh)}")
    if only_baseline:
        print(f"note: columns only in baseline (not compared): "
              f"{', '.join(only_baseline)}")

    failures = 0
    ratios = {}
    for k, base in sorted(baseline.items()):
        new = fresh[k]
        row_counters = counters + tuple(
            f for f in optional_counters if f in base and f in new)
        mismatched = [f for f in row_counters if base[f] != new[f]]
        if mismatched:
            print(f"FAIL {k}: counters changed (must match exactly): "
                  f"{', '.join(mismatched)}")
            print_counter_diff(k, base, new, row_counters)
            failures += len(mismatched)
        if not new.get("identical", False):
            print(f"FAIL {k}: determinism verdict is false")
            failures += 1
        if base.get("failed", False) and new.get("failed", False):
            continue  # no meaningful seconds on either side
        ratios[k] = (new["seconds"] / base["seconds"]
                     if base["seconds"] > 0 else 1.0)

    machine = math.exp(sum(math.log(max(r, 1e-12)) for r in ratios.values())
                       / len(ratios)) if ratios else 1.0
    print(f"machine factor (geomean seconds ratio): {machine:.3f}x")
    if machine > args.uniform_slack:
        print(f"FAIL: uniform slowdown {machine:.2f}x exceeds "
              f"--uniform-slack {args.uniform_slack:.2f}x")
        failures += 1

    for k, ratio in sorted(ratios.items()):
        normalized = ratio / machine
        verdict = "ok"
        if normalized > 1.0 + args.tolerance:
            verdict = f"REGRESSION (> +{args.tolerance:.0%} normalized)"
            failures += 1
        print(f"{k}: {baseline[k]['seconds']:.6f}s -> "
              f"{fresh[k]['seconds']:.6f}s "
              f"(raw {ratio - 1.0:+.1%}, normalized {normalized - 1.0:+.1%}) "
              f"{verdict}")

    # Informational timing breakdown: one line per matched row and
    # column both sides carry. Never touches `failures`.
    timing_lines = []
    for k, base in sorted(baseline.items()):
        new = fresh[k]
        for col in timing_columns:
            b, f = base.get(col), new.get(col)
            if not (isinstance(b, (int, float)) and isinstance(f, (int, float))):
                continue
            timing_lines.append(
                f"  {str(k):<60} {col:<20} {b:>12.6f}s {f:>12.6f}s "
                f"{f - b:>+12.6f}s")
    if timing_lines:
        print("timing breakdown (informational, never gates):")
        print(f"  {'row':<60} {'column':<20} {'baseline':>13} "
              f"{'fresh':>13} {'delta':>13}")
        for line in timing_lines:
            print(line)

    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all rows within threshold; counters exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
