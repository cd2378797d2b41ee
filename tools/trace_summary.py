#!/usr/bin/env python3
"""Summarize a --trace-out Chrome trace into per-phase, per-worker time.

For every process row (one per traced run or scenario cell) and every
phase span ("phase:<name>") in it, prints one line per worker track:

  busy_ms   summed length of the worker's chunk:* spans (its share of
            every for_nodes / for_active_nodes dispatch)
  wait_ms   summed (slowest chunk - own chunk) over the phase's
            dispatches: the time the worker sat at the pool's barrier
  flip_ms   summed flip spans (driver work, so worker 0 only)

followed by a phase line with the dispatch count and the phase's idle
time: per dispatch, the slowest chunk minus the mean chunk, summed.

A dispatch records exactly one chunk span on each worker track, so the
k-th chunk span of every track belongs to the same dispatch. Span rings
keep the most recent events, so tracks are aligned from their last span
backwards; a track that lost older spans shortens the window for all.

The file is validated by tools/check_trace.py's checker first: the exit
status is 1 (with its diagnostic) for any file check_trace.py rejects,
2 for a usage error, 0 otherwise. Stdlib only.

Usage: trace_summary.py TRACE.json
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_trace  # noqa: E402  (sibling module, stdlib only)


def phase_of(ts, phases):
    """Name of the phase span containing ts, or "-" outside every phase."""
    for name, start, end in phases:
        if start <= ts <= end:
            return name
    return "-"


def summarize(spans, process_names):
    rows = {}  # pid -> list of spans
    for ev in spans:
        rows.setdefault(ev["pid"], []).append(ev)

    out = []
    for pid in sorted(rows):
        row = rows[pid]
        phases = sorted(((ev["name"][len("phase:"):], ev["ts"],
                          ev["ts"] + ev["dur"])
                         for ev in row if ev["name"].startswith("phase:")),
                        key=lambda p: p[1])
        chunks = {}  # tid -> chunk spans in start order
        for ev in row:
            if ev["name"].startswith("chunk:"):
                chunks.setdefault(ev["tid"], []).append(ev)
        for track in chunks.values():
            track.sort(key=lambda e: e["ts"])
        workers = sorted(chunks)

        # (phase, tid) -> [busy, wait, flip]; phase -> [dispatches, idle]
        per_worker = {}
        per_phase = {}

        def cell(phase, tid):
            return per_worker.setdefault((phase, tid), [0.0, 0.0, 0.0])

        count = min((len(t) for t in chunks.values()), default=0)
        for k in range(count):
            group = [chunks[tid][len(chunks[tid]) - count + k]
                     for tid in workers]
            durs = [ev["dur"] for ev in group]
            slowest = max(durs)
            phase = phase_of(min(ev["ts"] for ev in group), phases)
            for tid, ev in zip(workers, group):
                stats = cell(phase, tid)
                stats[0] += ev["dur"]
                stats[1] += slowest - ev["dur"]
            totals = per_phase.setdefault(phase, [0, 0.0])
            totals[0] += 1
            totals[1] += slowest - sum(durs) / len(durs)
        for ev in row:
            if ev["name"] == "flip":
                cell(phase_of(ev["ts"], phases), ev["tid"])[2] += ev["dur"]

        out.append(f"{process_names.get(pid) or f'pid {pid}'}")
        if not per_worker:
            out.append("  (no chunk or flip spans)")
            continue
        out.append(f"  {'phase':<24} {'worker':>6} {'busy_ms':>10} "
                   f"{'wait_ms':>10} {'flip_ms':>10}")
        order = [name for name, _, _ in phases]
        order += sorted({p for p, _ in per_worker} - set(order))
        for phase in dict.fromkeys(order):
            tids = sorted(t for p, t in per_worker if p == phase)
            if not tids:
                continue
            for tid in tids:
                busy, wait, flip = per_worker[(phase, tid)]
                out.append(f"  {phase:<24} {tid:>6} {busy / 1e3:>10.3f} "
                           f"{wait / 1e3:>10.3f} {flip / 1e3:>10.3f}")
            dispatches, idle = per_phase.get(phase, [0, 0.0])
            out.append(f"  {phase:<24} {'all':>6} {dispatches} dispatch(es), "
                       f"idle {idle / 1e3:.3f} ms (slowest chunk - mean "
                       f"chunk, summed)")
    return out


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        spans, process_names = check_trace.check(
            check_trace.load(sys.argv[1]))
    except check_trace.TraceError as e:
        print(f"trace_summary: FAIL: {e}", file=sys.stderr)
        return 1
    print("\n".join(summarize(spans, process_names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
