#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by trace::write_chrome_json.

Checks (stdlib only, so CI can run it anywhere):
  * the file parses and has a non-empty traceEvents array
  * every "X" (complete) event carries name/ts/dur/pid/tid with dur >= 0
  * spans nest properly per (pid, tid) track: sorted by (ts, -dur), each
    span either starts after the enclosing span ends or ends within it —
    partial overlap means the recorder's begin/end pairing is broken
  * every pid that owns an "X" event has a process_name metadata row

Exit status 0 on success (prints a one-line summary), 1 on any violation.

Usage: check_trace.py TRACE.json
"""
import json
import sys

# Clock reads straddle span boundaries, so a child's recorded end can
# exceed its parent's by the cost of the reads themselves; tolerate a
# few microseconds before calling the nesting broken.
NEST_EPSILON_US = 10.0


class TraceError(Exception):
    """A structural violation; the message names the offending event."""


def load(path):
    """The parsed trace document; TraceError if it cannot be read."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise TraceError(f"cannot parse {path}: {e}")


def check(doc):
    """Validates a parsed trace and returns (spans, process names): the
    "X" events, and {pid: process_name} from the "M" metadata. Raises
    TraceError on the first violation. tools/trace_summary.py shares
    this, so it refuses exactly the files this script refuses."""
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list) or not events:
        raise TraceError("traceEvents missing or empty")

    spans = []
    process_names = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "process_name":
                process_names[ev.get("pid")] = ev.get("args", {}).get("name")
            continue
        if ph != "X":
            raise TraceError(
                f"event {i}: unexpected ph {ph!r} (only X and M are emitted)")
        for field in ("name", "ts", "dur", "pid", "tid"):
            if field not in ev:
                raise TraceError(f"event {i}: missing field {field!r}")
        if not isinstance(ev["name"], str) or not ev["name"]:
            raise TraceError(f"event {i}: empty name")
        if ev["dur"] < 0:
            raise TraceError(f"event {i}: negative dur {ev['dur']}")
        spans.append(ev)

    if not spans:
        raise TraceError("no X (complete) events")

    used_pids = {ev["pid"] for ev in spans}
    unnamed = used_pids - set(process_names)
    if unnamed:
        raise TraceError(
            f"pids without process_name metadata: {sorted(unnamed)}")

    # Per-track nesting: walk spans in start order with a stack of open
    # end-times. A span starting inside the enclosing one must also end
    # inside it (within epsilon).
    tracks = {}
    for ev in spans:
        tracks.setdefault((ev["pid"], ev["tid"]), []).append(ev)
    for (pid, tid), track in tracks.items():
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # open span end-times
        for ev in track:
            start, end = ev["ts"], ev["ts"] + ev["dur"]
            while stack and start >= stack[-1] - NEST_EPSILON_US:
                stack.pop()
            if stack and end > stack[-1] + NEST_EPSILON_US:
                raise TraceError(
                    f"track pid={pid} tid={tid}: span {ev['name']!r} "
                    f"[{start}, {end}] overlaps the enclosing span ending "
                    f"at {stack[-1]} without nesting"
                )
            stack.append(end)
    return spans, process_names


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    try:
        spans, _ = check(load(sys.argv[1]))
    except TraceError as e:
        print(f"check_trace: FAIL: {e}", file=sys.stderr)
        sys.exit(1)

    tracks = {(ev["pid"], ev["tid"]) for ev in spans}
    used_pids = {ev["pid"] for ev in spans}
    names = sorted({ev["name"] for ev in spans})
    print(
        f"check_trace: OK: {len(spans)} spans on {len(tracks)} track(s) "
        f"across {len(used_pids)} process row(s); "
        f"span kinds: {', '.join(names[:12])}"
        + (" ..." if len(names) > 12 else "")
    )


if __name__ == "__main__":
    main()
