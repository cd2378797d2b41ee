// Observability layer: span tracing, timing breakdowns, and the crash
// flight recorder.
//
// The simulator spans four subsystems (congest/fault/resilience/
// protocol); the logical counters in RunStats say nothing about *where
// wall-clock time goes* — the send half-round, the flip, or
// retransmission. This header is the substrate every perf
// investigation reports against:
//
//   * TraceRecorder — per-worker, cache-line-padded event ring buffers
//     (fixed capacity, zero steady-state allocation, monotonic-clock
//     begin/end records). Created by the Network a run drives when
//     CongestConfig::trace.enabled — faulty or clean, it is the one
//     simulator class, and a reliable-transport staging Network records
//     nothing — so one run = one recorder. A full ring overwrites its
//     oldest events (flight-recorder semantics), so a long run keeps the
//     most recent window instead of allocating.
//   * TimingStats — the compute/flip/retransmit seconds breakdown
//     carried alongside RunStats/PhaseStats. Deliberately EXCLUDED from
//     their operator==: the determinism and differential suites compare
//     logical results, and wall-clock can never be bit-stable.
//   * FlightRecord — one per-round summary line of the flight recorder
//     (CongestConfig::trace.flight_rounds): the last N of these are
//     dumped to stderr/JSON when a phase hits its round limit or a
//     solver throws CheckError, turning an opaque `failed=true` row
//     into a diagnosable incident.
//   * write_chrome_json — Chrome trace-event export (chrome://tracing /
//     Perfetto): one track per worker, one process row per run.
//
// This header is deliberately free of congest/ includes — the Network
// depends on it, never the other way around.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace arbods::obs {

/// The CongestConfig::trace knob. Default-off costs nothing on the hot
/// path: no recorder is constructed, every instrumentation site is one
/// null-pointer test, and the flight recorder stays empty.
struct TraceOptions {
  /// Construct a TraceRecorder on the outermost Network and record spans
  /// at the instrumented seams (rounds, flips, active-set rebuilds,
  /// chunk dispatch, retransmit batches, repair stages).
  bool enabled = false;
  /// Keep a ring of the last N per-round FlightRecords (0 = off). Dumped
  /// on round-limit exhaustion / CheckError; independent of `enabled`.
  int flight_rounds = 0;

  friend bool operator==(const TraceOptions&, const TraceOptions&) = default;
};

/// Wall-clock breakdown of a phase or run, in seconds. compute covers
/// initialize + process_round (the send half-round and all per-node
/// work); flip covers flip_buffers; retransmit covers the
/// reliable-transport receive/transmit passes and is a sub-interval of
/// compute. Always measured (a handful of monotonic-clock reads per
/// round), tracing enabled or not.
struct TimingStats {
  double compute_seconds = 0.0;
  double flip_seconds = 0.0;
  double retransmit_seconds = 0.0;

  TimingStats& operator+=(const TimingStats& o) {
    compute_seconds += o.compute_seconds;
    flip_seconds += o.flip_seconds;
    retransmit_seconds += o.retransmit_seconds;
    return *this;
  }
  friend TimingStats operator-(TimingStats a, const TimingStats& b) {
    a.compute_seconds -= b.compute_seconds;
    a.flip_seconds -= b.flip_seconds;
    a.retransmit_seconds -= b.retransmit_seconds;
    return a;
  }
};

/// One per-round summary line of the flight recorder. Deltas are per
/// round; `delivered`/`bits` count sends accounted during the round
/// (delivery follows at the next flip). `active` is the active-set size
/// as of the round's last rebuild, or -1 when the algorithm never
/// consulted the active set that round — the recorder must NOT force a
/// rebuild, which would drain timer buckets early and change behavior.
struct FlightRecord {
  std::int64_t round = 0;
  std::int64_t active = -1;
  std::int64_t delivered = 0;
  std::int64_t bits = 0;
  std::int64_t dropped = 0;
  std::int64_t duplicated = 0;
  std::int64_t delayed = 0;
  std::int64_t killed = 0;
};

/// One exported span (snapshot form; the in-ring representation is a
/// compact POD). Timestamps are nanoseconds since the recorder's epoch
/// (construction or last clear()).
struct TraceEvent {
  std::string name;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
  // Unread: write_chrome_json gives a group one process row. Kept so that
  // positional initializers {name, ts, dur, pid, tid, arg} still compile.
  int pid = 0;
  int tid = 0;  // worker track
  std::int64_t arg = -1;  // optional counter (round number, item count)
};

/// One run's (or cell's) worth of events under a display label; the
/// Chrome export gives each group its own process row, so a multi-cell
/// scenario trace shows per-cell rows.
struct TraceGroup {
  std::string label;
  std::vector<TraceEvent> events;
};

/// Nanoseconds on the process-wide monotonic clock (steady_clock).
/// Shared by the timing breakdown and the recorder so one clock pair
/// serves both at an instrumented seam.
std::int64_t monotonic_ns();

/// Per-worker span rings. record() is called from inside parallel
/// sections — each worker writes only its own cache-line-padded ring, so
/// there is no synchronization and no allocation on the recording path.
/// intern()/clear()/snapshot() are driver-thread-only (between parallel
/// sections), like the flip itself.
class TraceRecorder {
 public:
  /// `ring_capacity` events per worker ring. Each ring is allocated here
  /// and overwrites its oldest events when full, so the capacity bounds
  /// both memory and export size, never allocation.
  TraceRecorder(int workers, int ring_capacity);

  /// Now, relative to the recorder epoch.
  std::int64_t now_ns() const { return monotonic_ns() - epoch_ns_; }

  /// Records a completed span on `worker`'s ring (absolute monotonic
  /// timestamps, as returned by monotonic_ns()). `name` must outlive the
  /// recorder: a string literal or an intern()ed string.
  void record(std::size_t worker, const char* name, std::int64_t begin_ns,
              std::int64_t end_ns, std::int64_t arg = -1);

  /// Stable storage for a dynamic span name (phase names). Deduplicates
  /// by content, so pooled reuse across many runs stays bounded.
  const char* intern(std::string_view name);

  /// Drops all recorded events and restarts the epoch (reset_for_reuse
  /// calls this, so a snapshot after run() covers exactly that run).
  void clear();

  /// All rings merged, ordered by begin timestamp (ties: longer span
  /// first, so nested reconstruction works on the sorted sequence).
  std::vector<TraceEvent> snapshot() const;

  /// Events overwritten because a ring was full (since last clear).
  std::int64_t dropped_events() const;

  int workers() const { return static_cast<int>(rings_.size()); }

 private:
  struct Event {
    const char* name;
    std::int64_t ts_ns;
    std::int64_t dur_ns;
    std::int64_t arg;
  };
  struct alignas(64) WorkerRing {
    std::vector<Event> events;  // fixed capacity, sized at construction
    std::size_t count = 0;      // total recorded; > capacity = wrapped
  };

  std::vector<WorkerRing> rings_;
  std::vector<std::unique_ptr<std::string>> interned_;
  std::int64_t epoch_ns_ = 0;
};

/// RAII span: begin at construction, record at destruction. A null
/// recorder makes both ends no-ops, so call sites stay branch-light.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* rec, std::size_t worker, const char* name,
             std::int64_t arg = -1)
      : rec_(rec), worker_(worker), name_(name), arg_(arg),
        begin_ns_(rec ? monotonic_ns() : 0) {}
  ~ScopedSpan() {
    if (rec_) rec_->record(worker_, name_, begin_ns_, monotonic_ns(), arg_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* rec_;
  std::size_t worker_;
  const char* name_;
  std::int64_t arg_;
  std::int64_t begin_ns_;
};

/// Chrome trace-event JSON (the {"traceEvents": [...]} object form):
/// one "X" (complete) event per span with microsecond timestamps, plus
/// "M" metadata naming each process row and each worker track. Group g
/// is process row g, named by its label ("trace" when empty). Loads in
/// chrome://tracing and Perfetto.
void write_chrome_json(std::ostream& os, std::span<const TraceGroup> groups);

/// Human-readable flight-recorder dump: a header line plus one line per
/// record, oldest first.
void dump_flight_records(std::ostream& os, std::string_view header,
                         std::span<const FlightRecord> records);

}  // namespace arbods::obs
