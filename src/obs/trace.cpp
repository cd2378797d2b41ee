#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>

namespace arbods::obs {

std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TraceRecorder::TraceRecorder(int workers, int ring_capacity)
    : rings_(static_cast<std::size_t>(std::max(workers, 1))),
      epoch_ns_(monotonic_ns()) {
  const std::size_t cap = static_cast<std::size_t>(std::max(ring_capacity, 1));
  for (WorkerRing& ring : rings_) ring.events.resize(cap);
}

void TraceRecorder::record(std::size_t worker, const char* name,
                           std::int64_t begin_ns, std::int64_t end_ns,
                           std::int64_t arg) {
  if (worker >= rings_.size()) worker = 0;
  WorkerRing& ring = rings_[worker];
  Event& slot = ring.events[ring.count % ring.events.size()];
  slot.name = name;
  slot.ts_ns = begin_ns - epoch_ns_;
  slot.dur_ns = std::max<std::int64_t>(end_ns - begin_ns, 0);
  slot.arg = arg;
  ++ring.count;
}

const char* TraceRecorder::intern(std::string_view name) {
  for (const auto& s : interned_) {
    if (*s == name) return s->c_str();
  }
  interned_.push_back(std::make_unique<std::string>(name));
  return interned_.back()->c_str();
}

void TraceRecorder::clear() {
  for (WorkerRing& ring : rings_) ring.count = 0;
  epoch_ns_ = monotonic_ns();
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> out;
  for (std::size_t w = 0; w < rings_.size(); ++w) {
    const WorkerRing& ring = rings_[w];
    const std::size_t cap = ring.events.size();
    const std::size_t kept = std::min(ring.count, cap);
    // Oldest surviving event first: a wrapped ring's window starts at
    // the next overwrite position.
    const std::size_t start = ring.count > cap ? ring.count % cap : 0;
    for (std::size_t i = 0; i < kept; ++i) {
      const Event& e = ring.events[(start + i) % cap];
      TraceEvent ev;
      ev.name = e.name;
      ev.ts_ns = e.ts_ns;
      ev.dur_ns = e.dur_ns;
      ev.tid = static_cast<int>(w);
      ev.arg = e.arg;
      out.push_back(std::move(ev));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
              return a.tid < b.tid;
            });
  return out;
}

std::int64_t TraceRecorder::dropped_events() const {
  std::int64_t dropped = 0;
  for (const WorkerRing& ring : rings_) {
    if (ring.count > ring.events.size()) {
      dropped += static_cast<std::int64_t>(ring.count - ring.events.size());
    }
  }
  return dropped;
}

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// Microseconds with nanosecond resolution, fixed three decimals — the
// trace-event spec's ts/dur unit.
void append_us(std::string& out, std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03d",
                static_cast<long long>(ns / 1000),
                static_cast<int>(ns % 1000));
  out += buf;
}

}  // namespace

void write_chrome_json(std::ostream& os, std::span<const TraceGroup> groups) {
  std::string out;
  out += "{\"traceEvents\":[\n";
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const TraceGroup& group = groups[g];
    const std::string pid = std::to_string(g);
    int max_tid = 0;
    for (const TraceEvent& e : group.events) max_tid = std::max(max_tid, e.tid);
    if (g > 0) out += ",\n";
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += pid;
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    append_escaped(out, group.label.empty() ? "trace" : group.label);
    out += "\"}}";
    for (int t = 0; t <= max_tid; ++t) {
      out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
      out += pid;
      out += ",\"tid\":";
      out += std::to_string(t);
      out += ",\"args\":{\"name\":\"worker ";
      out += std::to_string(t);
      out += "\"}}";
    }
    for (const TraceEvent& e : group.events) {
      out += ",\n{\"name\":\"";
      append_escaped(out, e.name);
      out += "\",\"ph\":\"X\",\"ts\":";
      append_us(out, e.ts_ns);
      out += ",\"dur\":";
      append_us(out, e.dur_ns);
      out += ",\"pid\":";
      out += pid;
      out += ",\"tid\":";
      out += std::to_string(e.tid);
      if (e.arg >= 0) {
        out += ",\"args\":{\"count\":";
        out += std::to_string(e.arg);
        out += "}";
      }
      out += "}";
    }
  }
  out += "\n]}\n";
  os << out;
}

void dump_flight_records(std::ostream& os, std::string_view header,
                         std::span<const FlightRecord> records) {
  std::string out;
  out += "[flight recorder] ";
  out += header;
  out += " — last ";
  out += std::to_string(records.size());
  out += " round(s):\n";
  for (const FlightRecord& r : records) {
    char buf[256];
    const std::string active =
        r.active < 0 ? std::string("-") : std::to_string(r.active);
    std::snprintf(buf, sizeof buf,
                  "  round %-6lld active %-8s delivered %-10lld bits %-12lld",
                  static_cast<long long>(r.round), active.c_str(),
                  static_cast<long long>(r.delivered),
                  static_cast<long long>(r.bits));
    out += buf;
    if (r.dropped || r.duplicated || r.delayed || r.killed) {
      std::snprintf(buf, sizeof buf,
                    " dropped %lld duplicated %lld delayed %lld killed %lld",
                    static_cast<long long>(r.dropped),
                    static_cast<long long>(r.duplicated),
                    static_cast<long long>(r.delayed),
                    static_cast<long long>(r.killed));
      out += buf;
    }
    out += '\n';
  }
  os << out;
}

}  // namespace arbods::obs
