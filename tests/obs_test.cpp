// Observability-layer tests: the TraceRecorder's ring/ordering/intern
// contracts, Chrome trace-event export shape, the timing breakdown's
// exclusion from every stats comparison (tracing must never be able to
// break a determinism verdict), the flight recorder's last-N-rounds
// window, and the scenario plumbing (trace files, last_rounds rows, the
// v8 JSON columns).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "congest/network.hpp"
#include "core/mds_result.hpp"
#include "gen/classic.hpp"
#include "harness/corpus.hpp"
#include "harness/scenario.hpp"
#include "obs/trace.hpp"

namespace arbods {
namespace {

// Floods for a fixed number of rounds through the active-set path, so a
// traced run exercises chunk dispatch and flips while staying
// deterministic.
class FixedRoundFlood final : public DistributedAlgorithm {
 public:
  explicit FixedRoundFlood(std::int64_t rounds) : rounds_(rounds) {}

  void initialize(Network& net) override {
    net.for_nodes([&](NodeId v) {
      net.broadcast(v, Message::tagged(1).add_id(v));
    });
  }

  void process_round(Network& net) override {
    net.for_active_nodes([&](NodeId v) {
      net.broadcast(v, Message::tagged(1).add_id(v));
      net.arm(v);
    });
  }

  bool finished(const Network& net) const override {
    return net.current_round() >= rounds_;
  }

 private:
  std::int64_t rounds_;
};

// ------------------------------------------------------------ recorder

TEST(TraceRecorder, SnapshotMergesRingsInStartOrder) {
  obs::TraceRecorder rec(2, 16);
  const std::int64_t b = obs::monotonic_ns();
  rec.record(0, "outer", b + 100, b + 500);
  rec.record(0, "inner", b + 200, b + 300, /*arg=*/7);
  rec.record(1, "other", b + 150, b + 250);

  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "other");
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[0].tid, 0);
  EXPECT_EQ(events[1].tid, 1);
  EXPECT_EQ(events[2].arg, 7);
  // The inner span nests inside the outer one on the same track.
  EXPECT_GE(events[2].ts_ns, events[0].ts_ns);
  EXPECT_LE(events[2].ts_ns + events[2].dur_ns,
            events[0].ts_ns + events[0].dur_ns);
  EXPECT_EQ(rec.dropped_events(), 0);
}

TEST(TraceRecorder, FullRingOverwritesOldestEvents) {
  obs::TraceRecorder rec(1, 4);
  const std::int64_t b = obs::monotonic_ns();
  for (int i = 0; i < 10; ++i)
    rec.record(0, "ev", b + i * 10, b + i * 10 + 5, i);

  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(events[static_cast<std::size_t>(i)].arg, 6 + i)
        << "the ring must keep the most recent window";
  EXPECT_EQ(rec.dropped_events(), 6);

  rec.clear();
  EXPECT_TRUE(rec.snapshot().empty());
  EXPECT_EQ(rec.dropped_events(), 0);
}

TEST(TraceRecorder, InternDeduplicatesAndSurvivesClear) {
  obs::TraceRecorder rec(1, 4);
  const char* a = rec.intern("phase:partial_ds");
  const char* b = rec.intern("phase:partial_ds");
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::string(a), "phase:partial_ds");
  rec.clear();
  // Interned names outlive clear() — spans recorded after a reset may
  // still reference names interned before it (pooled Network reuse).
  EXPECT_EQ(rec.intern("phase:partial_ds"), a);
}

// ---------------------------------------------------------- JSON export

TEST(ChromeJson, WriterEmitsCompleteEventsAndProcessMetadata) {
  obs::TraceGroup group;
  group.label = "cell";
  obs::TraceEvent outer;
  outer.name = "outer";
  outer.ts_ns = 1000;
  outer.dur_ns = 4000;
  obs::TraceEvent inner;
  inner.name = "inner";
  inner.ts_ns = 2000;
  inner.dur_ns = 1000;
  inner.tid = 1;
  inner.arg = 5;
  group.events = {outer, inner};

  std::ostringstream os;
  obs::write_chrome_json(os, std::span<const obs::TraceGroup>(&group, 1));
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // One group is one process row, named by its label.
  EXPECT_NE(
      json.find("\"pid\":0,\"tid\":0,\"args\":{\"name\":\"cell\"}"),
      std::string::npos);
  EXPECT_EQ(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 1\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);  // 1000 ns
  EXPECT_NE(json.find("\"dur\":4.000"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"count\":5}"), std::string::npos);
}

// -------------------------------------------------- timing breakdown

TEST(TimingStats, ExcludedFromEveryStatsComparison) {
  PhaseStats a, b;
  a.name = b.name = "main";
  a.rounds = b.rounds = 3;
  b.timing.compute_seconds = 42.0;
  EXPECT_TRUE(a == b) << "PhaseStats equality must ignore timing";

  RunStats ra, rb;
  ra.rounds = rb.rounds = 3;
  ra.phases.push_back(a);
  rb.phases.push_back(b);
  rb.timing.flip_seconds = 1.0;
  EXPECT_TRUE(ra == rb) << "RunStats equality must ignore timing";

  MdsResult ma, mb;
  mb.stats.timing.retransmit_seconds = 9.0;
  EXPECT_TRUE(ma == mb) << "the determinism audit compares MdsResults — "
                           "timing in there would break every traced run";
}

TEST(TimingStats, RunAccumulatesComputeAndFlipSeconds) {
  const auto wg = WeightedGraph::uniform(gen::cycle(32));
  Network net(wg);  // tracing OFF — the breakdown is always measured
  FixedRoundFlood algo(6);
  const RunStats stats = net.run(algo, 100);
  EXPECT_EQ(stats.rounds, 6);
  EXPECT_GT(stats.timing.compute_seconds, 0.0);
  EXPECT_GT(stats.timing.flip_seconds, 0.0);
  EXPECT_EQ(stats.timing.retransmit_seconds, 0.0);  // no reliable transport
  ASSERT_EQ(stats.phases.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.phases[0].timing.compute_seconds,
                   stats.timing.compute_seconds);
  EXPECT_EQ(net.tracer(), nullptr) << "default config must not trace";
}

// ------------------------------------------------------------- tracing

TEST(Tracing, SnapshotContainsNestedPhaseRoundAndChunkSpans) {
  const auto wg = WeightedGraph::uniform(gen::cycle(16));
  CongestConfig cfg;
  cfg.trace.enabled = true;
  Network net(wg, cfg);
  FixedRoundFlood algo(4);
  net.run(algo, 100);

  ASSERT_NE(net.tracer(), nullptr);
  const auto events = net.tracer()->snapshot();
  ASSERT_FALSE(events.empty());

  const obs::TraceEvent* phase = nullptr;
  bool saw_round = false, saw_flip = false, saw_init = false,
       saw_chunk = false;
  for (const auto& e : events) {
    if (e.name == "phase:main") phase = &e;
    saw_round |= e.name == "round";
    saw_flip |= e.name == "flip";
    saw_init |= e.name == "initialize";
    saw_chunk |= e.name == "chunk:active" || e.name == "chunk:nodes";
  }
  ASSERT_NE(phase, nullptr);
  EXPECT_TRUE(saw_round);
  EXPECT_TRUE(saw_flip);
  EXPECT_TRUE(saw_init);
  EXPECT_TRUE(saw_chunk);

  // Every span lies inside the phase span, and the snapshot is ordered
  // by start time — the invariants chrome://tracing nesting relies on.
  const std::int64_t phase_end = phase->ts_ns + phase->dur_ns;
  std::int64_t prev_ts = events.front().ts_ns;
  std::int64_t round_args = 0;
  for (const auto& e : events) {
    EXPECT_GE(e.ts_ns, phase->ts_ns);
    EXPECT_LE(e.ts_ns + e.dur_ns, phase_end);
    EXPECT_GE(e.ts_ns, prev_ts);
    prev_ts = e.ts_ns;
    if (e.name == "round") {
      ++round_args;
      EXPECT_EQ(e.arg, round_args) << "round spans carry the round number";
    }
  }
  EXPECT_EQ(round_args, 4);
}

TEST(Tracing, ParallelRunRecordsChunkSpansOnEveryWorkerTrack) {
  const auto wg = WeightedGraph::uniform(gen::grid(8, 8));
  CongestConfig cfg;
  cfg.threads = 4;
  cfg.trace.enabled = true;
  Network net(wg, cfg);
  FixedRoundFlood algo(6);
  net.run(algo, 100);

  // One for_nodes dispatch (initialize) plus one for_active_nodes
  // dispatch per round, each recording one chunk span per worker; the
  // driver-only spans (round, flip, phase) stay on worker 0's track.
  ASSERT_NE(net.tracer(), nullptr);
  std::vector<int> chunks_per_worker(4, 0);
  for (const auto& e : net.tracer()->snapshot()) {
    EXPECT_EQ(e.pid, 0);
    ASSERT_GE(e.tid, 0);
    ASSERT_LT(e.tid, 4);
    if (e.name.rfind("chunk:", 0) == 0) ++chunks_per_worker[e.tid];
    if (e.name == "round" || e.name == "flip") EXPECT_EQ(e.tid, 0);
  }
  for (int w = 0; w < 4; ++w)
    EXPECT_EQ(chunks_per_worker[w], 1 + 6) << "worker " << w;
}

TEST(Tracing, EnabledTracingKeepsResultsBitIdentical) {
  const auto corpus = harness::small_corpus(21);
  const std::vector<const harness::CorpusInstance*> one = {&corpus.front()};

  harness::ScenarioSpec plain;
  plain.solvers = {{"det", std::nullopt, ""}};
  plain.thread_widths = {1, 3, 4};
  const auto untraced = harness::run_scenario(plain, one);

  harness::ScenarioSpec traced = plain;
  const std::string trace_path = ::testing::TempDir() + "obs_trace.json";
  traced.trace_out = trace_path;
  const auto rows = harness::run_scenario(traced, one);

  ASSERT_EQ(rows.size(), untraced.size());
  EXPECT_TRUE(harness::all_identical(rows));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].result.dominating_set,
              untraced[i].result.dominating_set);
    EXPECT_EQ(rows[i].result.weight, untraced[i].result.weight);
    EXPECT_TRUE(rows[i].result.stats == untraced[i].result.stats)
        << "tracing changed logical statistics";
  }

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << "trace file was not written";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  // One labeled process row per traced cell.
  EXPECT_NE(json.find("t1 seed"), std::string::npos);
  EXPECT_NE(json.find("t3 seed"), std::string::npos);
  EXPECT_NE(json.find("t4 seed"), std::string::npos);
  std::remove(trace_path.c_str());
}

// ----------------------------------------------------- flight recorder

TEST(FlightRecorder, KeepsExactlyTheLastNRounds) {
  const auto wg = WeightedGraph::uniform(gen::cycle(12));
  CongestConfig cfg;
  cfg.trace.flight_rounds = 5;  // independent of trace.enabled
  Network net(wg, cfg);

  FixedRoundFlood algo(12);
  const RunStats stats = net.run(algo, 100);
  EXPECT_EQ(stats.rounds, 12);
  const auto recs = net.flight_records();
  ASSERT_EQ(recs.size(), 5u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].round, 8 + static_cast<std::int64_t>(i));
    EXPECT_EQ(recs[i].active, 12);  // every node re-arms every round
    EXPECT_EQ(recs[i].delivered, 24);  // 12 nodes x 2 cycle neighbors
    EXPECT_GT(recs[i].bits, 0);
    EXPECT_EQ(recs[i].dropped, 0);
  }

  // Fewer rounds than the ring: all of them survive, oldest first.
  FixedRoundFlood brief(3);
  net.run(brief, 100);
  const auto few = net.flight_records();
  ASSERT_EQ(few.size(), 3u);
  EXPECT_EQ(few.front().round, 1);
  EXPECT_EQ(few.back().round, 3);

  std::ostringstream os;
  net.dump_flight_recorder(os, "unit-test dump");
  const std::string dump = os.str();
  EXPECT_NE(dump.find("[flight recorder] unit-test dump"), std::string::npos);
  EXPECT_NE(dump.find("3 round(s)"), std::string::npos);
  EXPECT_NE(dump.find("round 1"), std::string::npos);
}

TEST(FlightRecorder, DisabledByDefaultAndCostsNothing) {
  const auto wg = WeightedGraph::uniform(gen::cycle(8));
  Network net(wg);
  FixedRoundFlood algo(4);
  net.run(algo, 100);
  EXPECT_TRUE(net.flight_records().empty());
}

TEST(FlightRecorder, StarvedScenarioRowsCarryLastRounds) {
  const auto corpus = harness::small_corpus(22);
  const std::vector<const harness::CorpusInstance*> one = {&corpus.front()};

  harness::ScenarioSpec spec;
  spec.solvers = {{"det", std::nullopt, ""},
                  {"greedy-threshold", std::nullopt, ""}};
  // A 1-round phase budget starves every multi-round phase: rows either
  // terminate via hit_round_limit or die on a violated invariant —
  // tolerate_failures arms the flight recorder (default 8 rounds) so
  // both outcomes carry context.
  spec.base_config.round_limit = 1;
  spec.tolerate_failures = true;
  const auto rows = harness::run_scenario(spec, one);
  ASSERT_FALSE(rows.empty());

  const harness::ScenarioRow* starved = nullptr;
  for (const auto& row : rows) {
    ASSERT_TRUE(row.failed || row.result.stats.hit_round_limit)
        << "a 1-round budget cannot complete " << row.solver;
    EXPECT_LE(row.last_rounds.size(), 8u);
    if (!row.last_rounds.empty()) starved = &row;
  }
  ASSERT_NE(starved, nullptr) << "no starved row captured flight records";

  std::ostringstream os;
  harness::write_scenario_json(
      os, std::span<const harness::ScenarioRow>(starved, 1));
  const std::string json = os.str();
  EXPECT_NE(json.find("\"last_rounds\": [{\"round\": "), std::string::npos);
}

// -------------------------------------------------------- scenario JSON

TEST(ScenarioJson, SchemaV7EmitsTimingColumnsAtFixedPrecision) {
  harness::ScenarioRow row;
  row.instance = "inst";
  row.family = "fam";
  row.seconds = 0.000123456;
  row.result.stats.timing.compute_seconds = 1.5;
  obs::FlightRecord rec;
  rec.round = 9;
  rec.active = 4;
  rec.delivered = 10;
  row.last_rounds = {rec};

  std::ostringstream os;
  harness::write_scenario_json(os,
                               std::span<const harness::ScenarioRow>(&row, 1));
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\": 9"), std::string::npos);
  // Fixed 9-decimal seconds: sub-millisecond values survive round-trip.
  EXPECT_NE(json.find("\"seconds\": 0.000123456"), std::string::npos);
  EXPECT_NE(json.find("\"compute_seconds\": 1.500000000"),
            std::string::npos);
  // v8 dropped the shard-count column after `threads` and the merge
  // time after `flip_seconds`.
  EXPECT_NE(json.find("\"threads\": 1, \"seed\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"flip_seconds\": 0.000000000, "
                      "\"retransmit_seconds\""),
            std::string::npos);
  EXPECT_NE(json.find("\"last_rounds\": [{\"round\": 9, \"active\": 4, "
                      "\"delivered\": 10"),
            std::string::npos);
  // v9 dropped the flight records' `spilled` count after `bits`.
  EXPECT_NE(json.find("\"bits\": 0, \"dropped\": 0"), std::string::npos);
}

}  // namespace
}  // namespace arbods
