// Self-healing layer (src/resilience/): the reliable-delivery channel's
// core contract — every registry solver's OUTPUT is bit-identical to its
// fault-free run when driven over a drop/duplicate/delay/reorder
// adversary with config.reliable_transport set, at every worker-pool
// width — plus the deterministic retransmission
// schedule, the kill_round=1 boundary semantics repair relies on, the
// post-kill repair protocol on a hand-built casualty, the
// "<solver>+repair" registry variants under a kill-only scenario sweep
// (cross-width determinism + the surviving-subgraph oracle),
// and FaultSpec/FaultPlan validation.
//
// The wide width honors ARBODS_TEST_THREADS (CI: 8) like the other
// determinism suites; widths 3 and 4 always run besides it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "fault/fault_plan.hpp"
#include "gen/classic.hpp"
#include "harness/corpus.hpp"
#include "harness/oracle.hpp"
#include "harness/registry.hpp"
#include "harness/scenario.hpp"
#include "protocol/runner.hpp"
#include "resilience/reliable_channel.hpp"
#include "resilience/repair.hpp"

namespace arbods::resilience {
namespace {

int test_thread_width() {
  if (const char* env = std::getenv("ARBODS_TEST_THREADS")) {
    const int w = std::atoi(env);
    if (w >= 1) return w;
  }
  return 8;
}

// The transport promises identical solver OUTPUT, not identical
// statistics — the physical frames are the honest price of reliability.
::testing::AssertionResult outputs_identical(const MdsResult& a,
                                             const MdsResult& b) {
  if (a.dominating_set != b.dominating_set)
    return ::testing::AssertionFailure() << "dominating sets differ";
  if (a.weight != b.weight)
    return ::testing::AssertionFailure()
           << "weights differ: " << a.weight << " vs " << b.weight;
  if (a.packing != b.packing)  // exact double comparison, intentionally
    return ::testing::AssertionFailure() << "packing values differ";
  if (a.iterations != b.iterations)
    return ::testing::AssertionFailure()
           << "iterations differ: " << a.iterations << " vs " << b.iterations;
  return ::testing::AssertionSuccess();
}

// ------------------------------------------------ retransmit schedule

TEST(ReliableChannel, RetransmitGapIsPureAndBounded) {
  // Pure function: same inputs, same gap, across repeated evaluation.
  for (std::uint32_t arc : {0u, 7u, 100000u})
    for (std::uint32_t seq : {0u, 1u, 65535u})
      for (int attempt = 0; attempt < 10; ++attempt)
        EXPECT_EQ(retransmit_gap(arc, seq, static_cast<std::uint8_t>(attempt)),
                  retransmit_gap(arc, seq, static_cast<std::uint8_t>(attempt)));
  // Attempt 0: RTT guard + 2^0 + jitter % 1 == exactly 3.
  EXPECT_EQ(retransmit_gap(3, 5, 0), 3);
  // Bounded exponential envelope: 2 + 2^min(a,5) <= gap < 2 + 2^(min(a,5)+1).
  for (std::uint32_t arc : {1u, 42u})
    for (int attempt = 0; attempt < 12; ++attempt) {
      const int a = attempt < 5 ? attempt : 5;
      const std::int64_t base = std::int64_t{1} << a;
      const std::int64_t gap =
          retransmit_gap(arc, 9, static_cast<std::uint8_t>(attempt));
      EXPECT_GE(gap, 2 + base) << "arc " << arc << " attempt " << attempt;
      EXPECT_LT(gap, 2 + 2 * base) << "arc " << arc << " attempt " << attempt;
    }
}

// ----------------------------------- output bit-identity under faults

TEST(ReliableChannel, EverySolverMatchesItsCleanOutputAcrossWidths) {
  const int wide = test_thread_width();
  const auto corpus = harness::small_corpus(21);
  ASSERT_GE(corpus.size(), 3u);
  CongestConfig lossy;
  lossy.seed = 0x5e11ab1eULL;
  lossy.reliable_transport = true;
  lossy.fault.drop_prob = 0.1;
  lossy.fault.duplicate_prob = 0.1;
  lossy.fault.delay_prob = 0.2;
  lossy.fault.max_delay_rounds = 2;
  lossy.fault.reorder_prob = 0.2;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& inst = corpus[i];
    for (const harness::SolverInfo& info : harness::all_solvers()) {
      if (!harness::solver_applicable(info, inst)) continue;
      harness::SolverParams params = harness::params_for(info, inst);
      params.threads = -1;

      CongestConfig clean_cfg;
      clean_cfg.seed = lossy.seed;
      Network clean(inst.wg, clean_cfg);
      const MdsResult reference = info.run_on(clean, params);

      for (const int threads : {1, 3, 4, wide}) {
        if (threads == 4 && wide == 4) continue;
        CongestConfig cfg = lossy;
        cfg.threads = threads;
        Network net(inst.wg, cfg);
        const MdsResult res = info.run_on(net, params);
        EXPECT_TRUE(outputs_identical(reference, res))
            << info.name << " on " << inst.name << " at threads=" << threads;
        // The transport cannot be free: reliability costs physical
        // rounds (markers, acks, retransmissions).
        EXPECT_GT(res.stats.rounds, reference.stats.rounds)
            << info.name << " on " << inst.name;
        EXPECT_FALSE(res.stats.hit_round_limit)
            << info.name << " on " << inst.name;
      }
    }
  }
}

TEST(ReliableChannel, ZeroFaultReliableRunStillMatchesCleanOutput) {
  // reliable_transport over a clean wire: the adapter alone (markers,
  // acks, virtual-round pacing) must not perturb the algorithm.
  const auto corpus = harness::small_corpus(4);
  const auto& inst = corpus.front();
  const harness::SolverInfo& info = harness::solver("det");
  harness::SolverParams params = harness::params_for(info, inst);
  params.threads = -1;
  CongestConfig cfg;
  cfg.seed = 0xc0feULL;
  Network clean(inst.wg, cfg);
  const MdsResult reference = info.run_on(clean, params);
  cfg.reliable_transport = true;
  Network wrapped(inst.wg, cfg);
  const MdsResult res = info.run_on(wrapped, params);
  EXPECT_TRUE(outputs_identical(reference, res));
}

// The transport reads the staging Network's record lists section by
// section: node 0 sends on arc 0->1 first from a for_active_nodes
// dispatch (whose single bitmap word falls in the last worker's chunk)
// and then from a for_nodes dispatch (worker 0), and node 1 must still
// receive in send order. The test checks that the two workers differ.
TEST(ReliableChannel, OneArcFedFromTwoSectionsKeepsSendOrder) {
  class TwoSectionSender final : public DistributedAlgorithm {
   public:
    std::vector<int> got;
    int active_worker = -1;  // worker that ran node 0 in each section
    int nodes_worker = -1;
    std::string_view name() const override { return "two-section"; }
    void initialize(Network& net) override { net.arm(0); }
    void process_round(Network& net) override {
      if (net.current_round() == 1) {
        net.for_active_nodes([&](NodeId v) {
          if (v != 0) return;
          active_worker = net.worker_index();
          net.send(0, 1, Message::tagged(1));
          net.send(0, 1, Message::tagged(2));
        });
        net.for_nodes([&](NodeId v) {
          if (v != 0) return;
          nodes_worker = net.worker_index();
          net.send(0, 1, Message::tagged(3));
        });
        return;
      }
      for (const MessageView m : net.inbox(1)) got.push_back(m.tag());
    }
    bool finished(const Network& net) const override {
      return net.current_round() >= 2;
    }
  };

  const auto wg = WeightedGraph::uniform(gen::path(8));
  for (const int threads : {1, 3, 4}) {
    CongestConfig cfg;
    cfg.threads = threads;
    cfg.reliable_transport = true;
    cfg.fault.delay_prob = 0.5;
    cfg.fault.max_delay_rounds = 2;
    cfg.fault.reorder_prob = 0.3;
    Network net(wg, cfg);
    TwoSectionSender algo;
    const RunStats stats = protocol::run_protocol(net, {&algo}, 1000);
    EXPECT_FALSE(stats.hit_round_limit);
    EXPECT_EQ(algo.got, (std::vector<int>{1, 2, 3})) << "threads=" << threads;
    if (threads > 1) {
      EXPECT_NE(algo.active_worker, algo.nodes_worker) << "threads=" << threads;
    }
  }
}

// A flush empties the sender's broadcast slot, and the next broadcast of
// the same round writes it again: the capture must still read each record
// once per arc, in send order. Node 1 of a path broadcasts, sends to one
// neighbour, broadcasts again, then (in a second, differently chunked
// section) sends to the other neighbour and broadcasts a third time.
TEST(ReliableChannel, BroadcastAfterAFlushInOneRoundIsCapturedOnce) {
  class FlushThenBroadcast final : public DistributedAlgorithm {
   public:
    std::vector<int> at0, at2;
    std::string_view name() const override { return "flush-then-broadcast"; }
    void initialize(Network& net) override { net.arm(1); }
    void process_round(Network& net) override {
      if (net.current_round() == 1) {
        net.for_active_nodes([&](NodeId v) {
          if (v != 1) return;
          net.broadcast(1, Message::tagged(1));
          net.send(1, 2, Message::tagged(2));
          net.broadcast(1, Message::tagged(3));
        });
        net.for_nodes([&](NodeId v) {
          if (v != 1) return;
          net.send(1, 0, Message::tagged(4));
          net.broadcast(1, Message::tagged(5));
        });
        return;
      }
      for (const MessageView m : net.inbox(0)) at0.push_back(m.tag());
      for (const MessageView m : net.inbox(2)) at2.push_back(m.tag());
    }
    bool finished(const Network& net) const override {
      return net.current_round() >= 2;
    }
  };

  const auto wg = WeightedGraph::uniform(gen::path(8));
  for (const bool reliable_transport : {false, true}) {
    for (const int threads : {1, 3, 4}) {
      CongestConfig cfg;
      cfg.threads = threads;
      cfg.reliable_transport = reliable_transport;
      if (reliable_transport) {
        cfg.fault.drop_prob = 0.2;
        cfg.fault.duplicate_prob = 0.2;
        cfg.fault.delay_prob = 0.3;
        cfg.fault.max_delay_rounds = 2;
        cfg.fault.reorder_prob = 0.3;
      }
      Network net(wg, cfg);
      FlushThenBroadcast algo;
      const RunStats stats = protocol::run_protocol(net, {&algo}, 1000);
      EXPECT_FALSE(stats.hit_round_limit);
      EXPECT_EQ(algo.at0, (std::vector<int>{1, 3, 4, 5}))
          << "reliable=" << reliable_transport << " threads=" << threads;
      EXPECT_EQ(algo.at2, (std::vector<int>{1, 2, 3, 5}))
          << "reliable=" << reliable_transport << " threads=" << threads;
    }
  }
}

// ----------------------------------------- kill_round = 1 boundary pin

// Minimal probe for the kill boundary: ids flood at initialize and at
// every process_round; per-round arrival counts are recorded.
class KillProbe final : public DistributedAlgorithm {
 public:
  explicit KillProbe(int rounds) : rounds_(rounds) {}

  std::vector<std::vector<int>> heard_;  // heard_[round][node] = records

  void initialize(Network& net) override {
    heard_.assign(static_cast<std::size_t>(rounds_) + 1,
                  std::vector<int>(net.num_nodes(), 0));
    for (NodeId v = 0; v < net.num_nodes(); ++v)
      net.broadcast(v, Message::tagged(0).add_id(v));
  }

  void process_round(Network& net) override {
    const std::int64_t r = net.current_round();
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      int count = 0;
      for (const MessageView mv : net.inbox(v)) {
        (void)mv;
        ++count;
      }
      heard_[static_cast<std::size_t>(r)][v] = count;
      net.broadcast(v, Message::tagged(0).add_id(v));
    }
  }

  bool finished(const Network& net) const override {
    return net.current_round() >= rounds_;
  }

 private:
  int rounds_;
};

TEST(Repair, KillRoundOneDeliversInitializeSendsThenSilences) {
  // kill_round = 1 is the earliest legal kill: the node completes
  // initialize (round 0) and its round-0 broadcasts DELIVER at round 1,
  // but it is dead before its first process_round send and never
  // receives anything.
  const auto wg = WeightedGraph::uniform(gen::cycle(6));
  fault::FaultPlan plan;
  plan.kills = {{0, 1}};
  Network net(wg, {}, plan);
  EXPECT_FALSE(net.alive(0));
  EXPECT_TRUE(net.alive(1));
  EXPECT_EQ(net.killed_nodes(), NodeSet{0});
  KillProbe probe(3);
  net.run(probe, 10);
  // Round 1: every node hears both neighbors — node 0's initialize
  // sends made it out before the kill took effect.
  for (NodeId v = 1; v < 6; ++v) EXPECT_EQ(probe.heard_[1][v], 2);
  // From round 2 on, node 0's neighbors hear only their live neighbor.
  EXPECT_EQ(probe.heard_[2][1], 1);
  EXPECT_EQ(probe.heard_[2][5], 1);
  EXPECT_EQ(probe.heard_[3][1], 1);
  // The dead node itself hears nothing at any round >= 1.
  for (std::size_t r = 1; r < probe.heard_.size(); ++r)
    EXPECT_EQ(probe.heard_[r][0], 0) << "dead node heard at round " << r;
}

// -------------------------------------------------- repair semantics

TEST(Repair, UncoveredSurvivorsRecoverWhenTheirUniqueDominatorDies) {
  // Path 0-1-2 dominated by {1} alone; node 1 is killed, leaving both
  // leaves uncovered with no live neighbor at all — each must elect
  // itself. The repaired set is exactly the two survivors.
  const auto wg =
      WeightedGraph::uniform(Graph::from_edges(3, {{0, 1}, {1, 2}}));
  fault::FaultPlan plan;
  plan.kills = {{1, 1}};
  Network net(wg, {}, plan);
  const RepairOutcome out = run_repair(net, {1});
  EXPECT_EQ(out.repaired_set, (NodeSet{0, 2}));
  EXPECT_EQ(out.repaired_nodes, 2);
  EXPECT_EQ(out.post_weight, 2);
  EXPECT_GT(out.repair_rounds, 0);
  EXPECT_LE(out.repair_rounds, 6);  // the protocol is O(1): 5 stages

  // The surviving-subgraph oracle agrees: {0, 2} dominates the alive
  // subgraph (and is optimal on it), while the dead original set does
  // not.
  const harness::CorpusInstance inst{"path3", wg, /*alpha=*/1,
                                     /*forest=*/true, /*unit_weights=*/true,
                                     /*family=*/""};
  const std::vector<std::uint8_t> alive = {1, 0, 1};
  const harness::SolverInfo& info = harness::solver("det+repair");
  harness::OracleOptions opts;
  opts.alive = &alive;

  MdsResult repaired;
  repaired.dominating_set = out.repaired_set;
  repaired.weight = out.post_weight;
  const auto ok = harness::check_solver_result(info, {}, inst, repaired, opts);
  EXPECT_TRUE(ok.ok) << ok.failure;
  EXPECT_DOUBLE_EQ(ok.opt, 2.0);
  EXPECT_DOUBLE_EQ(ok.ratio, 1.0);

  MdsResult dead;
  dead.dominating_set = {1};
  dead.weight = wg.weight(1);
  const auto bad = harness::check_solver_result(info, {}, inst, dead, opts);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.failure.find("undominated"), std::string::npos)
      << bad.failure;
}

TEST(Repair, RegistryListsOneRepairVariantPerSolver) {
  const auto base = harness::all_solvers();
  const auto repair = harness::repair_solvers();
  ASSERT_EQ(base.size(), repair.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const std::string expect = std::string(base[i].name) + "+repair";
    EXPECT_EQ(repair[i].name, expect);
    EXPECT_NE(harness::find_solver(expect), nullptr);
    // The base list stays pure: exhaustive clean sweeps must not pick
    // up the variants implicitly.
    EXPECT_EQ(base[i].name.find('+'), std::string_view::npos);
  }
  EXPECT_EQ(harness::find_solver("det+repair"), &repair.front());
  EXPECT_EQ(harness::find_solver("nope+repair"), nullptr);
}

// --------------------------------------- repair under the scenario axis

TEST(Repair, ScenarioRowsAreDeterministicAndPassTheSurvivingOracle) {
  const int wide = test_thread_width();
  const auto corpus = harness::small_corpus(13);
  const auto& inst = corpus.front();

  harness::ScenarioFault kills;
  kills.label = "kills";
  kills.spec.kill_prob = 0.3;
  kills.spec.kill_round = 2;
  const std::vector<std::uint8_t> alive =
      fault::alive_mask(inst.wg.graph(), kills.spec);
  std::size_t dead = 0;
  for (const std::uint8_t a : alive) dead += (a == 0);
  ASSERT_GT(dead, 0u) << "kill_prob too low for this corpus seed — the "
                         "sweep would test nothing";
  ASSERT_LT(dead, alive.size());

  harness::ScenarioSpec spec;
  spec.solvers = {{"det+repair", std::nullopt, ""},
                  {"greedy-threshold+repair", std::nullopt, ""}};
  spec.thread_widths = {1, 3, 4, wide};
  spec.fault_levels = {kills};
  spec.tolerate_failures = true;
  spec.base_config.round_limit = 400;
  const std::vector<const harness::CorpusInstance*> one = {&inst};
  const auto rows = harness::run_scenario(spec, one);
  ASSERT_EQ(rows.size(), 8u);  // 2 solvers x 4 widths
  EXPECT_TRUE(harness::all_identical(rows));

  harness::OracleOptions opts;
  opts.alive = &alive;
  for (const auto& row : rows) {
    // The whole point of the variant: the repaired result survives the
    // kill schedule instead of dying with it.
    EXPECT_FALSE(row.failed) << row.solver;
    EXPECT_GT(row.result.repair_rounds, 0) << row.solver;
    EXPECT_LE(row.result.repair_rounds, 6) << row.solver;
    EXPECT_EQ(row.result.post_repair_weight, row.result.weight) << row.solver;
    const harness::SolverInfo& info = harness::solver(row.solver);
    const auto rep = harness::check_solver_result(
        info, harness::params_for(info, inst), inst, row.result, opts);
    EXPECT_TRUE(rep.ok) << row.solver << " at threads=" << row.threads
                        << ": " << rep.failure;
  }

  // The v5 repair columns and round-limit flag ride in the JSON rows.
  std::ostringstream os;
  harness::write_scenario_json(os, rows);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"hit_round_limit\": "), std::string::npos);
  EXPECT_NE(json.find("\"repair_rounds\": "), std::string::npos);
  EXPECT_NE(json.find("\"repaired_nodes\": "), std::string::npos);
  EXPECT_NE(json.find("\"post_repair_weight\": "), std::string::npos);
}

// ------------------------------------------------- spec/plan validation

TEST(FaultValidation, RejectsOutOfRangeSpecsAndPlans) {
  const auto g = gen::cycle(6);
  {
    fault::FaultSpec bad;
    bad.drop_prob = -0.1;
    EXPECT_THROW(fault::make_fault_plan(g, bad), CheckError);
  }
  {
    fault::FaultSpec bad;
    bad.duplicate_prob = 1.5;
    EXPECT_THROW(fault::make_fault_plan(g, bad), CheckError);
  }
  {
    fault::FaultSpec bad;
    bad.delay_prob = 0.5;
    bad.max_delay_rounds = -1;
    EXPECT_THROW(fault::make_fault_plan(g, bad), CheckError);
  }
  {
    // kill_round 0 would let a node die before its initialize sends
    // leave — a state no clean run can reach; rejected up front.
    fault::FaultSpec bad;
    bad.kill_prob = 0.1;
    bad.kill_round = 0;
    EXPECT_THROW(fault::make_fault_plan(g, bad), CheckError);
  }
  {
    fault::FaultPlan plan;
    plan.kills = {{0, 0}};
    EXPECT_THROW(fault::validate_fault_plan(g, plan), CheckError);
  }
  {
    fault::FaultPlan plan;
    plan.kills = {{99, 2}};
    EXPECT_THROW(fault::validate_fault_plan(g, plan), CheckError);
  }
}

}  // namespace
}  // namespace arbods::resilience
