// Fault-injection engine: semantics of each fault class (drop, duplicate,
// delay, reorder, kill) on a hand-built probe protocol, the determinism
// contract for faulty runs (bit-identical across worker-pool widths for
// every registry solver), zero-fault transparency (a plan that fires
// nothing == no plan, bit for bit), round-limit termination under total
// message loss, per-phase fault-counter consistency, and the scenario
// runner's fault axis / schema-v4 JSON fields.
//
// The wide width honors ARBODS_TEST_THREADS (CI: 8) like the clean
// determinism suite; widths 3 and 4 always run besides it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "fault/fault_plan.hpp"
#include "fault/faulty_network.hpp"
#include "gen/classic.hpp"
#include "harness/corpus.hpp"
#include "harness/oracle.hpp"
#include "harness/registry.hpp"
#include "harness/scenario.hpp"

namespace arbods::fault {
namespace {

int test_thread_width() {
  if (const char* env = std::getenv("ARBODS_TEST_THREADS")) {
    const int w = std::atoi(env);
    if (w >= 1) return w;
  }
  return 8;
}

::testing::AssertionResult results_identical(const MdsResult& a,
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
  if (!(a.stats == b.stats))
    return ::testing::AssertionFailure()
           << "RunStats differ: rounds " << a.stats.rounds << "/"
           << b.stats.rounds << ", messages " << a.stats.messages << "/"
           << b.stats.messages << ", dropped " << a.stats.dropped << "/"
           << b.stats.dropped << ", duplicated " << a.stats.duplicated << "/"
           << b.stats.duplicated << ", delayed " << a.stats.delayed << "/"
           << b.stats.delayed << ", killed " << a.stats.killed << "/"
           << b.stats.killed;
  return ::testing::AssertionSuccess();
}

// The moderately hostile adversary the cross-width audit
// runs every registry solver under.
CongestConfig faulty_config() {
  CongestConfig cfg;
  cfg.seed = 0xfa017ULL;
  cfg.fault.drop_prob = 0.05;
  cfg.fault.duplicate_prob = 0.05;
  cfg.fault.delay_prob = 0.3;
  cfg.fault.max_delay_rounds = 3;
  cfg.fault.reorder_prob = 0.2;
  cfg.fault.kill_prob = 0.02;
  cfg.fault.kill_round = 2;
  cfg.round_limit = 300;
  return cfg;
}

// ---------------------------------------------------------------- probe

// Deterministic flood probe: every node broadcasts its id at round 0 and
// (optionally) again during round 1; each round every node records how
// many records arrived and the sum of the sender ids they carried.
class FloodProbe final : public DistributedAlgorithm {
 public:
  explicit FloodProbe(int rounds, bool resend_round1 = false)
      : rounds_(rounds), resend_round1_(resend_round1) {}

  // received_[r][v] = (records, id-sum) delivered to v at round r.
  std::vector<std::vector<std::pair<int, std::int64_t>>> received_;

  void initialize(Network& net) override {
    received_.assign(static_cast<std::size_t>(rounds_) + 1,
                     std::vector<std::pair<int, std::int64_t>>(
                         net.num_nodes(), {0, 0}));
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      net.broadcast(v, Message::tagged(0).add_id(v));
      net.arm(v);
    }
  }

  void process_round(Network& net) override {
    const std::int64_t r = net.current_round();
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      int count = 0;
      std::int64_t sum = 0;
      for (const MessageView m : net.inbox(v)) {
        ++count;
        sum += static_cast<std::int64_t>(m.id_at(1));
        EXPECT_EQ(m.sender(), m.id_at(1));  // diversion keeps sender honest
      }
      received_[static_cast<std::size_t>(r)][v] = {count, sum};
      if (resend_round1_ && r == 1)
        net.broadcast(v, Message::tagged(0).add_id(v));
    }
  }

  bool finished(const Network& net) const override {
    return net.current_round() >= rounds_;
  }

 private:
  int rounds_;
  bool resend_round1_;
};

int total_received(const FloodProbe& probe) {
  int total = 0;
  for (const auto& per_round : probe.received_)
    for (const auto& [count, sum] : per_round) total += count;
  return total;
}

// ------------------------------------------------- per-fault semantics

TEST(FaultyNetwork, DropProbabilityOneDeliversNothing) {
  const auto wg = WeightedGraph::uniform(gen::cycle(6));
  FaultPlan plan;
  plan.drop_prob = 1.0;
  Network net(wg, {}, plan);
  FloodProbe probe(3);
  const RunStats stats = net.run(probe, 10);
  EXPECT_EQ(total_received(probe), 0);
  EXPECT_EQ(stats.messages, 12);  // the senders still paid for the slots
  EXPECT_EQ(stats.dropped, 12);
  EXPECT_EQ(stats.duplicated, 0);
  EXPECT_EQ(stats.delayed, 0);
  EXPECT_EQ(stats.killed, 0);
}

TEST(FaultyNetwork, DuplicateProbabilityOneDeliversEveryRecordTwice) {
  const auto wg = WeightedGraph::uniform(gen::cycle(6));
  FaultPlan plan;
  plan.duplicate_prob = 1.0;
  Network net(wg, {}, plan);
  FloodProbe probe(2);
  const RunStats stats = net.run(probe, 10);
  EXPECT_EQ(stats.messages, 12);
  EXPECT_EQ(stats.duplicated, 12);
  EXPECT_EQ(total_received(probe), 24);
  for (NodeId v = 0; v < 6; ++v) {
    const auto [count, sum] = probe.received_[1][v];
    const std::int64_t left = (v + 5) % 6, right = (v + 1) % 6;
    EXPECT_EQ(count, 4);
    EXPECT_EQ(sum, 2 * (left + right));
  }
}

TEST(FaultyNetwork, DelayedRecordsArriveWithinTheBound) {
  const auto wg = WeightedGraph::uniform(gen::cycle(6));
  FaultPlan plan;
  plan.delay_prob = 1.0;
  plan.max_delay_rounds = 3;
  Network net(wg, {}, plan);
  FloodProbe probe(5);
  const RunStats stats = net.run(probe, 10);
  EXPECT_EQ(stats.delayed, 12);
  // Undelayed arrival would be round 1; a delay of d in [1, 3] lands in
  // rounds 2..4 — nothing earlier, nothing later, nothing lost.
  int by_round[6] = {0, 0, 0, 0, 0, 0};
  for (std::size_t r = 0; r < probe.received_.size(); ++r)
    for (const auto& [count, sum] : probe.received_[r])
      by_round[r] += count;
  EXPECT_EQ(by_round[0], 0);
  EXPECT_EQ(by_round[1], 0);
  EXPECT_EQ(by_round[2] + by_round[3] + by_round[4], 12);
  EXPECT_EQ(by_round[5], 0);
}

TEST(FaultyNetwork, ReorderKeepsEveryInboxMultisetIntact) {
  const auto wg = WeightedGraph::uniform(gen::king_grid(3, 3));
  const NodeId n = wg.num_nodes();
  FaultPlan plan;
  plan.reorder_prob = 1.0;
  Network net(wg, {}, plan);
  FloodProbe probe(2);
  const RunStats stats = net.run(probe, 10);
  EXPECT_EQ(stats.messages,
            static_cast<std::int64_t>(2 * wg.graph().num_edges()));
  EXPECT_EQ(stats.dropped, 0);
  // Diversion changes inbox positions, never content: every node still
  // receives exactly one record from each neighbor.
  const Graph& g = wg.graph();
  for (NodeId v = 0; v < n; ++v) {
    const auto [count, sum] = probe.received_[1][v];
    std::int64_t expect_sum = 0;
    int expect_count = 0;
    for (const NodeId u : g.neighbors(v)) {
      expect_sum += u;
      ++expect_count;
    }
    EXPECT_EQ(count, expect_count) << "node " << v;
    EXPECT_EQ(sum, expect_sum) << "node " << v;
  }
}

TEST(FaultyNetwork, KilledNodeNeitherSendsNorReceives) {
  const auto wg = WeightedGraph::uniform(gen::cycle(6));
  FaultPlan plan;
  plan.kills = {{0, 1}};  // node 0 dies at round 1
  Network net(wg, {}, plan);
  FloodProbe probe(3, /*resend_round1=*/true);
  const RunStats stats = net.run(probe, 10);
  // Round-0 broadcasts: node 0's own sends leave before the kill, but the
  // two records addressed to it arrive at round 1 — suppressed. Round-1
  // broadcasts: node 0 is dead, so its 2 records are stillborn, and the 2
  // addressed to it are suppressed on arrival.
  EXPECT_EQ(stats.killed, 6);
  EXPECT_EQ(stats.messages, 22);  // 12 at round 0 + 10 from live senders
  for (std::size_t r = 1; r < probe.received_.size(); ++r)
    EXPECT_EQ(probe.received_[r][0].first, 0) << "dead node heard round " << r;
  // Node 0's neighbors hear it at round 1 (pre-kill send) but not after.
  EXPECT_EQ(probe.received_[1][1].first, 2);
  EXPECT_EQ(probe.received_[2][1].first, 1);  // only node 2 is still talking
}

// ------------------------------------------------ plan derivation / API

TEST(FaultPlan, MakeFaultPlanSamplesKillsAndValidates) {
  const auto g = gen::cycle(64);
  FaultSpec spec;
  spec.kill_prob = 0.5;
  spec.kill_round = 7;
  const FaultPlan plan = make_fault_plan(g, spec);
  EXPECT_FALSE(plan.kills.empty());
  EXPECT_LT(plan.kills.size(), 64u);
  for (const KillEvent& k : plan.kills) EXPECT_EQ(k.round, 7);
  // Pure-hash sampling: derived twice, identical twice.
  EXPECT_EQ(plan, make_fault_plan(g, spec));

  FaultSpec bad;
  bad.drop_prob = 1.5;
  EXPECT_THROW(make_fault_plan(g, bad), CheckError);
  FaultPlan misfit;
  misfit.arc_drop.assign(3, 0.5);  // cycle(64) has 128 arcs
  EXPECT_THROW(Network(WeightedGraph::uniform(g), {}, misfit),
               CheckError);
}

TEST(FaultPlan, FaultLabelSummarizesTheSpec) {
  EXPECT_EQ(fault_label(FaultSpec{}), "none");
  FaultSpec spec;
  spec.drop_prob = 0.1;
  spec.delay_prob = 0.2;
  spec.max_delay_rounds = 4;
  EXPECT_EQ(fault_label(spec), "drop=0.1,delay=0.2x4");
}

// Fault injection is a branch of Network chosen by the plan: an inert
// spec, or a plan that is not enabled, keeps the clean delivery path
// with its broadcast slots; an enabled plan sends every record per arc
// and decides its faults per arc.
TEST(FaultyNetwork, MakeNetworkDispatchesOnTheSpec) {
  const auto wg = WeightedGraph::uniform(gen::cycle(8));
  CongestConfig cfg;
  const Network clean(wg, cfg);
  ASSERT_GT(clean.arena_words(), 0u);
  EXPECT_FALSE(make_network(wg, cfg)->plan().enabled());
  EXPECT_EQ(make_network(wg, cfg)->arena_words(), clean.arena_words());
  EXPECT_EQ(Network(wg, cfg, FaultPlan{}).arena_words(), clean.arena_words());
  CongestConfig lossy = cfg;
  lossy.fault.drop_prob = 0.1;
  EXPECT_TRUE(make_network(wg, lossy)->plan().enabled());
  EXPECT_EQ(make_network(wg, lossy)->arena_words(), 0u);

  // Node 0's in-arcs are 0 (from node 1) and 1 (from node 7): drop every
  // record on the first, duplicate every record on the second.
  FaultPlan plan;
  plan.arc_drop.assign(16, 0.0);
  plan.arc_drop[0] = 1.0;
  plan.arc_duplicate.assign(16, 0.0);
  plan.arc_duplicate[1] = 1.0;
  Network net(wg, cfg, plan);
  EXPECT_EQ(net.arena_words(), 0u);  // faults are per arc: no slots
  FloodProbe probe(1);
  const RunStats stats = net.run(probe, 10);
  EXPECT_EQ(stats.messages, 16);
  EXPECT_EQ(stats.dropped, 1);
  EXPECT_EQ(stats.duplicated, 1);
  EXPECT_EQ(probe.received_[1][0], (std::pair<int, std::int64_t>{2, 14}));
  for (NodeId v = 1; v < 8; ++v)
    EXPECT_EQ(probe.received_[1][v].first, 2) << "node " << v;
}

// ------------------------------------------------------- transparency

// An enabled plan whose one event never fires within a test run: it
// takes the per-arc fault path (no broadcast slots) and disturbs nothing.
FaultPlan never_firing_plan() {
  FaultPlan plan;
  plan.kills = {{0, std::int64_t{1} << 40}};
  return plan;
}

TEST(FaultyNetwork, ZeroFaultPlanIsBitIdenticalToUndecorated) {
  const auto corpus = harness::small_corpus(11);
  ASSERT_GE(corpus.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& inst = corpus[i];
    for (const char* name : {"det", "randomized", "greedy-threshold"}) {
      const harness::SolverInfo& info = harness::solver(name);
      if (!harness::solver_applicable(info, inst)) continue;
      harness::SolverParams params = harness::params_for(info, inst);
      params.threads = -1;

      CongestConfig cfg;
      cfg.seed = 0xc1ea50ULL;
      Network clean(inst.wg, cfg);
      const MdsResult reference = info.run_on(clean, params);

      // The zero plan keeps the clean path; the never-firing plan runs
      // every record through the fault injector.
      for (const FaultPlan& plan : {FaultPlan{}, never_firing_plan()}) {
        Network faulty(inst.wg, cfg, plan);
        const MdsResult planned = info.run_on(faulty, params);

        EXPECT_TRUE(results_identical(reference, planned))
            << name << " on " << inst.name
            << " (plan enabled: " << plan.enabled() << ")";
        EXPECT_EQ(planned.stats.dropped, 0);
        EXPECT_EQ(planned.stats.duplicated, 0);
        EXPECT_EQ(planned.stats.delayed, 0);
        EXPECT_EQ(planned.stats.killed, 0);
      }
    }
  }
}

// A plan that fires nothing sends every record down the direct path, so
// a node that sends on one arc from two parallel sections of one round
// must keep its send order there too. Node 0 is the only active node in
// round 1: the active set's single bitmap word falls in the last worker's
// chunk, the for_nodes dispatch that follows runs node 0 on worker 0, and
// the test checks that the two workers differ.
TEST(FaultyNetwork, OneArcFedFromTwoSectionsOfARoundKeepsSendOrder) {
  class TwoSectionSender final : public DistributedAlgorithm {
   public:
    std::vector<int> got;
    int active_worker = -1;  // worker that ran node 0 in each section
    int nodes_worker = -1;
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
    Network net(wg, cfg, never_firing_plan());
    TwoSectionSender algo;
    net.run(algo, 5);
    EXPECT_EQ(algo.got, (std::vector<int>{1, 2, 3})) << "threads=" << threads;
    if (threads > 1) {
      EXPECT_NE(algo.active_worker, algo.nodes_worker) << "threads=" << threads;
    }
  }
}

// --------------------------------------------------------- cross-width

// A faulty run's outcome: either a result or the (deterministic) check
// failure it died with — both must be identical across configurations.
struct Outcome {
  std::optional<MdsResult> result;
  std::string error;
};

Outcome run_outcome(const harness::SolverInfo& info,
                    const harness::CorpusInstance& inst,
                    const harness::SolverParams& params, int threads) {
  CongestConfig cfg = faulty_config();
  cfg.threads = threads;
  Outcome out;
  try {
    Network net(inst.wg, cfg);
    out.result = info.run_on(net, params);
  } catch (const CheckError& e) {
    out.error = e.what();
  }
  return out;
}

TEST(FaultyDeterminism, EverySolverIsBitIdenticalAcrossWidths) {
  const int wide = test_thread_width();
  const auto corpus = harness::small_corpus(7);
  ASSERT_GE(corpus.size(), 10u);
  for (const auto& inst : corpus) {
    for (const harness::SolverInfo& info : harness::all_solvers()) {
      if (!harness::solver_applicable(info, inst)) continue;
      harness::SolverParams params = harness::params_for(info, inst);
      params.threads = -1;

      const Outcome reference = run_outcome(info, inst, params, 1);
      for (const int threads : {3, 4, wide}) {
        if (threads == 4 && wide == 4) continue;
        const Outcome other = run_outcome(info, inst, params, threads);
        ASSERT_EQ(reference.result.has_value(), other.result.has_value())
            << info.name << " on " << inst.name << " at " << threads
            << " threads: one run failed (" << reference.error
            << other.error << ")";
        if (reference.result.has_value()) {
          EXPECT_TRUE(results_identical(*reference.result, *other.result))
              << info.name << " on " << inst.name << " at " << threads
              << " threads";
        } else {
          EXPECT_EQ(reference.error, other.error)
              << info.name << " on " << inst.name;
        }
      }
    }
  }
}

// --------------------------------------------- starvation / accounting

// Termination predicate that genuinely needs the network: finished only
// once node 1 has heard anything. Total loss starves it forever, so only
// the round-limit cap can end the run.
class WaitForEcho final : public DistributedAlgorithm {
 public:
  void initialize(Network& net) override {
    net.broadcast(0, Message::tagged(0).add_id(0));
    net.arm(0);
  }
  void process_round(Network& net) override {
    if (!net.inbox(1).empty()) heard_ = true;
    net.broadcast(0, Message::tagged(0).add_id(0));
  }
  bool finished(const Network&) const override { return heard_; }

 private:
  bool heard_ = false;
};

TEST(FaultyNetwork, TotalLossTerminatesViaTheRoundLimit) {
  const auto wg = WeightedGraph::uniform(gen::cycle(6));
  CongestConfig cfg;
  cfg.fault.drop_prob = 1.0;
  cfg.round_limit = 25;
  Network net(wg, cfg);
  WaitForEcho starved;
  const RunStats stats = net.run(starved, 1'000'000);
  EXPECT_TRUE(stats.hit_round_limit);
  EXPECT_EQ(stats.rounds, 25);
  EXPECT_EQ(stats.dropped, stats.messages);

  // And every registry solver still terminates within the cap — either
  // converging without the network (fixed-budget phases, trivial
  // decisions) or dying loudly from a starved invariant; spinning past
  // the cap is the one forbidden outcome.
  const auto corpus = harness::small_corpus(3);
  const auto& inst = corpus.front();
  for (const harness::SolverInfo& info : harness::all_solvers()) {
    if (!harness::solver_applicable(info, inst)) continue;
    harness::SolverParams params = harness::params_for(info, inst);
    params.threads = -1;
    Network solver_net(inst.wg, cfg);
    try {
      const MdsResult res = info.run_on(solver_net, params);
      ASSERT_FALSE(res.stats.phases.empty()) << info.name;
      for (const PhaseStats& phase : res.stats.phases)
        EXPECT_LE(phase.rounds, 25) << info.name << " phase " << phase.name;
    } catch (const CheckError&) {
      for (const PhaseStats& phase : solver_net.stats().phases)
        EXPECT_LE(phase.rounds, 25) << info.name << " phase " << phase.name;
    }
  }
}

TEST(FaultyNetwork, FaultCountersSumConsistentlyAcrossPhases) {
  const auto corpus = harness::small_corpus(5);
  const auto& inst = corpus.front();
  const harness::SolverInfo& info = harness::solver("det");
  harness::SolverParams params = harness::params_for(info, inst);
  params.threads = -1;
  const CongestConfig cfg = faulty_config();
  Network net(inst.wg, cfg);
  const MdsResult res = info.run_on(net, params);
  std::int64_t dropped = 0, duplicated = 0, delayed = 0, killed = 0;
  for (const PhaseStats& phase : res.stats.phases) {
    dropped += phase.dropped;
    duplicated += phase.duplicated;
    delayed += phase.delayed;
    killed += phase.killed;
  }
  EXPECT_EQ(dropped, res.stats.dropped);
  EXPECT_EQ(duplicated, res.stats.duplicated);
  EXPECT_EQ(delayed, res.stats.delayed);
  EXPECT_EQ(killed, res.stats.killed);
  EXPECT_GT(res.stats.dropped + res.stats.delayed, 0)
      << "the adversary never fired — the probabilities are too low for "
         "this corpus";
}

// ------------------------------------------------------ scenario layer

TEST(FaultyScenario, FaultAxisStampsRowsAndSchemaJson) {
  const auto corpus = harness::small_corpus(9);
  harness::ScenarioSpec spec;
  spec.solvers = {{"greedy-threshold", std::nullopt, ""}};
  spec.thread_widths = {1, 2};
  spec.seeds = {7, 8};
  harness::ScenarioFault lossy;
  lossy.label = "lossy";
  lossy.spec.drop_prob = 0.2;
  lossy.spec.delay_prob = 0.2;
  lossy.spec.max_delay_rounds = 2;
  spec.fault_levels = {{}, lossy};
  spec.tolerate_failures = true;
  spec.base_config.round_limit = 200;
  const std::vector<const harness::CorpusInstance*> one = {&corpus.front()};
  const auto rows = harness::run_scenario(spec, one);
  ASSERT_EQ(rows.size(), 8u);  // 2 widths x 2 seeds x 2 fault levels
  EXPECT_TRUE(harness::all_identical(rows));
  bool saw_faulty = false;
  for (const auto& row : rows) {
    EXPECT_TRUE(row.fault == "none" || row.fault == "lossy");
    if (row.fault == "none") {
      EXPECT_EQ(row.result.stats.dropped, 0);
    } else if (!row.failed) {
      saw_faulty = true;
      EXPECT_GT(row.result.stats.dropped + row.result.stats.delayed, 0);
    }
  }
  EXPECT_TRUE(saw_faulty);

  std::ostringstream os;
  harness::write_scenario_json(os, rows);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"fault\": \"lossy\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": "), std::string::npos);
  EXPECT_NE(json.find("\"failed\": false"), std::string::npos);
}

TEST(FaultyScenario, MedianOfAveragesTheCentralPair) {
  std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(harness::median_of(even), 2.5);
  std::vector<double> odd = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(harness::median_of(odd), 2.0);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(harness::median_of(empty), 0.0);
}

}  // namespace
}  // namespace arbods::fault
