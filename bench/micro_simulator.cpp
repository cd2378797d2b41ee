// M1 — google-benchmark micro-benchmarks: wire-format encode/decode,
// simulator round throughput and end-to-end solver cost per node.
#include <benchmark/benchmark.h>

#include <chrono>
#include <limits>
#include <utility>
#include <vector>

#include "congest/message.hpp"
#include "core/solvers.hpp"
#include "gen/arboricity_families.hpp"
#include "gen/classic.hpp"
#include "gen/random_graphs.hpp"
#include "gen/trees.hpp"
#include "gen/weights.hpp"

namespace arbods {
namespace {

// ------------------------------------------------------------- wire format

// Encode throughput for the typical solver record (tag + id + real).
void BM_WireEncode(benchmark::State& state) {
  MessageSizeModel model;
  model.id_bits = 17;
  Message m = Message::tagged(3);
  m.add_id(54321).add_real(0.37);
  std::vector<std::uint64_t> buf(wire_words_bound(m));
  std::int64_t bits_total = 0;
  for (auto _ : state) {
    int bits = 0;
    const std::size_t words = wire_encode(m, 99, model, true, buf.data(), &bits);
    benchmark::DoNotOptimize(words);
    bits_total += bits;
  }
  benchmark::DoNotOptimize(bits_total);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireEncode);

// Cursor walk over a lane of packed records: tag dispatch plus one typed
// field read per message, the receiver-side hot loop.
void BM_WireDecodeCursor(benchmark::State& state) {
  MessageSizeModel model;
  model.id_bits = 17;
  constexpr int kMessages = 64;
  Message m = Message::tagged(3);
  m.add_id(54321).add_real(0.37);
  const std::size_t words = wire_words(m, model, true);
  std::vector<std::uint64_t> lane(words * kMessages);
  for (int i = 0; i < kMessages; ++i)
    wire_encode(m, static_cast<NodeId>(i), model, true,
                lane.data() + words * static_cast<std::size_t>(i));
  for (auto _ : state) {
    double sum = 0;
    std::size_t off = 0;
    while (off < lane.size()) {
      const MessageView view(lane.data() + off, &model, true);
      if (view.tag() == 3) sum += view.real_at(2);
      off += view.words();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kMessages);
}
BENCHMARK(BM_WireDecodeCursor);

// The join-round receive loop of the primal-dual solvers on a live
// Network: after one value broadcast on BA(n, 3), every node walks its
// inbox, checks the tag and sums the packing values. Only that walk is
// timed (the loop runs inside the round that receives the broadcast);
// time_per_msg is the cost per delivered message.
void BM_WireInboxValueSum(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(9);
  WeightedGraph wg =
      WeightedGraph::uniform(gen::barabasi_albert(n, 3, rng));
  constexpr int kTagValue = 1;

  class ValueSum final : public DistributedAlgorithm {
   public:
    explicit ValueSum(benchmark::State& state) : state_(state) {}
    void initialize(Network& net) override {
      net.for_nodes([&](NodeId v) {
        net.broadcast(v, Message::tagged(kTagValue).add_real(
                             1.0 / (static_cast<double>(v) + 2.0)));
      });
    }
    void process_round(Network& net) override {
      for (auto _ : state_) {
        for (NodeId v = 0; v < net.num_nodes(); ++v) {
          double sum = 0;
          for (const MessageView m : net.inbox(v))
            if (m.tag() == kTagValue) sum += m.real_at(1);
          benchmark::DoNotOptimize(sum);
        }
      }
      done_ = true;
    }
    bool finished(const Network&) const override { return done_; }

   private:
    benchmark::State& state_;
    bool done_ = false;
  };

  Network net(wg);
  ValueSum algo(state);
  net.run(algo, 1);
  const double delivered =
      static_cast<double>(state.iterations()) * 2.0 *
      static_cast<double>(wg.graph().num_edges());
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  state.counters["time_per_msg"] = benchmark::Counter(
      delivered, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_WireInboxValueSum)->Arg(1 << 15)->Arg(100000)->Arg(1 << 20);

// The send half of the same round: every node builds a tagged real from
// per-node data computed at run time and broadcasts it (builder, codec
// encode, slot write, statistics). Each benchmark iteration is one
// round, and only the broadcast loop is timed (the flip between rounds
// is not); time_per_node is the cost of one broadcast.
void BM_WireBroadcastValue(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(9);
  WeightedGraph wg =
      WeightedGraph::uniform(gen::barabasi_albert(n, 3, rng));
  constexpr int kTagValue = 1;

  class Broadcast final : public DistributedAlgorithm {
   public:
    Broadcast(benchmark::State& state, std::vector<double> values)
        : state_(state), values_(std::move(values)) {}
    void initialize(Network&) override {}
    void process_round(Network& net) override {
      if (!state_.KeepRunning()) {
        done_ = true;
        return;
      }
      const auto t0 = std::chrono::steady_clock::now();
      for (NodeId v = 0; v < net.num_nodes(); ++v)
        net.broadcast(v, Message::tagged(kTagValue).add_real(values_[v]));
      const auto t1 = std::chrono::steady_clock::now();
      state_.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    }
    bool finished(const Network&) const override { return done_; }

   private:
    benchmark::State& state_;
    std::vector<double> values_;
    bool done_ = false;
  };

  std::vector<double> values(n);
  for (double& x : values) x = rng.next_double() * 1e3;
  Network net(wg);
  Broadcast algo(state, std::move(values));
  net.run(algo);
  const double sent =
      static_cast<double>(state.iterations()) * static_cast<double>(n);
  state.counters["time_per_node"] = benchmark::Counter(
      sent, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_WireBroadcastValue)
    ->Arg(1 << 15)
    ->Arg(100000)
    ->Arg(1 << 20)
    ->UseManualTime();

// Reference row for BM_WireInboxValueSum: the same graph, each node
// summing one 8-byte value per in-arc straight from a per-node array
// (a plain CSR gather, no wire format). time_per_msg is per in-arc.
void BM_WireRawGather(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(9);
  WeightedGraph wg =
      WeightedGraph::uniform(gen::barabasi_albert(n, 3, rng));
  const Graph& g = wg.graph();
  std::vector<double> values(n);
  for (NodeId v = 0; v < n; ++v)
    values[v] = 1.0 / (static_cast<double>(v) + 2.0);
  for (auto _ : state) {
    for (NodeId v = 0; v < n; ++v) {
      double sum = 0;
      for (const NodeId u : g.neighbors(v)) sum += values[u];
      benchmark::DoNotOptimize(sum);
    }
  }
  const double delivered = static_cast<double>(state.iterations()) * 2.0 *
                           static_cast<double>(g.num_edges());
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  state.counters["time_per_msg"] = benchmark::Counter(
      delivered, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_WireRawGather)->Arg(1 << 15)->Arg(100000)->Arg(1 << 20);

void BM_NetworkBroadcastRound(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(1);
  Graph g = gen::k_tree_union(n, 3, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));

  class Flood final : public DistributedAlgorithm {
   public:
    void initialize(Network& net) override {
      for (NodeId v = 0; v < net.num_nodes(); ++v)
        net.broadcast(v, Message::tagged(0).add_real(0.5));
    }
    void process_round(Network& net) override {
      for (NodeId v = 0; v < net.num_nodes(); ++v) {
        double sum = 0;
        for (const MessageView m : net.inbox(v)) sum += m.real_at(1);
        benchmark::DoNotOptimize(sum);
        net.broadcast(v, Message::tagged(0).add_real(0.5));
      }
    }
    bool finished(const Network&) const override { return false; }
  };

  for (auto _ : state) {
    Network net(wg);
    Flood algo;
    net.run(algo, 10);
  }
  state.SetItemsProcessed(state.iterations() * 10 *
                          static_cast<std::int64_t>(wg.graph().num_edges()) * 2);
}
BENCHMARK(BM_NetworkBroadcastRound)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 15);

// Same flood through the active-set scheduler (every node re-arms), which
// is the steady-state shape of the ported solvers: measures the packed
// wire format plus worklist rebuild per delivered message.
void BM_NetworkFloodActiveSet(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(6);
  Graph g = gen::k_tree_union(n, 3, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));

  class ActiveFlood final : public DistributedAlgorithm {
   public:
    void initialize(Network& net) override {
      net.for_nodes([&](NodeId v) {
        net.broadcast(v, Message::tagged(0).add_real(0.5));
        net.arm(v);
      });
    }
    void process_round(Network& net) override {
      net.for_active_nodes([&](NodeId v) {
        double sum = 0;
        for (const MessageView m : net.inbox(v)) sum += m.real_at(1);
        benchmark::DoNotOptimize(sum);
        net.broadcast(v, Message::tagged(0).add_real(0.5));
        net.arm(v);
      });
    }
    bool finished(const Network&) const override { return false; }
  };

  for (auto _ : state) {
    Network net(wg);
    ActiveFlood algo;
    net.run(algo, 10);
  }
  state.SetItemsProcessed(state.iterations() * 10 *
                          static_cast<std::int64_t>(wg.graph().num_edges()) * 2);
}
BENCHMARK(BM_NetworkFloodActiveSet)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 15);

// The shape of the announcement rounds (JOIN, retire, the adaptive loop)
// at scale: about 1% of the nodes re-arm every round and nothing is sent,
// so a round costs the active-set rebuild and its walk, and an active set
// kept as a bitmap scans n/64 words for few nodes. One benchmark
// iteration is one round of a single phase (finished() drives the
// benchmark loop), so the phase set-up stays outside the timing; items
// are active-node visits.
void BM_NetworkSparseActiveSet(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  WeightedGraph wg = WeightedGraph::uniform(gen::path(n));

  class SparseRearm final : public DistributedAlgorithm {
   public:
    explicit SparseRearm(benchmark::State& state) : state_(state) {}
    void initialize(Network& net) override {
      for (NodeId v = 0; v < net.num_nodes(); v += 100) net.arm(v);
    }
    void process_round(Network& net) override {
      net.for_active_nodes([&](NodeId v) { net.arm(v); });
    }
    bool finished(const Network&) const override {
      return !state_.KeepRunning();
    }

   private:
    benchmark::State& state_;
  };

  Network net(wg);
  SparseRearm algo(state);
  net.run(algo, std::numeric_limits<std::int64_t>::max());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>((n + 99) / 100));
}
BENCHMARK(BM_NetworkSparseActiveSet)->Arg(1 << 20);

// Flood rounds on a pooled Network across worker-pool widths: the
// parallel send half-round plus the serial flip, warm (scratch capacity
// settled by a warm-up run). Timed by the wall clock, with the CPU column
// summed over every thread of the process, so the pool's workers count
// and the 1- and 4-thread rows compare both speed-up and CPU spent.
void BM_NetworkFloodThreads(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(8);
  Graph g = gen::k_tree_union(n, 3, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));
  CongestConfig cfg;
  cfg.threads = static_cast<int>(state.range(1));

  class Flood final : public DistributedAlgorithm {
   public:
    void initialize(Network& net) override {
      net.for_nodes([&](NodeId v) {
        net.broadcast(v, Message::tagged(0).add_real(0.5));
      });
    }
    void process_round(Network& net) override {
      net.for_nodes([&](NodeId v) {
        double sum = 0;
        for (const MessageView m : net.inbox(v)) sum += m.real_at(1);
        benchmark::DoNotOptimize(sum);
        net.broadcast(v, Message::tagged(0).add_real(0.5));
      });
    }
    bool finished(const Network&) const override { return false; }
  };

  Network net(wg, cfg);
  Flood algo;
  net.run(algo, 2);  // warm-up: scratch capacity
  for (auto _ : state) {
    net.run(algo, 10);
  }
  state.SetItemsProcessed(state.iterations() * 10 *
                          static_cast<std::int64_t>(wg.graph().num_edges()) * 2);
}
BENCHMARK(BM_NetworkFloodThreads)
    ->Args({1 << 15, 1})
    ->Args({1 << 15, 4})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_SolveDeterministic(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(2);
  Graph g = gen::k_tree_union(n, 3, rng);
  auto w = gen::uniform_weights(n, 100, rng);
  WeightedGraph wg(std::move(g), std::move(w));
  for (auto _ : state) {
    auto res = solve_mds_deterministic(wg, 3, 0.3);
    benchmark::DoNotOptimize(res.weight);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SolveDeterministic)->Arg(1 << 10)->Arg(1 << 13);

void BM_SolveRandomized(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(3);
  Graph g = gen::k_tree_union(n, 4, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    CongestConfig cfg;
    cfg.seed = ++seed;
    auto res = solve_mds_randomized(wg, 4, 2, cfg);
    benchmark::DoNotOptimize(res.weight);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SolveRandomized)->Arg(1 << 10)->Arg(1 << 12);

void BM_GeneratorKTreeUnion(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(4);
  for (auto _ : state) {
    Graph g = gen::k_tree_union(n, 3, rng);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GeneratorKTreeUnion)->Arg(1 << 12)->Arg(1 << 15);

void BM_GeneratorBarabasiAlbert(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(5);
  for (auto _ : state) {
    Graph g = gen::barabasi_albert(n, 3, rng);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GeneratorBarabasiAlbert)->Arg(1 << 12)->Arg(1 << 15);

}  // namespace
}  // namespace arbods
