// Differential test: the flat-buffer double-buffered Network against a
// retained minimal reference delivery loop (the pre-refactor semantics:
// one growable outbox/inbox vector per node, swapped between rounds).
//
// Both simulators drive the same scripted randomized protocol — every
// node broadcasts a quantized random real each round, coin-flips a
// directed probe to a random neighbor (sent before or after the
// broadcast, also by coin flip), and now and then adds a second value
// broadcast or a many-field broadcast — using identical per-node RNG
// streams. The per-node delivery traces (round, sender, tag, payload),
// the round count, the message count and the exact total bit volume must
// agree, at every worker-pool width.
//
// The mix drives every branch of the Network's broadcast slots: a probe
// after a broadcast flushes the slot into the sender's lanes, a second
// broadcast either joins the first in the slot (lifted cap, wider slots)
// or flushes it, and the many-field record (two kind words) cannot fit
// even an empty slot at the default cap, so it is fanned out per lane.
//
// Delivery-order contract encoded here: messages in an inbox arrive
// ordered by sender id (adjacency lists are sorted and each node emits
// its round's sends in one pass), with per-sender send order preserved.
//
// The same script also runs behind reliable transport over a drop /
// duplicate / delay / reorder wire. The transport reads the wrapped
// script's outgoing records per arc in send order from its staging
// Network, so the reference trace must come out unchanged there too.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "gen/random_graphs.hpp"
#include "gen/trees.hpp"
#include "protocol/runner.hpp"
#include "resilience/reliable_channel.hpp"

namespace arbods {
namespace {

constexpr int kTagValue = 1;
constexpr int kTagProbe = 2;
constexpr int kTagWide = 3;
constexpr int kWideFlags = 20;  // + the tag: 21 fields, two kind words
constexpr std::int64_t kSendRounds = 12;

struct Delivery {
  std::int64_t round;
  NodeId sender;
  int tag;
  std::int64_t level;  // kTagValue level, or kTagWide's flags as a mask
  double real;  // quantized payload (kTagValue) or -1
  NodeId id;    // probe payload (kTagProbe) or kInvalidNode

  friend bool operator==(const Delivery&, const Delivery&) = default;
};

using Trace = std::vector<std::vector<Delivery>>;  // per receiver

// Shared by both simulators: M is Message (reference loop, which tracks
// senders out of band) or MessageView (the wire cursor, which carries the
// sender in the record header).
template <typename M>
Delivery record(std::int64_t round, NodeId sender, const M& m) {
  Delivery d{round, sender, m.tag(), 0, -1.0, kInvalidNode};
  if (d.tag == kTagValue) {
    d.level = m.level_at(1);
    d.real = m.real_at(2);
  } else if (d.tag == kTagWide) {
    for (int i = 0; i < kWideFlags; ++i)
      d.level |= static_cast<std::int64_t>(m.flag_at(1 + i)) << i;
  } else {
    d.id = m.id_at(1);
  }
  return d;
}

// The scripted per-node round action, shared verbatim by both simulators:
// draws from the node's RNG in a fixed order, then emits one value
// broadcast, on a coin flip one directed probe (before or after the
// broadcasts, by a second coin), and with probability 1/8 each a second
// value broadcast or a many-field broadcast.
template <typename BroadcastFn, typename SendFn>
void scripted_sends(NodeId v, std::int64_t round, std::span<const NodeId> nb,
                    Rng& rng, BroadcastFn&& bcast, SendFn&& probe) {
  const double x = rng.next_double();
  const bool probe_first = rng.next_bernoulli(0.5);
  const bool do_probe = !nb.empty() && rng.next_bernoulli(0.5);
  const NodeId to = do_probe ? nb[rng.next_below(nb.size())] : kInvalidNode;
  const std::uint64_t extra = rng.next_below(8);
  auto send_probe = [&] {
    if (do_probe) probe(to, Message::tagged(kTagProbe).add_id(v));
  };
  if (probe_first) send_probe();
  bcast(Message::tagged(kTagValue).add_level(round & 7).add_real(x));
  if (extra == 0)
    bcast(Message::tagged(kTagValue).add_level((round + 1) & 7).add_real(
        1.0 - x));
  if (extra == 1) {
    Message wide = Message::tagged(kTagWide);
    for (int i = 0; i < kWideFlags; ++i)
      wide.add_flag(((v + round) >> i) & 1);
    bcast(std::move(wide));
  }
  if (!probe_first) send_probe();
}

// ------------------------------------------------- reference delivery loop

struct ReferenceStats {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t total_bits = 0;
  int max_message_bits = 0;
};

// Minimal pre-refactor delivery loop: per-node message vectors, swapped
// between rounds, chronological send order (which equals sender order
// because the driver processes nodes in ascending id order).
ReferenceStats run_reference(const WeightedGraph& wg,
                             const MessageSizeModel& model,
                             std::uint64_t seed, Trace& trace) {
  const NodeId n = wg.num_nodes();
  const auto& codec = default_value_codec();
  std::vector<Rng> rngs;
  rngs.reserve(n);
  Rng base(seed);
  for (NodeId v = 0; v < n; ++v) rngs.push_back(base.split(v));

  std::vector<std::vector<Message>> inboxes(n), outboxes(n);
  ReferenceStats stats;
  trace.assign(n, {});

  // Senders tracked alongside each outbox entry (the reference loop has no
  // access to Message's private sender field).
  std::vector<std::vector<NodeId>> out_senders(n), in_senders(n);

  for (std::int64_t round = 1; round <= kSendRounds + 1; ++round) {
    ++stats.rounds;
    for (NodeId v = 0; v < n; ++v) {
      for (std::size_t i = 0; i < inboxes[v].size(); ++i)
        trace[v].push_back(record(round, in_senders[v][i], inboxes[v][i]));
    }
    if (round <= kSendRounds) {
      for (NodeId v = 0; v < n; ++v) {
        scripted_sends(
            v, round, wg.graph().neighbors(v), rngs[v],
            [&](Message m) {
              for (NodeId to : wg.graph().neighbors(v)) {
                Message copy = m;
                copy.quantize_reals(codec);
                const int bits = copy.bit_size(model);
                ++stats.messages;
                stats.total_bits += bits;
                stats.max_message_bits =
                    std::max(stats.max_message_bits, bits);
                out_senders[to].push_back(v);
                outboxes[to].push_back(std::move(copy));
              }
            },
            [&](NodeId to, Message m) {
              m.quantize_reals(codec);
              const int bits = m.bit_size(model);
              ++stats.messages;
              stats.total_bits += bits;
              stats.max_message_bits = std::max(stats.max_message_bits, bits);
              out_senders[to].push_back(v);
              outboxes[to].push_back(std::move(m));
            });
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      inboxes[v].clear();
      in_senders[v].clear();
      std::swap(inboxes[v], outboxes[v]);
      std::swap(in_senders[v], out_senders[v]);
    }
  }
  return stats;
}

// ------------------------------------------------------ Network-side algo

class ScriptedAlgorithm final : public DistributedAlgorithm {
 public:
  Trace trace;

  std::string_view name() const override { return "scripted"; }

  void initialize(Network& net) override {
    trace.assign(net.num_nodes(), {});
  }

  void process_round(Network& net) override {
    const std::int64_t round = net.current_round();
    net.for_nodes([&](NodeId v) {
      for (const MessageView m : net.inbox(v))
        trace[v].push_back(record(round, m.sender(), m));
      if (round <= kSendRounds) {
        scripted_sends(
            v, round, net.neighbors(v), net.rng(v),
            [&](Message m) { net.broadcast(v, std::move(m)); },
            [&](NodeId to, Message m) { net.send(v, to, std::move(m)); });
      }
    });
  }

  bool finished(const Network& net) const override {
    return net.current_round() >= kSendRounds + 1;
  }
};

// ---------------------------------------------------------------- the test

// `lifted_cap` raises the message cap to 256 bits, which widens every
// broadcast slot so that two value records fit in it together.
void expect_differential_match(const WeightedGraph& wg, std::uint64_t seed,
                               int threads, bool lifted_cap = false) {
  CongestConfig cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  if (lifted_cap) cfg.max_message_bits_override = 256;
  Network net(wg, cfg);

  Trace ref_trace;
  const ReferenceStats ref =
      run_reference(wg, net.size_model(), seed, ref_trace);

  ScriptedAlgorithm algo;
  const RunStats stats = net.run(algo, 1000);

  EXPECT_EQ(stats.rounds, ref.rounds);
  EXPECT_EQ(stats.messages, ref.messages);
  EXPECT_EQ(stats.total_bits, ref.total_bits);
  EXPECT_EQ(stats.max_message_bits, ref.max_message_bits);
  ASSERT_EQ(algo.trace.size(), ref_trace.size());
  for (NodeId v = 0; v < wg.num_nodes(); ++v) {
    EXPECT_EQ(algo.trace[v], ref_trace[v])
        << "trace mismatch at node " << v << " (threads=" << threads
        << ", lifted_cap=" << lifted_cap << ")";
  }
}

// The script as a reliable() phase over a lossy, duplicating, delaying
// and reordering wire. No registry solver mixes sends like this script
// (a probe flushing a broadcast slot, two broadcasts in one round, the
// 21-field fan-out), so this is what pins the per-arc send order of the
// transport's capture from the staging Network.
void expect_reliable_match(const WeightedGraph& wg, std::uint64_t seed,
                           int threads, bool lifted_cap) {
  CongestConfig cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  if (lifted_cap) cfg.max_message_bits_override = 256;
  cfg.reliable_transport = true;
  cfg.fault.drop_prob = 0.1;
  cfg.fault.duplicate_prob = 0.1;
  cfg.fault.delay_prob = 0.2;
  cfg.fault.max_delay_rounds = 2;
  cfg.fault.reorder_prob = 0.2;
  Network net(wg, cfg);

  Trace ref_trace;
  run_reference(wg, net.size_model(), seed, ref_trace);

  ScriptedAlgorithm algo;
  const RunStats stats = protocol::run_protocol(net, {&algo}, 100'000);
  ASSERT_EQ(stats.phases.size(), 1u);
  EXPECT_EQ(stats.phases[0].name, "scripted+rel");
  EXPECT_FALSE(stats.hit_round_limit);
  EXPECT_GT(stats.dropped, 0);
  EXPECT_GT(stats.duplicated, 0);
  EXPECT_GT(stats.delayed, 0);
  ASSERT_EQ(algo.trace.size(), ref_trace.size());
  for (NodeId v = 0; v < wg.num_nodes(); ++v) {
    EXPECT_EQ(algo.trace[v], ref_trace[v])
        << "reliable trace mismatch at node " << v << " (threads=" << threads
        << ", lifted_cap=" << lifted_cap << ")";
  }
}

TEST(Differential, FlatBuffersMatchReferenceOnRandomGraphs) {
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    Rng rng(seed);
    const NodeId n = 200;
    WeightedGraph wg(gen::erdos_renyi_gnp(n, 6.0 / n, rng),
                     std::vector<Weight>(n, 1));
    for (const int threads : {1, 3, 4}) {
      expect_differential_match(wg, seed * 1000, threads);
      expect_differential_match(wg, seed * 1000, threads, /*lifted_cap=*/true);
    }
  }
}

TEST(Differential, FlatBuffersMatchReferenceOnScaleFreeAndTrees) {
  Rng rng(77);
  WeightedGraph ba = WeightedGraph::uniform(gen::barabasi_albert(150, 2, rng));
  WeightedGraph tree =
      WeightedGraph::uniform(gen::random_tree_prufer(180, rng));
  for (const int threads : {1, 3, 4}) {
    for (const bool lifted : {false, true}) {
      expect_differential_match(ba, 501, threads, lifted);
      expect_differential_match(tree, 502, threads, lifted);
    }
  }
}

TEST(Differential, ReliableTransportCapturesPerArcSendOrder) {
  Rng rng(91);
  const NodeId n = 200;
  WeightedGraph er(gen::erdos_renyi_gnp(n, 6.0 / n, rng),
                   std::vector<Weight>(n, 1));
  WeightedGraph ba = WeightedGraph::uniform(gen::barabasi_albert(150, 2, rng));
  for (const int threads : {1, 3, 4}) {
    for (const bool lifted : {false, true}) {
      expect_reliable_match(er, 911, threads, lifted);
      expect_reliable_match(ba, 912, threads, lifted);
    }
  }
}

}  // namespace
}  // namespace arbods
