// Tests for the CONGEST simulator: message encoding and bit accounting,
// the packed wire format, delivery semantics and record order, cap
// enforcement, active-set scheduling, per-node randomness, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "gen/classic.hpp"
#include "graph/builder.hpp"

namespace arbods {
namespace {

// One simulator class with one delivery path: fault injection is a branch
// of send/broadcast and reliable transport drives a second Network, so
// nothing may reintroduce a virtual seam (and a per-call dispatch).
static_assert(!std::is_polymorphic_v<Network>,
              "Network must have no virtual member");

// ---------------------------------------------------------------- messages

TEST(Message, TagAndFields) {
  Message m = Message::tagged(3);
  m.add_id(7).add_weight(100).add_level(5).add_flag(true).add_real(0.25);
  EXPECT_EQ(m.tag(), 3);
  EXPECT_EQ(m.id_at(1), 7u);
  EXPECT_EQ(m.weight_at(2), 100);
  EXPECT_EQ(m.level_at(3), 5);
  EXPECT_TRUE(m.flag_at(4));
  EXPECT_DOUBLE_EQ(m.real_at(5), 0.25);
}

TEST(Message, UntaggedTagIsMinusOne) {
  Message m;
  m.add_flag(false);
  EXPECT_EQ(m.tag(), -1);
}

TEST(Message, KindMismatchThrows) {
  Message m = Message::tagged(0);
  m.add_flag(true);
  EXPECT_THROW(m.id_at(1), CheckError);
  EXPECT_THROW(m.flag_at(5), CheckError);
}

TEST(Message, BitSizeUsesModelWidths) {
  MessageSizeModel model;
  model.id_bits = 10;
  model.weight_bits = 7;
  model.level_bits = 5;
  model.flag_bits = 1;
  model.real_bits = 32;
  model.tag_bits = 4;
  Message m = Message::tagged(1);
  m.add_id(3).add_weight(2).add_level(1).add_flag(true).add_real(1.0);
  EXPECT_EQ(m.bit_size(model), 4 + 10 + 7 + 5 + 1 + 32);
}

TEST(Message, QuantizeRealsRoundsThroughCodec) {
  Message m = Message::tagged(0);
  const double v = 0.1;  // not representable exactly in 25 mantissa bits
  m.add_real(v);
  m.quantize_reals(default_value_codec());
  const double q = m.real_at(1);
  EXPECT_NE(q, 0.0);
  EXPECT_NEAR(q, v, v * default_value_codec().relative_error_bound() * 1.01);
}

TEST(Message, InlineStorageOverflowKeepsFieldsAddressable) {
  Message m = Message::tagged(2);
  for (int i = 0; i < 20; ++i) m.add_level(i * 100);  // beyond kInlineFields
  EXPECT_EQ(m.num_fields(), 21u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(m.level_at(1 + i), i * 100);
}

// ------------------------------------------------------ packed wire format

TEST(Wire, EncodeDecodeRoundTripsEveryKind) {
  MessageSizeModel model;
  model.id_bits = 17;
  model.weight_bits = 23;
  model.level_bits = 29;
  model.flag_bits = 1;
  model.real_bits = default_value_codec().bit_width();
  model.tag_bits = 4;
  Message m = Message::tagged(9);
  m.add_id(12345).add_weight(4'000'000).add_level(123456789).add_flag(true)
      .add_real(0.375).add_flag(false).add_id(3);
  std::vector<std::uint64_t> buf(wire_words(m, model, true));
  EXPECT_EQ(wire_encode(m, 777, model, true, buf.data()), buf.size());
  EXPECT_EQ(wire_payload_bits(m, model), m.bit_size(model));

  MessageView view(buf.data(), &model, true);
  EXPECT_EQ(view.sender(), 777u);
  EXPECT_EQ(view.num_fields(), 8u);
  EXPECT_EQ(view.words(), buf.size());
  EXPECT_EQ(view.tag(), 9);
  EXPECT_EQ(view.id_at(1), 12345u);
  EXPECT_EQ(view.weight_at(2), 4'000'000);
  EXPECT_EQ(view.level_at(3), 123456789);
  EXPECT_TRUE(view.flag_at(4));
  const auto& codec = default_value_codec();
  EXPECT_EQ(view.real_at(5), codec.decode(codec.encode(0.375)));
  EXPECT_FALSE(view.flag_at(6));
  EXPECT_EQ(view.id_at(7), 3u);
  EXPECT_THROW(view.id_at(2), CheckError);    // kind mismatch
  EXPECT_THROW(view.flag_at(8), CheckError);  // out of range
}

TEST(Wire, RawDoublesWhenQuantizationDisabled) {
  MessageSizeModel model;
  Message m = Message::tagged(1);
  m.add_real(0.1);  // not representable in the codec
  std::vector<std::uint64_t> buf(wire_words(m, model, false));
  wire_encode(m, 5, model, false, buf.data());
  MessageView view(buf.data(), &model, false);
  EXPECT_EQ(view.real_at(1), 0.1);  // exact 64-bit round trip
}

TEST(Wire, ManyFieldRecordsSpanKindWords) {
  MessageSizeModel model;
  model.flag_bits = 1;
  Message m;  // untagged: 40 flags forces three kind words
  for (int i = 0; i < 40; ++i) m.add_flag(i % 3 == 0);
  std::vector<std::uint64_t> buf(wire_words(m, model, true));
  wire_encode(m, 1, model, true, buf.data());
  MessageView view(buf.data(), &model, true);
  EXPECT_EQ(view.tag(), -1);
  EXPECT_EQ(view.num_fields(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(view.flag_at(i), i % 3 == 0);
}

// ----------------------------------------------------------------- network

// Two-round protocol: round 1 every node broadcasts its id; round 2 every
// node records the sum of received ids.
class EchoAlgorithm final : public DistributedAlgorithm {
 public:
  std::vector<std::int64_t> sums;

  void initialize(Network& net) override {
    sums.assign(net.num_nodes(), -1);
    for (NodeId v = 0; v < net.num_nodes(); ++v)
      net.broadcast(v, Message::tagged(0).add_id(v));
    round_ = 0;
  }

  void process_round(Network& net) override {
    ++round_;
    if (round_ != 1) return;
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      std::int64_t sum = 0;
      for (const MessageView m : net.inbox(v)) {
        sum += m.id_at(1);
        EXPECT_EQ(m.sender(), m.id_at(1));  // sender metadata is faithful
      }
      sums[v] = sum;
    }
  }

  bool finished(const Network& net) const override {
    (void)net;
    return round_ >= 1;
  }

 private:
  int round_ = 0;
};

TEST(Network, BroadcastDeliversToAllNeighborsNextRound) {
  auto wg = WeightedGraph::uniform(gen::cycle(5));
  Network net(wg);
  EchoAlgorithm algo;
  RunStats stats = net.run(algo, 10);
  EXPECT_EQ(stats.rounds, 1);
  for (NodeId v = 0; v < 5; ++v) {
    const std::int64_t left = (v + 4) % 5, right = (v + 1) % 5;
    EXPECT_EQ(algo.sums[v], left + right);
  }
}

TEST(Network, MessageAndBitAccounting) {
  auto wg = WeightedGraph::uniform(gen::cycle(5));
  Network net(wg);
  EchoAlgorithm algo;
  RunStats stats = net.run(algo, 10);
  EXPECT_EQ(stats.messages, 10);  // 5 broadcasts x degree 2
  const int per_msg = net.size_model().tag_bits + net.size_model().id_bits;
  EXPECT_EQ(stats.total_bits, 10 * per_msg);
  EXPECT_EQ(stats.max_message_bits, per_msg);
}

TEST(Network, SendRejectsNonEdges) {
  auto wg = WeightedGraph::uniform(gen::path(3));
  Network net(wg);
  EXPECT_THROW(net.send(0, 2, Message::tagged(0)), CheckError);
}

// An algorithm that sends one oversized message.
class OversizeAlgorithm final : public DistributedAlgorithm {
 public:
  void initialize(Network& net) override {
    Message m = Message::tagged(0);
    for (int i = 0; i < 100; ++i) m.add_id(0);
    net.broadcast(0, std::move(m));
  }
  void process_round(Network&) override {}
  bool finished(const Network&) const override { return true; }
};

TEST(Network, EnforcesMessageCap) {
  auto wg = WeightedGraph::uniform(gen::path(2));
  Network net(wg);
  OversizeAlgorithm algo;
  EXPECT_THROW(net.run(algo, 10), CheckError);
}

TEST(Network, CapOverride) {
  auto wg = WeightedGraph::uniform(gen::path(2));
  CongestConfig cfg;
  cfg.max_message_bits_override = 123;
  Network net(wg, cfg);
  EXPECT_EQ(net.max_message_bits(), 123);
}

TEST(Network, DefaultCapScalesWithLogN) {
  auto small = WeightedGraph::uniform(Graph(4));
  auto big = WeightedGraph::uniform(Graph(1 << 20));
  Network net_small(small);
  Network net_big(big);
  EXPECT_GE(net_big.max_message_bits(), net_small.max_message_bits());
  EXPECT_LE(net_big.max_message_bits(), 4 * 21);
}

// Never-finishing algorithm to test the round limit.
class ForeverAlgorithm final : public DistributedAlgorithm {
 public:
  void initialize(Network&) override {}
  void process_round(Network&) override {}
  bool finished(const Network&) const override { return false; }
};

TEST(Network, RoundLimitReported) {
  auto wg = WeightedGraph::uniform(gen::path(3));
  Network net(wg);
  ForeverAlgorithm algo;
  RunStats stats = net.run(algo, 7);
  EXPECT_TRUE(stats.hit_round_limit);
  EXPECT_EQ(stats.rounds, 7);
}

TEST(Network, PerNodeRngIsDeterministicAcrossNetworks) {
  auto wg = WeightedGraph::uniform(gen::path(4));
  CongestConfig cfg;
  cfg.seed = 777;
  Network a(wg, cfg), b(wg, cfg);
  for (NodeId v = 0; v < 4; ++v)
    EXPECT_EQ(a.rng(v).next_u64(), b.rng(v).next_u64());
}

TEST(Network, PerNodeRngStreamsDiffer) {
  auto wg = WeightedGraph::uniform(gen::path(4));
  Network net(wg);
  EXPECT_NE(net.rng(0).next_u64(), net.rng(1).next_u64());
}

TEST(Network, QuantizationAppliedOnSend) {
  auto wg = WeightedGraph::uniform(gen::path(2));

  class Probe final : public DistributedAlgorithm {
   public:
    double received = -1;
    void initialize(Network& net) override {
      net.send(0, 1, Message::tagged(0).add_real(0.1));
    }
    void process_round(Network& net) override {
      for (const MessageView m : net.inbox(1)) received = m.real_at(1);
    }
    bool finished(const Network&) const override { return received >= 0; }
  };

  Probe p;
  Network net(wg);
  net.run(p, 5);
  const auto& codec = default_value_codec();
  EXPECT_EQ(p.received, codec.decode(codec.encode(0.1)));
}

TEST(Network, WeightBitsReflectMaxWeight) {
  WeightedGraph wg(gen::path(3), {1, 100, 7});
  Network net(wg);
  EXPECT_EQ(net.size_model().weight_bits, 7);  // 100 needs 7 bits
}

// ------------------------------------------------- worker pool / for_nodes

TEST(Network, ForNodesVisitsEveryNodeExactlyOnce) {
  auto wg = WeightedGraph::uniform(gen::grid(13, 11));
  CongestConfig cfg;
  cfg.threads = 8;
  Network net(wg, cfg);
  EXPECT_EQ(net.num_workers(), 8);
  NodeFlags visits(wg.num_nodes(), 0);
  net.for_nodes([&](NodeId v) { ++visits[v]; });
  for (NodeId v = 0; v < wg.num_nodes(); ++v) EXPECT_EQ(visits[v], 1u);
}

TEST(Network, WorkerCountClampsToNodesAndHardware) {
  auto tiny = WeightedGraph::uniform(gen::path(3));
  CongestConfig cfg;
  cfg.threads = 64;
  Network net(tiny, cfg);
  EXPECT_EQ(net.num_workers(), 3);  // never more workers than nodes
  cfg.threads = 0;                  // hardware_concurrency, at least 1
  Network hw(tiny, cfg);
  EXPECT_GE(hw.num_workers(), 1);
}

// Every node broadcasts for a fixed number of rounds; the exact expected
// message/bit counts catch torn or dropped statistics when the counters
// are accumulated from the worker pool.
class BroadcastStorm final : public DistributedAlgorithm {
 public:
  static constexpr std::int64_t kRounds = 8;

  void initialize(Network&) override {}

  void process_round(Network& net) override {
    if (net.current_round() > kRounds) return;
    net.for_nodes([&](NodeId v) {
      net.broadcast(v, Message::tagged(1).add_id(v));
    });
  }

  bool finished(const Network& net) const override {
    return net.current_round() > kRounds;
  }
};

TEST(Network, ParallelStatsAccountingIsExactAndRaceFree) {
  auto wg = WeightedGraph::uniform(gen::grid(32, 32));  // m = 1984
  const std::int64_t directed = 2 * static_cast<std::int64_t>(
      wg.graph().num_edges());

  CongestConfig serial_cfg;
  serial_cfg.threads = 1;
  Network serial_net(wg, serial_cfg);
  BroadcastStorm serial_algo;
  const RunStats serial = serial_net.run(serial_algo, 100);

  CongestConfig wide_cfg;
  wide_cfg.threads = 8;
  Network wide_net(wg, wide_cfg);
  BroadcastStorm wide_algo;
  const RunStats wide = wide_net.run(wide_algo, 100);

  const int per_msg =
      serial_net.size_model().tag_bits + serial_net.size_model().id_bits;
  EXPECT_EQ(serial.messages, BroadcastStorm::kRounds * directed);
  EXPECT_EQ(serial.total_bits, serial.messages * per_msg);
  EXPECT_EQ(serial.max_message_bits, per_msg);
  EXPECT_TRUE(wide == serial);  // identical counters at any pool width
}

TEST(Network, CapViolationInsideWorkerPoolPropagates) {
  auto wg = WeightedGraph::uniform(gen::path(8));
  CongestConfig cfg;
  cfg.threads = 4;
  cfg.max_message_bits_override = 1;

  class OversizeEverywhere final : public DistributedAlgorithm {
   public:
    void initialize(Network& net) override {
      net.for_nodes([&](NodeId v) {
        net.broadcast(v, Message::tagged(0).add_id(v));
      });
    }
    void process_round(Network&) override {}
    bool finished(const Network&) const override { return true; }
  };

  Network net(wg, cfg);
  OversizeEverywhere algo;
  EXPECT_THROW(net.run(algo, 10), CheckError);
}

// Two sends on the same edge in the same round land in one lane with the
// send order preserved, after all broadcast deliveries of lower-id
// senders (inbox order is sender-major).
TEST(Network, InboxOrderIsSenderMajorWithinRound) {
  auto wg = WeightedGraph::uniform(gen::star(4));  // hub 0, leaves 1..3

  class TwoSends final : public DistributedAlgorithm {
   public:
    std::vector<int> hub_tags;
    void initialize(Network& net) override {
      net.send(2, 0, Message::tagged(5));
      net.send(2, 0, Message::tagged(6));
      net.send(1, 0, Message::tagged(7));
    }
    void process_round(Network& net) override {
      for (const MessageView m : net.inbox(0)) hub_tags.push_back(m.tag());
    }
    bool finished(const Network& net) const override {
      return net.current_round() >= 1;
    }
  };

  Network net(wg);
  TwoSends algo;
  const RunStats stats = net.run(algo, 5);
  EXPECT_EQ(stats.messages, 3);
  EXPECT_EQ(algo.hub_tags, (std::vector<int>{7, 5, 6}));
  EXPECT_EQ(net.inbox(0).size(), 3u);
  EXPECT_EQ(net.inbox(0).front().tag(), 7);
  EXPECT_TRUE(net.inbox(1).empty());
}

// ------------------------------------------------ point-to-point record order

// Several records per arc, from several senders, round after round: the
// flip sorts each round's record lists into receiver runs, and every run
// must come out sender-major with each sender's send order intact — on the
// first round and on every later one, which reuses the lists' storage.
TEST(Network, RecordBurstsKeepSenderMajorSendOrderEveryRound) {
  auto wg = WeightedGraph::uniform(gen::star(4));  // hub 0, leaves 1..3

  class Chatty final : public DistributedAlgorithm {
   public:
    int checked_rounds = 0;
    void initialize(Network& net) override { burst(net); }
    void process_round(Network& net) override {
      std::vector<std::pair<NodeId, int>> got;
      for (const MessageView m : net.inbox(0))
        got.push_back({m.sender(), m.tag()});
      std::vector<std::pair<NodeId, int>> want;
      for (NodeId s = 1; s <= 3; ++s)
        for (int t = 0; t < 3; ++t) want.push_back({s, t});
      EXPECT_EQ(got, want);
      ++checked_rounds;
      if (net.current_round() < 3) burst(net);
    }
    bool finished(const Network& net) const override {
      return net.current_round() >= 3;
    }

   private:
    static void burst(Network& net) {
      for (NodeId s = 1; s <= 3; ++s)
        for (int t = 0; t < 3; ++t)
          net.send(s, 0, Message::tagged(t).add_id(s));
    }
  };

  for (const int threads : {1, 4}) {
    CongestConfig cfg;
    cfg.threads = threads;
    Network net(wg, cfg);
    Chatty algo;
    const RunStats stats = net.run(algo, 10);
    EXPECT_EQ(algo.checked_rounds, 3);
    EXPECT_EQ(stats.messages, 27);
  }
}

// A node that sends on one arc from two parallel sections of one round
// keeps its send order. Node 0 is the only active node in round 1: the
// active set's single bitmap word falls in the last worker's chunk, while
// the for_nodes dispatch that follows runs node 0 on worker 0. Delivery
// must not order the two sections' records by worker. The algorithm
// records both workers, so the test checks that they really differ.
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

TEST(Network, OneArcFedFromTwoSectionsOfARoundKeepsSendOrder) {
  auto wg = WeightedGraph::uniform(gen::path(8));
  for (const int threads : {1, 3, 4}) {
    CongestConfig cfg;
    cfg.threads = threads;
    Network net(wg, cfg);
    TwoSectionSender algo;
    net.run(algo, 5);
    EXPECT_EQ(algo.got, (std::vector<int>{1, 2, 3})) << "threads=" << threads;
    if (threads > 1) {
      EXPECT_NE(algo.active_worker, algo.nodes_worker) << "threads=" << threads;
    }
  }
}

// ------------------------------------------------------------ hub traffic

// Star plus path: hub 0 is adjacent to every leaf 1..n-1, and the leaves
// form a path. Every node sends two records per neighbour from one
// parallel section, one from a second section and one from a serial
// section, each time walking its neighbours in descending order, then
// broadcasts one. The hub's inbox gathers records from every worker's
// list; its sends put n-1 receivers on one worker's list.
class HubTraffic final : public DistributedAlgorithm {
 public:
  std::vector<std::vector<std::pair<NodeId, int>>> got;  // (sender, tag)
  void initialize(Network& net) override {
    got.assign(net.num_nodes(), {});
    net.for_nodes([&](NodeId v) {
      send_to_all(net, v, 0);
      send_to_all(net, v, 1);
    });
    net.for_nodes([&](NodeId v) { send_to_all(net, v, 2); });
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      send_to_all(net, v, 3);
      net.broadcast(v, Message::tagged(4).add_id(v));
    }
  }
  void process_round(Network& net) override {
    net.for_nodes([&](NodeId v) {
      for (const MessageView m : net.inbox(v))
        got[v].push_back({m.sender(), m.tag()});
    });
  }
  bool finished(const Network& net) const override {
    return net.current_round() >= 1;
  }

 private:
  static void send_to_all(Network& net, NodeId v, int tag) {
    const auto nb = net.neighbors(v);
    for (auto it = nb.rbegin(); it != nb.rend(); ++it)
      net.send(v, *it, Message::tagged(tag).add_id(v));
  }
};

TEST(Network, HubInboxOrderIsArcThenSectionThenSendOrder) {
  constexpr NodeId n = 41;
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) {
    b.add_edge(0, v);
    if (v + 1 < n) b.add_edge(v, v + 1);
  }
  const auto wg = WeightedGraph::uniform(std::move(b).build());
  // Enabled, but its one kill never comes: the faulty delivery path with
  // no fault drawn.
  fault::FaultPlan never_firing;
  never_firing.kills = {{n - 1, std::int64_t{1} << 40}};
  for (const bool faulty : {false, true}) {
    for (const int threads : {1, 3, 4}) {
      CongestConfig cfg;
      cfg.threads = threads;
      Network net(wg, cfg, faulty ? never_firing : fault::FaultPlan{});
      HubTraffic algo;
      net.run(algo, 5);
      for (NodeId v = 0; v < n; ++v) {
        std::vector<std::pair<NodeId, int>> want;
        for (const NodeId u : wg.graph().neighbors(v))
          for (int tag = 0; tag < 5; ++tag) want.push_back({u, tag});
        EXPECT_EQ(algo.got[v], want)
            << "node " << v << ", threads=" << threads << ", faulty=" << faulty;
      }
      EXPECT_THROW(net.send(1, 3, Message::tagged(0)), CheckError);
      EXPECT_THROW(net.send(3, 1, Message::tagged(0)), CheckError);
      EXPECT_THROW(net.send(0, n, Message::tagged(0)), CheckError);
      EXPECT_THROW(net.send(n, 0, Message::tagged(0)), CheckError);
    }
  }
}

// ---------------------------------------------------------- broadcast slots

// Slots carry no length word: records start at word 0 and end at a zero
// word or at the slot's last word. Weights of 51 bits let a record of
// three fields exceed a cap that still gives each node an 8-word slot
// (header + kind word + ceil(cap/64) payload words, rounded up to a power
// of two).
WeightedGraph wide_weight_star(NodeId n) {
  std::vector<Weight> w(n, 1);
  w[0] = Weight{1} << 50;
  return WeightedGraph(gen::star(n), std::move(w));
}

// A broadcast that fits its slot's free room but exceeds the cap throws,
// and leaves the slot exactly as it was: the record broadcast before it
// is all the neighbour receives.
TEST(Network, OversizedBroadcastInASlotLeavesTheEarlierRecord) {
  const auto wg = wide_weight_star(2);
  CongestConfig cfg;
  cfg.max_message_bits_override = 140;

  class Probe final : public DistributedAlgorithm {
   public:
    bool threw = false;
    std::vector<std::pair<int, Weight>> got;
    void initialize(Network& net) override {
      const Message before = Message::tagged(1).add_weight(5);
      const Weight big = Weight{1} << 50;
      Message oversized;
      oversized.add_weight(big).add_weight(big).add_weight(big);
      EXPECT_EQ(wire_words(before, net.size_model(), true) +
                    wire_words_bound(oversized),
                8u);
      EXPECT_GT(oversized.bit_size(net.size_model()), net.max_message_bits());
      net.broadcast(1, before);
      try {
        net.broadcast(1, oversized);
      } catch (const CheckError&) {
        threw = true;
      }
    }
    void process_round(Network& net) override {
      for (const MessageView m : net.inbox(0))
        got.push_back({m.tag(), m.weight_at(1)});
    }
    bool finished(const Network& net) const override {
      return net.current_round() >= 1;
    }
  };

  Network net(wg, cfg);
  Probe algo;
  const RunStats stats = net.run(algo, 5);
  EXPECT_TRUE(algo.threw);
  EXPECT_EQ(algo.got, (std::vector<std::pair<int, Weight>>{{1, 5}}));
  EXPECT_EQ(stats.messages, 1);
}

// Two records that fill a slot to its last word leave no terminating
// zero word: the walk must stop at the slot's end, deliver both in send
// order, and then move on to the next sender's slot (the adjacent one in
// the arena). The second record is encoded in place (three weights) or,
// when its size bound exceeds the free room, through scratch (a tag and
// four reals).
TEST(Network, FullSlotWithoutTerminatorIsReadToItsEnd) {
  const auto wg = wide_weight_star(3);  // hub 0, leaves 1 and 2
  CongestConfig cfg;
  cfg.max_message_bits_override = 160;

  class Probe final : public DistributedAlgorithm {
   public:
    explicit Probe(bool in_place) : in_place_(in_place) {}
    std::vector<std::pair<NodeId, int>> got;
    void initialize(Network& net) override {
      const Message first = Message::tagged(1).add_weight(5);
      Message second;
      if (in_place_) {
        const Weight big = Weight{1} << 50;
        second.add_weight(big).add_weight(big).add_weight(big);
      } else {
        second = Message::tagged(2);
        for (int i = 0; i < 4; ++i) second.add_real(0.5 + i);
      }
      const MessageSizeModel& model = net.size_model();
      EXPECT_EQ(
          wire_words(first, model, true) + wire_words(second, model, true),
          8u);
      EXPECT_LE(second.bit_size(model), net.max_message_bits());
      net.broadcast(1, first);
      net.broadcast(1, second);
      net.broadcast(2, Message::tagged(3).add_weight(1));
      net.broadcast(2, Message::tagged(4).add_weight(1));
    }
    void process_round(Network& net) override {
      for (const MessageView m : net.inbox(0))
        got.push_back({m.sender(), m.tag()});
    }
    bool finished(const Network& net) const override {
      return net.current_round() >= 1;
    }

   private:
    bool in_place_;
  };

  for (const bool in_place : {true, false}) {
    Network net(wg, cfg);
    Probe algo(in_place);
    net.run(algo, 5);
    const int second_tag = in_place ? -1 : 2;
    EXPECT_EQ(algo.got, (std::vector<std::pair<NodeId, int>>{
                            {1, 1}, {1, second_tag}, {2, 3}, {2, 4}}))
        << "in_place=" << in_place;
  }
}

// --------------------------------------------------- active-set scheduling

// for_active_nodes visits exactly (message receivers ∪ armed nodes) of the
// round, each exactly once, regardless of duplicate deliveries or arms.
TEST(Network, ActiveSetIsReceiversPlusArmedDeduplicated) {
  auto wg = WeightedGraph::uniform(gen::path(6));

  class Probe final : public DistributedAlgorithm {
   public:
    std::vector<NodeId> round1, round2;
    void initialize(Network& net) override {
      net.send(0, 1, Message::tagged(1));
      net.send(2, 1, Message::tagged(2));  // node 1 receives twice
      net.arm(4);
      net.arm(4);  // duplicate arm
      net.arm(1);  // armed and receiving
    }
    void process_round(Network& net) override {
      if (net.current_round() == 1) {
        net.for_active_nodes([&](NodeId v) {
          round1.push_back(v);
          if (v == 4) net.arm(v);  // 4 re-arms, 1 resolves
        });
      } else {
        net.for_active_nodes([&](NodeId v) { round2.push_back(v); });
      }
    }
    bool finished(const Network& net) const override {
      return net.current_round() >= 2;
    }
  };

  Network net(wg);
  Probe p;
  net.run(p, 5);
  std::sort(p.round1.begin(), p.round1.end());
  EXPECT_EQ(p.round1, (std::vector<NodeId>{1, 4}));
  EXPECT_EQ(p.round2, (std::vector<NodeId>{4}));  // only the re-armed node
}

// A broadcast reaches its receivers through the sender's slot, not
// through their lanes, yet the active set of a broadcast-only round is
// still exactly the union of the broadcasters' neighbourhoods — no
// broadcaster without a broadcasting neighbour, no bystander. The second
// grid spans four bitmap words, with broadcasters next to the nodes on
// either side of each word boundary (63/64, 127/128) and next to the last
// node (194, in the partial last word). Every worker visits its share of
// the set in ascending node order.
TEST(Network, BroadcastOnlyRoundActivatesExactlyTheNeighbours) {
  class Shout final : public DistributedAlgorithm {
   public:
    explicit Shout(std::vector<NodeId> who) : who_(std::move(who)) {}
    std::vector<std::vector<NodeId>> per_worker;
    void initialize(Network& net) override {
      for (const NodeId v : who_) net.broadcast(v, Message::tagged(1));
    }
    void process_round(Network& net) override {
      per_worker.assign(static_cast<std::size_t>(net.num_workers()), {});
      net.for_active_nodes([&](NodeId v) {
        per_worker[static_cast<std::size_t>(net.worker_index())].push_back(v);
      });
    }
    bool finished(const Network& net) const override {
      return net.current_round() >= 1;
    }

   private:
    std::vector<NodeId> who_;
  };

  const std::vector<std::pair<Graph, std::vector<NodeId>>> cases = {
      {gen::grid(6, 5), {0, 7, 8, 29}},
      {gen::grid(15, 13), {62, 65, 126, 129, 193}},
  };
  for (const auto& [g, broadcasters] : cases) {
    const auto wg = WeightedGraph::uniform(g);
    std::vector<NodeId> want;
    for (const NodeId u : broadcasters)
      for (const NodeId v : wg.graph().neighbors(u)) want.push_back(v);
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());

    for (const int threads : {1, 3, 4}) {
      CongestConfig cfg;
      cfg.threads = threads;
      Network net(wg, cfg);
      Shout algo(broadcasters);
      net.run(algo, 5);
      std::vector<NodeId> visited;
      for (const auto& part : algo.per_worker) {
        EXPECT_TRUE(std::is_sorted(part.begin(), part.end()))
            << "n=" << g.num_nodes() << " threads=" << threads;
        visited.insert(visited.end(), part.begin(), part.end());
      }
      std::sort(visited.begin(), visited.end());
      EXPECT_EQ(visited, want)
          << "n=" << g.num_nodes() << " threads=" << threads;
    }
  }
}

// An arm_at wake whose target round never consults the active set (a
// for_nodes-only stage) is not dropped: it carries forward at each flip and
// fires in the first round that does look.
TEST(Network, ArmAtWakeCarriesAcrossActiveSetFreeRounds) {
  auto wg = WeightedGraph::uniform(gen::path(4));

  class Sleeper final : public DistributedAlgorithm {
   public:
    std::vector<std::pair<std::int64_t, NodeId>> wakes;
    void initialize(Network& net) override { net.arm_at(2, 1); }
    void process_round(Network& net) override {
      if (net.current_round() <= 2) {
        net.for_nodes([](NodeId) {});  // the due wake must survive these
        return;
      }
      net.for_active_nodes(
          [&](NodeId v) { wakes.push_back({net.current_round(), v}); });
    }
    bool finished(const Network& net) const override {
      return net.current_round() >= 4;
    }
  };

  Network net(wg);
  Sleeper s;
  net.run(s, 10);
  // Armed for round 1, deferred through rounds 1-2, delivered in round 3
  // exactly once, and not redelivered in round 4.
  EXPECT_EQ(s.wakes,
            (std::vector<std::pair<std::int64_t, NodeId>>{{3, 2}}));
}

// The active set is a pure function of the algorithm, not the pool width:
// contents match between a serial and a wide network at every round.
TEST(Network, ActiveSetContentsIndependentOfThreadWidth) {
  auto wg = WeightedGraph::uniform(gen::grid(9, 7));

  class Recorder final : public DistributedAlgorithm {
   public:
    std::vector<std::vector<NodeId>> per_round;
    void initialize(Network& net) override {
      net.for_nodes([&](NodeId v) {
        if (v % 3 == 0) net.broadcast(v, Message::tagged(0).add_id(v));
      });
    }
    void process_round(Network& net) override {
      auto active = net.active_nodes();
      per_round.emplace_back(active.begin(), active.end());
      std::sort(per_round.back().begin(), per_round.back().end());
      net.for_active_nodes([&](NodeId v) {
        if (v % 2 == 0 && net.current_round() < 3)
          net.broadcast(v, Message::tagged(1).add_id(v));
      });
    }
    bool finished(const Network& net) const override {
      return net.current_round() >= 4;
    }
  };

  CongestConfig serial_cfg;
  serial_cfg.threads = 1;
  Network serial_net(wg, serial_cfg);
  Recorder serial;
  serial_net.run(serial, 10);

  CongestConfig wide_cfg;
  wide_cfg.threads = 8;
  Network wide_net(wg, wide_cfg);
  Recorder wide;
  wide_net.run(wide, 10);

  ASSERT_EQ(serial.per_round.size(), wide.per_round.size());
  for (std::size_t r = 0; r < serial.per_round.size(); ++r)
    EXPECT_EQ(serial.per_round[r], wide.per_round[r]) << "round " << r;
}

}  // namespace
}  // namespace arbods
