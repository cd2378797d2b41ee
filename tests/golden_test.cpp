// Golden-output pin: every registry solver's result and statistics on a
// small seeded corpus, compared against constants recorded from an
// earlier build of the simulator.
//
// The determinism suite compares a build only with itself (across widths
// and reruns), so a delivery-engine change that altered results the same
// way at every width would pass it. This suite catches exactly that: the
// set (size + hash), weight, dual lower bound, rounds, messages, bit
// volume and every per-phase row must equal the pinned values, at widths
// 1 and 4. A deliberate algorithmic change re-pins the table; the failure
// message prints each mismatching row in the table's own syntax.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "arboricity/pseudoarboricity.hpp"
#include "common/check.hpp"
#include "common/random.hpp"
#include "gen/arboricity_families.hpp"
#include "gen/classic.hpp"
#include "gen/random_graphs.hpp"
#include "gen/trees.hpp"
#include "gen/weights.hpp"
#include "harness/registry.hpp"

namespace arbods::harness {
namespace {

struct GoldenInstance {
  std::string name;
  WeightedGraph wg;
  bool forest;
};

std::vector<GoldenInstance> golden_corpus() {
  std::vector<GoldenInstance> corpus;
  auto add = [&](std::string name, Graph g, bool weighted, bool forest,
                 std::uint64_t weight_seed) {
    Rng rng(weight_seed);
    const NodeId n = g.num_nodes();
    std::vector<Weight> w =
        weighted ? gen::uniform_weights(n, 100, rng) : gen::unit_weights(n);
    corpus.push_back({std::move(name), WeightedGraph(std::move(g), w), forest});
  };
  Rng rng(20261017);
  add("forest2", gen::k_tree_union(2500, 2, rng), true, false, 1);
  add("ba4", gen::barabasi_albert(2000, 4, rng), true, false, 2);
  add("er", gen::erdos_renyi_gnp(2500, 6.0 / 2500, rng), true, false, 3);
  add("grid", gen::grid(50, 50), false, false, 4);
  add("tree", gen::random_tree_prufer(2500, rng), false, true, 5);
  return corpus;
}

// FNV-1a over the sorted member ids.
std::uint64_t set_hash(const NodeSet& set) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const NodeId v : set) {
    h ^= v;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// name:rounds:messages:total_bits:max_message_bits per phase, ';'-joined.
std::string phase_rows(const RunStats& stats) {
  std::ostringstream os;
  for (const PhaseStats& p : stats.phases) {
    if (os.tellp() > 0) os << ';';
    os << p.name << ':' << p.rounds << ':' << p.messages << ':'
       << p.total_bits << ':' << p.max_message_bits;
  }
  return os.str();
}

struct Golden {
  const char* instance;
  const char* solver;
  std::size_t set_size;
  std::uint64_t set_hash;
  Weight weight;
  double packing_lower_bound;
  std::int64_t rounds;
  std::int64_t messages;
  std::int64_t total_bits;
  const char* phases;
};

// Recorded from the simulator before broadcasts were stored once per
// sender; results must not depend on the delivery layout.
const Golden kGolden[] = {
    {"forest2", "det", 1026, 0xfc27928109114a74ULL, 26375,
     7980.4275568181592, 9, 41976, 1197492,
     "partial_ds:7:40518:1191660:36;completion:2:1458:5832:4"},
    {"forest2", "unweighted", 2015, 0x62d8d02dbfba9aa8ULL, 100683,
     7980.4275568181592, 8, 40518, 1191660,
     "partial_ds:7:40518:1191660:36;completion:1:0:0:0"},
    {"forest2", "randomized", 801, 0xa40b8342af31ee95ULL, 22286,
     4185.7272727272684, 41, 41228, 1237766,
     "partial_ds:1:9996:109956:11;extension:40:31232:1127810:37"},
    {"forest2", "general", 885, 0xbb9100d5e5ef3c64ULL, 29316,
     4185.7272727272684, 25, 34798, 1006696,
     "extension:25:34798:1006696:37"},
    {"forest2", "unknown-delta", 969, 0xac404129b52bbeacULL, 24842,
     7457.8023020382307, 9, 54856, 1878760,
     "adaptive_mds:9:54856:1878760:42"},
    {"forest2", "unknown-alpha", 963, 0x1a46406a8cb7aea2ULL, 24788,
     5394.5471684408703, 128, 305023, 10566352,
     "be_orientation:71:9996:49980:5;adaptive_mds:57:295027:10516372:42"},
    {"forest2", "greedy-threshold", 1138, 0xd374c24e1bcd1980ULL, 59465,
     0, 10, 10853, 49062,
     "greedy_threshold:10:10853:49062:5"},
    {"forest2", "greedy-election", 840, 0x7f15f6651571d130ULL, 43456,
     0, 5, 26818, 417148,
     "greedy_election:5:26818:417148:35"},
    {"ba4", "det", 522, 0x1376f06cb66c0beULL, 9872,
     1817.8957477329286, 25, 194166, 6513484,
     "partial_ds:23:193420:6510500:36;completion:2:746:2984:4"},
    {"ba4", "unweighted", 931, 0x125e936db8468165ULL, 47836,
     1817.8957477329286, 24, 193420, 6510500,
     "partial_ds:23:193420:6510500:36;completion:1:0:0:0"},
    {"ba4", "randomized", 302, 0x707a37a25181d231ULL, 7328,
     643.86329528755618, 117, 223728, 7648325,
     "partial_ds:21:176116:5929924:36;extension:96:47612:1718401:37"},
    {"ba4", "general", 608, 0xfbb2319c0765c1aaULL, 20751,
     207.03149606299274, 25, 58993, 1732147,
     "extension:25:58993:1732147:37"},
    {"ba4", "unknown-delta", 478, 0xef5ec4166d372274ULL, 9712,
     1611.4332486760093, 25, 213280, 7596680,
     "adaptive_mds:25:213280:7596680:42"},
    {"ba4", "unknown-alpha", 506, 0xfbe095b77e615edcULL, 9736,
     1994.2394936702533, 146, 437787, 15158368,
     "be_orientation:95:15980:79900:5;adaptive_mds:51:421807:15078468:42"},
    {"ba4", "greedy-threshold", 353, 0xa8e7dbf8de4945f4ULL, 18172,
     0, 16, 20958, 89738,
     "greedy_threshold:16:20958:89738:5"},
    {"ba4", "greedy-election", 277, 0x834c17d3f59fd39dULL, 13833,
     0, 5, 40019, 655456,
     "greedy_election:5:40019:655456:35"},
    {"er", "det", 892, 0xbf0eec40ad99f34bULL, 19473,
     3453.83984375, 7, 47944, 1276514,
     "partial_ds:5:45971:1268622:36;completion:2:1973:7892:4"},
    {"er", "unweighted", 2365, 0xa8df41145f32ec14ULL, 118941,
     3453.83984375, 6, 45971, 1268622,
     "partial_ds:5:45971:1268622:36;completion:1:0:0:0"},
    {"er", "randomized", 701, 0xca7714bde52bc55aULL, 16222,
     2217.1875, 41, 64623, 1948980,
     "partial_ds:1:15278:168058:11;extension:40:49345:1780922:37"},
    {"er", "general", 773, 0x651c32ce90b63973ULL, 24112,
     2217.1875, 25, 52809, 1524357,
     "extension:25:52809:1524357:37"},
    {"er", "unknown-delta", 840, 0x4ab26081328ebf6dULL, 18326,
     3707.4439270798589, 7, 67511, 2317296,
     "adaptive_mds:7:67511:2317296:42"},
    {"er", "unknown-alpha", 882, 0x2a73f418da4a520dULL, 19277,
     4070.9409271071363, 150, 587873, 20547590,
     "be_orientation:77:15278:76390:5;adaptive_mds:73:572595:20471200:42"},
    {"er", "greedy-threshold", 1174, 0x84a2305982abb367ULL, 59663,
     0, 10, 15848, 72668,
     "greedy_threshold:10:15848:72668:5"},
    {"er", "greedy-election", 727, 0xcb6b33b3d446bf8bULL, 35966,
     0, 5, 39281, 630742,
     "greedy_election:5:39281:630742:35"},
    {"grid", "det", 2450, 0x422975b366ed7fcaULL, 2450,
     499.99999999998016, 3, 12299, 58996,
     "partial_ds:1:9800:49000:5;completion:2:2499:9996:4"},
    {"grid", "unweighted", 2500, 0xdf426f2737b2cfd1ULL, 2500,
     499.99999999998016, 2, 9800, 49000,
     "partial_ds:1:9800:49000:5;completion:1:0:0:0"},
    {"grid", "randomized", 990, 0xb7cbe58e872b487fULL, 990,
     499.99999999998016, 25, 30988, 815644,
     "partial_ds:1:9800:49000:5;extension:24:21188:766644:37"},
    {"grid", "general", 990, 0xb7cbe58e872b487fULL, 990,
     499.99999999998016, 25, 30988, 815644,
     "extension:25:30988:815644:37"},
    {"grid", "unknown-delta", 2452, 0x4792efdaf89cd71bULL, 2452,
     500.19999999998015, 3, 31757, 705228,
     "adaptive_mds:3:31757:705228:36"},
    {"grid", "unknown-alpha", 2450, 0x422975b366ed7fcaULL, 2450,
     413.42493630197521, 106, 306150, 10279800,
     "be_orientation:49:9800:49000:5;adaptive_mds:57:296350:10230800:36"},
    {"grid", "greedy-threshold", 2316, 0xf9b29aca3d2bcf91ULL, 2316,
     0, 8, 9824, 48544,
     "greedy_threshold:8:9824:48544:5"},
    {"grid", "greedy-election", 2308, 0xfa9d9add50f60537ULL, 2308,
     0, 5, 31327, 380108,
     "greedy_election:5:31327:380108:30"},
    {"tree", "det", 1099, 0x856c8ae9f2e23d8eULL, 1099,
     543.84598214285586, 9, 22356, 574230,
     "partial_ds:7:21951:572610:36;completion:2:405:1620:4"},
    {"tree", "unweighted", 1239, 0x50392040ea6ba0aaULL, 1239,
     543.84598214285586, 8, 21951, 572610,
     "partial_ds:7:21951:572610:36;completion:1:0:0:0"},
    {"tree", "randomized", 1177, 0x1dde21a6f12d3cebULL, 1177,
     357.1428571428695, 25, 17721, 485882,
     "partial_ds:1:4998:24990:5;extension:24:12723:460892:37"},
    {"tree", "general", 1194, 0xc0442935d26ed8e9ULL, 1194,
     357.1428571428695, 25, 16780, 452082,
     "extension:25:16780:452082:37"},
    {"tree", "unknown-delta", 1318, 0xa47fb310e453d6e9ULL, 1318,
     615.46249999999986, 5, 18723, 529710,
     "adaptive_mds:5:18723:529710:36"},
    {"tree", "unknown-alpha", 1347, 0x56eac5cc9cecf4a3ULL, 1347,
     472.14057931792547, 66, 169293, 5775132,
     "be_orientation:3:4998:24990:5;adaptive_mds:63:164295:5750142:36"},
    {"tree", "tree", 1563, 0xcb1b2ece1cce999bULL, 1563,
     0, 1, 4998, 149940,
     "tree_mds:1:4998:149940:30"},
    {"tree", "greedy-threshold", 1518, 0xf220c03ed7a3e35dULL, 1518,
     0, 8, 5599, 26003,
     "greedy_threshold:8:5599:26003:5"},
    {"tree", "greedy-election", 1111, 0xf624811b60b9089ULL, 1111,
     0, 5, 15216, 190812,
     "greedy_election:5:15216:190812:30"},
};

std::string as_row(const char* instance, const char* solver,
                   const MdsResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"" << instance << "\", \"" << solver << "\", "
     << r.dominating_set.size() << ", 0x" << std::hex
     << set_hash(r.dominating_set) << std::dec << "ULL, " << r.weight << ", "
     << r.packing_lower_bound << ", " << r.stats.rounds << ", "
     << r.stats.messages << ", " << r.stats.total_bits << ", \""
     << phase_rows(r.stats) << "\"},";
  return os.str();
}

TEST(Golden, EverySolverMatchesPinnedResultsAtWidthsOneAndFour) {
  const auto corpus = golden_corpus();
  std::size_t checked = 0;
  for (const GoldenInstance& inst : corpus) {
    SolverParams params;
    params.alpha = std::max<NodeId>(1, pseudoarboricity(inst.wg.graph()));
    for (const SolverInfo& info : all_solvers()) {
      if (info.forests_only && !inst.forest) continue;
      const Golden* want = nullptr;
      for (const Golden& g : kGolden)
        if (inst.name == g.instance && info.name == g.solver) want = &g;
      for (const int threads : {1, 4}) {
        CongestConfig cfg;
        cfg.seed = 0x601d'e11ULL;
        cfg.threads = threads;
        Network net(inst.wg, cfg);
        const MdsResult r = info.run_on(net, params);
        const std::string got = as_row(inst.name.c_str(),
                                       std::string(info.name).c_str(), r);
        ASSERT_NE(want, nullptr) << "no pinned row for " << got;
        SCOPED_TRACE(got + " (threads=" + std::to_string(threads) + ")");
        EXPECT_EQ(r.dominating_set.size(), want->set_size);
        EXPECT_EQ(set_hash(r.dominating_set), want->set_hash);
        EXPECT_EQ(r.weight, want->weight);
        EXPECT_DOUBLE_EQ(r.packing_lower_bound, want->packing_lower_bound);
        EXPECT_EQ(r.stats.rounds, want->rounds);
        EXPECT_EQ(r.stats.messages, want->messages);
        EXPECT_EQ(r.stats.total_bits, want->total_bits);
        EXPECT_EQ(phase_rows(r.stats), want->phases);
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 2 * std::size(kGolden));
}

// ------------------------------------------------------------ fault rows
//
// The fault suite compares widths within one build only; these rows pin
// faulty runs against values recorded from an earlier build, so a change
// to the delivery engine that moved every fault decision the same way at
// every width is caught too. A run that dies with CheckError (a starved
// invariant) is pinned as failed, with the statistics of the rounds it
// completed.

enum class FaultMode { kLossy, kKill, kReliable };

CongestConfig fault_config(FaultMode mode, int threads) {
  CongestConfig cfg;
  cfg.seed = 0x601d'e11ULL;
  cfg.threads = threads;
  cfg.round_limit = 2000;
  if (mode == FaultMode::kKill) {
    cfg.fault.kill_prob = 0.05;
    cfg.fault.kill_round = 3;
    return cfg;
  }
  cfg.fault.drop_prob = 0.05;
  cfg.fault.duplicate_prob = 0.05;
  cfg.fault.delay_prob = 0.2;
  cfg.fault.max_delay_rounds = 3;
  cfg.fault.reorder_prob = 0.1;
  cfg.reliable_transport = mode == FaultMode::kReliable;
  return cfg;
}

const char* mode_name(FaultMode mode) {
  switch (mode) {
    case FaultMode::kLossy:
      return "lossy";
    case FaultMode::kKill:
      return "kill";
    case FaultMode::kReliable:
      return "rel";
  }
  return "?";
}

struct FaultGolden {
  const char* instance;
  const char* solver;
  const char* mode;
  bool failed;
  std::size_t set_size;
  std::uint64_t set_hash;
  Weight weight;
  std::int64_t rounds;
  std::int64_t messages;
  std::int64_t dropped;
  std::int64_t duplicated;
  std::int64_t delayed;
  std::int64_t killed;
};

// Recorded from the simulator with per-arc lanes, before point-to-point
// records moved to per-round record lists.
const FaultGolden kFaultGolden[] = {
    {"forest2", "det", "lossy", false, 308, 0x6631ba38b45ed0d6ULL,
     8410, 9, 13502, 681, 622, 2722, 0},
    {"forest2", "unweighted", "lossy", false, 537, 0xae1f12f24fc2bb21ULL,
     25615, 8, 13174, 662, 603, 2660, 0},
    {"forest2", "randomized", "lossy", false, 324, 0x7cd2fcc7e01572f4ULL,
     10732, 52, 13145, 620, 591, 2671, 0},
    {"forest2", "general", "lossy", false, 350, 0x924ca4527728513dULL,
     12542, 26, 11363, 568, 549, 2246, 0},
    {"forest2", "unknown-delta", "lossy", false, 324, 0x8636a82ef084480aULL,
     9094, 9, 17634, 929, 819, 3555, 0},
    {"forest2", "unknown-alpha", "lossy", true, 0, 0xcbf29ce484222325ULL,
     0, 26, 432, 23, 17, 98, 0},
    {"forest2", "greedy-threshold", "lossy", true, 0, 0xcbf29ce484222325ULL,
     0, 4, 2363, 112, 103, 453, 0},
    {"forest2", "greedy-election", "lossy", false, 376, 0x1661baa944488ae6ULL,
     19088, 289, 13392, 745, 636, 2685, 0},
    {"ba4", "det", "lossy", false, 152, 0x515670048edff3ccULL,
     3302, 21, 48746, 2363, 2302, 9714, 0},
    {"ba4", "unweighted", "lossy", false, 251, 0x2b109b20a2635b81ULL,
     11902, 20, 48578, 2357, 2286, 9673, 0},
    {"ba4", "randomized", "lossy", false, 123, 0x52ef8d9a28bc9058ULL,
     3436, 110, 47691, 2322, 2257, 9558, 0},
    {"ba4", "general", "lossy", false, 187, 0x2e3d9fa5b0f630feULL,
     7495, 26, 16998, 810, 815, 3450, 0},
    {"ba4", "unknown-delta", "lossy", false, 168, 0xbeaf4f1152f8960aULL,
     3965, 21, 54526, 2708, 2594, 10997, 0},
    {"ba4", "unknown-alpha", "lossy", true, 0, 0xcbf29ce484222325ULL,
     0, 67, 2306, 126, 107, 505, 0},
    {"ba4", "greedy-threshold", "lossy", true, 0, 0xcbf29ce484222325ULL,
     0, 7, 4124, 209, 203, 845, 0},
    {"ba4", "greedy-election", "lossy", false, 140, 0x7e277906eb89220dULL,
     7075, 85, 19267, 1000, 920, 3888, 0},
    {"tree", "det", "lossy", false, 399, 0xd73ee8d8608d3c6ULL,
     399, 9, 7121, 348, 323, 1371, 0},
    {"tree", "unweighted", "lossy", false, 508, 0x65d03b77ab40f5fcULL,
     508, 8, 6964, 340, 313, 1343, 0},
    {"tree", "randomized", "lossy", false, 464, 0x425085e62934d040ULL,
     464, 25, 5941, 280, 267, 1174, 0},
    {"tree", "general", "lossy", false, 454, 0x6ab913912d45fccbULL,
     454, 25, 5493, 262, 282, 1104, 0},
    {"tree", "unknown-delta", "lossy", false, 610, 0x5953c9bbce9dd29fULL,
     610, 9, 9510, 475, 455, 1860, 0},
    {"tree", "unknown-alpha", "lossy", true, 0, 0xcbf29ce484222325ULL,
     0, 2, 868, 43, 41, 151, 0},
    {"tree", "tree", "lossy", false, 563, 0x3fcf156851442427ULL,
     563, 1, 1598, 69, 66, 327, 0},
    {"tree", "greedy-threshold", "lossy", true, 0, 0xcbf29ce484222325ULL,
     0, 4, 735, 38, 37, 133, 0},
    {"tree", "greedy-election", "lossy", false, 503, 0xbfa0bb4535760feULL,
     503, 85, 6423, 359, 310, 1253, 0},
    {"forest2", "det", "kill", false, 316, 0x3dec70a509c6bf36ULL,
     8016, 9, 13115, 0, 0, 0, 614},
    {"forest2", "unweighted", "kill", false, 674, 0xad09522d526da029ULL,
     34351, 8, 12603, 0, 0, 0, 614},
    {"forest2", "randomized", "kill", false, 293, 0xf780de7b8982b36eULL,
     10107, 52, 12732, 0, 0, 0, 1103},
    {"forest2", "general", "kill", false, 323, 0xeddd95098dc0501fULL,
     11922, 26, 10847, 0, 0, 0, 650},
    {"forest2", "unknown-delta", "kill", false, 286, 0x714a3e2e7841bf08ULL,
     7138, 9, 16994, 0, 0, 0, 1185},
    {"forest2", "unknown-alpha", "kill", false, 294, 0x770310c72fe58c39ULL,
     7295, 164, 77903, 0, 0, 0, 7294},
    {"forest2", "greedy-threshold", "kill", false, 525, 0xe9eb2d952da32548ULL,
     26816, 10, 3179, 0, 0, 0, 344},
    {"forest2", "greedy-election", "kill", false, 297, 0x3e33aeca87d70579ULL,
     15812, 9, 8557, 0, 0, 0, 437},
    {"ba4", "det", "kill", false, 157, 0x642c50adbe9fc3f1ULL,
     3249, 21, 47030, 0, 0, 0, 3121},
    {"ba4", "unweighted", "kill", false, 264, 0xac979df9b4e3c730ULL,
     13171, 20, 46828, 0, 0, 0, 3121},
    {"ba4", "randomized", "kill", false, 114, 0x71902020546c990ULL,
     3739, 110, 49051, 0, 0, 0, 3615},
    {"ba4", "general", "kill", false, 162, 0xb8ea0f5cfb8bc618ULL,
     6303, 26, 16715, 0, 0, 0, 883},
    {"ba4", "unknown-delta", "kill", false, 156, 0x94c01dd411c33e92ULL,
     3405, 21, 52603, 0, 0, 0, 3810},
    {"ba4", "unknown-alpha", "kill", false, 160, 0xf452025d1206e06cULL,
     3332, 264, 98477, 0, 0, 0, 7674},
    {"ba4", "greedy-threshold", "kill", false, 185, 0xe032fd2f22ebbcb8ULL,
     9057, 16, 6507, 0, 0, 0, 536},
    {"ba4", "greedy-election", "kill", false, 114, 0x6d27726206c168adULL,
     5695, 9, 12015, 0, 0, 0, 481},
    {"tree", "det", "kill", false, 375, 0xde05264fdb3352dcULL,
     375, 9, 6935, 0, 0, 0, 349},
    {"tree", "unweighted", "kill", false, 455, 0x325b43189e15ce4aULL,
     455, 8, 6771, 0, 0, 0, 349},
    {"tree", "randomized", "kill", false, 405, 0xc18457518fd4f262ULL,
     405, 25, 5622, 0, 0, 0, 251},
    {"tree", "general", "kill", false, 421, 0xb944203932c2bc18ULL,
     421, 25, 5245, 0, 0, 0, 224},
    {"tree", "unknown-delta", "kill", false, 440, 0x732481d362d9ad79ULL,
     440, 9, 8889, 0, 0, 0, 717},
    {"tree", "unknown-alpha", "kill", false, 426, 0x8e5f8c1b09943256ULL,
     426, 112, 43762, 0, 0, 0, 4494},
    {"tree", "tree", "kill", false, 506, 0x38516cb26c128143ULL,
     506, 1, 1598, 0, 0, 0, 0},
    {"tree", "greedy-threshold", "kill", false, 539, 0xb11758038696c12eULL,
     539, 8, 1677, 0, 0, 0, 181},
    {"tree", "greedy-election", "kill", false, 404, 0x7866849f50d60a6bULL,
     404, 9, 4867, 0, 0, 0, 336},
    {"forest2", "det", "rel", false, 315, 0xb24ae3197bc90658ULL,
     8010, 108, 97342, 4803, 4664, 19615, 0},
    {"forest2", "unweighted", "rel", false, 620, 0x422e67fac716535fULL,
     31240, 99, 88395, 4344, 4234, 17816, 0},
    {"forest2", "randomized", "rel", false, 246, 0x2c7f05033b7b367aULL,
     6952, 477, 357041, 17658, 16875, 71511, 0},
    {"forest2", "general", "rel", false, 289, 0xf0390208a7e947e0ULL,
     9943, 303, 223506, 11137, 10513, 44706, 0},
    {"forest2", "unknown-delta", "rel", false, 298, 0x6ad4f034164f2a0cULL,
     7584, 122, 104838, 5239, 5031, 21016, 0},
    {"forest2", "unknown-alpha", "rel", false, 305, 0xec26bf57340002beULL,
     7683, 1464, 1025951, 51556, 48599, 204782, 0},
    {"forest2", "greedy-threshold", "rel", false, 469, 0x1a9659407f9f9ebfULL,
     23827, 110, 87366, 4380, 4058, 17489, 0},
    {"forest2", "greedy-election", "rel", false, 263, 0xc7bdb76f28eb9e6dULL,
     13761, 56, 55797, 2778, 2618, 11159, 0},
    {"ba4", "det", "rel", false, 152, 0x456c4d484946fc39ULL,
     3171, 287, 343280, 16868, 16228, 69015, 0},
    {"ba4", "unweighted", "rel", false, 243, 0xb624682519c0469dULL,
     12217, 272, 330700, 16225, 15638, 66516, 0},
    {"ba4", "randomized", "rel", false, 89, 0x480d3f036dc0ef95ULL,
     2452, 1562, 1418273, 70651, 67168, 283968, 0},
    {"ba4", "general", "rel", false, 140, 0x7a032b480f19e2cbULL,
     4842, 344, 335981, 16680, 16247, 67252, 0},
    {"ba4", "unknown-delta", "rel", false, 155, 0x56aeecbe3dc0eac5ULL,
     3424, 328, 353478, 17538, 16742, 71033, 0},
    {"ba4", "unknown-alpha", "rel", false, 152, 0x456c4d484946fc39ULL,
     3171, 1701, 1620816, 81030, 77268, 323792, 0},
    {"ba4", "greedy-threshold", "rel", false, 117, 0x3de13ed028d96a96ULL,
     6015, 196, 206724, 10323, 9752, 41461, 0},
    {"ba4", "greedy-election", "rel", false, 88, 0x3a89ad485d216c9cULL,
     4485, 64, 82313, 4148, 3905, 16381, 0},
    {"tree", "det", "rel", false, 358, 0xf1873e7da5ef5aULL,
     358, 100, 49354, 2450, 2264, 9718, 0},
    {"tree", "unweighted", "rel", false, 410, 0x4573d72590cbb2d9ULL,
     410, 91, 45031, 2236, 2075, 8859, 0},
    {"tree", "randomized", "rel", false, 383, 0x650ede7f55cd3df7ULL,
     383, 272, 112078, 5601, 5317, 22367, 0},
    {"tree", "general", "rel", false, 392, 0x724bf5574b98c7eeULL,
     392, 260, 111283, 5615, 5331, 22215, 0},
    {"tree", "unknown-delta", "rel", false, 439, 0xf38ec9407db57d85ULL,
     439, 61, 31196, 1583, 1486, 6186, 0},
    {"tree", "unknown-alpha", "rel", false, 435, 0x4b9325caca52f4acULL,
     435, 635, 313726, 15528, 14763, 62609, 0},
    {"tree", "tree", "rel", false, 506, 0x38516cb26c128143ULL,
     506, 17, 6920, 333, 319, 1378, 0},
    {"tree", "greedy-threshold", "rel", false, 500, 0x70f0e32d5170f385ULL,
     500, 89, 35819, 1809, 1681, 7127, 0},
    {"tree", "greedy-election", "rel", false, 365, 0x4336204d43136ef9ULL,
     365, 57, 29019, 1487, 1294, 5704, 0},
    {"forest2", "det+repair", "kill", false, 311, 0xc172b726dd34b654ULL,
     8256, 14, 14532, 0, 0, 0, 638},
    {"forest2", "unweighted+repair", "kill", false, 633, 0xb849d023251f3e77ULL,
     32029, 13, 15128, 0, 0, 0, 614},
    {"forest2", "randomized+repair", "kill", false, 253, 0xadf75a6a6a0ad69bULL,
     7866, 57, 13812, 0, 0, 0, 1103},
    {"forest2", "general+repair", "kill", false, 283, 0x2265f3ecf317e27dULL,
     9700, 31, 12065, 0, 0, 0, 654},
    {"forest2", "unknown-delta+repair", "kill", false,
     294, 0xf43c74a017be57e7ULL, 7832, 14, 18328, 0, 0, 0, 1209},
    {"forest2", "unknown-alpha+repair", "kill", false,
     302, 0xa8ccc081e195b288ULL, 7989, 169, 79290, 0, 0, 0, 7318},
    {"forest2", "greedy-threshold+repair", "kill", false,
     484, 0x33388182d3d4c398ULL, 24494, 15, 5460, 0, 0, 0, 344},
    {"forest2", "greedy-election+repair", "kill", false,
     256, 0xc4c431110dd259dfULL, 13490, 14, 9921, 0, 0, 0, 437},
    {"ba4", "det+repair", "kill", false, 152, 0xfb878c383902ff38ULL,
     3338, 26, 48950, 0, 0, 0, 3134},
    {"ba4", "unweighted+repair", "kill", false, 237, 0xddc28ecb7923578aULL,
     11921, 25, 48711, 0, 0, 0, 3121},
    {"ba4", "randomized+repair", "kill", false, 87, 0xc62b18ce87de6728ULL,
     2489, 115, 50443, 0, 0, 0, 3615},
    {"ba4", "general+repair", "kill", false, 135, 0xca63313a3c5aa1aULL,
     5053, 31, 18671, 0, 0, 0, 883},
    {"ba4", "unknown-delta+repair", "kill", false, 154, 0x17bcdbc4fbd0ef6bULL,
     3526, 26, 54620, 0, 0, 0, 3831},
    {"ba4", "unknown-alpha+repair", "kill", false, 158, 0xe58dbfd61793d195ULL,
     3453, 269, 100509, 0, 0, 0, 7695},
    {"ba4", "greedy-threshold+repair", "kill", false,
     158, 0x27d9b9829ee4b644ULL, 7807, 21, 8631, 0, 0, 0, 536},
    {"ba4", "greedy-election+repair", "kill", false, 87, 0xc27683f3dd08e55ULL,
     4445, 14, 13870, 0, 0, 0, 481},
    {"tree", "det+repair", "kill", false, 367, 0x35ffbfaf42232070ULL,
     367, 14, 7869, 0, 0, 0, 378},
    {"tree", "unweighted+repair", "kill", false, 415, 0x952f07637e6fbd2eULL,
     415, 13, 7695, 0, 0, 0, 351},
    {"tree", "randomized+repair", "kill", false, 380, 0x7ccfbef68d5a49acULL,
     380, 30, 6515, 0, 0, 0, 262},
    {"tree", "general+repair", "kill", false, 384, 0xa9d02bd140ca2d65ULL,
     384, 30, 6149, 0, 0, 0, 234},
    {"tree", "unknown-delta+repair", "kill", false, 436, 0xd981935ff07ece12ULL,
     436, 14, 9975, 0, 0, 0, 739},
    {"tree", "unknown-alpha+repair", "kill", false, 426, 0x10e9654b0868b344ULL,
     426, 117, 44768, 0, 0, 0, 4524},
    {"tree", "tree+repair", "kill", false, 494, 0x26f0108e75aa15e6ULL,
     494, 6, 2877, 0, 0, 0, 36},
    {"tree", "greedy-threshold+repair", "kill", false,
     498, 0x8286226088d0b980ULL, 498, 13, 2819, 0, 0, 0, 181},
    {"tree", "greedy-election+repair", "kill", false,
     363, 0xe4c530b8a47a9831ULL, 363, 14, 5835, 0, 0, 0, 336},
};

std::string as_fault_row(const char* instance, const char* solver,
                         const char* mode, bool failed, const NodeSet& set,
                         Weight weight, const RunStats& s) {
  std::ostringstream os;
  os << "{\"" << instance << "\", \"" << solver << "\", \"" << mode << "\", "
     << (failed ? "true" : "false") << ", " << set.size() << ", 0x"
     << std::hex << set_hash(set) << std::dec << "ULL, " << weight << ", "
     << s.rounds << ", " << s.messages << ", " << s.dropped << ", "
     << s.duplicated << ", " << s.delayed << ", " << s.killed << "},";
  return os.str();
}

void expect_fault_row(const GoldenInstance& inst, const SolverInfo& info,
                      FaultMode mode) {
  SolverParams params;
  params.alpha = std::max<NodeId>(1, pseudoarboricity(inst.wg.graph()));
  const FaultGolden* want = nullptr;
  for (const FaultGolden& g : kFaultGolden)
    if (inst.name == g.instance && info.name == g.solver &&
        std::string_view(mode_name(mode)) == g.mode)
      want = &g;
  for (const int threads : {1, 4}) {
    Network net(inst.wg, fault_config(mode, threads));
    bool failed = false;
    MdsResult r;
    try {
      r = info.run_on(net, params);
    } catch (const CheckError&) {
      failed = true;
      r.stats = net.stats();
    }
    const std::string got =
        as_fault_row(inst.name.c_str(), std::string(info.name).c_str(),
                     mode_name(mode), failed, r.dominating_set, r.weight,
                     r.stats);
    ASSERT_NE(want, nullptr) << "no pinned row for " << got;
    SCOPED_TRACE(got + " (threads=" + std::to_string(threads) + ")");
    EXPECT_EQ(failed, want->failed);
    EXPECT_EQ(r.dominating_set.size(), want->set_size);
    EXPECT_EQ(set_hash(r.dominating_set), want->set_hash);
    EXPECT_EQ(r.weight, want->weight);
    EXPECT_EQ(r.stats.rounds, want->rounds);
    EXPECT_EQ(r.stats.messages, want->messages);
    EXPECT_EQ(r.stats.dropped, want->dropped);
    EXPECT_EQ(r.stats.duplicated, want->duplicated);
    EXPECT_EQ(r.stats.delayed, want->delayed);
    EXPECT_EQ(r.stats.killed, want->killed);
  }
}

// A smaller corpus than the clean pins: the reliable transport multiplies
// a run's physical messages by an order of magnitude.
std::vector<GoldenInstance> fault_corpus() {
  std::vector<GoldenInstance> corpus;
  Rng rng(20261018);
  Rng w1(11), w2(12);
  corpus.push_back(
      {"forest2",
       WeightedGraph(gen::k_tree_union(800, 2, rng),
                     gen::uniform_weights(800, 100, w1)),
       false});
  corpus.push_back(
      {"ba4",
       WeightedGraph(gen::barabasi_albert(600, 4, rng),
                     gen::uniform_weights(600, 100, w2)),
       false});
  corpus.push_back({"tree",
                    WeightedGraph::uniform(gen::random_tree_prufer(800, rng)),
                    true});
  return corpus;
}

// Every solver in `mode` on every fault-corpus instance it applies to.
std::size_t expect_fault_rows(std::span<const SolverInfo> solvers,
                              FaultMode mode) {
  std::size_t checked = 0;
  for (const GoldenInstance& inst : fault_corpus()) {
    for (const SolverInfo& info : solvers) {
      if (info.forests_only && !inst.forest) continue;
      expect_fault_row(inst, info, mode);
      ++checked;
    }
  }
  return checked;
}

// Pinned rows for these solvers in `mode` (every one must be checked).
std::size_t pinned_rows(std::span<const SolverInfo> solvers, FaultMode mode) {
  std::size_t rows = 0;
  for (const FaultGolden& g : kFaultGolden)
    for (const SolverInfo& info : solvers)
      if (info.name == g.solver && std::string_view(mode_name(mode)) == g.mode)
        ++rows;
  return rows;
}

void expect_all_fault_rows(std::span<const SolverInfo> solvers,
                           FaultMode mode) {
  EXPECT_EQ(expect_fault_rows(solvers, mode), pinned_rows(solvers, mode));
}

TEST(Golden, LossyRunsMatchPinnedResultsAtWidthsOneAndFour) {
  expect_all_fault_rows(all_solvers(), FaultMode::kLossy);
}

TEST(Golden, KillRunsMatchPinnedResultsAtWidthsOneAndFour) {
  expect_all_fault_rows(all_solvers(), FaultMode::kKill);
}

TEST(Golden, ReliableRunsMatchPinnedResultsAtWidthsOneAndFour) {
  expect_all_fault_rows(all_solvers(), FaultMode::kReliable);
}

// One <solver>+repair row per solver and instance under the kill schedule.
TEST(Golden, RepairRunsMatchPinnedResultsAtWidthsOneAndFour) {
  expect_all_fault_rows(repair_solvers(), FaultMode::kKill);
}

}  // namespace
}  // namespace arbods::harness
