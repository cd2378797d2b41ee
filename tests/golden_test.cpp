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
#include <sstream>
#include <string>
#include <vector>

#include "arboricity/pseudoarboricity.hpp"
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

}  // namespace
}  // namespace arbods::harness
