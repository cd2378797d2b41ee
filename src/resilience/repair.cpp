#include "resilience/repair.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace arbods::resilience {

namespace {

// Wire tags of the repair protocol (all messages are tag + nothing or
// tag + one level, far under any cap).
constexpr int kTagDominator = 1;  // "I am a live set member"
constexpr int kTagNeed = 2;       // "I am a surviving uncovered node"
constexpr int kTagOffer = 3;      // "my residual coverage is c" (level)
constexpr int kTagVote = 4;       // "you are my chosen candidate"
constexpr int kTagJoined = 5;     // "I just joined the set"

/// The 5-round protocol described in the header. Every per-node stage
/// guards on alive_[v]: dead nodes are silent and deaf, matching the
/// crash-stop suppression a faulty Network applies on the wire.
class RepairAlgorithm final : public DistributedAlgorithm {
 public:
  RepairAlgorithm(NodeId n, const NodeSet& base_set,
                  std::vector<std::uint8_t> alive)
      : alive_(std::move(alive)), in_set_(n, 0), covered_(n, 0),
        joined_(n, 0), voted_self_(n, 0), offer_(n, 0) {
    for (const NodeId v : base_set)
      if (alive_[v]) in_set_[v] = 1;  // dead members are stripped
  }

  void initialize(Network& net) override {
    stage_ = 0;
    net.for_nodes([&](NodeId v) {
      if (!alive_[v]) return;
      if (in_set_[v]) net.broadcast(v, Message::tagged(kTagDominator));
    });
  }

  void process_round(Network& net) override {
    ++stage_;
    static constexpr const char* kStageNames[] = {
        "repair:coverage", "repair:offer", "repair:vote", "repair:join",
        "repair:confirm"};
    obs::ScopedSpan span(net.tracer(), 0,
                         stage_ >= 1 && stage_ <= 5 ? kStageNames[stage_ - 1]
                                                    : "repair:stage");
    switch (stage_) {
      case 1:  // learn coverage; the uncovered raise their hand
        net.for_nodes([&](NodeId v) {
          if (!alive_[v]) return;
          bool cov = in_set_[v] != 0;
          for (const MessageView mv : net.inbox(v))
            cov |= (mv.tag() == kTagDominator);
          covered_[v] = cov ? 1 : 0;
          if (!cov) net.broadcast(v, Message::tagged(kTagNeed));
        });
        break;
      case 2:  // candidates announce residual coverage
        net.for_nodes([&](NodeId v) {
          if (!alive_[v]) return;
          std::int64_t c = covered_[v] ? 0 : 1;  // would cover itself
          for (const MessageView mv : net.inbox(v))
            if (mv.tag() == kTagNeed) ++c;
          offer_[v] = c;
          if (c > 0)
            net.broadcast(v, Message::tagged(kTagOffer).add_level(c));
        });
        break;
      case 3:  // the uncovered vote for the best candidate in N[v]
        net.for_nodes([&](NodeId v) {
          if (!alive_[v] || covered_[v]) return;
          // Highest residual coverage wins, ties toward the smaller id;
          // v itself is a candidate (offer_[v] >= 1 here).
          std::int64_t best_c = offer_[v];
          NodeId best = v;
          for (const MessageView mv : net.inbox(v)) {
            if (mv.tag() != kTagOffer) continue;
            const std::int64_t c = mv.level_at(1);
            const NodeId u = mv.sender();
            if (c > best_c || (c == best_c && u < best)) {
              best_c = c;
              best = u;
            }
          }
          if (best == v)
            voted_self_[v] = 1;
          else
            net.send(v, best, Message::tagged(kTagVote));
        });
        break;
      case 4:  // elected candidates join and announce it
        net.for_nodes([&](NodeId v) {
          if (!alive_[v]) return;
          bool elected = voted_self_[v] != 0;
          for (const MessageView mv : net.inbox(v))
            elected |= (mv.tag() == kTagVote);
          if (elected && !in_set_[v]) {
            in_set_[v] = 1;
            joined_[v] = 1;
          }
          if (elected) net.broadcast(v, Message::tagged(kTagJoined));
        });
        break;
      case 5:  // the uncovered confirm their elected dominator
        net.for_nodes([&](NodeId v) {
          if (!alive_[v] || covered_[v]) return;
          bool cov = in_set_[v] != 0;
          for (const MessageView mv : net.inbox(v))
            cov |= (mv.tag() == kTagJoined);
          covered_[v] = cov ? 1 : 0;
        });
        break;
      default:
        break;
    }
  }

  bool finished(const Network& net) const override {
    (void)net;
    return stage_ >= 5;
  }

  const std::vector<std::uint8_t>& in_set() const { return in_set_; }
  const std::vector<std::uint8_t>& joined() const { return joined_; }

 private:
  int stage_ = 0;
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint8_t> in_set_;
  std::vector<std::uint8_t> covered_;
  std::vector<std::uint8_t> joined_;
  std::vector<std::uint8_t> voted_self_;
  std::vector<std::int64_t> offer_;
};

}  // namespace

RepairOutcome run_repair(Network& net, const NodeSet& base_set) {
  const NodeId n = net.num_nodes();
  std::vector<std::uint8_t> alive(n, 1);
  for (NodeId v = 0; v < n; ++v) alive[v] = net.alive(v) ? 1 : 0;
  for (const NodeId v : base_set)
    ARBODS_CHECK_MSG(v < n, "repair: base set contains node " << v
                                << " of an " << n << "-node graph");
  RepairAlgorithm algo(n, base_set, std::move(alive));
  const PhaseStats& ps = net.run_phase(algo, "repair", 64);
  RepairOutcome out;
  out.repair_rounds = ps.rounds;
  for (NodeId v = 0; v < n; ++v) {
    if (algo.in_set()[v]) {
      out.repaired_set.push_back(v);
      out.post_weight += net.weight(v);
    }
    if (algo.joined()[v]) ++out.repaired_nodes;
  }
  return out;
}

}  // namespace arbods::resilience
