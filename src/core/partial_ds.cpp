#include "core/partial_ds.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace arbods {

std::int64_t partial_ds_iterations(double eps, double lambda, NodeId delta) {
  const double target = lambda * (static_cast<double>(delta) + 1.0);
  if (target < 1.0) return 0;  // lambda < 1/(Delta+1): loop skipped entirely
  std::int64_t r = 0;
  double p = 1.0;
  while (p <= target) {
    p *= (1.0 + eps);
    ++r;
  }
  return r;  // (1+eps)^{r-1} <= lambda*(Delta+1) < (1+eps)^r
}

PartialDominatingSet::PartialDominatingSet(PartialDsParams params)
    : params_(params) {
  ARBODS_CHECK_MSG(params_.eps > 0.0 && params_.eps < 1.0,
                   "eps must be in (0,1), got " << params_.eps);
  const double limit =
      1.0 / ((static_cast<double>(params_.alpha) + 1.0) * (1.0 + params_.eps));
  ARBODS_CHECK_MSG(params_.lambda > 0.0 && params_.lambda < limit,
                   "lambda=" << params_.lambda
                             << " violates 0 < lambda < 1/((alpha+1)(1+eps))="
                             << limit);
}

void PartialDominatingSet::initialize(Network& net) {
  const NodeId n = net.num_nodes();
  x_.assign(n, 0.0);
  tau_.assign(n, 0);
  tau_witness_.assign(n, kInvalidNode);
  in_s_.assign(n, false);
  dominated_.assign(n, false);
  iter_done_ = 0;
  r_ = partial_ds_iterations(params_.eps, params_.lambda,
                             net.graph().max_degree());
  stage_ = n == 0 ? Stage::kDone : Stage::kAwaitWeights;
  net.for_nodes([&](NodeId v) {
    net.broadcast(v, Message::tagged(kTagWeight).add_weight(net.weight(v)));
  });
}

void PartialDominatingSet::absorb_joins(Network& net, NodeId v) {
  if (dominated_[v]) return;
  for (const MessageView m : net.inbox(v)) {
    if (m.tag() == kTagJoin) {
      dominated_[v] = true;
      return;
    }
  }
}

void PartialDominatingSet::process_round(Network& net) {
  const double one_plus_eps = 1.0 + params_.eps;
  const double delta_plus_1 =
      static_cast<double>(net.graph().max_degree()) + 1.0;

  switch (stage_) {
    case Stage::kAwaitWeights: {
      // tau_v = min weight in N+(v), witness = the argmin (ties: lowest id).
      const bool loop_skipped = r_ == 0;
      net.for_nodes([&](NodeId v) {
        Weight best = net.weight(v);
        NodeId witness = v;
        for (const MessageView m : net.inbox(v)) {
          if (m.tag() != kTagWeight) continue;
          const Weight w = m.weight_at(1);
          if (w < best || (w == best && m.sender() < witness)) {
            best = w;
            witness = m.sender();
          }
        }
        tau_[v] = best;
        tau_witness_[v] = witness;
        x_[v] = static_cast<double>(best) / delta_plus_1;
        if (!loop_skipped)
          net.broadcast(v, Message::tagged(kTagValue).add_real(x_[v]));
      });
      stage_ = loop_skipped ? Stage::kDone : Stage::kJoinRound;
      break;
    }

    case Stage::kValueRound: {
      // Step 3 of the previous iteration (bump undominated), fused with the
      // value broadcast that opens this iteration. Only joiners broadcast
      // in a join round, so the JOINs land on the active set (their
      // neighbours); the inboxes outside it are empty and are not read.
      const bool trailing = iter_done_ == r_;  // last bump; the loop is over
      net.for_active_nodes([&](NodeId v) { absorb_joins(net, v); });
      net.for_nodes([&](NodeId v) {
        if (!dominated_[v]) x_[v] *= one_plus_eps;
        if (!trailing)
          net.broadcast(v, Message::tagged(kTagValue).add_real(x_[v]));
      });
      stage_ = trailing ? Stage::kDone : Stage::kJoinRound;
      break;
    }

    case Stage::kJoinRound: {
      net.for_nodes([&](NodeId u) {
        double sum = x_[u];
        for (const MessageView m : net.inbox(u)) {
          if (m.tag() == kTagValue) sum += m.real_at(1);
        }
        if (!in_s_[u] &&
            sum >= static_cast<double>(net.weight(u)) / one_plus_eps) {
          in_s_[u] = true;
          dominated_[u] = true;
          net.broadcast(u, Message::tagged(kTagJoin));
        }
      });
      ++iter_done_;
      stage_ = Stage::kValueRound;
      break;
    }

    case Stage::kDone:
      break;
  }
}

bool PartialDominatingSet::finished(const Network& net) const {
  (void)net;
  return stage_ == Stage::kDone;
}

NodeSet PartialDominatingSet::partial_set() const {
  NodeSet s;
  for (NodeId v = 0; v < in_s_.size(); ++v)
    if (in_s_[v]) s.push_back(v);
  return s;
}

}  // namespace arbods
