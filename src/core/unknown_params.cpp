#include "core/unknown_params.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/verify.hpp"

namespace arbods {

AdaptiveMds::AdaptiveMds(AdaptiveMdsParams params) : params_(params) {
  ARBODS_CHECK(params_.eps > 0.0 && params_.eps < 1.0);
  if (params_.mode == AdaptiveMode::kUnknownDelta)
    ARBODS_CHECK(params_.alpha >= 1);
}

AdaptiveMds::AdaptiveMds(AdaptiveMdsParams params,
                         const BarenboimElkinOrientation& orientation)
    : AdaptiveMds(params) {
  orientation_ = &orientation;
}

void AdaptiveMds::reduce_dominated() {
  for (WorkerCounter& d : dominated_delta_) {
    ARBODS_CHECK(static_cast<std::int64_t>(num_undominated_) >= d.value);
    num_undominated_ -= static_cast<NodeId>(d.value);
    d.value = 0;
  }
}

void AdaptiveMds::initialize(Network& net) {
  const NodeId n = net.num_nodes();
  const bool unknown_alpha = params_.mode == AdaptiveMode::kUnknownAlpha;
  if (unknown_alpha) {
    ARBODS_CHECK_MSG(orientation_ != nullptr &&
                         orientation_->levels().size() == n,
                     "AdaptiveMds(kUnknownAlpha) requires a preceding "
                     "be_orientation phase on this graph");
    out_degree_ = orientation_->out_degrees(net.graph());
  }
  x_.assign(n, 0.0);
  lambda_.assign(n, 0.0);
  tau_.assign(n, 0);
  tau_witness_.assign(n, kInvalidNode);
  in_final_.assign(n, false);
  dominated_.assign(n, false);
  pending_join_announce_.assign(n, false);
  dominated_delta_.assign(static_cast<std::size_t>(net.num_workers()),
                          WorkerCounter{});
  num_undominated_ = n;
  iterations_ = 0;
  first_value_round_ = true;

  if (n == 0) {
    stage_ = Stage::kDone;
    return;
  }
  // Publish weight + degree (Remark 4.4) or weight + orientation
  // out-degree (Remark 4.5, from the prologue's levels).
  net.for_nodes([&](NodeId v) {
    const std::int64_t info =
        unknown_alpha ? out_degree_[v] : net.degree(v);
    net.broadcast(v, Message::tagged(kTagInfo)
                         .add_weight(net.weight(v))
                         .add_level(info));
  });
  stage_ = Stage::kInfoExchange;
}

void AdaptiveMds::process_round(Network& net) {
  const NodeId n = net.num_nodes();
  const double one_plus_eps = 1.0 + params_.eps;

  switch (stage_) {
    case Stage::kInfoExchange: {
      const bool unknown_delta = params_.mode == AdaptiveMode::kUnknownDelta;
      net.for_nodes([&](NodeId v) {
        Weight best = net.weight(v);
        NodeId witness = v;
        // For kUnknownDelta: max closed-neighborhood size, incl. own.
        std::int64_t max_info = unknown_delta
                                    ? net.degree(v) + 1
                                    : out_degree_[v];
        for (const MessageView m : net.inbox(v)) {
          if (m.tag() != kTagInfo) continue;
          const Weight w = m.weight_at(1);
          if (w < best || (w == best && m.sender() < witness)) {
            best = w;
            witness = m.sender();
          }
          std::int64_t info = m.level_at(2);
          if (unknown_delta) info += 1;
          max_info = std::max(max_info, info);
        }
        tau_[v] = best;
        tau_witness_[v] = witness;
        if (unknown_delta) {
          x_[v] = static_cast<double>(best) / static_cast<double>(max_info);
          lambda_[v] = 1.0 / ((2.0 * params_.alpha + 1.0) * one_plus_eps);
        } else {
          x_[v] = static_cast<double>(best) / (static_cast<double>(n) + 1.0);
          // hat_alpha_v = max out-degree over N+(v).
          lambda_[v] = 1.0 / ((2.0 * static_cast<double>(max_info) + 1.0) *
                              one_plus_eps);
        }
      });
      first_value_round_ = true;
      stage_ = Stage::kValueRound;
      break;
    }

    case Stage::kValueRound: {
      ++iterations_;
      const bool first = first_value_round_;
      // (1) absorb join announcements from the previous join round. Only
      // joiners broadcast there, so they land on the active set.
      net.for_active_nodes([&](NodeId v) {
        if (dominated_[v]) return;
        for (const MessageView m : net.inbox(v)) {
          if (m.tag() == kTagJoin) {
            dominated_[v] = true;
            ++dominated_delta_[net.worker_index()].value;
            return;
          }
        }
      });
      net.for_nodes([&](NodeId v) {
        // (2) step 3 of the previous iteration: bump if still undominated.
        if (!first && !dominated_[v]) x_[v] *= one_plus_eps;
        // (3) the Remarks' extra step: self-completion once past lambda_v.
        if (!dominated_[v] &&
            x_[v] > lambda_[v] * static_cast<double>(tau_[v])) {
          dominated_[v] = true;  // the witness join is guaranteed
          ++dominated_delta_[net.worker_index()].value;
          if (tau_witness_[v] == v) {
            in_final_[v] = true;
            pending_join_announce_[v] = true;  // announced next join round
          } else {
            net.send(v, tau_witness_[v], Message::tagged(kTagRequest));
          }
        }
        net.broadcast(v, Message::tagged(kTagValue).add_real(x_[v]));
      });
      reduce_dominated();
      first_value_round_ = false;
      stage_ = Stage::kJoinRound;
      break;
    }

    case Stage::kJoinRound: {
      net.for_nodes([&](NodeId u) {
        bool join = false;
        double sum = x_[u];
        for (const MessageView m : net.inbox(u)) {
          if (m.tag() == kTagValue) sum += m.real_at(1);
          if (m.tag() == kTagRequest) join = true;  // carries tau for someone
        }
        const bool fresh_join =
            !in_final_[u] &&
            (join ||
             sum >= static_cast<double>(net.weight(u)) / one_plus_eps);
        if (fresh_join) {
          in_final_[u] = true;
          if (!dominated_[u]) {
            dominated_[u] = true;
            ++dominated_delta_[net.worker_index()].value;
          }
        }
        if (fresh_join || pending_join_announce_[u]) {
          pending_join_announce_[u] = false;
          net.broadcast(u, Message::tagged(kTagJoin));
        }
      });
      reduce_dominated();
      stage_ = num_undominated_ == 0 ? Stage::kDone : Stage::kValueRound;
      break;
    }

    case Stage::kDone:
      break;
  }
}

bool AdaptiveMds::finished(const Network& net) const {
  (void)net;
  return stage_ == Stage::kDone;
}

MdsResult AdaptiveMds::result(const Network& net) const {
  ARBODS_CHECK(stage_ == Stage::kDone);
  MdsResult res;
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    if (in_final_[v]) res.dominating_set.push_back(v);
  res.weight = net.weighted_graph().total_weight(res.dominating_set);
  res.packing = x_;
  res.packing_lower_bound = packing_lower_bound(res.packing);
  res.iterations = iterations_;
  res.stats = net.stats();
  return res;
}

}  // namespace arbods
