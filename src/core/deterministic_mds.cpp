#include "core/deterministic_mds.hpp"

#include "common/check.hpp"
#include "graph/verify.hpp"
#include "protocol/runner.hpp"

namespace arbods {

double theorem11_lambda(NodeId alpha, double eps) {
  return 1.0 / ((2.0 * static_cast<double>(alpha) + 1.0) * (1.0 + eps));
}

CompletionPhase::CompletionPhase(CompletionMode mode,
                                 const PartialDominatingSet& partial)
    : mode_(mode), partial_(partial) {}

void CompletionPhase::initialize(Network& net) {
  const NodeId n = net.num_nodes();
  ARBODS_CHECK_MSG(
      partial_.finished(net) && partial_.in_partial_set().size() == n,
      "CompletionPhase requires a preceding partial_ds phase on this graph");
  const NodeFlags& in_set = partial_.in_partial_set();
  in_final_.assign(n, false);
  net.for_nodes([&](NodeId v) { in_final_[v] = in_set[v]; });
  if (n == 0) {
    stage_ = Stage::kDone;
    return;
  }
  // The request waits for round 1 rather than firing here: the round
  // count then matches the pre-decomposition driver exactly (the copy
  // above is the work its phase-transition round did).
  stage_ = mode_ == CompletionMode::kSelf ? Stage::kCompletionJoin
                                          : Stage::kRequest;
}

void CompletionPhase::process_round(Network& net) {
  switch (stage_) {
    case Stage::kRequest: {
      // Every undominated v asks the tau-witness in N+(v) to join.
      const NodeFlags& dominated = partial_.dominated();
      const std::vector<NodeId>& tau_witness = partial_.tau_witness();
      net.for_nodes([&](NodeId v) {
        if (dominated[v]) return;
        const NodeId target = tau_witness[v];
        if (target == v) {
          in_final_[v] = true;  // v itself carries tau_v
        } else {
          net.send(v, target, Message::tagged(kTagRequest));
        }
      });
      stage_ = Stage::kCompletionJoin;
      break;
    }

    case Stage::kCompletionJoin: {
      if (mode_ == CompletionMode::kSelf) {
        const NodeFlags& dominated = partial_.dominated();
        net.for_nodes([&](NodeId v) {
          if (!dominated[v]) in_final_[v] = true;
        });
      } else {
        // The active set this round is exactly the kTagRequest receivers
        // (the partial phase is quiescent), so the completion costs
        // O(undominated), not O(n).
        net.for_active_nodes([&](NodeId u) {
          for (const MessageView m : net.inbox(u)) {
            if (m.tag() == kTagRequest) {
              in_final_[u] = true;
              break;
            }
          }
        });
      }
      stage_ = Stage::kDone;
      break;
    }

    case Stage::kDone:
      break;
  }
}

bool CompletionPhase::finished(const Network& net) const {
  (void)net;
  return stage_ == Stage::kDone;
}

MdsResult CompletionPhase::result(const Network& net) const {
  ARBODS_CHECK(stage_ == Stage::kDone);
  MdsResult res;
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    if (in_final_[v]) res.dominating_set.push_back(v);
  res.weight = net.weighted_graph().total_weight(res.dominating_set);
  res.packing = partial_.packing();
  res.packing_lower_bound = packing_lower_bound(res.packing);
  res.iterations = partial_.iterations();
  res.stats = net.stats();
  return res;
}

MdsResult run_deterministic_mds(Network& net,
                                const DeterministicMdsParams& params,
                                std::int64_t max_rounds_per_phase) {
  PartialDsParams pp;
  pp.eps = params.eps;
  pp.alpha = params.alpha;
  pp.lambda = params.lambda.value_or(theorem11_lambda(params.alpha, params.eps));
  PartialDominatingSet partial(pp);
  CompletionPhase completion(params.completion, partial);
  const RunStats stats =
      protocol::run_protocol(net, {&partial, &completion}, max_rounds_per_phase);
  ARBODS_CHECK_MSG(!stats.hit_round_limit, "round budget exceeded");
  return completion.result(net);
}

}  // namespace arbods
