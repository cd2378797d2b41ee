#include "core/randomized.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "graph/verify.hpp"

namespace arbods {

RandomizedExtension::RandomizedExtension(RandomizedExtensionParams params,
                                         const PartialDominatingSet* seed)
    : params_(params), seed_(seed) {
  ARBODS_CHECK_MSG(params_.lambda > 0.0, "lambda must be positive");
  ARBODS_CHECK_MSG(params_.gamma > 1.0, "gamma must exceed 1");
}

void RandomizedExtension::reduce_dominated() {
  for (WorkerCounter& d : dominated_delta_) {
    ARBODS_CHECK(static_cast<std::int64_t>(num_undominated_) >= d.value);
    num_undominated_ -= static_cast<NodeId>(d.value);
    d.value = 0;
  }
}

void RandomizedExtension::initialize(Network& net) {
  const NodeId n = net.num_nodes();
  const NodeId delta = net.graph().max_degree();
  t_ = std::max<std::int64_t>(
      1, ceil_log_base(params_.gamma, 1.0 / params_.lambda));
  r_ = 1 + std::max<std::int64_t>(
               0, ceil_log_base(params_.gamma,
                                static_cast<double>(delta) + 1.0));
  phase_ = 0;
  iter_ = 0;
  used_fallback_ = false;
  big_x_.assign(n, 0.0);
  dominated_delta_.assign(static_cast<std::size_t>(net.num_workers()),
                          WorkerCounter{});

  if (seed_ != nullptr) {
    ARBODS_CHECK_MSG(
        seed_->finished(net) && seed_->in_partial_set().size() == n,
        "RandomizedExtension requires its seeding partial_ds phase to have "
        "run on this graph");
    // Working copies: the extension grows S and bumps x in place.
    in_set_ = seed_->in_partial_set();
    dominated_ = seed_->dominated();
    x_ = seed_->packing();
    num_undominated_ = 0;
    for (NodeId v = 0; v < n; ++v)
      if (!dominated_[v]) ++num_undominated_;
    if (n == 0 || num_undominated_ == 0) {
      stage_ = Stage::kDone;
      return;
    }
    start_phase(net);
    return;
  }

  // Theorem 1.3 mode: S empty, x_v = tau_v/(Delta+1) after a weight round.
  in_set_.assign(n, false);
  dominated_.assign(n, false);
  x_.assign(n, 0.0);
  num_undominated_ = n;
  if (n == 0) {
    stage_ = Stage::kDone;
    return;
  }
  net.for_nodes([&](NodeId v) {
    net.broadcast(v, Message::tagged(kTagWeight).add_weight(net.weight(v)));
  });
  stage_ = Stage::kAwaitWeights;
}

void RandomizedExtension::start_phase(Network& net) {
  if (phase_ == 0) initial_x_ = x_;
  ++phase_;
  iter_ = 0;
  p_ = 1.0 / (static_cast<double>(net.graph().max_degree()) + 1.0);
  const bool first_phase = phase_ == 1;
  net.for_nodes([&](NodeId v) {
    if (!dominated_[v]) {
      if (!first_phase) x_[v] *= params_.gamma;
      net.broadcast(v, Message::tagged(kTagValue).add_real(x_[v]));
    }
  });
  stage_ = Stage::kSample;
}

void RandomizedExtension::process_round(Network& net) {
  const NodeId n = net.num_nodes();

  switch (stage_) {
    case Stage::kAwaitWeights: {
      const double delta_plus_1 =
          static_cast<double>(net.graph().max_degree()) + 1.0;
      net.for_nodes([&](NodeId v) {
        Weight best = net.weight(v);
        for (const MessageView m : net.inbox(v))
          if (m.tag() == kTagWeight) best = std::min(best, m.weight_at(1));
        x_[v] = static_cast<double>(best) / delta_plus_1;
      });
      start_phase(net);
      break;
    }

    case Stage::kSample: {
      ++iter_;
      // Gamma membership + sampling; every node draws from its own stream.
      auto sample = [&](NodeId u) {
        if (in_set_[u]) return;
        if (big_x_[u] <
            static_cast<double>(net.weight(u)) / params_.gamma)
          return;
        if (!net.rng(u).next_bernoulli(p_)) return;
        in_set_[u] = true;
        const bool was_undominated = !dominated_[u];
        if (was_undominated) {
          dominated_[u] = true;
          ++dominated_delta_[net.worker_index()].value;
          big_x_[u] -= x_[u];
        }
        net.broadcast(u, Message::tagged(kTagJoin)
                             .add_real(x_[u])
                             .add_flag(was_undominated));
      };
      if (iter_ == 1) {
        net.for_nodes([&](NodeId u) {
          // Rebuild X_u from the phase-start broadcasts.
          double sum = dominated_[u] ? 0.0 : x_[u];
          for (const MessageView m : net.inbox(u))
            if (m.tag() == kTagValue) sum += m.real_at(1);
          big_x_[u] = sum;
          sample(u);
        });
      } else {
        // Deduct neighbors that announced domination last round; the
        // announcements land on the active set (their neighbours).
        net.for_active_nodes([&](NodeId u) {
          for (const MessageView m : net.inbox(u))
            if (m.tag() == kTagDominated) big_x_[u] -= m.real_at(1);
        });
        net.for_nodes(sample);
      }
      reduce_dominated();
      p_ = std::min(p_ * params_.gamma, 1.0);
      stage_ = Stage::kDominate;
      break;
    }

    case Stage::kDominate: {
      // Only the sample round's joiners broadcast, so their announcements
      // land on the active set; the inboxes outside it are empty.
      net.for_active_nodes([&](NodeId v) {
        bool newly_dominated = false;
        for (const MessageView m : net.inbox(v)) {
          if (m.tag() != kTagJoin) continue;
          // A joining neighbor dominates v ...
          if (!dominated_[v]) {
            dominated_[v] = true;
            ++dominated_delta_[net.worker_index()].value;
            big_x_[v] -= x_[v];
            newly_dominated = true;
          }
          // ... and if it was undominated, its x leaves X_v.
          if (m.flag_at(2)) big_x_[v] -= m.real_at(1);
        }
        if (newly_dominated)
          net.broadcast(v, Message::tagged(kTagDominated).add_real(x_[v]));
      });
      reduce_dominated();
      if (iter_ < r_) {
        stage_ = Stage::kSample;
      } else if (num_undominated_ > 0 && phase_ < t_) {
        start_phase(net);
      } else if (num_undominated_ > 0) {
        stage_ = Stage::kFallback;  // should be unreachable (see header)
      } else {
        stage_ = Stage::kDone;
      }
      break;
    }

    case Stage::kFallback: {
      used_fallback_ = true;
      for (NodeId v = 0; v < n; ++v) {
        if (!dominated_[v]) {
          in_set_[v] = true;
          dominated_[v] = true;
          --num_undominated_;
          net.broadcast(v, Message::tagged(kTagJoin)
                               .add_real(x_[v])
                               .add_flag(true));
        }
      }
      stage_ = Stage::kDone;
      break;
    }

    case Stage::kDone:
      break;
  }
}

bool RandomizedExtension::finished(const Network& net) const {
  (void)net;
  return stage_ == Stage::kDone;
}

MdsResult RandomizedExtension::result(const Network& net) const {
  ARBODS_CHECK(stage_ == Stage::kDone);
  MdsResult res;
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    if (in_set_[v]) res.dominating_set.push_back(v);
  res.weight = net.weighted_graph().total_weight(res.dominating_set);
  res.packing = initial_x_.empty() ? x_ : initial_x_;
  res.packing_lower_bound = packing_lower_bound(res.packing);
  res.iterations = phase_;
  res.used_fallback = used_fallback_;
  res.stats = net.stats();
  return res;
}

}  // namespace arbods
