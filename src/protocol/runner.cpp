#include "protocol/runner.hpp"

#include "resilience/reliable_channel.hpp"

namespace arbods::protocol {

RunStats ProtocolRunner::run(std::span<Phase* const> phases,
                             std::int64_t max_rounds_per_phase) {
  net_->reset_for_reuse();
  ctx_.clear();
  // With reliable_transport set, every phase runs behind the
  // reliable-delivery adapter: the wrapped phase executes on a clean
  // staging Network while ReliablePhase speaks the seq/ack/retransmit
  // protocol on this (possibly faulty) one. Solvers opt in through
  // config alone — no phase list changes anywhere.
  const bool rel = net_->config().reliable_transport;
  for (Phase* phase : phases) {
    ARBODS_CHECK(phase != nullptr);
    if (rel) {
      resilience::ReliablePhase wrapped(*phase);
      wrapped.bind(ctx_);
      const PhaseStats& ps =
          net_->run_phase(wrapped, wrapped.name(), max_rounds_per_phase);
      if (ps.hit_round_limit) break;
      wrapped.publish(*net_, ctx_);
    } else {
      phase->bind(ctx_);
      const PhaseStats& ps =
          net_->run_phase(*phase, phase->name(), max_rounds_per_phase);
      if (ps.hit_round_limit) break;  // callers check RunStats::hit_round_limit
      phase->publish(*net_, ctx_);
    }
  }
  return net_->stats();
}

RunStats ProtocolRunner::run(std::initializer_list<Phase*> phases,
                             std::int64_t max_rounds_per_phase) {
  return run(std::span<Phase* const>(phases.begin(), phases.size()),
             max_rounds_per_phase);
}

RunStats run_protocol(Network& net, std::initializer_list<Phase*> phases,
                      std::int64_t max_rounds_per_phase) {
  ProtocolRunner runner(net);
  return runner.run(phases, max_rounds_per_phase);
}

}  // namespace arbods::protocol
