#include "protocol/runner.hpp"

#include "resilience/reliable_channel.hpp"

namespace arbods::protocol {

RunStats run_protocol(Network& net,
                      std::initializer_list<DistributedAlgorithm*> phases,
                      std::int64_t max_rounds_per_phase) {
  net.reset_for_reuse();
  // With reliable_transport set, every phase runs behind the
  // reliable-delivery adapter: the wrapped phase executes on a clean
  // staging Network while ReliablePhase speaks the seq/ack/retransmit
  // protocol on this (possibly faulty) one.
  const bool rel = net.config().reliable_transport;
  for (DistributedAlgorithm* phase : phases) {
    ARBODS_CHECK(phase != nullptr);
    bool hit_limit;
    if (rel) {
      resilience::ReliablePhase wrapped(*phase);
      hit_limit = net.run_phase(wrapped, wrapped.name(), max_rounds_per_phase)
                      .hit_round_limit;
    } else {
      hit_limit = net.run_phase(*phase, phase->name(), max_rounds_per_phase)
                      .hit_round_limit;
    }
    if (hit_limit) break;
  }
  return net.stats();
}

}  // namespace arbods::protocol
