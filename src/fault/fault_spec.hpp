// FaultSpec: the configuration-level description of an adversarial fault
// model, embedded in CongestConfig so every harness layer (registry,
// scenario runner, bench binaries) can request a faulty run without new
// plumbing. A default-constructed spec is inert: the Network constructor
// elaborates only an enabled() spec, so an inert one builds the clean
// simulator at zero cost.
//
// The spec is deliberately a flat value type (no vectors) so
// CongestConfig keeps its defaulted operator== — NetworkPool keys pooled
// Networks on config equality. Per-arc probability overrides and explicit
// kill schedules live in fault::FaultPlan (fault_plan.hpp), which
// make_fault_plan derives from this spec or a caller builds directly.
#pragma once

#include <cstdint>

namespace arbods::fault {

struct FaultSpec {
  /// Probability a sent record is silently discarded (still counted in
  /// messages/total_bits: the sender paid for the slot).
  double drop_prob = 0.0;
  /// Probability a surviving record is delivered twice; the extra copy
  /// draws its own delay and counts in `duplicated`, not in `messages`.
  double duplicate_prob = 0.0;
  /// Probability a copy is held back, paired with the bound below.
  double delay_prob = 0.0;
  /// Maximum extra rounds a delayed copy is held (delay is uniform on
  /// [1, max_delay_rounds]); 0 disables delays regardless of delay_prob.
  int max_delay_rounds = 0;
  /// Probability a copy is diverted to a uniformly random in-arc of the
  /// SAME receiver — it arrives at a different inbox position with its
  /// true sender id intact, so sender-order assumptions break while the
  /// message content stays honest.
  double reorder_prob = 0.0;
  /// Per-node probability of being scheduled for a crash-stop kill.
  double kill_prob = 0.0;
  /// Round at which every killed node dies: from that round on it sends
  /// nothing and receives nothing (records already in flight to it are
  /// suppressed on arrival and counted in `killed`).
  std::int64_t kill_round = 1;
  /// Seed for every fault decision; independent of CongestConfig::seed so
  /// the same protocol randomness can be replayed under different fault
  /// draws and vice versa.
  std::uint64_t fault_seed = 0xfa17'5eedULL;

  /// Whether this spec asks for any fault at all (false = the Network
  /// builds no fault plan and runs the clean delivery path).
  bool enabled() const {
    return drop_prob > 0.0 || duplicate_prob > 0.0 ||
           (delay_prob > 0.0 && max_delay_rounds > 0) || reorder_prob > 0.0 ||
           kill_prob > 0.0;
  }

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

}  // namespace arbods::fault
