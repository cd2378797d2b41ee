// run_protocol: executes a phase list on one reused Network.
//
// Resets the Network once (reset_for_reuse keeps arenas, pool and RNG
// storage), then runs each phase through Network::run_phase, which
// appends its rounds/messages/bits to RunStats::phases under the phase's
// name(). A phase that exhausts its round budget stops the pipeline; the
// limit shows on its entry and on RunStats::hit_round_limit. A consumer
// phase holds a reference to its producer and reads its results at
// initialize, so the list only fixes the order.
#pragma once

#include <initializer_list>

#include "congest/network.hpp"

namespace arbods::protocol {

RunStats run_protocol(Network& net,
                      std::initializer_list<DistributedAlgorithm*> phases,
                      std::int64_t max_rounds_per_phase = 1'000'000);

}  // namespace arbods::protocol
