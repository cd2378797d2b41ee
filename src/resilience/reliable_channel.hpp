// ReliablePhase: exactly-once, sender-ordered delivery over a faulty
// CONGEST simulator, packaged as a phase adapter.
//
// The problem: a Network running a fault plan drops, duplicates, delays,
// and reorders records, so a registry solver run on one either diverges
// or starves. The classic fix (sequence numbers + cumulative
// acknowledgments + bounded retransmission, as in accountable-delivery
// designs) turns the lossy channel back into the reliable one the
// paper's protocols assume — at the price of extra physical rounds and
// transport traffic.
//
// Architecture: `reliable(phase)` is driven by the OUTER (physical,
// possibly faulty) network and runs the wrapped phase on a private
// *staging* Network — a plain clean Network over the same graph, built
// with the original message cap and the outer pool width — whose inbox
// holds exactly the messages of the current VIRTUAL round. The staging
// Network exposes the virtual round counter, so the algorithm's
// observable world is bit-identical to a clean run.
//
//   * Capture: after the wrapped initialize / process_round, the staging
//     Network's outgoing records are read in per-arc send order (record
//     lists, then broadcast slots), bucketed by sender, turned into
//     per-arc transport units on the pool (a sender owns its out-arcs'
//     queues), and discarded; an end-of-round MARKER then closes the
//     virtual round on every arc.
//   * Each physical round (1) receives transport frames from the outer
//     inbox — dedup by per-arc sequence number, buffer out-of-order
//     arrivals, apply cumulative acks; (2) when every arc has closed the
//     next virtual round (seen its MARKER in order), sends that round's
//     payloads into the staging Network in per-arc seq order from the
//     receiving node's worker, flips it, and runs the wrapped algorithm's
//     next process_round; (3) transmits due units — DATA frames carrying
//     (seq, piggybacked cumulative ack, marker flag, payload fields) —
//     plus standalone ACK frames where a delivery consumed something but
//     no reverse DATA is flying.
//
// Retransmission: each unit carries a per-arc deadline (`next_tx`); an
// arc-level `next_due` minimum lets the per-round scan skip quiet arcs.
// The backoff schedule is the pure function
//
//   gap(arc, seq, attempt) = 2 + 2^min(attempt,5)
//                              + mix64(arc, seq, attempt) % 2^min(attempt,5)
//
// (an RTT guard of 2 rounds, bounded exponential growth, deterministic
// jitter) — no RNG state anywhere in the transport, so a run is
// bit-identical at every worker-pool width over any fault plan.
//
// Determinism contract (tested in tests/resilience_test.cpp): for every
// registry solver, `reliable(phase)` over a drop/duplicate/reorder/delay
// FaultSpec produces bit-identical solver OUTPUT (set, weight, packing,
// iterations) to the fault-free run — the statistics differ, since the
// physical transport traffic is the honest cost of reliability.
// Crash-stop kills are out of scope: a dead endpoint acks nothing, the
// wrapped algorithm starves, and the phase ends via the round limit
// (pair with RepairPhase for that failure mode).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "congest/network.hpp"

namespace arbods::resilience {

/// Deterministic retransmission schedule: rounds to wait before attempt
/// `attempt`+1 of unit `seq` on receiver-side arc `arc`. Pure function,
/// exposed for tests.
std::int64_t retransmit_gap(std::uint32_t arc, std::uint32_t seq,
                            std::uint8_t attempt);

/// Phase adapter: wraps `inner` so it runs with exactly-once,
/// sender-ordered delivery on any (possibly faulty) Network. Appears in
/// per-phase statistics as "<inner>+rel". run_protocol applies it
/// automatically when CongestConfig::reliable_transport is set. The
/// wrapped phase keeps its results in its own members, so a later phase
/// reads them exactly as after a clean run.
class ReliablePhase final : public DistributedAlgorithm {
 public:
  explicit ReliablePhase(DistributedAlgorithm& inner);
  ~ReliablePhase() override;

  std::string_view name() const override { return name_; }

  void initialize(Network& outer) override;
  void process_round(Network& outer) override;
  bool finished(const Network& outer) const override;

 private:
  /// One captured send (or round marker) awaiting reliable delivery.
  struct OutUnit {
    Message msg;             // empty for a marker
    std::int64_t next_tx = 0;
    std::uint8_t attempt = 0;
    bool marker = false;
  };
  /// Sender-side state of one arc; single writer = the arc's tail node.
  struct OutArc {
    std::deque<OutUnit> units;    // units[i] has seq base_seq + i
    std::uint32_t base_seq = 0;   // acked prefix is popped, so this > 0
    std::uint32_t next_seq = 0;   // seq of the next captured unit
    std::uint32_t acked = 0;      // all seq < acked are acknowledged
    std::int64_t next_due = 0;    // min next_tx over in-flight units
    std::int64_t last_data_tx = -1;  // physical round of the last DATA send
  };
  /// One buffered out-of-order arrival.
  struct BufUnit {
    std::uint32_t seq;
    bool marker;
    Message msg;
  };
  /// One in-order payload awaiting its virtual round's global delivery.
  struct PendingMsg {
    std::int64_t vround;
    Message msg;
  };
  /// Receiver-side state of one arc; single writer = the arc's head node.
  struct InArc {
    std::uint32_t next = 0;        // next expected seq == cumulative ack
    std::int64_t rounds_done = 0;  // markers consumed in order
    std::vector<BufUnit> buffer;
    std::vector<PendingMsg> pending;
    std::size_t pending_head = 0;
    bool ack_due = false;
  };

  /// One outgoing record of the staging Network: its receiver-side arc
  /// and its wire words (valid until the staging discard).
  struct Captured {
    std::uint32_t arc;
    MessageView record;
  };

  /// Turns the staging Network's outgoing records into units, discards
  /// them, and closes the virtual round with a marker on every arc.
  void capture_round();
  /// Appends one unit (or marker) to receiver-side arc `arc`'s queue.
  void enqueue_unit(std::uint32_t arc, const Message& m, bool marker);
  /// True when every arc has closed virtual round delivered_ (recomputed
  /// by the last receive_pass).
  bool virtual_round_complete() const;
  /// Sends the completed virtual round's payloads into the staging
  /// Network in per-arc seq order and flips it.
  void deliver_and_flip();

  /// Physical receive: consume the outer inbox — dedup, reorder-buffer,
  /// acks, marker counting. Also recounts ready arcs for
  /// virtual_round_complete().
  void receive_pass(Network& outer);
  /// Physical transmit: due DATA units + standalone ACKs.
  void transmit_pass(Network& outer);

  void receive_frame(NodeId v, const MessageView& mv);
  void transmit_unit(Network& outer, NodeId sender, NodeId receiver,
                     std::uint32_t arc, std::uint32_t seq, OutUnit& unit);

  DistributedAlgorithm* inner_;
  std::string name_;
  /// The wrapped phase's world, rebuilt by every initialize.
  std::unique_ptr<Network> staging_;
  std::vector<std::uint32_t> mirror_;  // arc_mirror of the graph
  std::vector<OutArc> out_;
  std::vector<InArc> in_;
  /// capture_round scratch: the virtual round's records in per-arc send
  /// order, and a stable permutation of them bucketed by sender
  /// (sender u's records are by_sender_[sender_begin_[u] ..
  /// sender_begin_[u + 1])).
  std::vector<Captured> captured_;
  std::vector<std::uint32_t> by_sender_;
  std::vector<std::uint32_t> sender_begin_;
  /// Per-worker tally of arcs that already closed virtual round
  /// delivered_ (reduced against the arc count by
  /// virtual_round_complete()).
  std::vector<WorkerCounter> ready_arcs_;
  /// Virtual rounds fully delivered to the wrapped algorithm so far.
  std::int64_t delivered_ = 0;
  std::int64_t seq_limit_ = 0;  // 2^level_bits, the transport seq ceiling
  bool inner_finished_ = false;
};

/// The wrapper spelled as a combinator: reliable(phase).
inline ReliablePhase reliable(DistributedAlgorithm& phase) {
  return ReliablePhase(phase);
}

}  // namespace arbods::resilience
