// ReliableChannel: exactly-once, sender-ordered delivery over a faulty
// CONGEST simulator, packaged as a Phase adapter.
//
// The problem: a FaultyNetwork drops, duplicates, delays, and reorders
// records, so a registry solver run on one either diverges or starves.
// The classic fix (sequence numbers + cumulative acknowledgments +
// bounded retransmission, as in accountable-delivery designs) turns the
// lossy channel back into the reliable one the paper's protocols assume
// — at the price of extra physical rounds and transport traffic.
//
// Architecture — two cooperating objects per wrapped phase:
//
//   * ReliableNetwork: the *virtual* network the wrapped algorithm runs
//     on. It derives from Network through the virtual seams (like
//     FaultyNetwork) and owns a private *staging* engine — a plain
//     Network built in inner mode over every node — whose inbox holds
//     exactly the messages of the current VIRTUAL round. The algorithm's
//     sends are captured into per-out-arc unit queues instead of hitting
//     the wire; inbox/rng/arm read the staging engine directly. The
//     virtual network enforces the ORIGINAL message cap and exposes the
//     original round counter, so the algorithm's observable world is
//     bit-identical to a clean run.
//
//   * ReliablePhase: the Phase wrapper (`reliable(phase)`) driven by the
//     OUTER (physical, possibly faulty) network. Each physical round it
//     (1) receives transport frames from the outer inbox — dedup by
//     per-arc sequence number, buffer out-of-order arrivals, apply
//     cumulative acks; (2) when every arc has closed the next virtual
//     round (seen its end-of-round MARKER in order), deposits that
//     round's payloads into the staging engine in canonical per-arc seq
//     order, flips it, and runs the wrapped algorithm's next
//     process_round; (3) transmits due units — DATA frames carrying
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
// bit-identical at every worker-pool width, and composes with
// FaultyNetwork unchanged.
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
#include "protocol/phase.hpp"

namespace arbods::resilience {

class ReliablePhase;

/// Deterministic retransmission schedule: rounds to wait before attempt
/// `attempt`+1 of unit `seq` on receiver-side arc `arc`. Pure function,
/// exposed for tests.
std::int64_t retransmit_gap(std::uint32_t arc, std::uint32_t seq,
                            std::uint8_t attempt);

/// The virtual network a reliable()-wrapped algorithm runs on. Public
/// surface is the unchanged Network API; construction is per wrapped
/// phase (ReliablePhase::initialize builds one over the outer network).
class ReliableNetwork final : public Network {
 public:
  explicit ReliableNetwork(const Network& outer);
  ~ReliableNetwork() override;

  // --- Network seams the wrapped algorithm drives ---
  void send(NodeId from, NodeId to, const Message& m) override;
  void broadcast(NodeId from, const Message& m) override;
  void reset_for_reuse() override;

  /// Virtual rounds fully delivered to the wrapped algorithm so far.
  std::int64_t delivered_rounds() const { return delivered_; }

 private:
  friend class ReliablePhase;

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

  // Seam overrides (the virtual network is never driven through
  // run()/run_phase(); these keep incidental calls well-defined by
  // delegating to the staging engine, FaultyNetwork-style).
  void flip_buffers() override;
  void clear_in_flight() override;
  void reseed_node_rngs() override;
  void rebuild_active_set() override;
  void shrink_scratch() override;

  /// Capture one algorithm send (or marker) on receiver-side arc glane.
  void enqueue_unit(std::uint32_t glane, const Message& m, bool marker);
  /// Appends the end-of-round marker on every arc (one per out-arc per
  /// virtual round; the frame contract receivers count rounds by).
  void close_virtual_round();
  /// True when every arc has closed virtual round delivered_rounds()
  /// (recomputed by the last receive_pass).
  bool virtual_round_complete() const;
  /// Deposits the completed virtual round's payloads into the staging
  /// engine in canonical per-arc seq order and flips it.
  void deliver_and_flip();
  /// Drops every captured-but-undelivered unit (wrapped phase finished;
  /// whatever is still in flight dies with the phase).
  void abandon_outstanding();

  /// Physical receive: consume the outer inbox — dedup, reorder-buffer,
  /// acks, marker counting. Also recounts ready arcs for
  /// virtual_round_complete().
  void receive_pass(Network& outer);
  /// Physical transmit: due DATA units + standalone ACKs.
  void transmit_pass(Network& outer);

  void receive_frame(NodeId v, const MessageView& mv);
  void transmit_unit(Network& outer, NodeId sender, NodeId receiver,
                     std::uint32_t glane, std::uint32_t seq, OutUnit& unit);

  std::unique_ptr<Network> staging_;
  std::vector<OutArc> out_;
  std::vector<InArc> in_;
  /// Per-worker tally of arcs that already closed virtual round
  /// delivered_ (reduced against the arc count by
  /// virtual_round_complete()).
  std::vector<WorkerCounter> ready_arcs_;
  std::int64_t delivered_ = 0;
  std::int64_t seq_limit_ = 0;  // 2^level_bits, the transport seq ceiling
};

/// Phase adapter: wraps `inner` so it runs with exactly-once,
/// sender-ordered delivery on any (possibly faulty) Network. Appears in
/// per-phase statistics as "<inner>+rel". ProtocolRunner applies it
/// automatically when CongestConfig::reliable_transport is set.
class ReliablePhase final : public protocol::Phase {
 public:
  explicit ReliablePhase(protocol::Phase& inner);
  ~ReliablePhase() override;

  std::string_view name() const override { return name_; }
  void bind(protocol::PhaseContext& ctx) override { inner_->bind(ctx); }
  void publish(Network& net, protocol::PhaseContext& ctx) override;

  void initialize(Network& outer) override;
  void process_round(Network& outer) override;
  bool finished(const Network& outer) const override;

 private:
  protocol::Phase* inner_;
  std::string name_;
  std::unique_ptr<ReliableNetwork> vnet_;
  bool inner_finished_ = false;
};

/// The wrapper spelled as a combinator: reliable(phase).
inline ReliablePhase reliable(protocol::Phase& phase) {
  return ReliablePhase(phase);
}

}  // namespace arbods::resilience
