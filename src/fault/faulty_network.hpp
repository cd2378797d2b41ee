// FaultyNetwork: an adversarial decorator over the CONGEST simulator.
//
// The decorator derives from Network through its virtual seams and owns
// an *inner* delivery engine: a plain Network built in inner mode (every
// node, per-worker record lists sized for the decorator's pool, no
// broadcast slots). Algorithms,
// ProtocolRunner phases, and the scenario runner drive the decorator
// through the unchanged Network surface; inboxes, RNG streams, and
// timers live in the inner engine (Network reads them there directly),
// while every send/broadcast is intercepted:
//
//   1. the record is encoded once (CONGEST cap check and bit accounting
//      exactly as on the clean path — the sender paid for the slot even
//      if the adversary eats it);
//   2. its fault decisions are drawn from a pure hash of
//      (plan.seed, receiver-side arc, round, per-arc record index) —
//      dead sender -> suppress (killed), drop -> discard (dropped),
//      duplicate -> a second copy with independent draws (duplicated),
//      bounded delay d in [1, max_delay_rounds] (delayed), reorder ->
//      divert to a uniformly random in-arc of the same receiver (the
//      record keeps its true sender id, so only its inbox position —
//      i.e. the sender-sorted arrival order — changes);
//   3. an undisturbed copy (d == 0, original arc) goes straight onto the
//      inner engine's record list through the deposit_wire seam — the
//      same path as a clean send, from the same worker, stamped with the
//      decorator's section index; disturbed copies park in the calling
//      worker's timer-wheel-backed holding buffer and are appended at the
//      flip of their arrival round, after sorting by (arc, send round,
//      origin arc, record index, copy) — a unique total order — with a
//      section index past every direct record of the round, so they land
//      behind them on their arc, identically at every pool width.
//
// Determinism contract: a fixed FaultPlan yields bit-identical results,
// traces, and fault counters at every thread width, and a zero-fault
// plan is bit-identical to running without the decorator
// (every record then takes the direct path in send order). Tested in
// tests/fault_test.cpp against every registry solver.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "congest/network.hpp"
#include "fault/fault_plan.hpp"

namespace arbods::fault {

class FaultyNetwork final : public Network {
 public:
  /// Elaborates config.fault via make_fault_plan.
  FaultyNetwork(const WeightedGraph& wg, CongestConfig config);
  /// Runs a caller-built plan (validated against the graph).
  FaultyNetwork(const WeightedGraph& wg, CongestConfig config, FaultPlan plan);
  ~FaultyNetwork() override;

  const FaultPlan& plan() const { return plan_; }
  /// The inner delivery engine (diagnostics/tests).
  const Network& inner() const { return *inner_; }

  /// True iff v is NOT in the kill schedule. Note the schedule view:
  /// a node with a future kill_round still counts as killed here —
  /// repair and the surviving-subgraph oracle reason about who survives
  /// the whole plan, which is a pure function of (graph, spec) and so
  /// recomputable by any checker without replaying the run.
  bool alive(NodeId v) const {
    return kill_round_[v] == std::numeric_limits<std::int64_t>::max();
  }
  /// The scheduled kill set, sorted ascending (the complement of alive()).
  std::vector<NodeId> killed_nodes() const;

  // --- Network seams ---
  void send(NodeId from, NodeId to, const Message& m) override;
  void broadcast(NodeId from, const Message& m) override;
  void reset_for_reuse() override;

 private:
  /// One disturbed record parked until its arrival round. The sort key
  /// (dest, send_round, arc, seq, copy) is unique per record — `arc` is
  /// the origin arc, so two records diverted onto the same arc with
  /// equal sequence numbers still order deterministically.
  struct HeldRec {
    std::uint32_t dest;   // delivery arc (after any diversion)
    std::uint32_t begin;  // word range in the bucket's `words`
    std::uint32_t end;
    std::uint32_t arc;    // origin receiver-side arc
    std::uint32_t seq;    // per-(arc, round) record index
    std::int64_t send_round;
    std::uint8_t copy;    // 0 = original, 1 = duplicate
  };
  /// Ring bucket of one worker's holding wheel, keyed by arrival round.
  /// The ring size exceeds the largest possible delay, so at most one
  /// live arrival round ever maps to a bucket.
  struct HoldBucket {
    std::int64_t round = -1;
    std::vector<std::uint64_t> words;
    std::vector<HeldRec> recs;
  };
  struct HoldWheel {
    std::vector<HoldBucket> ring;  // size is a power of two
    std::size_t words_highwater = 0;
    std::size_t recs_highwater = 0;
  };

  void flip_buffers() override;
  void clear_in_flight() override;
  void reseed_node_rngs() override;
  void rebuild_active_set() override;
  void shrink_scratch() override;

  void init_from_plan(const WeightedGraph& wg, const CongestConfig& config);
  /// The per-record intercept described in the header comment.
  void inject_record(std::size_t w, NodeId from, std::uint32_t to_arc,
                     std::size_t nwords, int bits);
  void hold(std::size_t w, std::int64_t arrival, const HeldRec& rec,
            const std::uint64_t* words, std::size_t nwords);
  bool node_dead(NodeId v, std::int64_t at_round) const {
    return kill_round_[v] <= at_round;
  }

  FaultPlan plan_;
  std::unique_ptr<Network> inner_;
  /// Round each node dies at (INT64_MAX = never), from plan_.kills.
  std::vector<std::int64_t> kill_round_;
  bool any_kills_ = false;
  /// Per-arc record index within the current round: seq_idx_[arc] counts
  /// records arc has carried in the round seq_round_[arc]. Each arc has a
  /// single writer (its tail), so the counters are race-free; the pair
  /// resets lazily per round and fully at phase boundaries.
  std::vector<std::int64_t> seq_round_;
  std::vector<std::uint32_t> seq_idx_;
  /// Per-worker holding wheels for disturbed records.
  std::vector<HoldWheel> wheels_;
  /// Flip-time drain scratch: one entry per record due this arrival
  /// round, sorted into the unique delivery order.
  struct DrainRef {
    const HoldBucket* bucket;
    const HeldRec* rec;
  };
  std::vector<DrainRef> drain_;
};

/// The construction point the harness layers use: dispatches on
/// config.fault.enabled() — a FaultyNetwork when faults are requested,
/// otherwise a plain Network. Callers hold the result as Network& and
/// never learn which they got.
std::unique_ptr<Network> make_network(const WeightedGraph& wg,
                                      const CongestConfig& config);

}  // namespace arbods::fault
