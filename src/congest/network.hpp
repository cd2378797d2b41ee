// Round-synchronous CONGEST network simulator.
//
// Execution model (matching Section 2 of the paper):
//   * The communication graph equals the input graph.
//   * Time advances in synchronous rounds. In every round each node may
//     send one message per incident edge (possibly different per edge);
//     messages are delivered at the start of the next round.
//   * Message width is capped at O(log n) bits: `max_message_bits`
//     (default 4 * ceil(log2(n+1)), at least 64). Oversized sends throw.
//   * Initially a node knows only: its id, its weight, its neighbor count,
//     and the globally known parameters the algorithm is promised
//     (Delta, alpha, n, eps) — what an algorithm reads is by discipline
//     restricted to the NodeView API plus its own per-node state.
//
// Delivery internals (the scaling hot path):
//   * Messages live bit-packed as wire records (see message.hpp for the
//     layout); no per-message heap object exists anywhere on the path,
//     and a steady-state round performs zero allocations.
//   * Broadcasts are stored once per sender: every node owns a fixed-size
//     word region (a "slot") in each of two double-buffered arenas, and a
//     broadcast encodes its record once into the sender's out-slot.
//     Message and bit accounting count a broadcast as deg(v) deliveries
//     all the same. A slot has no length word: its records start at word
//     0 and end at a zero word (a record header is never 0) or at the
//     slot's last word, so an empty slot is a zero word 0 and a value
//     broadcast is read with the cache line that holds its header. The
//     stride (header + one kind word + cap payload, rounded up to a power
//     of two words: 4 words, 32 B, under the default cap) and the 64-byte
//     alignment of both arenas keep every slot inside one cache line up
//     to 8 words.
//   * Point-to-point records go to the calling worker's record list: the
//     encoded words plus the receiver-side arc (a precomputed mirror
//     permutation maps each out-arc to its position in the receiver's
//     sorted CSR range) and the index of the parallel section the send
//     ran in.
//     At the flip the round's records are sorted into one inbox list with
//     a per-receiver index, ordered within a receiver by (receiver-side
//     arc, section, send order). The arc orders senders by id; a node's
//     records within one section all sit on one worker's list in send
//     order, and sections run in program order, so every sender's send
//     order survives any pool width. The flip pays only for what was
//     sent: a round without point-to-point records sorts nothing.
//   * inbox(v) walks v's in-arcs in order and, for each, yields that
//     arc's records from v's run, then the records in the sender's slot.
//     That keeps the order sender-major with per-sender send order as
//     long as a slot only ever holds the *suffix* of its sender's records
//     for the round. So a send() from a node whose slot is non-empty first
//     flushes the slot into the record list (one record per out-arc), and
//     a broadcast that does not fit the slot's free room does the same
//     flush and then appends its record for every out-arc.
//   * A Network running an enabled fault plan (fault/fault_plan.hpp) has
//     no slots, because faults are per arc: send and broadcast take one
//     branch into the fault injector, which appends every undisturbed
//     copy to the calling worker's record list and parks held copies
//     until the flip of their arrival round. Its inbox walks v's run
//     alone.
//   * Each slot and each worker's record list has exactly one writer, so
//     sends from distinct nodes never race: per-round work is partitioned
//     across a worker pool (`CongestConfig::threads`) with no locks on the
//     delivery path. Per-worker statistics slots and per-node RNG streams
//     keep runs bit-identical regardless of thread count.
//   * One writer per cache line, too: everything a worker writes during a
//     section (statistics, the lists of written slots, the record list,
//     encode scratch, timer and hold wheels) lives in that worker's own
//     64-byte aligned block (Network::Worker), so no two workers write the
//     same line. Per-worker vectors of vectors would put every worker's
//     24-byte headers side by side, and the first broadcast of each sender
//     would bounce that line between cores. (Broadcast slots are packed,
//     so two workers share a slot line only where their node chunks
//     meet.)
//   * Only the slots actually written are cleared between rounds (tracked
//     per worker), so a flip costs O(records + broadcasting nodes), not
//     O(m).
//   * The simulator additionally maintains an *active set*: the nodes that
//     received at least one message this round (record receivers plus the
//     neighbours of every broadcasting node) plus the nodes that called
//     arm() last round. It is one bitmap of ceil(n/64) words, rebuilt on
//     first use in a round; for_active_nodes walks its set bits in
//     ascending node order. Event-driven algorithms route their loops
//     through for_active_nodes and pay O(n/64 + active + delivered) per
//     round instead of O(n) per-node work — on instances that converge
//     region-by-region most rounds touch a small and shrinking worklist.
//
// A DistributedAlgorithm owns all per-node state (struct-of-vectors) and is
// driven by Network::run(). This keeps the hot loop virtual-call-free per
// node and allocation-free per round, while the NodeView/send API preserves
// the locality discipline. Algorithms opt into the worker pool by routing
// their per-node loops through Network::for_nodes / for_active_nodes; the
// code for node v must then touch only v's own slots of the algorithm's
// per-node arrays (and must not use std::vector<bool>, whose packed bits
// are not per-element thread-safe).
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/function_ref.hpp"
#include "common/random.hpp"
#include "common/types.hpp"
#include "congest/message.hpp"
#include "congest/worker_pool.hpp"
#include "fault/fault_plan.hpp"
#include "graph/weighted_graph.hpp"
#include "obs/trace.hpp"

namespace arbods {

struct CongestConfig {
  /// Message cap = max(64, 4 * ceil(log2(n+1))) bits, unless explicitly
  /// overridden by max_message_bits_override.
  int max_message_bits_override = 0;  // 0 = derive from n
  /// Quantize kReal fields through the fixed-point codec at send time.
  bool quantize_reals = true;
  /// Seed for all per-node randomness.
  std::uint64_t seed = 0xa5a5a5a5ULL;
  /// Worker-pool width for for_nodes/for_active_nodes. 1 = serial
  /// (default); 0 = std::thread::hardware_concurrency(). Results are
  /// bit-identical for every value.
  int threads = 1;
  /// Adversarial fault model applied to every message and node. The
  /// Network constructor elaborates an enabled() spec into a
  /// fault::FaultPlan and runs it; a default (inert) spec costs nothing.
  fault::FaultSpec fault{};
  /// Hard per-phase round cap applied on top of the caller's max_rounds
  /// (the effective limit is the smaller of the two); 0 = no extra cap.
  /// Faulty runs set this so a solver starved of messages (e.g. under
  /// drop-probability 1) terminates via PhaseStats::hit_round_limit
  /// instead of spinning out the default million-round budget.
  std::int64_t round_limit = 0;
  /// Run every phase through the reliable-delivery adapter
  /// (resilience::ReliablePhase): exactly-once, sender-ordered delivery
  /// over drop/duplicate/reorder/delay faults. Honored by run_protocol;
  /// the Network itself only grants the transport-frame cap headroom
  /// (reliable_transport_header_bits on top of congest_message_cap) —
  /// the wrapped algorithm still sees exactly the original cap.
  bool reliable_transport = false;
  /// Observability: span tracing + flight recorder (obs/trace.hpp). The
  /// Network driven by the run owns the recorder (a reliable-transport
  /// staging Network records nothing), so one run produces one trace.
  /// Default-off is free on the hot path, and enabling it cannot change
  /// results — the timing breakdown is excluded from every stats
  /// comparison.
  obs::TraceOptions trace{};

  friend bool operator==(const CongestConfig&, const CongestConfig&) = default;
};

/// The per-message bit cap a Network with this config enforces on an
/// n-node instance. Shared with tests/oracles so they assert the exact
/// number the simulator uses.
int congest_message_cap(const CongestConfig& config, NodeId n);

/// One named phase's share of a run: every run_phase() call appends one
/// entry to RunStats::phases, so composed protocols get a per-phase
/// rounds/messages/bits breakdown for free. The sum over phases equals
/// the whole-run totals (tested for every registry solver).
struct PhaseStats {
  std::string name;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t total_bits = 0;
  int max_message_bits = 0;
  bool hit_round_limit = false;
  // Fault-injection tallies (always 0 on a clean simulator); see
  // fault/fault_plan.hpp for exactly what each one counts.
  std::int64_t dropped = 0;
  std::int64_t duplicated = 0;
  std::int64_t delayed = 0;
  std::int64_t killed = 0;
  /// Wall-clock breakdown for this phase (always measured). NOT part of
  /// operator== — the determinism and differential suites compare
  /// logical results, and timing can never be bit-stable.
  obs::TimingStats timing;

  friend bool operator==(const PhaseStats& a, const PhaseStats& b) {
    return a.name == b.name && a.rounds == b.rounds &&
           a.messages == b.messages && a.total_bits == b.total_bits &&
           a.max_message_bits == b.max_message_bits &&
           a.hit_round_limit == b.hit_round_limit && a.dropped == b.dropped &&
           a.duplicated == b.duplicated && a.delayed == b.delayed &&
           a.killed == b.killed;
  }
};

struct RunStats {
  std::int64_t rounds = 0;            // process_round invocations
  std::int64_t messages = 0;          // per-edge message deliveries
  std::int64_t total_bits = 0;        // sum of message widths
  int max_message_bits = 0;           // widest single message observed
  bool hit_round_limit = false;
  // Fault-injection tallies; each equals the sum of its per-phase
  // counterparts (tested), and all stay 0 on a clean simulator.
  std::int64_t dropped = 0;           // records discarded in flight
  std::int64_t duplicated = 0;        // adversarial extra copies injected
  std::int64_t delayed = 0;           // copies held >= 1 extra round
  std::int64_t killed = 0;            // records suppressed by dead endpoints
  /// Per-phase breakdown, one entry per run_phase() call (a plain run()
  /// is a single phase named "main").
  std::vector<PhaseStats> phases;
  /// Whole-run wall-clock breakdown (the sum of the per-phase timings).
  /// NOT part of operator== — see PhaseStats::timing.
  obs::TimingStats timing;

  friend bool operator==(const RunStats& a, const RunStats& b) {
    return a.rounds == b.rounds && a.messages == b.messages &&
           a.total_bits == b.total_bits &&
           a.max_message_bits == b.max_message_bits &&
           a.hit_round_limit == b.hit_round_limit && a.dropped == b.dropped &&
           a.duplicated == b.duplicated && a.delayed == b.delayed &&
           a.killed == b.killed && a.phases == b.phases;
  }
};

/// Per-worker cache-line-padded counter for algorithms that must maintain
/// a global tally (e.g. "number of uncovered nodes") from inside a
/// parallel section: each worker bumps its own slot via
/// Network::worker_index() and the algorithm reduces the slots serially
/// after the section — race-free and bit-identical at every pool width.
struct alignas(64) WorkerCounter {
  std::int64_t value = 0;
};

class Network;

/// Base class for round-synchronous distributed algorithms.
///
/// Contract: `initialize` and `process_round` must treat per-node state in
/// a local manner — the code for node v may read only v's own state, v's
/// inbox, and the public instance parameters. Verified by code review and
/// by the message-size/round statistics the simulator reports.
class DistributedAlgorithm {
 public:
  virtual ~DistributedAlgorithm() = default;

  /// Set up per-node state; may send round-0 messages and arm() nodes.
  virtual void initialize(Network& net) = 0;

  /// One synchronous round: every node reads its inbox and sends.
  virtual void process_round(Network& net) = 0;

  /// Global termination predicate (checked by the driver after each round;
  /// in a real network this is knowledge of the a-priori round bound).
  virtual bool finished(const Network& net) const = 0;

  /// Stable phase name for the per-phase statistics breakdown
  /// (RunStats::phases) when run through protocol::run_protocol.
  virtual std::string_view name() const { return "main"; }
};

/// Iterable view over the messages delivered to one node this round. It
/// walks the node's in-arcs in CSR order (ascending sender id) and yields,
/// for each, the arc's records from the node's run of the inbox list, then
/// the records in that sender's broadcast slot (a Network running a fault
/// plan has no slots and walks the run alone). Per-sender send order is
/// preserved: a slot holds a suffix of its sender's records for the round.
/// The iterator holds a pointer to the current record (its header word),
/// and end() is a sentinel it meets when that pointer is null, so the
/// loop test is one compare. A slot's records start at its word 0 and end
/// at a zero word or at the slot's last word. Dereferencing yields
/// MessageView values; they (and the InboxView) are valid only for the
/// current round.
class InboxView {
  /// One point-to-point record of the round's inbox list: the
  /// receiver-side arc it arrived on and where its words start in the
  /// list's word buffer.
  struct Entry {
    std::uint32_t arc;
    std::uint32_t offset;
  };

 public:
  /// The end of the walk: compares equal to an iterator past the last
  /// record.
  struct sentinel {};

  class const_iterator {
   public:
    using value_type = MessageView;
    using reference = MessageView;
    using difference_type = std::ptrdiff_t;

    MessageView operator*() const {
      ARBODS_DCHECK(cur_ != nullptr);
      return MessageView(cur_, view_->model_, view_->quantized_);
    }
    const_iterator& operator++() {
      if (slot_end_ != nullptr) {
        // The slot's next record, unless a zero word or its end closes it.
        cur_ += wire::record_words(*cur_);
        if (cur_ != slot_end_ && *cur_ != 0) return *this;
        ++arc_;
        seek_arc();
      } else {
        ++rec_;
        next_in_arc();
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& it, sentinel) {
      return it.cur_ == nullptr;
    }

   private:
    friend class InboxView;
    explicit const_iterator(const InboxView* view)
        : view_(view), rec_(view->run_begin_), arc_(view->first_arc_) {
      seek_arc();
    }
    // Past a run record of arc_: the arc's next run record, then its
    // sender's slot, then the following arcs.
    void next_in_arc() {
      const bool slotless = view_->slots_ == nullptr;
      if (rec_ != view_->run_end_ && (slotless || rec_->arc == arc_)) {
        cur_ = view_->words_ + rec_->offset;
        return;
      }
      if (!slotless && enter_slot()) return;
      ++arc_;
      seek_arc();
    }
    // The first record at or after the start of arc_.
    void seek_arc() {
      slot_end_ = nullptr;
      if (view_->slots_ == nullptr) {
        cur_ = rec_ != view_->run_end_ ? view_->words_ + rec_->offset
                                       : nullptr;
        return;
      }
      for (; arc_ != view_->end_arc_; ++arc_) {
        if (rec_ != view_->run_end_ && rec_->arc == arc_) {
          cur_ = view_->words_ + rec_->offset;
          return;
        }
        // Slot reads gather from random senders; fetching a few arcs
        // ahead overlaps the cache misses of a high-degree inbox. A slot
        // never straddles a cache line.
        if (arc_ + 8 < view_->end_arc_)
          __builtin_prefetch(view_->slot_region(arc_ + 8));
        if (enter_slot()) return;
      }
      cur_ = nullptr;
    }
    // Points cur_ at the first record in arc_'s slot, if it holds one.
    bool enter_slot() {
      const std::uint64_t* slot = view_->slot_region(arc_);
      if (*slot == 0) return false;
      cur_ = slot;
      slot_end_ = slot + view_->slot_stride_;
      return true;
    }

    const InboxView* view_ = nullptr;
    const std::uint64_t* cur_ = nullptr;       // current record; null = end
    const std::uint64_t* slot_end_ = nullptr;  // set while cur_ is in a slot
    const Entry* rec_ = nullptr;               // current or next run record
    std::size_t arc_ = 0;
  };

  const_iterator begin() const { return const_iterator(this); }
  sentinel end() const { return {}; }
  bool empty() const { return begin() == end(); }
  /// First delivered message; the inbox must be non-empty.
  MessageView front() const {
    const const_iterator it = begin();
    ARBODS_DCHECK(!(it == end()));
    return *it;
  }
  /// Number of delivered messages (O(degree + messages)).
  std::size_t size() const;

 private:
  friend class Network;
  InboxView(const std::uint64_t* words, const Entry* run_begin,
            const Entry* run_end, const std::uint64_t* slots,
            std::size_t slot_stride, const NodeId* senders,
            std::size_t first_arc, std::size_t end_arc,
            const MessageSizeModel* model, bool quantized)
      : words_(words), run_begin_(run_begin), run_end_(run_end),
        slots_(slots), slot_stride_(slot_stride), senders_(senders),
        first_arc_(first_arc), end_arc_(end_arc), model_(model),
        quantized_(quantized) {}

  const std::uint64_t* slot_region(std::size_t arc) const {
    return slots_ +
           static_cast<std::size_t>(senders_[arc - first_arc_]) * slot_stride_;
  }

  const std::uint64_t* words_;  // the inbox list's word buffer
  const Entry* run_begin_;
  const Entry* run_end_;
  const std::uint64_t* slots_;  // nullptr: an engine without slots
  std::size_t slot_stride_;
  const NodeId* senders_;       // the receiver's sorted neighbour list
  std::size_t first_arc_;
  std::size_t end_arc_;
  const MessageSizeModel* model_;
  bool quantized_;
};

namespace resilience {
class ReliablePhase;
}  // namespace resilience

/// The round-synchronous simulator, and the only one: run_protocol,
/// every phase and the scenario runner drive this class. Fault injection
/// is part of its delivery path (an enabled fault::FaultPlan switches
/// send/broadcast to per-arc records with per-arc fault decisions), and
/// reliable transport (resilience::ReliablePhase) runs the wrapped
/// algorithm on a second, clean Network. No member is virtual.
class Network {
 public:
  /// Elaborates config.fault (fault::make_fault_plan) when it is
  /// enabled(); an inert spec builds the clean simulator. `wg` must
  /// outlive the Network, which reads its graph in place.
  Network(const WeightedGraph& wg, CongestConfig config = {});
  /// Runs a caller-built fault plan, validated against the graph, in
  /// place of config.fault. A plan that is not enabled() builds the clean
  /// simulator.
  Network(const WeightedGraph& wg, CongestConfig config,
          fault::FaultPlan plan);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology / instance access (public parameters) ---
  NodeId num_nodes() const { return wg_->num_nodes(); }
  const Graph& graph() const { return wg_->graph(); }
  const WeightedGraph& weighted_graph() const { return *wg_; }
  Weight weight(NodeId v) const { return wg_->weight(v); }
  std::span<const NodeId> neighbors(NodeId v) const {
    return wg_->graph().neighbors(v);
  }
  NodeId degree(NodeId v) const { return wg_->graph().degree(v); }

  int max_message_bits() const { return max_message_bits_; }
  const MessageSizeModel& size_model() const { return size_model_; }
  /// The config this Network was constructed with.
  const CongestConfig& config() const { return config_; }

  // --- fault model ---
  /// The fault plan this Network runs (not enabled() on a clean one).
  const fault::FaultPlan& plan() const { return plan_; }
  /// True iff v is NOT in the kill schedule. Note the schedule view:
  /// a node with a future kill round already counts as killed here —
  /// repair and the surviving-subgraph oracle reason about who survives
  /// the whole plan, which is a pure function of (graph, spec) and so
  /// recomputable by any checker without replaying the run.
  bool alive(NodeId v) const {
    return kill_round_.empty() ||
           kill_round_[v] == std::numeric_limits<std::int64_t>::max();
  }
  /// The scheduled kill set, sorted ascending (the complement of alive()).
  std::vector<NodeId> killed_nodes() const;

  /// Per-node deterministic RNG stream: Rng(config().seed).split(v),
  /// derived afresh when the Network is built and at the start of every
  /// run_phase, then advanced by the phase's draws.
  Rng& rng(NodeId v) {
    ARBODS_DCHECK(v < node_rngs_.size());
    return node_rngs_[v];
  }

  // --- communication (called from within process_round/initialize) ---
  void send(NodeId from, NodeId to, const Message& m);
  void broadcast(NodeId from, const Message& m);

  /// Messages delivered to v at the start of the current round.
  InboxView inbox(NodeId v) const {
    ARBODS_DCHECK(static_cast<std::size_t>(v) + 1 < offsets_.size());
    const Run run = runs_[v];
    return InboxView(inbox_words_.data(), inbox_.data() + run.begin,
                     inbox_.data() + run.end, in_slots_->get(), slot_stride_,
                     neighbors(v).data(), offsets_[v], offsets_[v + 1],
                     &size_model_, config_.quantize_reals);
  }

  std::int64_t current_round() const { return round_; }

  // --- parallel execution ---
  /// Runs fn(v) for every node, partitioned across the worker pool when
  /// CongestConfig::threads > 1 (contiguous static chunks, so the
  /// assignment — and hence every per-node result — is independent of the
  /// actual thread count). fn(v) must only touch node v's state, v's
  /// inbox, v's RNG stream, and sends/arms originating at v.
  template <typename F>
  void for_nodes(F&& fn) {
    auto chunk = [&fn](std::size_t begin, std::size_t end) {
      for (std::size_t v = begin; v < end; ++v)
        fn(static_cast<NodeId>(v));
    };
    run_index_chunks(num_nodes(), chunk, "chunk:nodes");
  }

  /// Runs fn(v) for every *active* node: the nodes that received at least
  /// one message this round plus the nodes arm()ed during the previous
  /// round, deduplicated. Same locality contract as for_nodes; each active
  /// node is visited exactly once, on exactly one worker. The set's
  /// contents are a pure function of the algorithm (never of the pool
  /// width); only the interleaving across workers varies, which the
  /// locality contract makes unobservable. The pool splits the bitmap's
  /// words into contiguous chunks (the "chunk:active" span counts words),
  /// and each worker visits its nodes in ascending order. A stage that
  /// only reacts to rare announcements (JOIN, retire) reads them here:
  /// every receiver is in the set and every inbox outside it is empty, so
  /// the scan costs O(n/64 + announcers' degrees), not O(n) node visits;
  /// work that must visit every node (a bump, a sample, a broadcast)
  /// stays in a separate for_nodes.
  template <typename F>
  void for_active_nodes(F&& fn) {
    ensure_active_set();
    const std::uint64_t* words = active_bits_.data();
    auto chunk = [&fn, words](std::size_t begin, std::size_t end) {
      for_set_bits(words, begin, end, fn);
    };
    run_index_chunks(active_bits_.size(), chunk, "chunk:active");
  }

  /// Schedules v to be active next round even if no message arrives. May
  /// only be called from code running as node v (initialize's setup loop
  /// or a for_nodes/for_active_nodes body visiting v): an event-driven
  /// node keeps itself on the worklist by re-arming until it resolves.
  void arm(NodeId v) { arm_at(v, round_ + 1); }

  /// Generalized arm: wake v at a specific future round (> current).
  /// Backed by a per-worker timer wheel, so a node whose next action is at
  /// a locally computable future time (e.g. "when the global threshold
  /// halves below my degree") sleeps through the interim rounds at zero
  /// cost instead of re-arming every round. A message arriving earlier
  /// wakes it anyway; stale earlier wakes are safe (the node just
  /// re-checks and re-schedules). If the algorithm does not consult the
  /// active set in the target round (a for_nodes-only stage), the wake
  /// carries forward round by round and fires in the first round that
  /// does look — deferred, never dropped.
  void arm_at(NodeId v, std::int64_t round);

  /// This round's active set (receivers + previously armed), ascending.
  /// For tests and diagnostics.
  std::vector<NodeId> active_nodes();

  /// Worker-pool width this Network executes parallel loops with.
  int num_workers() const;

  /// Index of the worker slot the calling thread accounts to (0 when
  /// called outside a parallel section); < num_workers(). For per-worker
  /// reduction state such as WorkerCounter arrays.
  int worker_index() const { return static_cast<int>(worker_slot()); }

  // --- driving ---
  /// Runs until algo.finished() or max_rounds; returns statistics.
  /// Equivalent to reset_for_reuse() followed by one run_phase("main"):
  /// the run starts from the fresh-construction observable state however
  /// dirty the Network is, so a Network can be reused across runs with
  /// bit-identical results.
  RunStats run(DistributedAlgorithm& algo, std::int64_t max_rounds = 1'000'000);

  /// Restores the fresh-construction *observable* state — round 0, no
  /// records in flight, empty timer wheels/active set, zeroed statistics —
  /// while keeping every allocation alive: slot arenas, record lists,
  /// worker pool, per-worker scratch, RNG stream storage. The RNG streams
  /// are left as they are: every run reaches them through run_phase,
  /// which re-derives them. A run after reset_for_reuse is byte-identical
  /// to a run on a newly constructed Network over the same graph/config,
  /// minus the construction cost (tested).
  void reset_for_reuse();

  /// Runs one named phase of a composed protocol on this Network and
  /// appends its PhaseStats to stats().phases, accumulating into the
  /// run totals. Every phase starts from the fresh-construction
  /// observable state (round 0, no records or timers, RNG streams
  /// re-derived from the config seed) exactly as if it ran on its own
  /// Network — which is what the pre-phase drivers did — but reuses all
  /// storage. Cumulative statistics (stats()) are NOT reset; callers
  /// composing several phases call reset_for_reuse() once up front
  /// (run_protocol does).
  const PhaseStats& run_phase(DistributedAlgorithm& algo,
                              std::string_view phase_name,
                              std::int64_t max_rounds = 1'000'000);

  const RunStats& stats() const { return stats_; }

  /// Delivery storage in 64-bit words per half of the double buffer: one
  /// broadcast-slot arena plus half the capacity of the point-to-point
  /// path (the per-worker record lists on the send side, the inbox list
  /// on the receive side), so 16 * arena_words() bytes is all of it.
  /// Diagnostics/tests only; a fresh Network's value is exactly its slot
  /// arena (none when a fault plan is enabled).
  std::size_t arena_words() const;

  // --- observability ---
  /// The span recorder this Network records into, or nullptr when
  /// tracing is off (CongestConfig::trace.enabled). snapshot() between
  /// runs; reset_for_reuse clears it, so a post-run snapshot covers
  /// exactly the last run.
  obs::TraceRecorder* tracer() const { return tracer_.get(); }

  /// Accounts wall-clock spent in the reliable-transport receive /
  /// transmit passes into stats().timing (resilience::ReliablePhase
  /// calls this from its process_round).
  void account_retransmit_seconds(double s) {
    stats_.timing.retransmit_seconds += s;
  }

  /// Flight-recorder contents: the last min(flight_rounds, rounds run)
  /// per-round summaries of the current phase, oldest first. Empty when
  /// CongestConfig::trace.flight_rounds == 0.
  std::vector<obs::FlightRecord> flight_records() const;

  /// Human-readable dump of flight_records() (run_phase emits this on
  /// stderr automatically when a phase exhausts its round budget; the
  /// harness calls it when a solver throws CheckError).
  void dump_flight_recorder(std::ostream& os, std::string_view why) const;

 private:
  /// Reliable transport runs the wrapped algorithm on a standalone
  /// staging Network outside run_phase. ReliablePhase is the one class
  /// that reaches past the public API, and only for four private
  /// members (for_each_outgoing, discard_outgoing, advance_round,
  /// send_on_arc) plus the arc topology (offsets_, mirror_, resolve_arc):
  /// keeping them private keeps them out of every algorithm's reach.
  friend class resilience::ReliablePhase;

  /// Receiver-side arc index (a position in the CSR adjacency arrays).
  using EdgeSlot = std::uint32_t;

  struct WorkerStats {
    std::int64_t messages = 0;
    std::int64_t total_bits = 0;
    int max_message_bits = 0;
    // Fault tallies; nonzero only while a fault plan is enabled.
    std::int64_t dropped = 0;
    std::int64_t duplicated = 0;
    std::int64_t delayed = 0;
    std::int64_t killed = 0;
  };

  /// One point-to-point record on a worker's list: its receiver-side arc,
  /// the parallel section it was sent in, and where its words start.
  struct Record {
    EdgeSlot arc;
    std::uint32_t section;
    std::uint32_t offset;  // into RecordList::words
  };
  /// One worker's point-to-point sends of the current round, in send
  /// order; the flip sorts every list into the inbox and empties it.
  struct RecordList {
    std::vector<std::uint64_t> words;
    std::vector<Record> recs;
  };
  /// Bucket of a worker's timer wheel behind arm()/arm_at(): a
  /// power-of-two ring of round-tagged buckets. Bucket vectors are
  /// recycled as the ring wraps, so steady-state arming allocates nothing;
  /// a collision with a live future bucket doubles the ring (amortized,
  /// bounded by the largest delay an algorithm ever uses).
  struct CalendarBucket {
    std::int64_t round = -1;
    std::vector<NodeId> nodes;
  };
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
  /// Everything one pool slot writes while it runs a section, in one
  /// block: its statistics, the nodes whose slot it wrote (this round's
  /// `slots_out`, last round's `slots_in`; the flip swaps the two), its
  /// point-to-point record list, its encode scratch (broadcasts that do
  /// not fit their slot's free room, and every record under a fault
  /// plan), its timer wheel and its fault hold wheel (empty on a clean
  /// Network). The block is 64-byte aligned and so a whole number of
  /// cache lines: no two workers ever write the same line, not even the
  /// vector headers that every push_back bumps.
  struct alignas(64) Worker {
    WorkerStats stats;
    std::vector<NodeId> slots_out;
    std::vector<NodeId> slots_in;
    RecordList records;
    std::vector<std::uint64_t> scratch;
    std::vector<CalendarBucket> calendar;  // size is a power of two
    std::vector<HoldBucket> wheel;         // size is a power of two
  };
  static_assert(alignof(Worker) == 64,
                "each worker's block must own whole cache lines");
  /// A record's place in the flip's sort. The key (arc, section, worker,
  /// offset) is unique, and its order is the inbox order.
  struct Placed {
    EdgeSlot arc;
    std::uint32_t section;
    std::uint32_t worker;
    std::uint32_t offset;  // into workers_[worker].records.words
  };
  /// A receiver's records in inbox_: [begin, end).
  struct Run {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  // Per-round and per-phase internals of run(), run_phase() and
  // reset_for_reuse().
  void flip_buffers();
  void clear_in_flight();
  void reseed_node_rngs();
  void rebuild_active_set();
  /// Worker slot the calling thread accounts to: the executing worker's
  /// index inside a run_index_chunks section, 0 outside one.
  std::size_t worker_slot() const;
  /// The pool dispatch behind for_nodes/for_active_nodes: partitions
  /// [0, count) into contiguous static chunks (count * w / workers, one
  /// per worker, same assignment at every call), runs chunk_fn(begin,
  /// end) on each worker with its slot installed (worker_slot()/
  /// worker_index() resolve to the executing worker inside chunk_fn),
  /// and returns after all chunks complete. Serial (inline, slot 0) when
  /// the instance owns no pool. Not reentrant. `span_name` labels the
  /// per-worker trace spans (nullptr: record none). Each call is its own
  /// section (see section_).
  void run_index_chunks(std::size_t count,
                        FunctionRef<void(std::size_t, std::size_t)> chunk_fn,
                        const char* span_name);
  /// Calls fn(v) for every set bit v of the bitmap words [begin, end), in
  /// ascending order.
  template <typename F>
  static void for_set_bits(const std::uint64_t* words, std::size_t begin,
                           std::size_t end, F&& fn) {
    for (std::size_t i = begin; i < end; ++i)
      for (std::uint64_t bits = words[i]; bits != 0; bits &= bits - 1)
        fn(static_cast<NodeId>(64 * i + std::countr_zero(bits)));
  }
  /// Build the active set if the current round's flip marked it dirty.
  /// The single seam behind for_active_nodes/active_nodes — and
  /// deliberately NOT called by the flight recorder: forcing a rebuild
  /// drains due timer buckets the flip would otherwise carry forward,
  /// which changes behavior for for_nodes-only algorithms.
  void ensure_active_set() {
    if (active_dirty_) rebuild_active_set();
  }
  /// Appends one flight-recorder line for the round just processed (a
  /// plain ring store; called by run_phase after each round).
  void flight_note_round(const obs::FlightRecord& rec);
  /// Zeroes word 0 of the slots every worker lists in `list` (empty
  /// again) and empties those lists.
  void clear_slots(std::uint64_t* slots, std::vector<NodeId> Worker::*list);
  /// Empties every worker's record list (keeping its capacity).
  void clear_records();
  /// Forgets the current inbox (runs, receivers, records).
  void retire_inbox();
  /// The flip's point-to-point half: sorts every worker's record list
  /// into the inbox list and the per-receiver runs, then empties the lists.
  void sort_records_into_inbox();
  void arm_into(std::vector<CalendarBucket>& ring, NodeId v,
                std::int64_t round);
  /// Message widths + cap from the global instance (all constructors).
  void init_size_model();
  /// Views the graph's CSR offsets and builds the out-arc ->
  /// receiver-side arc mirror permutation and the arc -> receiver map;
  /// returns the arc count.
  std::size_t build_csr_topology();
  /// Arc index of edge (from, to) via binary search over from's sorted
  /// neighbors; throws on a non-edge.
  std::size_t resolve_arc(NodeId from, NodeId to) const;
  /// send() past the arc lookup: `arc` is the receiver-side arc of the
  /// edge from `from`. Reliable transport re-injects payloads through
  /// it, since it already holds that arc.
  void send_on_arc(NodeId from, EdgeSlot arc, const Message& m);
  /// Encodes m into wk.scratch (growing it as needed) and cap-checks
  /// before anything is deposited; returns the wire word count and the
  /// accounted bits through *bits. The single encode-side contract shared
  /// by an oversized broadcast and the fault injector.
  std::size_t encode_into_scratch(Worker& wk, const Message& m, NodeId sender,
                                  int* bits);
  void check_cap(int bits) const;
  static void account_bits(Worker& wk, int bits);
  /// Encodes m onto wk's record list for `arc`, cap-checking before the
  /// record is committed; returns the accounted bits.
  int append_encoded(Worker& wk, EdgeSlot arc, const Message& m,
                     NodeId sender);
  static void append_record(Worker& wk, EdgeSlot arc, std::uint32_t section,
                            const std::uint64_t* words, std::size_t nwords);
  /// Appends one wire record for every out-arc of `from`.
  void append_fanout(Worker& wk, NodeId from, const std::uint64_t* words,
                     std::size_t nwords);
  /// The suffix rule: moves the records in from's out-slot to the record
  /// list, one per out-arc, and empties the slot, so a later
  /// point-to-point record is not read before them.
  void flush_slot(Worker& wk, NodeId from);
  /// Words in use at the front of a slot: its records, up to the zero
  /// word or the slot's end.
  std::size_t slot_used(const std::uint64_t* slot) const {
    std::size_t at = 0;
    while (at < slot_stride_ && slot[at] != 0)
      at += wire::record_words(slot[at]);
    return at;
  }
  std::uint64_t* out_slot(NodeId v) {
    return out_slots_->get() + static_cast<std::size_t>(v) * slot_stride_;
  }
  const std::uint64_t* out_slot(NodeId v) const {
    return out_slots_->get() + static_cast<std::size_t>(v) * slot_stride_;
  }
  void reduce_stats();

  // --- staging access for resilience::ReliablePhase ---
  /// Calls fn(arc, record) for every record sent since the last flip, in
  /// per-arc send order: the record lists first (visited section by
  /// section — a node's records of one section sit on one worker's list
  /// in send order), then each broadcaster's out-slot records once per
  /// out-arc (a slot holds the suffix of its sender's records; each slot
  /// is read once, however often its sender is listed). `arc` is
  /// the receiver-side arc. Reads only; views die with the next discard.
  void for_each_outgoing(
      FunctionRef<void(EdgeSlot, const MessageView&)> fn) const;
  /// Forgets every record sent since the last flip (record lists and
  /// out-slots) without delivering it.
  void discard_outgoing();
  /// One round of a Network not driven by run_phase: flip, then advance
  /// the round counter. Statistics stay unreduced (nobody reads them).
  void advance_round() {
    flip_buffers();
    ++round_;
  }

  // --- fault injection (only while plan_.enabled()) ---
  /// Draws the fault decisions of one encoded record (in wk.scratch)
  /// sent by `from` on receiver-side arc `to_arc`; see fault_plan.hpp.
  void inject_record(Worker& wk, NodeId from, EdgeSlot to_arc,
                     std::size_t nwords, int bits);
  void hold(Worker& wk, std::int64_t arrival, const HeldRec& rec,
            const std::uint64_t* words, std::size_t nwords);
  /// Appends the held records due next round in their unique order, in a
  /// section of their own past every direct record of the round.
  void release_held();
  void clear_held();
  bool node_dead(NodeId v, std::int64_t at_round) const {
    return !kill_round_.empty() && kill_round_[v] <= at_round;
  }

  const WeightedGraph* wg_;
  CongestConfig config_;
  MessageSizeModel size_model_;
  int max_message_bits_ = 0;
  std::int64_t round_ = 0;

  // The graph's CSR arc offsets (offsets_[v]..offsets_[v+1] are v's
  // incident arcs in receiver order; a view, since wg_ outlives this
  // Network), the out-arc -> receiver-side arc mirror permutation, and
  // the arc -> receiver map the flip sorts records by.
  std::span<const std::size_t> offsets_;
  std::vector<EdgeSlot> mirror_;
  std::vector<NodeId> arc_receiver_;

  // Broadcast slots: node v owns the slot_stride_ words at v * slot_stride_
  // of both arenas (none when slot_stride_ == 0, as under a fault plan).
  // There is no length word: records start at word 0, and a zero word, or
  // the slot's end when the records fill it, ends them. The stride is a
  // power of two words with room for header + one kind word + a cap-sized
  // payload, and both arenas are 64-byte aligned, so a slot of up to 8
  // words never straddles a cache line.
  // Double-buffered: the in-slots hold this round's broadcasts, the
  // out-slots collect next round's. Past the terminating zero words the
  // storage is deliberately *uninitialized* (every wire record fully
  // initializes the words it claims, and a broadcast that leaves room
  // writes the zero word behind its record), so constructing a Network
  // never pays an O(n * stride) zero-fill.
  struct AlignedArenaDelete {
    void operator()(std::uint64_t* p) const noexcept {
      ::operator delete[](p, std::align_val_t{64});
    }
  };
  using SlotArena = std::unique_ptr<std::uint64_t[], AlignedArenaDelete>;
  std::size_t slot_stride_ = 0;
  std::size_t slot_words_ = 0;
  SlotArena slots_a_, slots_b_;
  SlotArena* in_slots_ = nullptr;
  SlotArena* out_slots_ = nullptr;
  // One block per pool slot; worker_slot() indexes it. Each worker lists
  // the nodes whose slot it wrote (Worker::slots_out), so a flip clears
  // one slot per broadcaster and the active-set builder finds their
  // neighbours. A sender whose slot was flushed and written again in one
  // round is listed once per write; clearing and marking are idempotent,
  // and for_each_outgoing de-duplicates.
  std::vector<Worker> workers_;

  // Point-to-point path. Senders append to their worker's record list;
  // the flip sorts the lists into inbox_ (records, receiver-major, each
  // receiver's run ordered by arc, section, send order) and inbox_words_
  // (their words, in the same order), indexed by runs_[receiver]. The
  // receivers with a non-empty run are listed in receivers_, so retiring
  // the inbox and building the active set cost O(records), not O(n).
  std::vector<Placed> placed_;  // the flip's sort scratch
  std::vector<InboxView::Entry> inbox_;
  std::vector<std::uint64_t> inbox_words_;
  std::vector<Run> runs_;
  std::vector<NodeId> receivers_;
  // Index of the current parallel section: run_index_chunks advances it
  // on entry and on exit, so sends before, inside, and after a dispatch
  // carry increasing values and a node's records keep their send order
  // even when consecutive sections run it on different workers.
  std::uint32_t section_ = 0;

  // Active set: nodes receiving messages this round + nodes whose timer
  // came due, one bit per node (bit v % 64 of word v / 64), so marking
  // deduplicates and a walk over the set bits yields ascending node order.
  // Built lazily on the first for_active_nodes/active_nodes call of a
  // round (the flip only marks it dirty), so algorithms that never use
  // the active-set API pay nothing for it. active_count_ is its size as
  // of the last rebuild.
  bool active_dirty_ = false;
  std::vector<std::uint64_t> active_bits_;
  std::size_t active_count_ = 0;

  // Scratch for the flip-time carry of undrained due buckets (the carried
  // nodes must survive a ring resize inside arm_into).
  std::vector<NodeId> carry_nodes_;

  std::unique_ptr<WorkerPool> pool_;
  std::vector<Rng> node_rngs_;
  RunStats stats_;
  // Widest message observed since the current phase opened (the totals'
  // max is not decomposable into per-phase deltas, so it is tracked
  // separately alongside the per-round reduction).
  int phase_max_message_bits_ = 0;

  // Span recorder (obs/trace.hpp), present when config.trace.enabled.
  // Null = tracing off.
  std::unique_ptr<obs::TraceRecorder> tracer_;

  // Flight recorder: overwrite ring of the last trace.flight_rounds
  // per-round summaries. Sized once per phase (run_phase), written with
  // plain ring stores per round — zero steady-state allocation.
  std::vector<obs::FlightRecord> flight_ring_;
  std::size_t flight_next_ = 0;
  std::size_t flight_count_ = 0;

  // Fault injection. faulty_ == plan_.enabled(); every other member below
  // is empty on a clean Network.
  fault::FaultPlan plan_;
  bool faulty_ = false;
  // Round each node dies at (INT64_MAX = never), from plan_.kills; empty
  // when the plan kills nobody.
  std::vector<std::int64_t> kill_round_;
  // Per-arc record index within the current round: seq_idx_[arc] counts
  // records arc has carried in round seq_round_[arc]. Each arc has a
  // single writer (its tail), so the counters are race-free; the pair
  // resets lazily per round and fully at phase boundaries.
  std::vector<std::int64_t> seq_round_;
  std::vector<std::uint32_t> seq_idx_;
  // Flip-time release scratch: the records due this arrival round.
  struct DrainRef {
    const HoldBucket* bucket;
    const HeldRec* rec;
  };
  std::vector<DrainRef> drain_;
};

}  // namespace arbods
