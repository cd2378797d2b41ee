#include "congest/network.hpp"

#include <algorithm>
#include <bit>
#include <iostream>
#include <limits>
#include <thread>
#include <tuple>
#include <utility>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace arbods {

namespace {

// Which worker slot the current thread accounts sends/statistics to.
// Worker threads set this for the duration of a run_index_chunks section;
// everywhere else it is 0, the calling thread's slot. Networks clamp the
// value to their own pool width (worker_slot below), so a Network driven
// from inside another Network's worker section — which inherits the outer
// worker's index — safely accounts to its own slot 0.
thread_local int tls_worker = 0;

// Pool width of a Network.
int derive_workers(const CongestConfig& config, NodeId n) {
  int workers = config.threads;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers < 1) workers = 1;
  }
  if (n > 0 && workers > static_cast<int>(n)) workers = static_cast<int>(n);
  if (n == 0) workers = 1;
  return workers;
}

}  // namespace

int congest_message_cap(const CongestConfig& config, NodeId n) {
  if (config.max_message_bits_override > 0)
    return config.max_message_bits_override;
  return std::max(64, 4 * ceil_log2(static_cast<std::uint64_t>(n) + 1));
}

std::size_t InboxView::size() const {
  std::size_t count = 0;
  for (const_iterator it = begin(); it != end(); ++it) ++count;
  return count;
}

Network::Network(const WeightedGraph& wg, CongestConfig config)
    : Network(wg, config,
              config.fault.enabled()
                  ? fault::make_fault_plan(wg.graph(), config.fault)
                  : fault::FaultPlan{}) {}

void Network::init_size_model() {
  const NodeId n = wg_->num_nodes();
  size_model_.id_bits = bit_width_for(n == 0 ? 1 : n - 1);
  size_model_.weight_bits = wg_->weight_bits();
  // Levels count (1+eps)-steps; 2 * log2(n * W) covers every algorithm here.
  size_model_.level_bits =
      std::min(31, 2 * (bit_width_for(n + 1) + size_model_.weight_bits));
  size_model_.real_bits = default_value_codec().bit_width();
  max_message_bits_ = congest_message_cap(config_, n);
  // Reliable-transport headroom: the adapter wraps every algorithm
  // record in a (tag, seq, ack, marker) frame, so the PHYSICAL cap grows
  // by exactly the frame's accounted width. The adapter's virtual
  // network is constructed with the flag off and enforces the original
  // cap on the algorithm, so the algorithm's observable world is
  // unchanged.
  if (config_.reliable_transport)
    max_message_bits_ += reliable_transport_header_bits(size_model_);
}

std::size_t Network::build_csr_topology() {
  const Graph& g = wg_->graph();
  const NodeId n = g.num_nodes();
  offsets_ = g.arc_offsets();
  const std::size_t arcs = offsets_[n];
  ARBODS_CHECK_MSG(arcs < std::numeric_limits<EdgeSlot>::max(),
                   "graph too large for 32-bit edge slots");
  mirror_.resize(arcs);
  arc_receiver_.resize(arcs);
  // O(arcs) mirror build, no binary searches: sweeping v in ascending
  // order enumerates the in-arcs of every u in ascending source order,
  // which is exactly the order of u's (sorted) arc slots — so a per-node
  // cursor yields each arc's receiver-side rank directly.
  std::vector<EdgeSlot> cursor(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const NodeId u = nb[i];
      mirror_[offsets_[v] + i] =
          static_cast<EdgeSlot>(offsets_[u] + cursor[u]++);
    }
    for (std::size_t l = offsets_[v]; l < offsets_[v + 1]; ++l)
      arc_receiver_[l] = v;
  }
  return arcs;
}

Network::Network(const WeightedGraph& wg, CongestConfig config,
                 fault::FaultPlan plan)
    : wg_(&wg), config_(config), plan_(std::move(plan)) {
  const NodeId n = wg.graph().num_nodes();
  fault::validate_fault_plan(wg.graph(), plan_);
  faulty_ = plan_.enabled();
  init_size_model();
  const std::size_t arcs = build_csr_topology();

  // Every node gets a broadcast slot with room for one cap-sized record
  // (header + one kind word + cap payload), rounded up to a power of two
  // words so that, in 64-byte aligned arenas, a slot of up to 8 words
  // sits in one cache line. Under a fault plan every record travels per
  // arc, so there are no slots.
  const std::size_t region_words = std::bit_ceil(
      2 + (static_cast<std::size_t>(max_message_bits_) + 63) / 64);
  // The small per-worker blocks are allocated before the two large slot
  // arenas. Allocated after them, they fragmented glibc's heap in a
  // process that builds and frees Networks in turn: peak RSS of the
  // forest2 benchmark workload (n = 50k) rose by ~1.5 MB, one arena.
  const int workers = derive_workers(config_, n);
  workers_.resize(static_cast<std::size_t>(workers));
  for (Worker& wk : workers_) {
    wk.scratch.reserve(std::max<std::size_t>(2 * region_words, 64));
    wk.calendar.resize(16);
  }
  if (!faulty_) {
    slot_stride_ = region_words;
    slot_words_ = static_cast<std::size_t>(n) * slot_stride_;
    const auto make_arena = [this] {
      return SlotArena(static_cast<std::uint64_t*>(::operator new[](
          slot_words_ * sizeof(std::uint64_t), std::align_val_t{64})));
    };
    slots_a_ = make_arena();
    slots_b_ = make_arena();
    for (std::size_t w = 0; w < slot_words_; w += slot_stride_)
      slots_a_[w] = slots_b_[w] = 0;
  }
  in_slots_ = &slots_a_;
  out_slots_ = &slots_b_;
  runs_.assign(n, Run{});

  if (workers > 1) pool_ = std::make_unique<WorkerPool>(workers);
  if (config_.trace.enabled)
    tracer_ = std::make_unique<obs::TraceRecorder>(workers, 1 << 14);

  active_bits_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);

  node_rngs_.assign(n, Rng(config_.seed));
  reseed_node_rngs();

  if (faulty_) {
    seq_round_.assign(arcs, -1);
    seq_idx_.assign(arcs, 0);
    if (!plan_.kills.empty()) {
      kill_round_.assign(n, std::numeric_limits<std::int64_t>::max());
      for (const fault::KillEvent& k : plan_.kills)
        kill_round_[k.node] = std::min(kill_round_[k.node], k.round);
    }
    // Ring size strictly exceeds the largest delay + the one-round
    // delivery offset, so live arrival rounds map to distinct buckets.
    const std::size_t ring = std::bit_ceil(
        static_cast<std::size_t>(std::max(plan_.max_delay_rounds, 0)) + 2);
    for (Worker& wk : workers_) wk.wheel.resize(ring);
  }
}

std::vector<NodeId> Network::killed_nodes() const {
  std::vector<NodeId> killed;
  for (NodeId v = 0; v < num_nodes(); ++v)
    if (!alive(v)) killed.push_back(v);
  return killed;
}

void Network::reseed_node_rngs() {
  // Stream v is a pure function of (seed, v), so the pool may derive the
  // streams at any width; the storage is kept. No trace span: this runs
  // between phases, outside every phase span.
  const Rng base(config_.seed);
  Rng* rngs = node_rngs_.data();
  run_index_chunks(
      node_rngs_.size(),
      [&base, rngs](std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) rngs[v] = base.split(v);
      },
      nullptr);
}

int Network::num_workers() const { return pool_ ? pool_->num_workers() : 1; }

void Network::check_cap(int bits) const {
  ARBODS_CHECK_MSG(bits <= max_message_bits_,
                   "CONGEST violation: message of " << bits << " bits > cap "
                                                    << max_message_bits_);
}

void Network::account_bits(Worker& wk, int bits) {
  WorkerStats& ws = wk.stats;
  ++ws.messages;
  ws.total_bits += bits;
  ws.max_message_bits = std::max(ws.max_message_bits, bits);
}

std::size_t Network::worker_slot() const {
  const std::size_t w = static_cast<std::size_t>(tls_worker);
  return w < workers_.size() ? w : 0;
}

std::size_t Network::encode_into_scratch(Worker& wk, const Message& m,
                                         NodeId sender, int* bits) {
  std::vector<std::uint64_t>& scratch = wk.scratch;
  const std::size_t bound = wire_words_bound(m);
  if (scratch.size() < bound) scratch.resize(bound);
  const std::size_t need = wire_encode(m, sender, size_model_,
                                       config_.quantize_reals, scratch.data(),
                                       bits);
  check_cap(*bits);
  return need;
}

int Network::append_encoded(Worker& wk, EdgeSlot arc, const Message& m,
                            NodeId sender) {
  // Encode straight onto the list. The record is only committed after
  // the cap check, so an oversized message throws with no side effects
  // (the words past the last committed record are never read).
  RecordList& list = wk.records;
  const std::size_t at = list.words.size();
  list.words.resize(at + wire_words_bound(m));
  int bits = 0;
  const std::size_t need =
      wire_encode(m, sender, size_model_, config_.quantize_reals,
                  list.words.data() + at, &bits);
  list.words.resize(at + need);
  check_cap(bits);
  list.recs.push_back({arc, section_, static_cast<std::uint32_t>(at)});
  return bits;
}

void Network::append_record(Worker& wk, EdgeSlot arc, std::uint32_t section,
                            const std::uint64_t* words, std::size_t nwords) {
  RecordList& list = wk.records;
  list.recs.push_back(
      {arc, section, static_cast<std::uint32_t>(list.words.size())});
  list.words.insert(list.words.end(), words, words + nwords);
}

std::size_t Network::resolve_arc(NodeId from, NodeId to) const {
  const auto nb = graph().neighbors(from);
  const auto it = std::lower_bound(nb.begin(), nb.end(), to);
  ARBODS_CHECK_MSG(it != nb.end() && *it == to,
                   "send along non-edge (" << from << "," << to << ")");
  return offsets_[from] + static_cast<std::size_t>(it - nb.begin());
}

void Network::send(NodeId from, NodeId to, const Message& m) {
  send_on_arc(from, mirror_[resolve_arc(from, to)], m);
}

void Network::send_on_arc(NodeId from, EdgeSlot arc, const Message& m) {
  Worker& wk = workers_[worker_slot()];
  if (faulty_) {
    int bits = 0;
    const std::size_t need = encode_into_scratch(wk, m, from, &bits);
    inject_record(wk, from, arc, need, bits);
    return;
  }
  if (out_slot(from)[0] != 0) flush_slot(wk, from);
  account_bits(wk, append_encoded(wk, arc, m, from));
}

void Network::broadcast(NodeId from, const Message& m) {
  const std::int64_t fanout =
      static_cast<std::int64_t>(offsets_[from + 1] - offsets_[from]);
  if (fanout == 0) return;
  Worker& wk = workers_[worker_slot()];
  if (faulty_) {
    // Encode (and cap-check) once; every fan-out record then draws its
    // own fault decisions, and the per-arc accounting sums to exactly the
    // clean broadcast's folded update.
    int bits = 0;
    const std::size_t need = encode_into_scratch(wk, m, from, &bits);
    for (std::size_t arc = offsets_[from]; arc != offsets_[from + 1]; ++arc)
      inject_record(wk, from, mirror_[arc], need, bits);
    return;
  }
  // Encode once into the sender's slot — the CONGEST accounting falls out
  // of the same pass — and fold the statistics for the whole fan-out into
  // one worker-slot update. An oversized broadcast still throws without
  // side effects: the encoder writes the record's header last, and a
  // failed cap check restores the zero word the header overwrote.
  std::uint64_t* slot = out_slot(from);
  const std::size_t at = slot_used(slot);
  int bits = 0;
  std::size_t need = 0;
  if (at + wire_words_bound(m) <= slot_stride_) {
    need = wire_encode(m, from, size_model_, config_.quantize_reals,
                       slot + at, &bits);
    if (bits > max_message_bits_) {
      slot[at] = 0;  // the terminator the header overwrote
      check_cap(bits);
    }
  } else {
    need = encode_into_scratch(wk, m, from, &bits);
    if (at + need <= slot_stride_)
      std::copy_n(wk.scratch.data(), need, slot + at);
  }
  if (at + need <= slot_stride_) {
    if (at + need < slot_stride_) slot[at + need] = 0;
    if (at == 0) wk.slots_out.push_back(from);
  } else {
    // Too big for the slot's free room: keep the suffix rule by moving
    // the slot's records to the record list first, then fan this one
    // out there too.
    flush_slot(wk, from);
    append_fanout(wk, from, wk.scratch.data(), need);
  }
  WorkerStats& ws = wk.stats;
  ws.messages += fanout;
  ws.total_bits += bits * fanout;
  ws.max_message_bits = std::max(ws.max_message_bits, bits);
}

void Network::append_fanout(Worker& wk, NodeId from,
                            const std::uint64_t* words, std::size_t nwords) {
  for (std::size_t arc = offsets_[from]; arc != offsets_[from + 1]; ++arc)
    append_record(wk, mirror_[arc], section_, words, nwords);
}

void Network::flush_slot(Worker& wk, NodeId from) {
  std::uint64_t* slot = out_slot(from);
  for (std::size_t at = 0; at < slot_stride_ && slot[at] != 0;) {
    const std::size_t len = wire::record_words(slot[at]);
    append_fanout(wk, from, slot + at, len);
    at += len;
  }
  // `from` stays on slots_out: clearing an empty slot is harmless and
  // its neighbours are record receivers now anyway.
  slot[0] = 0;
}

void Network::inject_record(Worker& wk, NodeId from, EdgeSlot to_arc,
                            std::size_t nwords, int bits) {
  using fault::detail::unit_real;
  WorkerStats& ws = wk.stats;
  if (node_dead(from, round_)) {
    // A crashed node sends nothing; the record never existed on the wire.
    ++ws.killed;
    return;
  }
  ++ws.messages;
  ws.total_bits += bits;
  ws.max_message_bits = std::max(ws.max_message_bits, bits);

  // Per-(arc, round) record index: together with the arc and round it
  // names this record uniquely, and the arc's tail is its only writer.
  if (seq_round_[to_arc] != round_) {
    seq_round_[to_arc] = round_;
    seq_idx_[to_arc] = 0;
  }
  const std::uint32_t seq = seq_idx_[to_arc]++;
  std::uint64_t h = fault::detail::fault_hash(plan_.seed, to_arc, round_, seq);
  auto draw = [&h]() {
    h = mix64(h + 0x9e3779b97f4a7c15ULL);
    return h;
  };

  const double p_drop =
      plan_.arc_drop.empty() ? plan_.drop_prob : plan_.arc_drop[to_arc];
  if (p_drop > 0.0 && unit_real(draw()) < p_drop) {
    ++ws.dropped;  // the sender still paid: messages/bits stay counted
    return;
  }
  const double p_dup = plan_.arc_duplicate.empty()
                           ? plan_.duplicate_prob
                           : plan_.arc_duplicate[to_arc];
  const bool duplicate = p_dup > 0.0 && unit_real(draw()) < p_dup;
  const NodeId receiver = arc_receiver_[to_arc];
  const std::uint64_t* words = wk.scratch.data();

  const int copies = duplicate ? 2 : 1;
  for (int c = 0; c < copies; ++c) {
    int d = 0;
    if (plan_.delay_prob > 0 && plan_.max_delay_rounds > 0 &&
        unit_real(draw()) < plan_.delay_prob)
      d = 1 + static_cast<int>(
                  draw() % static_cast<std::uint64_t>(plan_.max_delay_rounds));
    EdgeSlot dest = to_arc;
    if (plan_.reorder_prob > 0 && unit_real(draw()) < plan_.reorder_prob) {
      // Divert to a uniformly random in-arc of the SAME receiver: the true
      // sender id rides inside the record, so only the inbox position
      // (the sender-sorted arrival order) changes.
      const std::size_t deg = offsets_[receiver + 1] - offsets_[receiver];
      dest = static_cast<EdgeSlot>(offsets_[receiver] + draw() % deg);
    }
    const std::int64_t arrival = round_ + 1 + d;
    if (node_dead(receiver, arrival)) {
      ++ws.killed;  // arrives after the receiver crashed: suppressed
      continue;
    }
    if (c == 1) ++ws.duplicated;
    if (d > 0) ++ws.delayed;
    if (d == 0 && dest == to_arc) {
      // Undisturbed: straight onto this worker's record list, exactly the
      // clean point-to-point path.
      append_record(wk, to_arc, section_, words, nwords);
    } else {
      hold(wk, arrival,
           HeldRec{dest, 0, 0, to_arc, seq, round_,
                   static_cast<std::uint8_t>(c)},
           words, nwords);
    }
  }
}

void Network::hold(Worker& wk, std::int64_t arrival, const HeldRec& rec,
                   const std::uint64_t* words, std::size_t nwords) {
  HoldBucket& bucket =
      wk.wheel[static_cast<std::size_t>(arrival) & (wk.wheel.size() - 1)];
  if (bucket.round != arrival) {
    // Stale (released or phase-cleared) bucket: recycle. A live collision
    // is impossible — the ring is wider than the delay bound.
    ARBODS_DCHECK(bucket.round <= round_);
    bucket.round = arrival;
    bucket.words.clear();
    bucket.recs.clear();
  }
  const std::uint32_t b = static_cast<std::uint32_t>(bucket.words.size());
  bucket.words.insert(bucket.words.end(), words, words + nwords);
  HeldRec held = rec;
  held.begin = b;
  held.end = b + static_cast<std::uint32_t>(nwords);
  bucket.recs.push_back(held);
}

void Network::release_held() {
  // The sort key is unique per record, so the order — and the inbox after
  // the flip — is a pure function of the algorithm and the plan, whatever
  // worker held each record.
  const std::int64_t arrival = round_ + 1;
  drain_.clear();
  for (Worker& wk : workers_) {
    HoldBucket& bucket =
        wk.wheel[static_cast<std::size_t>(arrival) & (wk.wheel.size() - 1)];
    if (bucket.round != arrival) continue;
    for (const HeldRec& rec : bucket.recs) drain_.push_back({&bucket, &rec});
  }
  if (drain_.empty()) return;
  std::sort(drain_.begin(), drain_.end(),
            [](const DrainRef& a, const DrainRef& b) {
              return std::tie(a.rec->dest, a.rec->send_round, a.rec->arc,
                              a.rec->seq, a.rec->copy) <
                     std::tie(b.rec->dest, b.rec->send_round, b.rec->arc,
                              b.rec->seq, b.rec->copy);
            });
  ++section_;
  Worker& caller = workers_[worker_slot()];
  for (const DrainRef& ref : drain_)
    append_record(caller, ref.rec->dest, section_,
                  ref.bucket->words.data() + ref.rec->begin,
                  ref.rec->end - ref.rec->begin);
  drain_.clear();
  for (Worker& wk : workers_) {
    HoldBucket& bucket =
        wk.wheel[static_cast<std::size_t>(arrival) & (wk.wheel.size() - 1)];
    if (bucket.round != arrival) continue;
    bucket.round = -1;
    bucket.words.clear();
    bucket.recs.clear();
  }
}

void Network::clear_held() {
  for (Worker& wk : workers_) {
    for (HoldBucket& bucket : wk.wheel) {
      bucket.round = -1;
      bucket.words.clear();
      bucket.recs.clear();
    }
  }
  std::fill(seq_round_.begin(), seq_round_.end(), -1);
}

void Network::arm_at(NodeId v, std::int64_t round) {
  ARBODS_DCHECK(v < num_nodes());
  ARBODS_CHECK_MSG(round > round_,
                   "arm_at(" << v << ", " << round << ") is not in the future"
                             << " (current round " << round_ << ")");
  arm_into(workers_[worker_slot()].calendar, v, round);
}

void Network::arm_into(std::vector<CalendarBucket>& ring, NodeId v,
                       std::int64_t round) {
  for (;;) {
    CalendarBucket& bucket =
        ring[static_cast<std::size_t>(round) & (ring.size() - 1)];
    if (bucket.round == round) {
      bucket.nodes.push_back(v);
      return;
    }
    if (bucket.round <= round_) {  // empty or already drained: recycle
      bucket.round = round;
      bucket.nodes.clear();
      bucket.nodes.push_back(v);
      return;
    }
    // Collision with a different live round: double the ring and rehash
    // the live buckets (amortized; the ring settles at the largest delay).
    std::vector<CalendarBucket> bigger(ring.size() * 2);
    for (CalendarBucket& b : ring) {
      if (b.round <= round_) continue;
      bigger[static_cast<std::size_t>(b.round) & (bigger.size() - 1)] =
          std::move(b);
    }
    ring = std::move(bigger);
  }
}

void Network::flip_buffers() {
  // Held records due next round land behind this round's direct ones.
  if (faulty_) release_held();
  // The in-slots hold last round's (already consumed) broadcasts; clear
  // exactly the slots that were written, then promote the out-slots.
  clear_slots(in_slots_->get(), &Worker::slots_in);
  std::swap(in_slots_, out_slots_);
  for (Worker& wk : workers_) wk.slots_in.swap(wk.slots_out);
  sort_records_into_inbox();
  // A timer bucket due in the round that just ended survives to the flip
  // only if the algorithm never consulted the active set this round (a
  // for_nodes-only stage). Carry its arms into the next round instead of
  // dropping them when the slot is eventually recycled: an arm_at wake is
  // deferred until the first round the algorithm looks, never lost.
  for (Worker& wk : workers_) {
    std::vector<CalendarBucket>& ring = wk.calendar;
    CalendarBucket& due =
        ring[static_cast<std::size_t>(round_) & (ring.size() - 1)];
    if (due.round != round_ || due.nodes.empty()) continue;
    carry_nodes_.swap(due.nodes);  // arm_into may resize the ring
    due.round = -1;
    due.nodes.clear();
    for (const NodeId v : carry_nodes_) arm_into(ring, v, round_ + 1);
    carry_nodes_.clear();
  }
  // The active set is rebuilt lazily on first use within the round;
  // algorithms that never touch the active-set API pay nothing here.
  active_dirty_ = true;
}

void Network::clear_slots(std::uint64_t* slots,
                          std::vector<NodeId> Worker::*list) {
  for (Worker& wk : workers_) {
    for (const NodeId v : wk.*list)
      slots[static_cast<std::size_t>(v) * slot_stride_] = 0;
    (wk.*list).clear();
  }
}

void Network::retire_inbox() {
  for (const NodeId v : receivers_) runs_[v] = Run{};
  receivers_.clear();
  inbox_.clear();
  inbox_words_.clear();
}

void Network::sort_records_into_inbox() {
  retire_inbox();
  // Count each receiver's records (runs_[v].end doubles as the counter),
  // listing the receivers on their first record.
  std::size_t total_words = 0;
  for (const Worker& wk : workers_) {
    const RecordList& list = wk.records;
    total_words += list.words.size();
    for (const Record& r : list.recs) {
      const NodeId v = arc_receiver_[r.arc];
      if (runs_[v].end++ == 0) receivers_.push_back(v);
    }
  }
  if (receivers_.empty()) return;
  // Lay the runs out back to back (in discovery order: inbox(v) only ever
  // reads its own run), then place each worker's records in list order.
  std::uint32_t total = 0;
  for (const NodeId v : receivers_) {
    const std::uint32_t count = runs_[v].end;
    runs_[v] = Run{total, total};
    total += count;
  }
  placed_.resize(total);
  for (std::size_t w = 0; w < workers_.size(); ++w)
    for (const Record& r : workers_[w].records.recs)
      placed_[runs_[arc_receiver_[r.arc]].end++] = {
          r.arc, r.section, static_cast<std::uint32_t>(w), r.offset};
  // Order each run by (arc, section, send order). A node's records of one
  // section all sit on one worker's list, so ties on (arc, section) are
  // broken by list position; the key is unique, so the order is too.
  for (const NodeId v : receivers_) {
    const Run run = runs_[v];
    if (run.end - run.begin > 1)
      std::sort(placed_.begin() + run.begin, placed_.begin() + run.end,
                [](const Placed& a, const Placed& b) {
                  return std::tie(a.arc, a.section, a.worker, a.offset) <
                         std::tie(b.arc, b.section, b.worker, b.offset);
                });
  }
  // Copy the words in that order, so a run is one sequential read.
  inbox_.resize(total);
  inbox_words_.reserve(total_words);
  for (std::uint32_t i = 0; i < total; ++i) {
    const Placed& p = placed_[i];
    const std::uint64_t* words =
        workers_[p.worker].records.words.data() + p.offset;
    const std::size_t len =
        MessageView(words, &size_model_, config_.quantize_reals).words();
    inbox_[i] = {p.arc, static_cast<std::uint32_t>(inbox_words_.size())};
    inbox_words_.insert(inbox_words_.end(), words, words + len);
  }
  clear_records();
}

void Network::rebuild_active_set() {
  const std::int64_t span_t0 = tracer_ != nullptr ? obs::monotonic_ns() : 0;
  active_dirty_ = false;
  std::fill(active_bits_.begin(), active_bits_.end(), 0);
  std::uint64_t* bits = active_bits_.data();
  auto mark = [bits](NodeId v) {
    bits[v / 64] |= std::uint64_t{1} << (v % 64);
  };
  for (const NodeId v : receivers_) mark(v);
  // A broadcaster's slot reaches every neighbour (a flushed, now empty
  // slot reached them through the record list above).
  const std::uint64_t* in_slots = in_slots_->get();
  for (const Worker& wk : workers_) {
    for (const NodeId u : wk.slots_in) {
      if (in_slots[static_cast<std::size_t>(u) * slot_stride_] == 0)
        continue;
      for (const NodeId v : graph().neighbors(u)) mark(v);
    }
  }
  // Drain every worker's timer bucket that is due for the current round
  // (the lazy rebuild runs from inside the round, after the advance).
  const std::int64_t due = round_;
  for (Worker& wk : workers_) {
    CalendarBucket& bucket =
        wk.calendar[static_cast<std::size_t>(due) & (wk.calendar.size() - 1)];
    if (bucket.round != due) continue;
    for (const NodeId v : bucket.nodes) mark(v);
    bucket.round = -1;
    bucket.nodes.clear();
  }
  active_count_ = 0;
  for (const std::uint64_t word : active_bits_)
    active_count_ += static_cast<std::size_t>(std::popcount(word));
  if (tracer_ != nullptr)
    tracer_->record(0, "active:rebuild", span_t0, obs::monotonic_ns(),
                    static_cast<std::int64_t>(active_count_));
}

std::vector<NodeId> Network::active_nodes() {
  ensure_active_set();
  std::vector<NodeId> nodes;
  nodes.reserve(active_count_);
  for_set_bits(active_bits_.data(), 0, active_bits_.size(),
               [&nodes](NodeId v) { nodes.push_back(v); });
  return nodes;
}

void Network::clear_in_flight() {
  clear_slots(in_slots_->get(), &Worker::slots_in);
  clear_slots(out_slots_->get(), &Worker::slots_out);
  retire_inbox();
  clear_records();
  for (Worker& wk : workers_) {
    for (CalendarBucket& bucket : wk.calendar) {
      bucket.round = -1;
      bucket.nodes.clear();
    }
  }
  std::fill(active_bits_.begin(), active_bits_.end(), 0);
  active_count_ = 0;
  active_dirty_ = false;
  // Undelivered held records die with the phase too (statistics counted
  // them at send time, exactly as for undelivered direct records).
  clear_held();
}

void Network::discard_outgoing() {
  clear_slots(out_slots_->get(), &Worker::slots_out);
  clear_records();
}

void Network::clear_records() {
  for (Worker& wk : workers_) {
    wk.records.words.clear();
    wk.records.recs.clear();
  }
}

void Network::for_each_outgoing(
    FunctionRef<void(EdgeSlot, const MessageView&)> fn) const {
  // Every list is in nondecreasing section order, so taking the smallest
  // pending section across the lists, list by list, visits each arc's
  // records in send order.
  std::vector<std::size_t> next(workers_.size(), 0);
  for (;;) {
    std::uint32_t section = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const std::vector<Record>& recs = workers_[w].records.recs;
      if (next[w] < recs.size())
        section = std::min(section, recs[next[w]].section);
    }
    if (section == std::numeric_limits<std::uint32_t>::max()) break;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const RecordList& list = workers_[w].records;
      for (; next[w] < list.recs.size() && list.recs[next[w]].section == section;
           ++next[w]) {
        const Record& r = list.recs[next[w]];
        fn(r.arc, MessageView(list.words.data() + r.offset, &size_model_,
                              config_.quantize_reals));
      }
    }
  }
  // A slot flushed and written again within the round lists its sender
  // once per write, possibly on different workers' lists: visit each
  // slot once.
  std::vector<NodeId> senders;
  for (const Worker& wk : workers_)
    senders.insert(senders.end(), wk.slots_out.begin(), wk.slots_out.end());
  std::sort(senders.begin(), senders.end());
  senders.erase(std::unique(senders.begin(), senders.end()), senders.end());
  for (const NodeId u : senders) {
    const std::uint64_t* slot = out_slot(u);
    for (std::size_t at = 0; at < slot_stride_ && slot[at] != 0;) {
      const MessageView mv(slot + at, &size_model_, config_.quantize_reals);
      for (std::size_t arc = offsets_[u]; arc != offsets_[u + 1]; ++arc)
        fn(mirror_[arc], mv);
      at += mv.words();
    }
  }
}

void Network::reduce_stats() {
  for (Worker& wk : workers_) {
    WorkerStats& slot = wk.stats;
    stats_.messages += slot.messages;
    stats_.total_bits += slot.total_bits;
    stats_.max_message_bits =
        std::max(stats_.max_message_bits, slot.max_message_bits);
    phase_max_message_bits_ =
        std::max(phase_max_message_bits_, slot.max_message_bits);
    stats_.dropped += slot.dropped;
    stats_.duplicated += slot.duplicated;
    stats_.delayed += slot.delayed;
    stats_.killed += slot.killed;
    slot = WorkerStats{};
  }
  // int64 gives headroom of ~9e18 bits; a wrap would show up as a sign
  // flip, which we refuse to silently report.
  ARBODS_CHECK_MSG(stats_.messages >= 0 && stats_.total_bits >= 0,
                   "RunStats counter overflow");
}

void Network::run_index_chunks(
    std::size_t count, FunctionRef<void(std::size_t, std::size_t)> chunk_fn,
    const char* span_name) {
  ++section_;
  obs::TraceRecorder* tracer = span_name != nullptr ? tracer_.get() : nullptr;
  if (!pool_) {
    obs::ScopedSpan span(tracer, 0, span_name,
                         static_cast<std::int64_t>(count));
    chunk_fn(0, count);
    ++section_;
    return;
  }
  const std::size_t workers = static_cast<std::size_t>(pool_->num_workers());
  auto worker_fn = [&](int w) {
    tls_worker = w;
    const std::size_t begin = count * static_cast<std::size_t>(w) / workers;
    const std::size_t end =
        count * (static_cast<std::size_t>(w) + 1) / workers;
    {
      obs::ScopedSpan span(tracer, static_cast<std::size_t>(w), span_name,
                           static_cast<std::int64_t>(end - begin));
      chunk_fn(begin, end);
    }
    tls_worker = 0;
  };
  pool_->run(worker_fn);
  ++section_;
}

void Network::reset_for_reuse() {
  stats_ = RunStats{};
  for (Worker& wk : workers_) wk.stats = WorkerStats{};
  round_ = 0;
  phase_max_message_bits_ = 0;
  // Drop the previous run's spans and flight records, so a post-run
  // snapshot covers exactly the next run.
  if (tracer_ != nullptr) tracer_->clear();
  flight_next_ = 0;
  flight_count_ = 0;
  clear_in_flight();
}

const PhaseStats& Network::run_phase(DistributedAlgorithm& algo,
                                     std::string_view phase_name,
                                     std::int64_t max_rounds) {
  // Phase-local reset: a phase begins exactly where a freshly constructed
  // Network would (round 0, no pending messages or timers, fresh RNG
  // streams), so decomposing a driver that ran one Network per phase into
  // run_phase calls on one reused Network is bit-identical. Undelivered
  // messages from the previous phase are dropped, matching the old
  // drivers' per-phase Networks; statistics counted them at send time.
  round_ = 0;
  section_ = 0;
  // Discard per-worker stat deltas that a mid-round exception left
  // unreduced (e.g. a solver CheckError before a `<solver>+repair` retry):
  // which nodes ran before the throw depends on worker scheduling, so
  // folding the partial round in would make this phase's counters vary
  // with the pool width. Every completed round was already reduced; only
  // the aborted round's partial accounting is dropped. A no-op after a
  // phase that finished normally.
  for (Worker& wk : workers_) wk.stats = WorkerStats{};
  clear_in_flight();
  reseed_node_rngs();
  const std::int64_t messages_before = stats_.messages;
  const std::int64_t bits_before = stats_.total_bits;
  const std::int64_t dropped_before = stats_.dropped;
  const std::int64_t duplicated_before = stats_.duplicated;
  const std::int64_t delayed_before = stats_.delayed;
  const std::int64_t killed_before = stats_.killed;
  phase_max_message_bits_ = 0;
  std::int64_t phase_rounds = 0;
  bool hit_limit = false;
  // The config's hard cap composes with the caller's budget (smaller wins)
  // so a fault-starved solver terminates via hit_round_limit.
  if (config_.round_limit > 0)
    max_rounds = std::min(max_rounds, config_.round_limit);

  const obs::TimingStats timing_before = stats_.timing;
  // Flight recorder: (re)size the ring once per phase — the per-round
  // writes below are plain ring stores, preserving the zero-allocation
  // guarantee of a steady-state round.
  const std::size_t flight_cap =
      static_cast<std::size_t>(std::max(config_.trace.flight_rounds, 0));
  if (flight_ring_.size() != flight_cap) flight_ring_.assign(flight_cap, {});
  flight_next_ = 0;
  flight_count_ = 0;
  // Interned once per phase (alloc-safe: before the round loop), so the
  // per-round spans can store a stable const char*.
  const char* phase_span = nullptr;
  if (tracer_ != nullptr) {
    std::string label = "phase:";
    label += phase_name;
    phase_span = tracer_->intern(label);
  }
  const std::int64_t phase_t0 = obs::monotonic_ns();

  {
    const std::int64_t t0 = phase_t0;
    algo.initialize(*this);
    const std::int64_t t1 = obs::monotonic_ns();
    stats_.timing.compute_seconds += static_cast<double>(t1 - t0) * 1e-9;
    if (tracer_ != nullptr) tracer_->record(0, "initialize", t0, t1);
  }
  reduce_stats();
  while (!algo.finished(*this)) {
    if (phase_rounds >= max_rounds) {
      hit_limit = true;
      stats_.hit_round_limit = true;
      break;
    }
    {
      const std::int64_t t0 = obs::monotonic_ns();
      flip_buffers();
      const std::int64_t t1 = obs::monotonic_ns();
      stats_.timing.flip_seconds += static_cast<double>(t1 - t0) * 1e-9;
      if (tracer_ != nullptr) tracer_->record(0, "flip", t0, t1);
    }
    ++round_;
    ++stats_.rounds;
    ++phase_rounds;
    obs::FlightRecord before;
    if (flight_cap > 0) {
      before.delivered = stats_.messages;
      before.bits = stats_.total_bits;
      before.dropped = stats_.dropped;
      before.duplicated = stats_.duplicated;
      before.delayed = stats_.delayed;
      before.killed = stats_.killed;
    }
    {
      const std::int64_t t0 = obs::monotonic_ns();
      algo.process_round(*this);
      const std::int64_t t1 = obs::monotonic_ns();
      stats_.timing.compute_seconds += static_cast<double>(t1 - t0) * 1e-9;
      if (tracer_ != nullptr) tracer_->record(0, "round", t0, t1, round_);
    }
    reduce_stats();
    if (flight_cap > 0) {
      obs::FlightRecord rec;
      rec.round = round_;
      // Never force a rebuild here: it would drain due timer buckets the
      // next flip should carry forward (behavior change). -1 = the
      // algorithm did not consult the active set this round.
      rec.active = active_dirty_ ? -1
                                 : static_cast<std::int64_t>(active_count_);
      rec.delivered = stats_.messages - before.delivered;
      rec.bits = stats_.total_bits - before.bits;
      rec.dropped = stats_.dropped - before.dropped;
      rec.duplicated = stats_.duplicated - before.duplicated;
      rec.delayed = stats_.delayed - before.delayed;
      rec.killed = stats_.killed - before.killed;
      flight_note_round(rec);
    }
  }
  if (tracer_ != nullptr)
    tracer_->record(0, phase_span, phase_t0, obs::monotonic_ns());
  if (hit_limit && flight_count_ > 0) {
    std::string why = "phase '";
    why += phase_name;
    why += "' hit its round limit";
    dump_flight_recorder(std::cerr, why);
  }

  PhaseStats ps;
  ps.name.assign(phase_name);
  ps.rounds = phase_rounds;
  ps.messages = stats_.messages - messages_before;
  ps.total_bits = stats_.total_bits - bits_before;
  ps.max_message_bits = phase_max_message_bits_;
  ps.hit_round_limit = hit_limit;
  ps.dropped = stats_.dropped - dropped_before;
  ps.duplicated = stats_.duplicated - duplicated_before;
  ps.delayed = stats_.delayed - delayed_before;
  ps.killed = stats_.killed - killed_before;
  ps.timing = stats_.timing - timing_before;
  stats_.phases.push_back(std::move(ps));
  return stats_.phases.back();
}

std::size_t Network::arena_words() const {
  std::size_t record_bytes =
      inbox_words_.capacity() * sizeof(std::uint64_t) +
      inbox_.capacity() * sizeof(InboxView::Entry) +
      placed_.capacity() * sizeof(Placed);
  for (const Worker& wk : workers_)
    record_bytes += wk.records.words.capacity() * sizeof(std::uint64_t) +
                    wk.records.recs.capacity() * sizeof(Record);
  return slot_words_ + record_bytes / (2 * sizeof(std::uint64_t));
}

void Network::flight_note_round(const obs::FlightRecord& rec) {
  if (flight_ring_.empty()) return;
  flight_ring_[flight_next_] = rec;
  flight_next_ = (flight_next_ + 1) % flight_ring_.size();
  if (flight_count_ < flight_ring_.size()) ++flight_count_;
}

std::vector<obs::FlightRecord> Network::flight_records() const {
  std::vector<obs::FlightRecord> out;
  if (flight_count_ == 0) return out;
  out.reserve(flight_count_);
  const std::size_t cap = flight_ring_.size();
  const std::size_t start = (flight_next_ + cap - flight_count_) % cap;
  for (std::size_t i = 0; i < flight_count_; ++i)
    out.push_back(flight_ring_[(start + i) % cap]);
  return out;
}

void Network::dump_flight_recorder(std::ostream& os,
                                   std::string_view why) const {
  obs::dump_flight_records(os, why, flight_records());
}

RunStats Network::run(DistributedAlgorithm& algo, std::int64_t max_rounds) {
  reset_for_reuse();
  run_phase(algo, "main", max_rounds);
  return stats_;
}

}  // namespace arbods
