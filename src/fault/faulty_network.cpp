#include "fault/faulty_network.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <tuple>

#include "common/check.hpp"
#include "common/shrink.hpp"

namespace arbods::fault {

using arbods::detail::maybe_shrink;
using detail::fault_hash;
using detail::unit_real;

FaultyNetwork::FaultyNetwork(const WeightedGraph& wg, CongestConfig config)
    : Network(wg, config, DecoratorInit{}),
      plan_(make_fault_plan(wg.graph(), config.fault)) {
  init_from_plan(wg, config);
}

FaultyNetwork::FaultyNetwork(const WeightedGraph& wg, CongestConfig config,
                             FaultPlan plan)
    : Network(wg, config, DecoratorInit{}), plan_(std::move(plan)) {
  init_from_plan(wg, config);
}

FaultyNetwork::~FaultyNetwork() = default;

void FaultyNetwork::init_from_plan(const WeightedGraph& wg,
                                   const CongestConfig& config) {
  validate_fault_plan(wg.graph(), plan_);
  const NodeId n = wg.graph().num_nodes();
  const std::size_t arcs = mirror_.size();
  seq_round_.assign(arcs, -1);
  seq_idx_.assign(arcs, 0);
  kill_round_.assign(n, std::numeric_limits<std::int64_t>::max());
  for (const KillEvent& k : plan_.kills) {
    kill_round_[k.node] = std::min(kill_round_[k.node], k.round);
    any_kills_ = true;
  }
  // Ring size strictly exceeds the largest delay + the one-round delivery
  // offset, so live arrival rounds map to distinct buckets.
  const std::size_t ring = std::bit_ceil(
      static_cast<std::size_t>(std::max(plan_.max_delay_rounds, 0)) + 2);
  wheels_.resize(worker_stats_.size());
  for (HoldWheel& wheel : wheels_) wheel.ring.resize(ring);

  // The inner delivery engine: a plain Network in inner mode — it owns
  // the record lists, inbox, RNG streams, timers, and active-set state for
  // every node, sizes its per-worker lists for the decorator's pool (whose
  // threads execute the deposits), and owns no pool of its own.
  CongestConfig inner_cfg = config;
  inner_cfg.fault = FaultSpec{};  // the decorator owns the faults
  // One recorder per decorator stack: the decorator (DecoratorInit above)
  // owns it; the inner engine records into the same rings through the
  // shared sink installed below.
  inner_cfg.trace.enabled = false;
  inner_.reset(new Network(
      wg, inner_cfg, InnerInit{static_cast<int>(worker_stats_.size())}));
  inner_->tracer_ = tracer_;
  engine_ = inner_.get();
}

std::vector<NodeId> FaultyNetwork::killed_nodes() const {
  std::vector<NodeId> killed;
  for (NodeId v = 0; v < static_cast<NodeId>(kill_round_.size()); ++v)
    if (!alive(v)) killed.push_back(v);
  return killed;
}

void FaultyNetwork::send(NodeId from, NodeId to, const Message& m) {
  const std::size_t arc = resolve_arc(from, to);
  const std::size_t w = worker_slot();
  int bits = 0;
  const std::size_t need = encode_into_scratch(w, m, from, &bits);
  inject_record(w, from, mirror_[arc], need, bits);
}

void FaultyNetwork::broadcast(NodeId from, const Message& m) {
  const auto nb = graph().neighbors(from);
  if (nb.empty()) return;
  // Encode (and cap-check) once; every fan-out record then draws its own
  // fault decisions — per-arc accounting sums to exactly the clean
  // broadcast's folded slot update.
  const std::size_t w = worker_slot();
  int bits = 0;
  const std::size_t need = encode_into_scratch(w, m, from, &bits);
  const std::size_t begin = offsets_[from];
  for (std::size_t i = 0; i < nb.size(); ++i)
    inject_record(w, from, mirror_[begin + i], need, bits);
}

void FaultyNetwork::inject_record(std::size_t w, NodeId from,
                                  std::uint32_t to_arc, std::size_t nwords,
                                  int bits) {
  WorkerStats& ws = worker_stats_[w];
  if (any_kills_ && node_dead(from, round_)) {
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
  std::uint64_t h = fault_hash(plan_.seed, to_arc, round_, seq);
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
  const std::uint64_t* words = scratch_[w].data();

  const int copies = duplicate ? 2 : 1;
  for (int c = 0; c < copies; ++c) {
    int d = 0;
    if (plan_.delay_prob > 0 && plan_.max_delay_rounds > 0 &&
        unit_real(draw()) < plan_.delay_prob)
      d = 1 + static_cast<int>(
                  draw() % static_cast<std::uint64_t>(plan_.max_delay_rounds));
    std::uint32_t dest = to_arc;
    if (plan_.reorder_prob > 0 && unit_real(draw()) < plan_.reorder_prob) {
      // Divert to a uniformly random in-arc of the SAME receiver: the true
      // sender id rides inside the record, so only the inbox position
      // (the sender-sorted arrival order) changes.
      const std::size_t deg = offsets_[receiver + 1] - offsets_[receiver];
      dest = static_cast<std::uint32_t>(offsets_[receiver] + draw() % deg);
    }
    const std::int64_t arrival = round_ + 1 + d;
    if (any_kills_ && node_dead(receiver, arrival)) {
      ++ws.killed;  // arrives after the receiver crashed: suppressed
      continue;
    }
    if (c == 1) ++ws.duplicated;
    if (d > 0) ++ws.delayed;
    if (d == 0 && dest == to_arc) {
      // Undisturbed: straight onto the inner engine's record list from
      // this worker, exactly the clean delivery path (bit-identical for a
      // zero plan).
      inner_->deposit_wire(to_arc, words, nwords, section_);
    } else {
      hold(w, arrival,
           HeldRec{dest, 0, 0, to_arc, seq, round_,
                   static_cast<std::uint8_t>(c)},
           words, nwords);
    }
  }
}

void FaultyNetwork::hold(std::size_t w, std::int64_t arrival,
                         const HeldRec& rec, const std::uint64_t* words,
                         std::size_t nwords) {
  HoldWheel& wheel = wheels_[w];
  HoldBucket& bucket =
      wheel.ring[static_cast<std::size_t>(arrival) & (wheel.ring.size() - 1)];
  if (bucket.round != arrival) {
    // Stale (drained or phase-cleared) bucket: recycle. A live collision
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

void FaultyNetwork::flip_buffers() {
  // Append every held record due next round, in a canonical order that no
  // per-worker bucketing can perturb: the sort key is unique per record,
  // so the inbox after the flip is a pure function of the algorithm +
  // plan. A section index of their own puts the held records behind this
  // round's direct records on every arc.
  const std::int64_t arrival = round_ + 1;
  drain_.clear();
  for (HoldWheel& wheel : wheels_) {
    HoldBucket& bucket = wheel.ring[static_cast<std::size_t>(arrival) &
                                    (wheel.ring.size() - 1)];
    if (bucket.round != arrival) continue;
    for (const HeldRec& rec : bucket.recs) drain_.push_back({&bucket, &rec});
  }
  if (!drain_.empty()) {
    std::sort(drain_.begin(), drain_.end(),
              [](const DrainRef& a, const DrainRef& b) {
                return std::tie(a.rec->dest, a.rec->send_round, a.rec->arc,
                                a.rec->seq, a.rec->copy) <
                       std::tie(b.rec->dest, b.rec->send_round, b.rec->arc,
                                b.rec->seq, b.rec->copy);
              });
    ++section_;
    for (const DrainRef& ref : drain_)
      inner_->deposit_wire(ref.rec->dest,
                           ref.bucket->words.data() + ref.rec->begin,
                           ref.rec->end - ref.rec->begin, section_);
    drain_.clear();
    for (HoldWheel& wheel : wheels_) {
      HoldBucket& bucket = wheel.ring[static_cast<std::size_t>(arrival) &
                                      (wheel.ring.size() - 1)];
      if (bucket.round != arrival) continue;
      wheel.words_highwater =
          std::max(wheel.words_highwater, bucket.words.size());
      wheel.recs_highwater = std::max(wheel.recs_highwater, bucket.recs.size());
      bucket.round = -1;
      bucket.words.clear();
      bucket.recs.clear();
    }
  }
  inner_->flip_buffers();
  inner_->round_ = round_ + 1;  // lockstep: the caller advances ours next
  active_dirty_ = true;
}

void FaultyNetwork::clear_in_flight() {
  // Phase/reuse boundary: drop everything in flight (undelivered held
  // records included — statistics counted them at send time, exactly as
  // the clean simulator drops undelivered records).
  inner_->round_ = round_;
  inner_->clear_in_flight();
  for (HoldWheel& wheel : wheels_) {
    for (HoldBucket& bucket : wheel.ring) {
      wheel.words_highwater =
          std::max(wheel.words_highwater, bucket.words.size());
      wheel.recs_highwater = std::max(wheel.recs_highwater, bucket.recs.size());
      bucket.round = -1;
      bucket.words.clear();
      bucket.recs.clear();
    }
  }
  std::fill(seq_round_.begin(), seq_round_.end(), -1);
  active_list_.clear();
  active_dirty_ = false;
}

void FaultyNetwork::reseed_node_rngs() {
  if (rng_streams_fresh_) return;
  inner_->rng_streams_fresh_ = false;  // the decorator tracks freshness
  inner_->reseed_node_rngs();
  rng_streams_fresh_ = true;
}

void FaultyNetwork::rebuild_active_set() {
  active_dirty_ = false;
  if (inner_->active_dirty_) inner_->rebuild_active_set();
  active_list_ = inner_->active_list_;
  active_highwater_ = std::max(active_highwater_, active_list_.size());
}

void FaultyNetwork::shrink_scratch() {
  inner_->shrink_scratch();
  for (HoldWheel& wheel : wheels_) {
    for (HoldBucket& bucket : wheel.ring) {
      maybe_shrink(bucket.words, wheel.words_highwater);
      maybe_shrink(bucket.recs, wheel.recs_highwater);
    }
    wheel.words_highwater = 0;
    wheel.recs_highwater = 0;
  }
  maybe_shrink(drain_, 0);
  maybe_shrink(active_list_, active_highwater_);
}

void FaultyNetwork::reset_for_reuse() {
  inner_->reset_for_reuse();
  // inner_ restored its image-fresh RNG streams; record that so the
  // base-class reset (whose virtual reseed call lands on our override)
  // does not pay a second restore.
  rng_streams_fresh_ = true;
  Network::reset_for_reuse();
}

std::unique_ptr<Network> make_network(const WeightedGraph& wg,
                                      const CongestConfig& config) {
  if (!config.fault.enabled()) return std::make_unique<Network>(wg, config);
  return std::make_unique<FaultyNetwork>(wg, config);
}

}  // namespace arbods::fault
