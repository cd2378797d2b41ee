#include "resilience/reliable_channel.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/random.hpp"
#include "fault/fault_spec.hpp"

namespace arbods::resilience {

std::int64_t retransmit_gap(std::uint32_t arc, std::uint32_t seq,
                            std::uint8_t attempt) {
  // 2 rounds of RTT guard (send + ack each take one physical round), then
  // bounded exponential growth with deterministic jitter so retransmit
  // storms of co-created units spread out without any RNG state.
  const int a = attempt < 5 ? attempt : 5;
  const std::int64_t base = std::int64_t{1} << a;
  const std::uint64_t h =
      mix64((static_cast<std::uint64_t>(arc) << 32) ^
            (static_cast<std::uint64_t>(seq) << 8) ^ attempt);
  return 2 + base + static_cast<std::int64_t>(
                        h % static_cast<std::uint64_t>(base));
}

namespace {

/// The config the wrapped algorithm's world is built from: the outer
/// config with the adversary and the transport stripped (the staging
/// engine is clean by construction, and reliable_transport=false keeps
/// the ORIGINAL message cap — the headroom belongs to the physical
/// frames only). The worker width is fixed to the outer pool's
/// resolved width so chunk assignment matches a clean run exactly.
CongestConfig algo_config(const Network& outer) {
  CongestConfig cfg = outer.config();
  cfg.fault = fault::FaultSpec{};
  cfg.reliable_transport = false;
  cfg.threads = outer.num_workers();
  // One recorder per run, owned by the outer stack — the staging engine
  // must not construct its own (a fresh ReliableNetwork is built per
  // wrapped phase).
  cfg.trace = obs::TraceOptions{};
  return cfg;
}

/// Re-appends the payload fields of a received DATA frame (everything
/// after the 4-field transport header) onto a builder Message. Reals
/// come back codec-decoded, so the later staging re-encode is
/// idempotent — the algorithm observes exactly the bits a clean send
/// would have delivered.
Message decode_payload(const MessageView& mv) {
  Message m;
  const std::size_t nf = mv.num_fields();
  for (std::size_t i = 4; i < nf; ++i) {
    switch (mv.kind_at(i)) {
      case FieldKind::kNodeId:
        m.add_id(mv.id_at(i));
        break;
      case FieldKind::kWeight:
        m.add_weight(mv.weight_at(i));
        break;
      case FieldKind::kLevel:
        m.add_level(mv.level_at(i));
        break;
      case FieldKind::kFlag:
        m.add_flag(mv.flag_at(i));
        break;
      case FieldKind::kReal:
        m.add_real(mv.real_at(i));
        break;
      case FieldKind::kTag:
        m.add_tag(mv.tag_at(i));
        break;
    }
  }
  return m;
}

}  // namespace

ReliableNetwork::ReliableNetwork(const Network& outer)
    : Network(outer.weighted_graph(), algo_config(outer), DecoratorInit{}) {
  const int workers = num_workers();
  staging_ = std::unique_ptr<Network>(
      new Network(*wg_, config_, InnerInit{workers}));
  engine_ = staging_.get();
  out_.resize(mirror_.size());
  in_.resize(mirror_.size());
  ready_arcs_.resize(static_cast<std::size_t>(workers));
  seq_limit_ = std::int64_t{1} << size_model_.level_bits;
}

ReliableNetwork::~ReliableNetwork() = default;

void ReliableNetwork::send(NodeId from, NodeId to, const Message& m) {
  enqueue_unit(mirror_[resolve_arc(from, to)], m, /*marker=*/false);
}

void ReliableNetwork::broadcast(NodeId from, const Message& m) {
  const std::size_t begin = offsets_[from];
  const std::size_t end = offsets_[from + 1];
  for (std::size_t arc = begin; arc != end; ++arc)
    enqueue_unit(mirror_[arc], m, /*marker=*/false);
}

void ReliableNetwork::enqueue_unit(std::uint32_t glane, const Message& m,
                                   bool marker) {
  if (!marker) {
    // The wrapped algorithm's CONGEST discipline: cap-check against the
    // ORIGINAL limit at capture time, exactly where a clean send would
    // have thrown (before any side effect).
    const int bits = wire_payload_bits(m, size_model_);
    check_cap(bits);
  }
  OutArc& oa = out_[glane];
  ARBODS_CHECK_MSG(
      static_cast<std::int64_t>(oa.next_seq) < seq_limit_,
      "reliable-transport sequence number overflow on arc "
          << glane << " (limit " << seq_limit_
          << "): the phase outlived the level-field width of this instance");
  OutUnit unit;
  unit.msg = m;
  unit.marker = marker;
  oa.units.push_back(std::move(unit));
  ++oa.next_seq;
  oa.next_due = 0;  // the new unit is due immediately
}

void ReliableNetwork::close_virtual_round() {
  for_nodes([&](NodeId v) {
    const std::size_t begin = offsets_[v];
    const std::size_t end = offsets_[v + 1];
    for (std::size_t arc = begin; arc != end; ++arc)
      enqueue_unit(mirror_[arc], Message{}, /*marker=*/true);
  });
}

bool ReliableNetwork::virtual_round_complete() const {
  std::int64_t ready = 0;
  for (const WorkerCounter& c : ready_arcs_) ready += c.value;
  return ready == static_cast<std::int64_t>(mirror_.size());
}

void ReliableNetwork::abandon_outstanding() {
  // The wrapped phase finished: whatever is captured but unacked dies
  // with the phase, exactly as a clean run drops the final round's
  // undelivered records.
  for (OutArc& oa : out_) {
    oa.base_seq = oa.next_seq;
    oa.acked = oa.next_seq;
    oa.units.clear();
    oa.next_due = std::numeric_limits<std::int64_t>::max();
  }
}

void ReliableNetwork::receive_pass(Network& outer) {
  for (WorkerCounter& c : ready_arcs_) c.value = 0;
  for_nodes([&](NodeId v) {
    for (const MessageView mv : outer.inbox(v)) receive_frame(v, mv);
    // Recount v's arcs that have closed the next virtual round. A sender
    // only creates vround r+1 units after the global advance to r+1, so
    // rounds_done never runs more than one round ahead of delivered_.
    std::int64_t ready = 0;
    const std::size_t begin = offsets_[v];
    const std::size_t end = offsets_[v + 1];
    for (std::size_t q = begin; q < end; ++q)
      if (in_[q].rounds_done > delivered_) ++ready;
    ready_arcs_[worker_slot()].value += ready;
  });
}

void ReliableNetwork::receive_frame(NodeId v, const MessageView& mv) {
  // The true sender rides in the record, so a reorder-diverted frame
  // still resolves to its real arc; everything below touches only state
  // owned by v (its in-arcs and out-arcs), keeping the pass race-free.
  const NodeId u = mv.sender();
  const std::size_t q = resolve_arc(v, u);  // v's in-arc from u
  const int t = mv.tag();
  const auto apply_ack = [&](std::int64_t ack) {
    OutArc& oa = out_[mirror_[q]];  // v's out-arc to u
    if (ack > static_cast<std::int64_t>(oa.acked))
      oa.acked = static_cast<std::uint32_t>(ack);
    while (oa.base_seq < oa.acked && !oa.units.empty()) {
      oa.units.pop_front();
      ++oa.base_seq;
    }
  };
  if (t == kTransportAckTag) {
    apply_ack(mv.level_at(1));
    return;
  }
  if (t != kTransportDataTag) return;  // not ours (defensive)
  apply_ack(mv.level_at(2));  // piggybacked cumulative ack
  const std::uint32_t seq = static_cast<std::uint32_t>(mv.level_at(1));
  const bool marker = mv.flag_at(3);
  InArc& ia = in_[q];
  if (seq < ia.next) {
    // Duplicate or stale retransmit: the sender may have missed an ack.
    ia.ack_due = true;
    return;
  }
  bool present = false;
  for (const BufUnit& b : ia.buffer) present |= (b.seq == seq);
  if (present) {
    ia.ack_due = true;
  } else {
    ia.buffer.push_back(BufUnit{seq, marker, decode_payload(mv)});
  }
  // Consume the in-order prefix. Payloads are labeled with the virtual
  // round they belong to (= markers consumed so far on this arc, since a
  // round's payloads precede its marker in seq order).
  bool advanced = true;
  while (advanced) {
    advanced = false;
    for (std::size_t j = 0; j < ia.buffer.size(); ++j) {
      if (ia.buffer[j].seq != ia.next) continue;
      BufUnit b = std::move(ia.buffer[j]);
      ia.buffer[j] = std::move(ia.buffer.back());
      ia.buffer.pop_back();
      if (b.marker) {
        ++ia.rounds_done;
      } else {
        ia.pending.push_back(PendingMsg{ia.rounds_done, std::move(b.msg)});
      }
      ++ia.next;
      ia.ack_due = true;
      advanced = true;
      break;
    }
  }
}

void ReliableNetwork::transmit_pass(Network& outer) {
  const std::int64_t now = outer.current_round();
  for_nodes([&](NodeId v) {
    const std::size_t begin = offsets_[v];
    const std::size_t end = offsets_[v + 1];
    // Due DATA units, in arc order then seq order (deterministic
    // per-arc record order at every pool width).
    for (std::size_t arc = begin; arc < end; ++arc) {
      const std::uint32_t g = mirror_[arc];
      OutArc& oa = out_[g];
      if (oa.units.empty() || oa.next_due > now) continue;
      const NodeId u = neighbors(v)[arc - begin];
      std::int64_t min_next = std::numeric_limits<std::int64_t>::max();
      for (std::size_t j = 0; j < oa.units.size(); ++j) {
        OutUnit& unit = oa.units[j];
        if (unit.next_tx <= now) {
          transmit_unit(outer, v, u, g,
                        oa.base_seq + static_cast<std::uint32_t>(j), unit);
        }
        min_next = std::min(min_next, unit.next_tx);
      }
      oa.next_due = min_next;
    }
    // Standalone cumulative ACKs where no reverse DATA carried one.
    for (std::size_t q = begin; q < end; ++q) {
      InArc& ia = in_[q];
      if (!ia.ack_due) continue;
      ia.ack_due = false;
      if (out_[mirror_[q]].last_data_tx == now) continue;  // piggybacked
      const NodeId u = neighbors(v)[q - begin];
      outer.send(v, u,
                 Message::tagged(kTransportAckTag).add_level(ia.next));
    }
  });
}

void ReliableNetwork::transmit_unit(Network& outer, NodeId sender,
                                    NodeId receiver, std::uint32_t glane,
                                    std::uint32_t seq, OutUnit& unit) {
  Message frame = Message::tagged(kTransportDataTag);
  frame.add_level(seq);
  // Piggyback the cumulative ack of the reverse arc (sender's in-arc
  // from this receiver) — written and read only by `sender`.
  frame.add_level(in_[mirror_[glane]].next);
  frame.add_flag(unit.marker);
  const Message& payload = unit.msg;
  const std::size_t nf = payload.num_fields();
  for (std::size_t i = 0; i < nf; ++i) {
    const Field& f = payload.field(i);
    switch (f.kind) {
      case FieldKind::kNodeId:
        frame.add_id(static_cast<NodeId>(f.ivalue));
        break;
      case FieldKind::kWeight:
        frame.add_weight(f.ivalue);
        break;
      case FieldKind::kLevel:
        frame.add_level(f.ivalue);
        break;
      case FieldKind::kFlag:
        frame.add_flag(f.ivalue != 0);
        break;
      case FieldKind::kReal:
        frame.add_real(f.rvalue);
        break;
      case FieldKind::kTag:
        frame.add_tag(static_cast<int>(f.ivalue));
        break;
    }
  }
  outer.send(sender, receiver, frame);
  const std::int64_t now = outer.current_round();
  unit.next_tx = now + retransmit_gap(glane, seq, unit.attempt);
  if (unit.attempt < 255) ++unit.attempt;
  out_[glane].last_data_tx = now;
}

void ReliableNetwork::deliver_and_flip() {
  // Deposit the completed virtual round's payloads into the staging
  // engine: per in-arc, in seq order — the canonical order a clean
  // sender would have written them in, all from the receiving node's
  // chunk worker.
  for_nodes([&](NodeId v) {
    const std::size_t w = worker_slot();
    const std::size_t begin = offsets_[v];
    const std::size_t end = offsets_[v + 1];
    for (std::size_t q = begin; q < end; ++q) {
      InArc& ia = in_[q];
      const NodeId sender = neighbors(v)[q - begin];
      while (ia.pending_head < ia.pending.size() &&
             ia.pending[ia.pending_head].vround == delivered_) {
        int bits = 0;
        const std::size_t need = encode_into_scratch(
            w, ia.pending[ia.pending_head].msg, sender, &bits);
        staging_->deposit_wire(static_cast<EdgeSlot>(q), scratch_[w].data(),
                               need, section_);
        ++ia.pending_head;
      }
      if (ia.pending_head == ia.pending.size()) {
        ia.pending.clear();
        ia.pending_head = 0;
      }
    }
  });
  // Same flip/round lockstep as FaultyNetwork: flip with the old round
  // installed (the calendar drain keys off it), then advance both
  // counters to the new virtual round.
  staging_->flip_buffers();
  ++delivered_;
  staging_->round_ = delivered_;
  round_ = delivered_;
  active_dirty_ = true;
}

// --- seam overrides -------------------------------------------------------
// The virtual network is never driven through run()/run_phase(), but the
// seams delegate to the staging engine anyway (FaultyNetwork-style) so
// incidental calls — e.g. via the base-class reset_for_reuse — stay
// well-defined on this engine-less decorator.

void ReliableNetwork::flip_buffers() {
  staging_->flip_buffers();
  staging_->round_ = round_ + 1;
  active_dirty_ = true;
}

void ReliableNetwork::clear_in_flight() {
  staging_->round_ = round_;
  staging_->clear_in_flight();
  active_list_.clear();
  active_dirty_ = false;
}

void ReliableNetwork::reseed_node_rngs() {
  if (rng_streams_fresh_) return;
  staging_->rng_streams_fresh_ = false;  // the decorator tracks freshness
  staging_->reseed_node_rngs();
  rng_streams_fresh_ = true;
}

void ReliableNetwork::rebuild_active_set() {
  active_dirty_ = false;
  if (staging_->active_dirty_) staging_->rebuild_active_set();
  active_list_ = staging_->active_list_;
}

void ReliableNetwork::shrink_scratch() { staging_->shrink_scratch(); }

void ReliableNetwork::reset_for_reuse() {
  staging_->reset_for_reuse();
  rng_streams_fresh_ = true;
  for (OutArc& oa : out_) oa = OutArc{};
  for (InArc& ia : in_) ia = InArc{};
  for (WorkerCounter& c : ready_arcs_) c.value = 0;
  delivered_ = 0;
  Network::reset_for_reuse();
}

// --- ReliablePhase --------------------------------------------------------

ReliablePhase::ReliablePhase(protocol::Phase& inner)
    : inner_(&inner), name_(std::string(inner.name()) + "+rel") {}

ReliablePhase::~ReliablePhase() = default;

void ReliablePhase::publish(Network& net, protocol::PhaseContext& ctx) {
  // The wrapped phase's world is the virtual network, not the physical
  // one it was driven on.
  (void)net;
  inner_->publish(*vnet_, ctx);
}

void ReliablePhase::initialize(Network& outer) {
  inner_finished_ = false;
  vnet_ = std::make_unique<ReliableNetwork>(outer);
  // Virtual round 0: the wrapped algorithm's initialize, captured. The
  // finished check mirrors the clean driver loop (checked after
  // initialize, before any flip) so a phase that is done at round 0
  // delivers nothing — exactly like the clean run.
  inner_->initialize(*vnet_);
  if (inner_->finished(*vnet_)) {
    inner_finished_ = true;
    vnet_->abandon_outstanding();
    return;
  }
  vnet_->close_virtual_round();
  {
    // First physical transmissions (round 0). The passes run outside the
    // Network's own seams, so their wall-clock is accounted explicitly
    // (retransmit is a sub-interval of the round's compute time).
    const std::int64_t t0 = obs::monotonic_ns();
    vnet_->transmit_pass(outer);
    const std::int64_t t1 = obs::monotonic_ns();
    outer.account_retransmit_seconds(static_cast<double>(t1 - t0) * 1e-9);
    if (outer.tracer() != nullptr)
      outer.tracer()->record(0, "rel:xmit", t0, t1);
  }
}

void ReliablePhase::process_round(Network& outer) {
  {
    const std::int64_t t0 = obs::monotonic_ns();
    vnet_->receive_pass(outer);
    const std::int64_t t1 = obs::monotonic_ns();
    outer.account_retransmit_seconds(static_cast<double>(t1 - t0) * 1e-9);
    if (outer.tracer() != nullptr)
      outer.tracer()->record(0, "rel:recv", t0, t1);
  }
  if (!inner_finished_ && vnet_->virtual_round_complete()) {
    vnet_->deliver_and_flip();
    inner_->process_round(*vnet_);
    if (inner_->finished(*vnet_)) {
      inner_finished_ = true;
      vnet_->abandon_outstanding();
      return;
    }
    vnet_->close_virtual_round();
  }
  {
    const std::int64_t t0 = obs::monotonic_ns();
    vnet_->transmit_pass(outer);
    const std::int64_t t1 = obs::monotonic_ns();
    outer.account_retransmit_seconds(static_cast<double>(t1 - t0) * 1e-9);
    if (outer.tracer() != nullptr)
      outer.tracer()->record(0, "rel:xmit", t0, t1);
  }
}

bool ReliablePhase::finished(const Network& outer) const {
  (void)outer;
  return inner_finished_;
}

}  // namespace arbods::resilience
