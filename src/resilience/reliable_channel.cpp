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
/// Network is clean, and reliable_transport=false keeps the ORIGINAL
/// message cap — the headroom belongs to the physical frames only). The
/// worker width is fixed to the outer pool's resolved width so chunk
/// assignment matches a clean run exactly.
CongestConfig algo_config(const Network& outer) {
  CongestConfig cfg = outer.config();
  cfg.fault = fault::FaultSpec{};
  cfg.reliable_transport = false;
  cfg.threads = outer.num_workers();
  // One recorder per run, owned by the outer network — the staging
  // Network (built per wrapped phase) records nothing.
  cfg.trace = obs::TraceOptions{};
  return cfg;
}

/// Copies the fields [first, num_fields) of a wire record onto a builder
/// Message: a captured record (first = 0) or the payload of a received
/// DATA frame (first = 4, past the transport header). Reals come back
/// codec-decoded, and re-encoding a decoded real is idempotent, so the
/// algorithm observes exactly the bits a clean send would have delivered.
Message to_message(const MessageView& mv, std::size_t first) {
  Message m;
  const std::size_t nf = mv.num_fields();
  for (std::size_t i = first; i < nf; ++i) {
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

/// Runs one physical transport pass and accounts its wall-clock into the
/// outer network's retransmit time (a sub-interval of the round's
/// compute time) and, when tracing, a span.
template <typename F>
void timed_pass(Network& outer, const char* span, F&& pass) {
  const std::int64_t t0 = obs::monotonic_ns();
  pass();
  const std::int64_t t1 = obs::monotonic_ns();
  outer.account_retransmit_seconds(static_cast<double>(t1 - t0) * 1e-9);
  if (outer.tracer() != nullptr) outer.tracer()->record(0, span, t0, t1);
}

}  // namespace

ReliablePhase::ReliablePhase(DistributedAlgorithm& inner)
    : inner_(&inner), name_(std::string(inner.name()) + "+rel") {}

ReliablePhase::~ReliablePhase() = default;

void ReliablePhase::initialize(Network& outer) {
  inner_finished_ = false;
  delivered_ = 0;
  staging_ =
      std::make_unique<Network>(outer.weighted_graph(), algo_config(outer));
  mirror_ = arc_mirror(outer.graph());
  const std::size_t arcs = mirror_.size();
  out_.assign(arcs, OutArc{});
  in_.assign(arcs, InArc{});
  ready_arcs_.assign(static_cast<std::size_t>(staging_->num_workers()),
                     WorkerCounter{});
  seq_limit_ = std::int64_t{1} << staging_->size_model().level_bits;
  // Virtual round 0: the wrapped algorithm's initialize. The finished
  // check mirrors the clean driver loop (checked after initialize, before
  // any flip) so a phase that is done at round 0 delivers nothing —
  // exactly like the clean run.
  inner_->initialize(*staging_);
  if (inner_->finished(*staging_)) {
    inner_finished_ = true;
    return;
  }
  capture_round();
  timed_pass(outer, "rel:xmit", [&] { transmit_pass(outer); });
}

void ReliablePhase::process_round(Network& outer) {
  timed_pass(outer, "rel:recv", [&] { receive_pass(outer); });
  if (!inner_finished_ && virtual_round_complete()) {
    deliver_and_flip();
    inner_->process_round(*staging_);
    if (inner_->finished(*staging_)) {
      // Whatever the last virtual round sent dies with the phase, exactly
      // as a clean run drops the final round's undelivered records.
      inner_finished_ = true;
      return;
    }
    capture_round();
  }
  timed_pass(outer, "rel:xmit", [&] { transmit_pass(outer); });
}

bool ReliablePhase::finished(const Network& outer) const {
  (void)outer;
  return inner_finished_;
}

void ReliablePhase::capture_round() {
  Network& net = *staging_;
  // Collect the records in per-arc send order, then bucket them by sender
  // with a stable counting sort, which keeps that order: a sender is the
  // only writer of its out-arcs' queues, so the conversion into units
  // runs on the pool.
  captured_.clear();
  net.for_each_outgoing(mirror_, [&](auto arc, const MessageView& mv) {
    captured_.push_back(Captured{arc, mv});
  });
  sender_begin_.assign(static_cast<std::size_t>(net.num_nodes()) + 2, 0);
  for (const Captured& c : captured_) ++sender_begin_[c.record.sender() + 2];
  for (std::size_t u = 2; u < sender_begin_.size(); ++u)
    sender_begin_[u] += sender_begin_[u - 1];
  by_sender_.resize(captured_.size());
  for (std::uint32_t i = 0; i < captured_.size(); ++i)
    by_sender_[sender_begin_[captured_[i].record.sender() + 1]++] = i;
  // Each arc's payloads, then the end-of-round marker behind them: the
  // frame contract receivers count virtual rounds by.
  net.for_nodes([&](NodeId u) {
    for (std::uint32_t i = sender_begin_[u]; i < sender_begin_[u + 1]; ++i) {
      const Captured& c = captured_[by_sender_[i]];
      enqueue_unit(c.arc, to_message(c.record, 0), /*marker=*/false);
    }
    for (std::size_t arc = net.offsets_[u]; arc != net.offsets_[u + 1]; ++arc)
      enqueue_unit(mirror_[arc], Message{}, /*marker=*/true);
  });
  net.discard_outgoing();
}

void ReliablePhase::enqueue_unit(std::uint32_t arc, const Message& m,
                                 bool marker) {
  OutArc& oa = out_[arc];
  ARBODS_CHECK_MSG(
      static_cast<std::int64_t>(oa.next_seq) < seq_limit_,
      "reliable-transport sequence number overflow on arc "
          << arc << " (limit " << seq_limit_
          << "): the phase outlived the level-field width of this instance");
  OutUnit unit;
  unit.msg = m;
  unit.marker = marker;
  oa.units.push_back(std::move(unit));
  ++oa.next_seq;
  oa.next_due = 0;  // the new unit is due immediately
}

bool ReliablePhase::virtual_round_complete() const {
  std::int64_t ready = 0;
  for (const WorkerCounter& c : ready_arcs_) ready += c.value;
  return ready == static_cast<std::int64_t>(in_.size());
}

void ReliablePhase::receive_pass(Network& outer) {
  Network& net = *staging_;
  for (WorkerCounter& c : ready_arcs_) c.value = 0;
  net.for_nodes([&](NodeId v) {
    for (const MessageView mv : outer.inbox(v)) receive_frame(v, mv);
    // Recount v's arcs that have closed the next virtual round. A sender
    // only creates vround r+1 units after the global advance to r+1, so
    // rounds_done never runs more than one round ahead of delivered_.
    std::int64_t ready = 0;
    for (std::size_t q = net.offsets_[v]; q < net.offsets_[v + 1]; ++q)
      if (in_[q].rounds_done > delivered_) ++ready;
    ready_arcs_[static_cast<std::size_t>(net.worker_index())].value += ready;
  });
}

void ReliablePhase::receive_frame(NodeId v, const MessageView& mv) {
  // The true sender rides in the record, so a reorder-diverted frame
  // still resolves to its real arc; everything below touches only state
  // owned by v (its in-arcs and out-arcs), keeping the pass race-free.
  const Network& net = *staging_;
  const NodeId u = mv.sender();
  const std::size_t q = net.receiver_arc(u, v);  // v's in-arc from u
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
    ia.buffer.push_back(BufUnit{seq, marker, to_message(mv, 4)});
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

void ReliablePhase::transmit_pass(Network& outer) {
  Network& net = *staging_;
  const std::int64_t now = outer.current_round();
  net.for_nodes([&](NodeId v) {
    const std::size_t begin = net.offsets_[v];
    const std::size_t end = net.offsets_[v + 1];
    const auto nb = net.neighbors(v);
    // Due DATA units, in arc order then seq order (deterministic
    // per-arc record order at every pool width).
    for (std::size_t arc = begin; arc < end; ++arc) {
      const std::uint32_t g = mirror_[arc];
      OutArc& oa = out_[g];
      if (oa.units.empty() || oa.next_due > now) continue;
      std::int64_t min_next = std::numeric_limits<std::int64_t>::max();
      for (std::size_t j = 0; j < oa.units.size(); ++j) {
        OutUnit& unit = oa.units[j];
        if (unit.next_tx <= now) {
          transmit_unit(outer, v, nb[arc - begin], g,
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
      outer.send(v, nb[q - begin],
                 Message::tagged(kTransportAckTag).add_level(ia.next));
    }
  });
}

void ReliablePhase::transmit_unit(Network& outer, NodeId sender,
                                  NodeId receiver, std::uint32_t arc,
                                  std::uint32_t seq, OutUnit& unit) {
  Message frame = Message::tagged(kTransportDataTag);
  frame.add_level(seq);
  // Piggyback the cumulative ack of the reverse arc (sender's in-arc
  // from this receiver) — written and read only by `sender`.
  frame.add_level(in_[mirror_[arc]].next);
  frame.add_flag(unit.marker);
  // The payload's fields went through the add_* builders in to_message,
  // so pushing them as they are frames exactly what re-adding would.
  frame.append(unit.msg);
  outer.send(sender, receiver, frame);
  const std::int64_t now = outer.current_round();
  unit.next_tx = now + retransmit_gap(arc, seq, unit.attempt);
  if (unit.attempt < 255) ++unit.attempt;
  out_[arc].last_data_tx = now;
}

void ReliablePhase::deliver_and_flip() {
  // Send the completed virtual round's payloads into the staging Network:
  // per in-arc, in seq order — the order a clean sender wrote them in —
  // each from the receiving node's worker (the receiver-side arc q fixes
  // the inbox position whichever worker sends it, so it is passed as is).
  Network& net = *staging_;
  net.for_nodes([&](NodeId v) {
    const std::size_t begin = net.offsets_[v];
    const auto nb = net.neighbors(v);
    for (std::size_t q = begin; q < net.offsets_[v + 1]; ++q) {
      InArc& ia = in_[q];
      while (ia.pending_head < ia.pending.size() &&
             ia.pending[ia.pending_head].vround == delivered_) {
        net.send_on_arc(nb[q - begin], v, static_cast<std::uint32_t>(q),
                        ia.pending[ia.pending_head].msg);
        ++ia.pending_head;
      }
      if (ia.pending_head == ia.pending.size()) {
        ia.pending.clear();
        ia.pending_head = 0;
      }
    }
  });
  net.advance_round();
  ++delivered_;
}

}  // namespace arbods::resilience
