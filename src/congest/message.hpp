// CONGEST messages with explicit bit accounting, and their packed wire
// format.
//
// A message is a sequence of typed fields. Field widths come from a
// MessageSizeModel derived from the instance (ids: ceil(log2 n) bits,
// weights: bits of the max weight, etc.), so a message's size in bits is
// well-defined and the Network can enforce the CONGEST O(log n) cap.
//
// Two representations exist:
//
//   * `Message` — the sender-side builder. Fields live in a small inline
//     array (no heap allocation for <= kInlineFields fields; a vector
//     overflow keeps larger diagnostic messages working). The builder is
//     defined inline in this header and does not zero-fill its array, so
//     `Message::tagged(t).add_real(x)` compiles to a few stores at the
//     call site. A Message never crosses the network as an object.
//   * the wire format — at send time the Network bit-packs the fields into
//     a flat std::uint64_t arena using exactly the MessageSizeModel widths,
//     so the CONGEST bit accounting is the wire length by construction.
//     Receivers read through `MessageView`, a two-pointer cursor over the
//     arena with the same typed accessors as Message; no per-message object
//     is ever materialized on the delivery path. The view's accessors are
//     defined inline in this header, because every delivered message goes
//     through them; they keep every field-range and kind-mismatch check
//     (CheckError).
//
// Wire layout of one message (64-bit little-endian words, each message
// word-aligned so a cursor can hop records in O(1)):
//
//   word 0        sender id (32) | field count (16) | total words (16)
//   kind words    ceil(nf/16) words of 4-bit FieldKind nibbles
//   payload       bit-packed field values; integer kinds use the model
//                 width, reals use the fixed-point codec encoding (or the
//                 raw 64-bit double when quantization is disabled)
//
// A header word is never 0 (total words >= 1), which lets a run of
// records end at a zero word (the Network's broadcast slots). The
// encoder makes one pass over the fields, streaming the payload through
// a 64-bit accumulator (no zero-fill, no second scan), and writes the
// header last, so a record whose encoding throws leaves its first word
// as it found it. The codec encodes a real from the double's IEEE-754
// fields (no frexp/ldexp). A record with at most 16 fields has one kind
// word, which the view's accessors load once.
//
// The header and kind nibbles are simulator bookkeeping and do not count
// toward the CONGEST bit volume; `wire_payload_bits` (== Message::bit_size
// under the same model when quantization is on) is what the Network
// accounts and caps.
//
// Real-valued fields carry packing values. They are quantized through
// FixedPointCodec at send time — the wire carries the codec's bits, so a
// receiver observes only the quantized value and an algorithm cannot
// smuggle extra information through the mantissa of a double.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fixed_point.hpp"
#include "common/types.hpp"

namespace arbods {

enum class FieldKind : std::uint8_t {
  kNodeId,   // a node identifier
  kWeight,   // a node weight
  kLevel,    // a small iteration counter / level number
  kFlag,     // one bit
  kReal,     // quantized real (packing value)
  kTag,      // message type discriminator (small enum)
};

/// Wire tags reserved for the reliable-transport adapter
/// (src/resilience/reliable_channel.hpp). Algorithm tags stay below
/// these two values; the transport owns every physical message while it
/// is active, so the reservation is a convention, not an enforced split.
inline constexpr int kTransportDataTag = 14;  // seq + ack + payload
inline constexpr int kTransportAckTag = 15;   // standalone cumulative ack

/// Per-instance field widths in bits.
struct MessageSizeModel {
  int id_bits = 32;
  int weight_bits = 32;
  int level_bits = 16;
  int flag_bits = 1;
  int real_bits = 32;
  int tag_bits = 4;

  int width_of(FieldKind kind) const {
    switch (kind) {
      case FieldKind::kNodeId: return id_bits;
      case FieldKind::kWeight: return weight_bits;
      case FieldKind::kLevel: return level_bits;
      case FieldKind::kFlag: return flag_bits;
      case FieldKind::kReal: return real_bits;
      case FieldKind::kTag: return tag_bits;
    }
    return 0;
  }
};

/// Accounted bits of the reliable-transport DATA header under `model`:
/// one kTag (record discriminator) + two kLevel (sequence number and
/// piggybacked cumulative ack) + one kFlag (round marker). The Network
/// raises its cap by exactly this much when
/// CongestConfig::reliable_transport is set, so a transport frame
/// wrapping a cap-sized algorithm payload still fits; a standalone ACK
/// (kTag + kLevel) is strictly smaller.
inline int reliable_transport_header_bits(const MessageSizeModel& model) {
  return model.tag_bits + 2 * model.level_bits + model.flag_bits;
}

/// One builder field. Every member is set when the field is appended;
/// the builder's unused inline fields stay uninitialized.
struct Field {
  FieldKind kind;
  std::int64_t ivalue;  // used by all kinds except kReal
  double rvalue;        // used by kReal
};

/// Sender-side message builder. Cheap to construct and move: fields are
/// stored inline (no heap) up to kInlineFields; only oversized diagnostic
/// messages (cap-enforcement tests and the like) spill to a vector. The
/// inline storage is not zero-filled, and copies read only the fields
/// in use, so building a message costs a few stores: every send builds
/// one, and the builders are defined here so they inline into the caller.
///
/// Integer fields must be non-negative and fit the MessageSizeModel width
/// for their kind (ids < 2^id_bits, etc.) — the wire format carries
/// exactly those bits, and encoding a wider value throws rather than
/// truncating.
class Message {
 public:
  static constexpr std::size_t kInlineFields = 8;

  Message() {}  // the inline fields stay uninitialized
  Message(const Message& other)
      : size_(other.size_), overflow_(other.overflow_) {
    copy_inline(other);
  }
  Message(Message&& other) noexcept
      : size_(other.size_), overflow_(std::move(other.overflow_)) {
    copy_inline(other);
    other.size_ = 0;
    other.overflow_.clear();
  }
  Message& operator=(const Message& other) {
    if (this != &other) {
      size_ = other.size_;
      copy_inline(other);
      overflow_ = other.overflow_;
    }
    return *this;
  }
  Message& operator=(Message&& other) noexcept {
    if (this != &other) {
      size_ = other.size_;
      copy_inline(other);
      overflow_ = std::move(other.overflow_);
      other.size_ = 0;
      other.overflow_.clear();
    }
    return *this;
  }

  /// Tags let one algorithm multiplex message types; by convention the tag
  /// is the first field.
  static Message tagged(int tag) {
    Message m;
    m.push(FieldKind::kTag, tag, 0.0);
    return m;
  }

  Message& add_id(NodeId v) {
    return push(FieldKind::kNodeId, static_cast<std::int64_t>(v), 0.0);
  }
  Message& add_weight(Weight w) { return push(FieldKind::kWeight, w, 0.0); }
  Message& add_level(std::int64_t level) {
    return push(FieldKind::kLevel, level, 0.0);
  }
  Message& add_flag(bool b) { return push(FieldKind::kFlag, b ? 1 : 0, 0.0); }
  Message& add_real(double x) { return push(FieldKind::kReal, 0, x); }
  /// Appends a kTag field at the current position (tagged() only places
  /// one at field 0). Needed by relays that re-encode a received record
  /// field-for-field, e.g. the reliable-transport payload unwrap.
  Message& add_tag(int tag) { return push(FieldKind::kTag, tag, 0.0); }
  /// Appends all of `other`'s fields, unchanged and in order (a relay
  /// framing a payload it already holds as a Message).
  Message& append(const Message& other);

  std::size_t num_fields() const { return size_; }

  /// Typed accessors; kind mismatches are contract violations.
  int tag() const;  // tag of field 0 (kTag); -1 if untagged
  int tag_at(std::size_t i) const;
  NodeId id_at(std::size_t i) const;
  Weight weight_at(std::size_t i) const;
  std::int64_t level_at(std::size_t i) const;
  bool flag_at(std::size_t i) const;
  double real_at(std::size_t i) const;

  /// Raw field access (bounds-checked); used by the wire encoder.
  const Field& field(std::size_t i) const {
    ARBODS_CHECK_MSG(i < size_, "field index " << i << " out of range");
    return i < kInlineFields ? inline_[i] : overflow_[i - kInlineFields];
  }
  FieldKind kind_at(std::size_t i) const { return field(i).kind; }

  /// Total width under the given model.
  int bit_size(const MessageSizeModel& model) const;

  /// Rounds every real field through the codec. The Network's wire encoder
  /// quantizes implicitly; this mutating variant exists for reference
  /// delivery loops and tests that bypass the wire format.
  void quantize_reals(const FixedPointCodec& codec);

 private:
  Message& push(FieldKind kind, std::int64_t ivalue, double rvalue) {
    if (size_ < kInlineFields) [[likely]] {
      inline_[size_] = Field{kind, ivalue, rvalue};
    } else {
      overflow_.push_back(Field{kind, ivalue, rvalue});
    }
    ++size_;
    return *this;
  }
  // Copies the inline fields in use, and only those: the rest are
  // uninitialized.
  void copy_inline(const Message& other) {
    const std::size_t n = std::min<std::size_t>(other.size_, kInlineFields);
    for (std::size_t i = 0; i < n; ++i) inline_[i] = other.inline_[i];
  }
  const Field& field_checked(std::size_t i, FieldKind kind) const;

  std::uint32_t size_ = 0;
  Field inline_[kInlineFields];  // [0, min(size_, kInlineFields)) are set
  std::vector<Field> overflow_;  // fields beyond kInlineFields (rare)
};

// ---------------------------------------------------------------------------
// Packed wire format.

/// Bits field `kind` occupies in the wire payload. Equal to the model width
/// for every kind except kReal with quantization disabled, which ships the
/// raw 64-bit double (the *accounted* size still uses the model width, as
/// it always has).
inline int wire_field_bits(FieldKind kind, const MessageSizeModel& model,
                           bool quantized_reals) {
  if (kind == FieldKind::kReal && !quantized_reals) return 64;
  const int w = model.width_of(kind);
  ARBODS_DCHECK(w >= 0 && w <= 64);
  return w;
}

namespace wire {

inline constexpr std::size_t kKindsPerWord = 16;  // 4-bit nibbles

/// Total words of the record whose header word is `header` (never 0 for
/// a header).
inline std::size_t record_words(std::uint64_t header) {
  return static_cast<std::size_t>((header >> 48) & 0xffffu);
}

/// Words of kind nibbles a record with `num_fields` fields carries.
inline std::size_t kind_words(std::size_t num_fields) {
  return (num_fields + kKindsPerWord - 1) / kKindsPerWord;
}

/// Reads `width` bits at bit offset `pos` of a payload; a value spans at
/// most two words (width <= 64).
inline std::uint64_t get_bits(const std::uint64_t* payload, std::size_t pos,
                              int width) {
  if (width == 0) return 0;
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  const std::size_t word = pos >> 6;
  const int off = static_cast<int>(pos & 63);
  std::uint64_t v = payload[word] >> off;
  if (off + width > 64) v |= payload[word + 1] << (64 - off);
  return v & mask;
}

}  // namespace wire

/// CONGEST-accounted payload bits of `m` (== m.bit_size(model)).
int wire_payload_bits(const Message& m, const MessageSizeModel& model);

/// Total 64-bit words the wire record of `m` occupies (header + kinds +
/// payload).
std::size_t wire_words(const Message& m, const MessageSizeModel& model,
                       bool quantized_reals);

/// Upper bound on wire_words(m) computable without scanning fields
/// (every stored field width is <= 64 bits). For sizing encode scratch.
inline std::size_t wire_words_bound(const Message& m) {
  const std::size_t nf = m.num_fields();
  return 1 + wire::kind_words(nf) + nf;
}

/// Encodes `m` into dst[0 .. wire_words(m)). Fully initializes every word
/// it claims. Returns the number of words written; when accounted_bits is
/// non-null, stores the CONGEST-accounted payload size (== bit_size under
/// `model`) there — accounting is a by-product of encoding, not a second
/// pass.
std::size_t wire_encode(const Message& m, NodeId sender,
                        const MessageSizeModel& model, bool quantized_reals,
                        std::uint64_t* dst, int* accounted_bits = nullptr);

/// Receiver-side cursor over one wire record. Two pointers and a flag;
/// copying is free. Views are only valid for the round in which the inbox
/// was delivered (the arena is recycled by the next round's flip).
class MessageView {
 public:
  MessageView(const std::uint64_t* words, const MessageSizeModel* model,
              bool quantized_reals)
      : words_(words), model_(model), quantized_(quantized_reals) {}

  NodeId sender() const { return static_cast<NodeId>(words_[0] & 0xffffffffu); }
  std::size_t num_fields() const {
    return static_cast<std::size_t>((words_[0] >> 32) & 0xffffu);
  }
  /// Total record length in words (cursor hop to the next message).
  std::size_t words() const { return wire::record_words(words_[0]); }

  FieldKind kind_at(std::size_t i) const {
    ARBODS_CHECK_MSG(i < num_fields(), "field index " << i << " out of range");
    const std::uint64_t word = words_[1 + i / wire::kKindsPerWord];
    return static_cast<FieldKind>((word >> (4 * (i % wire::kKindsPerWord))) &
                                  0xf);
  }

  /// Typed accessors; kind mismatches are contract violations, exactly as
  /// on the builder.
  int tag() const {  // tag of field 0 (kTag); -1 if untagged
    // Called once per delivered message by every multiplexing algorithm:
    // specialized for field 0 at payload offset 0, no scans.
    const std::size_t nf = num_fields();
    if (nf == 0 || static_cast<FieldKind>(words_[1] & 0xf) != FieldKind::kTag)
      return -1;
    return static_cast<int>(
        wire::get_bits(words_ + 1 + wire::kind_words(nf), 0, model_->tag_bits));
  }
  int tag_at(std::size_t i) const {
    return static_cast<int>(payload_bits_at(i, FieldKind::kTag));
  }
  NodeId id_at(std::size_t i) const {
    return static_cast<NodeId>(payload_bits_at(i, FieldKind::kNodeId));
  }
  Weight weight_at(std::size_t i) const {
    return static_cast<Weight>(payload_bits_at(i, FieldKind::kWeight));
  }
  std::int64_t level_at(std::size_t i) const {
    return static_cast<std::int64_t>(payload_bits_at(i, FieldKind::kLevel));
  }
  bool flag_at(std::size_t i) const {
    return payload_bits_at(i, FieldKind::kFlag) != 0;
  }
  double real_at(std::size_t i) const {
    const std::uint64_t bits = payload_bits_at(i, FieldKind::kReal);
    if (quantized_) return default_value_codec().decode(bits);
    return std::bit_cast<double>(bits);
  }

 private:
  std::uint64_t payload_bits_at(std::size_t i, FieldKind kind) const {
    const std::size_t nf = num_fields();
    ARBODS_CHECK_MSG(i < nf, "field index " << i << " out of range");
    if (nf <= wire::kKindsPerWord) [[likely]] {
      // One kind word: load it once for the kind check and the offset.
      const std::uint64_t kinds = words_[1];
      ARBODS_CHECK_MSG(static_cast<FieldKind>((kinds >> (4 * i)) & 0xf) == kind,
                       "field " << i << " kind mismatch");
      std::size_t pos = 0;
      for (std::size_t j = 0; j < i; ++j)
        pos += static_cast<std::size_t>(wire_field_bits(
            static_cast<FieldKind>((kinds >> (4 * j)) & 0xf), *model_,
            quantized_));
      return wire::get_bits(words_ + 2, pos,
                            wire_field_bits(kind, *model_, quantized_));
    }
    return payload_bits_at_wide(i, kind);
  }
  // payload_bits_at for a record with more than one kind word (rare).
  std::uint64_t payload_bits_at_wide(std::size_t i, FieldKind kind) const;

  const std::uint64_t* words_;
  const MessageSizeModel* model_;
  bool quantized_;
};

}  // namespace arbods
