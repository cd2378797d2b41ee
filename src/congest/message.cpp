#include "congest/message.hpp"

#include <bit>

#include "common/check.hpp"

namespace arbods {

// ----------------------------------------------------------------- builder

Message& Message::append(const Message& other) {
  for (std::size_t i = 0; i < other.size_; ++i) {
    const Field& f = other.field(i);
    push(f.kind, f.ivalue, f.rvalue);
  }
  return *this;
}

const Field& Message::field_checked(std::size_t i, FieldKind kind) const {
  const Field& f = field(i);
  ARBODS_CHECK_MSG(f.kind == kind, "field " << i << " kind mismatch");
  return f;
}

int Message::tag() const {
  if (size_ == 0 || inline_[0].kind != FieldKind::kTag) return -1;
  return static_cast<int>(inline_[0].ivalue);
}

int Message::tag_at(std::size_t i) const {
  return static_cast<int>(field_checked(i, FieldKind::kTag).ivalue);
}

NodeId Message::id_at(std::size_t i) const {
  return static_cast<NodeId>(field_checked(i, FieldKind::kNodeId).ivalue);
}

Weight Message::weight_at(std::size_t i) const {
  return field_checked(i, FieldKind::kWeight).ivalue;
}

std::int64_t Message::level_at(std::size_t i) const {
  return field_checked(i, FieldKind::kLevel).ivalue;
}

bool Message::flag_at(std::size_t i) const {
  return field_checked(i, FieldKind::kFlag).ivalue != 0;
}

double Message::real_at(std::size_t i) const {
  return field_checked(i, FieldKind::kReal).rvalue;
}

int Message::bit_size(const MessageSizeModel& model) const {
  int bits = 0;
  for (std::size_t i = 0; i < size_; ++i) bits += model.width_of(kind_at(i));
  return bits;
}

void Message::quantize_reals(const FixedPointCodec& codec) {
  for (std::size_t i = 0; i < size_; ++i) {
    Field& f = i < kInlineFields ? inline_[i] : overflow_[i - kInlineFields];
    if (f.kind == FieldKind::kReal) f.rvalue = codec.decode(codec.encode(f.rvalue));
  }
}

// --------------------------------------------------------------- wire form

namespace {

// The integer payload of a field as the wire carries it.
std::uint64_t field_wire_value(const Field& f, bool quantized_reals) {
  if (f.kind != FieldKind::kReal)
    return static_cast<std::uint64_t>(f.ivalue);
  if (quantized_reals) return default_value_codec().encode(f.rvalue);
  return std::bit_cast<std::uint64_t>(f.rvalue);
}

}  // namespace

std::uint64_t MessageView::payload_bits_at_wide(std::size_t i,
                                               FieldKind kind) const {
  ARBODS_CHECK_MSG(kind_at(i) == kind, "field " << i << " kind mismatch");
  std::size_t pos = 0;
  for (std::size_t j = 0; j < i; ++j)
    pos += static_cast<std::size_t>(
        wire_field_bits(kind_at(j), *model_, quantized_));
  return wire::get_bits(words_ + 1 + wire::kind_words(num_fields()), pos,
                        wire_field_bits(kind, *model_, quantized_));
}

int wire_payload_bits(const Message& m, const MessageSizeModel& model) {
  return m.bit_size(model);
}

std::size_t wire_words(const Message& m, const MessageSizeModel& model,
                       bool quantized_reals) {
  const std::size_t nf = m.num_fields();
  std::size_t payload_bits = 0;
  for (std::size_t i = 0; i < nf; ++i)
    payload_bits += static_cast<std::size_t>(
        wire_field_bits(m.kind_at(i), model, quantized_reals));
  return 1 + wire::kind_words(nf) + (payload_bits + 63) / 64;
}

std::size_t wire_encode(const Message& m, NodeId sender,
                        const MessageSizeModel& model, bool quantized_reals,
                        std::uint64_t* dst, int* accounted_bits) {
  const std::size_t nf = m.num_fields();
  ARBODS_CHECK_MSG(nf <= 0xffff, "message with " << nf << " fields");
  std::uint64_t* kinds = dst + 1;
  std::uint64_t* payload = kinds + wire::kind_words(nf);

  // One pass over the fields: kind nibbles, accounted bits, and the
  // payload streamed through a 64-bit accumulator, so no word is written
  // twice and none needs zeroing first.
  int model_bits = 0;
  std::uint64_t packed = 0;  // kind nibbles of the current kind word
  std::uint64_t acc = 0;     // payload bits not yet stored
  int fill = 0;              // bits in acc, < 64
  std::size_t payload_words = 0;
  for (std::size_t i = 0; i < nf; ++i) {
    const Field& f = m.field(i);
    const std::size_t nibble = i % wire::kKindsPerWord;
    packed |= static_cast<std::uint64_t>(f.kind) << (4 * nibble);
    if (nibble == wire::kKindsPerWord - 1 || i + 1 == nf) {
      kinds[i / wire::kKindsPerWord] = packed;
      packed = 0;
    }
    model_bits += model.width_of(f.kind);
    const int width = wire_field_bits(f.kind, model, quantized_reals);
    const std::uint64_t value = field_wire_value(f, quantized_reals);
    // The wire is lossless for every value the solvers send: ids < n,
    // weights <= the instance maximum, levels/counters within the model's
    // budget, tags < 16. A wider value here (including a negative integer
    // field, which sign-extends to all-ones) is a solver bug, not a
    // quantization channel — fail loudly instead of truncating to garbage.
    ARBODS_CHECK_MSG(width >= 64 || (value >> width) == 0,
                     "field " << i << " value " << value << " exceeds "
                              << width << "-bit wire width");
    // Bit layout of wire::get_bits: the value at bit offset `pos` of the
    // payload, spilling into the next word past bit 63.
    acc |= value << fill;
    if (fill + width >= 64) {
      payload[payload_words++] = acc;
      acc = fill == 0 ? 0 : value >> (64 - fill);
      fill += width - 64;
    } else {
      fill += width;
    }
  }
  if (fill > 0) payload[payload_words++] = acc;
  if (accounted_bits != nullptr) *accounted_bits = model_bits;
  const std::size_t total =
      static_cast<std::size_t>(payload + payload_words - dst);
  ARBODS_CHECK_MSG(total <= 0xffff, "wire record of " << total << " words");
  // The header goes last: a throw above leaves dst[0] untouched, so a
  // zero word there still ends its slot (network.hpp).
  dst[0] = static_cast<std::uint64_t>(sender) |
           (static_cast<std::uint64_t>(nf) << 32) |
           (static_cast<std::uint64_t>(total) << 48);
  return total;
}

}  // namespace arbods
