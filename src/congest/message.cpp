#include "congest/message.hpp"

#include <bit>

#include "common/check.hpp"

namespace arbods {

// ----------------------------------------------------------------- builder

Message& Message::push(const Field& f) {
  if (size_ < kInlineFields) {
    inline_[size_] = f;
  } else {
    overflow_.push_back(f);
  }
  ++size_;
  return *this;
}

const Field& Message::field(std::size_t i) const {
  ARBODS_CHECK_MSG(i < size_, "field index " << i << " out of range");
  return i < kInlineFields ? inline_[i] : overflow_[i - kInlineFields];
}

Message Message::tagged(int tag) {
  Message m;
  m.push({FieldKind::kTag, tag, 0.0});
  return m;
}

Message& Message::add_id(NodeId v) {
  return push({FieldKind::kNodeId, static_cast<std::int64_t>(v), 0.0});
}

Message& Message::add_weight(Weight w) {
  return push({FieldKind::kWeight, w, 0.0});
}

Message& Message::add_level(std::int64_t level) {
  return push({FieldKind::kLevel, level, 0.0});
}

Message& Message::add_flag(bool b) {
  return push({FieldKind::kFlag, b ? 1 : 0, 0.0});
}

Message& Message::add_real(double x) {
  return push({FieldKind::kReal, 0, x});
}

Message& Message::add_tag(int tag) {
  return push({FieldKind::kTag, tag, 0.0});
}

Message& Message::append(const Message& other) {
  for (std::size_t i = 0; i < other.size_; ++i) push(other.field(i));
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

// Writes `width` bits at bit offset `pos` of a zeroed payload region (the
// writer of wire::get_bits); values span at most two words (width <= 64).
void put_bits(std::uint64_t* payload, std::size_t pos, std::uint64_t value,
              int width) {
  if (width == 0) return;
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  value &= mask;
  const std::size_t word = pos >> 6;
  const int off = static_cast<int>(pos & 63);
  payload[word] |= value << off;
  if (off + width > 64) payload[word + 1] |= value >> (64 - off);
}

// The integer payload of a field as the wire carries it.
std::uint64_t field_wire_value(const Field& f, bool quantized_reals) {
  if (f.kind != FieldKind::kReal)
    return static_cast<std::uint64_t>(f.ivalue);
  if (quantized_reals) return default_value_codec().encode(f.rvalue);
  return std::bit_cast<std::uint64_t>(f.rvalue);
}

}  // namespace

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
  const std::size_t kwords = wire::kind_words(nf);
  std::uint64_t* payload = dst + 1 + kwords;

  // Kind nibbles, payload bit length and accounted bit length in one pass.
  std::size_t payload_bits = 0;
  int model_bits = 0;
  for (std::size_t w = 0; w < kwords; ++w) {
    std::uint64_t packed = 0;
    const std::size_t base = w * wire::kKindsPerWord;
    const std::size_t end = std::min(nf - base, wire::kKindsPerWord);
    for (std::size_t j = 0; j < end; ++j) {
      const FieldKind kind = m.kind_at(base + j);
      packed |= static_cast<std::uint64_t>(kind) << (4 * j);
      payload_bits += static_cast<std::size_t>(
          wire_field_bits(kind, model, quantized_reals));
      model_bits += model.width_of(kind);
    }
    dst[1 + w] = packed;
  }
  if (accounted_bits != nullptr) *accounted_bits = model_bits;
  const std::size_t payload_words = (payload_bits + 63) / 64;
  const std::size_t total = 1 + kwords + payload_words;
  ARBODS_CHECK_MSG(total <= 0xffff, "wire record of " << total << " words");

  dst[0] = static_cast<std::uint64_t>(sender) |
           (static_cast<std::uint64_t>(nf) << 32) |
           (static_cast<std::uint64_t>(total) << 48);

  for (std::size_t w = 0; w < payload_words; ++w) payload[w] = 0;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < nf; ++i) {
    const Field& f = m.field(i);
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
    put_bits(payload, pos, value, width);
    pos += static_cast<std::size_t>(width);
  }
  return total;
}

}  // namespace arbods
