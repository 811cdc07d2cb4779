#include "pbuf/bridge.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "pbio/record.hpp"
#include "pbuf/schema.hpp"

namespace morph::pbuf {

using pbio::FieldDescriptor;
using pbio::FieldKind;
using pbio::FormatDescriptor;
using pbio::FormatPtr;

BridgeMetrics& bridge_metrics() {
  static BridgeMetrics m{
      obs::metrics().counter("morph_pbuf_frames_in_total"),
      obs::metrics().counter("morph_pbuf_decoded_total"),
      obs::metrics().counter("morph_pbuf_rejected_total"),
      obs::metrics().counter("morph_pbuf_unknown_fields_total"),
      obs::metrics().counter("morph_pbuf_encoded_total"),
      obs::metrics().histogram("morph_pbuf_decode_bytes"),
      obs::metrics().histogram("morph_pbuf_encode_bytes"),
  };
  return m;
}

// ---------------------------------------------------------------------------
// Dispatch table: per message, field number -> precompiled entry.
// ---------------------------------------------------------------------------

namespace detail {

struct MessageTable {
  FormatPtr fmt;

  struct Entry {
    uint32_t number = 0;
    const FieldDescriptor* fd = nullptr;  // owned by fmt (shared_ptr above)
    FieldDescriptor elem;                 // synthesized, scalar/string arrays
    const FieldDescriptor* length_fd = nullptr;  // kDynArray only
    std::shared_ptr<const MessageTable> sub;     // kStruct / struct arrays
  };
  std::vector<Entry> entries;  // sorted by number

  const Entry* find(uint32_t number) const {
    auto it = std::lower_bound(entries.begin(), entries.end(), number,
                               [](const Entry& e, uint32_t n) { return e.number < n; });
    return it != entries.end() && it->number == number ? &*it : nullptr;
  }

  static std::shared_ptr<const MessageTable> build(const FormatPtr& fmt);
};

}  // namespace detail

using detail::MessageTable;

namespace {

/// Synthesized descriptor for one element of a scalar/string array: same
/// kind/size as the elements, offset 0 (callers pass the slot base).
FieldDescriptor element_descriptor(const FieldDescriptor& array_fd) {
  FieldDescriptor efd;
  efd.name = array_fd.name + "[]";
  efd.kind = array_fd.element_kind;
  efd.size = array_fd.element_kind == FieldKind::kString ? 8 : array_fd.element_size;
  efd.offset = 0;
  return efd;
}

}  // namespace

std::shared_ptr<const MessageTable> MessageTable::build(const FormatPtr& fmt) {
  auto t = std::make_shared<MessageTable>();
  t->fmt = fmt;
  for (const auto& fd : fmt->fields()) {
    if (fd.pb_field == 0) continue;  // implied length fields
    Entry e;
    e.number = fd.pb_number();
    e.fd = &fd;
    if (fd.kind == FieldKind::kDynArray) {
      e.length_fd = fmt->find_field(fd.length_field);
      if (fd.element_format) {
        e.sub = build(fd.element_format);
      } else {
        e.elem = element_descriptor(fd);
      }
    } else if (fd.kind == FieldKind::kStruct) {
      e.sub = build(fd.element_format);
    }
    t->entries.push_back(std::move(e));
  }
  std::sort(t->entries.begin(), t->entries.end(),
            [](const Entry& a, const Entry& b) { return a.number < b.number; });
  return t;
}

// ---------------------------------------------------------------------------
// Shared scalar helpers
// ---------------------------------------------------------------------------

namespace {

/// Wire type a scalar (kind, size, pb flags) uses on the wire.
WireType scalar_wire_type(FieldKind kind, uint32_t size, uint32_t pb_flags) {
  if (kind == FieldKind::kFloat || (pb_flags & pbio::kPbFixed) != 0) {
    return size == 8 ? WireType::kFixed64 : WireType::kFixed32;
  }
  return WireType::kVarint;
}

/// Decode one scalar wire value into `target` at efd's offset. `pb_flags`
/// carries the zigzag/fixed bits (for array elements they live on the
/// array's descriptor, so they are passed separately).
void decode_scalar_value(PbReader& in, WireType wt, const FieldDescriptor& efd,
                         uint32_t pb_flags, void* target) {
  WireType expected = scalar_wire_type(efd.kind, efd.size, pb_flags);
  if (wt != expected) {
    throw DecodeError("wire type mismatch on field '" + efd.name + "'");
  }
  if (efd.kind == FieldKind::kFloat) {
    if (efd.size == 4) {
      pbio::write_scalar_f64(target, efd, std::bit_cast<float>(in.fixed32()));
    } else {
      pbio::write_scalar_f64(target, efd, std::bit_cast<double>(in.fixed64()));
    }
    return;
  }
  int64_t v;
  switch (expected) {
    case WireType::kVarint: {
      uint64_t raw = in.varint();
      v = (pb_flags & pbio::kPbZigzag) != 0 ? zigzag_decode(raw) : static_cast<int64_t>(raw);
      break;
    }
    case WireType::kFixed32: {
      uint32_t raw = in.fixed32();
      v = efd.kind == FieldKind::kInt ? static_cast<int64_t>(static_cast<int32_t>(raw))
                                      : static_cast<int64_t>(raw);
      break;
    }
    default: {  // kFixed64
      v = static_cast<int64_t>(in.fixed64());
      break;
    }
  }
  pbio::write_scalar_i64(target, efd, v);
}

std::string_view ld_view(const PbReader& sub) {
  return {reinterpret_cast<const char*>(sub.cursor()), sub.remaining()};
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

/// Per-frame ceiling on bytes of record storage the decoder may allocate
/// for repeated elements, as a multiple of the payload size (plus a fixed
/// slack so tiny frames still fit a few elements). Each repeated occurrence
/// costs at least one wire byte but allocates element_stride bytes — and
/// element_stride comes from a *peer-learned* descriptor whose struct_size
/// may be huge — so without this cap a few hostile bytes could force
/// multi-GB arena growth. The budget is charged with the exact allocation
/// before it happens; exceeding it is an ordinary per-frame DecodeError,
/// never a bad_alloc escaping through the link callback.
constexpr uint64_t kDecodeBudgetPerWireByte = 64;
constexpr uint64_t kDecodeBudgetSlackBytes = 64 * 1024;

struct DecodeBudget {
  uint64_t remaining;

  explicit DecodeBudget(size_t payload_size)
      : remaining(kDecodeBudgetSlackBytes + kDecodeBudgetPerWireByte * payload_size) {}

  void charge(uint64_t bytes, const FieldDescriptor& fd) {
    if (bytes > remaining) {
      throw DecodeError("repeated field '" + fd.name +
                        "' exceeds the per-frame decode byte budget");
    }
    remaining -= bytes;
  }
};

void decode_message_impl(PbReader& in, const MessageTable& table, void* record,
                         RecordArena& arena, DecodeBudget& budget, int depth);

/// Fill declared defaults into a fresh (zeroed) record, recursively.
/// Implied length fields carry no pb number and no defaults, so they stay
/// zero — repeated-field decode counts up from there. `budget` is null for
/// the top-level record (its default footprint is fixed per frame) and set
/// for repeated elements, whose count the wire controls.
void apply_defaults(void* record, const MessageTable& table, RecordArena& arena,
                    DecodeBudget* budget) {
  for (const auto& e : table.entries) {
    const FieldDescriptor& fd = *e.fd;
    if (fd.kind == FieldKind::kStruct) {
      apply_defaults(static_cast<uint8_t*>(record) + fd.offset, *e.sub, arena, budget);
      continue;
    }
    if (fd.default_int) pbio::write_scalar_i64(record, fd, *fd.default_int);
    if (fd.default_float) pbio::write_scalar_f64(record, fd, *fd.default_float);
    if (fd.default_string) {
      if (budget != nullptr) budget->charge(fd.default_string->size() + 1, fd);
      pbio::write_string_field(record, fd, *fd.default_string, arena);
    }
  }
}

/// Append one element slot to a dynamic array; returns the slot pointer
/// and bumps the length field. Growth is charged against the budget before
/// the allocation happens.
void* append_element(void* record, const MessageTable::Entry& e, RecordArena& arena,
                     DecodeBudget& budget) {
  const FieldDescriptor& fd = *e.fd;
  auto count = static_cast<uint64_t>(pbio::read_scalar_i64(record, *e.length_fd));
  uint64_t cap = pbio::dyn_array_capacity(pbio::read_pointer(record, fd));
  uint64_t grown = pbio::dyn_array_grown_capacity(cap, count);
  if (grown != cap) budget.charge((grown - cap) * fd.element_stride(), fd);
  void* base = pbio::grow_dyn_array(record, fd, arena, count);
  pbio::write_scalar_i64(record, *e.length_fd, static_cast<int64_t>(count + 1));
  return static_cast<uint8_t*>(base) + count * fd.element_stride();
}

void decode_repeated(PbReader& in, WireType wt, const MessageTable::Entry& e, void* record,
                     RecordArena& arena, DecodeBudget& budget, int depth) {
  const FieldDescriptor& fd = *e.fd;
  if (fd.element_format) {
    // Repeated message: one length-delimited occurrence per element.
    if (wt != WireType::kLengthDelimited) {
      throw DecodeError("wire type mismatch on repeated message '" + fd.name + "'");
    }
    PbReader sub = in.length_delimited();
    void* elem = append_element(record, e, arena, budget);
    std::memset(elem, 0, fd.element_stride());
    apply_defaults(elem, *e.sub, arena, &budget);
    decode_message_impl(sub, *e.sub, elem, arena, budget, depth + 1);
    return;
  }
  if (fd.element_kind == FieldKind::kString) {
    // Repeated string: one occurrence per element, never packed.
    if (wt != WireType::kLengthDelimited) {
      throw DecodeError("wire type mismatch on repeated string '" + fd.name + "'");
    }
    PbReader sub = in.length_delimited();
    std::string_view s = ld_view(sub);
    if (s.find('\0') != std::string_view::npos) {
      throw DecodeError("embedded NUL in string field '" + fd.name + "'");
    }
    void* elem = append_element(record, e, arena, budget);
    pbio::write_string_field(elem, e.elem, s, arena);
    return;
  }
  // Repeated scalar: packed (one length-delimited run) or unpacked (one
  // occurrence per element); both are accepted, as required of proto3
  // decoders.
  WireType elem_wt = scalar_wire_type(e.elem.kind, e.elem.size, fd.pb_field);
  if (wt == WireType::kLengthDelimited) {
    PbReader sub = in.length_delimited();
    while (!sub.at_end()) {
      void* elem = append_element(record, e, arena, budget);
      decode_scalar_value(sub, elem_wt, e.elem, fd.pb_field, elem);
    }
    return;
  }
  if (wt != elem_wt) {
    throw DecodeError("wire type mismatch on repeated field '" + fd.name + "'");
  }
  void* elem = append_element(record, e, arena, budget);
  decode_scalar_value(in, wt, e.elem, fd.pb_field, elem);
}

void decode_message_impl(PbReader& in, const MessageTable& table, void* record,
                         RecordArena& arena, DecodeBudget& budget, int depth) {
  if (depth > static_cast<int>(FormatDescriptor::kMaxNesting)) {
    throw DecodeError("pb message nesting exceeds depth cap");
  }
  BridgeMetrics& m = bridge_metrics();
  while (!in.at_end()) {
    PbReader::Tag tag = in.tag();
    const MessageTable::Entry* e = table.find(tag.field);
    if (e == nullptr) {
      // Unknown field number: skipped deterministically (never delivered,
      // never retained), counted so operators can see schema drift.
      in.skip(tag.wt);
      m.unknown_fields.inc();
      continue;
    }
    const FieldDescriptor& fd = *e->fd;
    switch (fd.kind) {
      case FieldKind::kString: {
        if (tag.wt != WireType::kLengthDelimited) {
          throw DecodeError("wire type mismatch on field '" + fd.name + "'");
        }
        PbReader sub = in.length_delimited();
        std::string_view s = ld_view(sub);
        if (s.find('\0') != std::string_view::npos) {
          throw DecodeError("embedded NUL in string field '" + fd.name + "'");
        }
        pbio::write_string_field(record, fd, s, arena);
        break;
      }
      case FieldKind::kStruct: {
        if (tag.wt != WireType::kLengthDelimited) {
          throw DecodeError("wire type mismatch on field '" + fd.name + "'");
        }
        PbReader sub = in.length_delimited();
        // Proto merge semantics degrade to last-one-wins per leaf: a second
        // occurrence decodes into the same struct without re-zeroing.
        decode_message_impl(sub, *e->sub, static_cast<uint8_t*>(record) + fd.offset, arena,
                            budget, depth + 1);
        break;
      }
      case FieldKind::kDynArray: {
        decode_repeated(in, tag.wt, *e, record, arena, budget, depth);
        break;
      }
      default: {
        decode_scalar_value(in, tag.wt, fd, fd.pb_field, record);
        break;
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Encode: one compiled op table per message, run in two passes
// ---------------------------------------------------------------------------

namespace detail {

struct EncodeOp;

/// How one scalar type goes on the wire, instantiated per (C++ type, wire
/// encoding) pair and picked when the plan compiles, so the passes make one
/// indirect call per scalar instead of switching on kind, size and flags.
struct ScalarCodec {
  /// Payload bytes of a field holding the value at `p`; 0 when the value
  /// is zero, which proto3 omits.
  size_t (*field_size)(const uint8_t* p);
  /// Tag and payload of a field holding the value at `p`; nothing when the
  /// value is zero.
  uint8_t* (*write_field)(uint8_t* dst, const uint8_t* p, const EncodeOp& op);
  /// Payload bytes of a packed element (zeros included).
  size_t (*element_size)(const uint8_t* p);
  uint8_t* (*write_element)(uint8_t* dst, const uint8_t* p);
  /// The value widened to int64 (array count fields).
  int64_t (*as_int)(const uint8_t* p);
  size_t fixed_width;  // 4 or 8 for fixed-width wire encodings, 0 for varints
  WireType wire_type;
};

struct EncodeMessage;

/// One protobuf field of a message with everything the encoder needs
/// resolved at compile time.
struct EncodeOp {
  enum class Kind : uint8_t {
    kScalar,    // fixed-size scalar, omitted when zero
    kString,    // char*, omitted when empty
    kMessage,   // inline struct, omitted when its encoding is empty
    kPacked,    // repeated scalar: one packed length-delimited run
    kStrings,   // repeated string: one occurrence per element
    kMessages,  // repeated message: one occurrence per element
  };
  Kind kind = Kind::kScalar;
  uint8_t tag_len = 0;
  uint8_t tag[5] = {};            // pre-encoded key: number << 3 | wire type
  uint32_t offset = 0;            // field offset in the record
  uint32_t count_offset = 0;      // repeated: count field offset
  uint32_t stride = 0;            // repeated: element stride
  const ScalarCodec* scalar = nullptr;  // kScalar, or the kPacked element
  const ScalarCodec* count = nullptr;   // repeated: the count field
  const EncodeMessage* sub = nullptr;   // kMessage / kMessages
  const FieldDescriptor* fd = nullptr;  // for diagnostics; owned by the format
};

struct EncodeMessage {
  std::vector<EncodeOp> ops;
};

/// Every compiled message of one plan. A format reached along several
/// paths compiles once; a deque keeps the ops' sub pointers stable.
struct EncodeProgram {
  FormatPtr fmt;  // owns every FieldDescriptor the ops point at
  std::deque<EncodeMessage> messages;  // front() is the root
};

}  // namespace detail

namespace {

using detail::EncodeMessage;
using detail::EncodeOp;
using detail::EncodeProgram;
using detail::ScalarCodec;

template <typename T>
T load_as(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

uint8_t* write_tag(uint8_t* dst, const EncodeOp& op) {
  for (uint8_t i = 0; i < op.tag_len; ++i) dst[i] = op.tag[i];
  return dst + op.tag_len;
}

enum class Wire : uint8_t { kVarint, kZigzag, kFixed32, kFixed64, kFloat, kDouble };

/// The ScalarCodec functions for C++ type T (as stored in the record) on
/// wire encoding W. Integers widen to int64 first (sign- or zero-extended
/// by T), so narrow negatives become 10-byte varints and fixed32 carries
/// the low 32 bits, exactly as pbio::read_scalar_i64 widens them.
template <typename T, Wire W>
struct Codec {
  static constexpr size_t kWidth = W == Wire::kFixed32 || W == Wire::kFloat   ? 4
                                   : W == Wire::kFixed64 || W == Wire::kDouble ? 8
                                                                               : 0;

  static bool is_zero(const uint8_t* p) { return load_as<T>(p) == T{0}; }  // -0.0 too

  static int64_t as_int(const uint8_t* p) { return static_cast<int64_t>(load_as<T>(p)); }

  static uint64_t varint_value(const uint8_t* p) {
    const int64_t v = as_int(p);
    return W == Wire::kZigzag ? zigzag_encode(v) : static_cast<uint64_t>(v);
  }

  static size_t element_size(const uint8_t* p) {
    if constexpr (kWidth != 0) {
      return kWidth;
    } else {
      return varint_size(varint_value(p));
    }
  }

  static size_t field_size(const uint8_t* p) { return is_zero(p) ? 0 : element_size(p); }

  static uint8_t* write_element(uint8_t* dst, const uint8_t* p) {
    if constexpr (W == Wire::kFloat) {
      // A NaN goes out quieted (quiet bit set), as a float -> double ->
      // float conversion leaves it; every other value keeps its bits.
      auto bits = load_as<uint32_t>(p);
      if ((bits & 0x7F800000u) == 0x7F800000u && (bits & 0x007FFFFFu) != 0) bits |= 0x00400000u;
      std::memcpy(dst, &bits, 4);
    } else if constexpr (W == Wire::kDouble) {
      std::memcpy(dst, p, 8);
    } else if constexpr (W == Wire::kFixed32) {
      const auto v = static_cast<uint32_t>(as_int(p));
      std::memcpy(dst, &v, 4);
    } else if constexpr (W == Wire::kFixed64) {
      const auto v = static_cast<uint64_t>(as_int(p));
      std::memcpy(dst, &v, 8);
    } else {
      return write_varint(dst, varint_value(p));
    }
    return dst + kWidth;
  }

  static uint8_t* write_field(uint8_t* dst, const uint8_t* p, const EncodeOp& op) {
    return is_zero(p) ? dst : write_element(write_tag(dst, op), p);
  }

  static constexpr ScalarCodec kCodec{
      &field_size, &write_field, &element_size, &write_element, &as_int, kWidth,
      kWidth == 4 ? WireType::kFixed32 : kWidth == 8 ? WireType::kFixed64 : WireType::kVarint};
};

template <typename T>
const ScalarCodec* int_codec(uint32_t pb_flags) {
  if ((pb_flags & pbio::kPbFixed) != 0) {
    if constexpr (sizeof(T) == 8) {
      return &Codec<T, Wire::kFixed64>::kCodec;
    } else {
      return &Codec<T, Wire::kFixed32>::kCodec;
    }
  }
  if ((pb_flags & pbio::kPbZigzag) != 0) return &Codec<T, Wire::kZigzag>::kCodec;
  return &Codec<T, Wire::kVarint>::kCodec;
}

/// The codec of a scalar (kind, size) with the pb flag bits `pb_flags`.
/// Fixed beats zigzag when a descriptor carries both; floats are always
/// fixed-width.
const ScalarCodec* codec_of(FieldKind kind, uint32_t size, uint32_t pb_flags) {
  switch (kind) {
    case FieldKind::kInt:
      switch (size) {
        case 1: return int_codec<int8_t>(pb_flags);
        case 2: return int_codec<int16_t>(pb_flags);
        case 4: return int_codec<int32_t>(pb_flags);
        default: return int_codec<int64_t>(pb_flags);
      }
    case FieldKind::kUInt:
      switch (size) {
        case 1: return int_codec<uint8_t>(pb_flags);
        case 2: return int_codec<uint16_t>(pb_flags);
        case 4: return int_codec<uint32_t>(pb_flags);
        default: return int_codec<uint64_t>(pb_flags);
      }
    case FieldKind::kChar:
      return int_codec<uint8_t>(pb_flags);
    case FieldKind::kEnum:
      return int_codec<int32_t>(pb_flags);
    case FieldKind::kFloat:
      return size == 4 ? &Codec<float, Wire::kFloat>::kCodec : &Codec<double, Wire::kDouble>::kCodec;
    default:
      throw FormatError("field kind " + std::string(pbio::field_kind_name(kind)) +
                        " is not a protobuf scalar");
  }
}

const char* string_at(const uint8_t* field) { return load_as<const char*>(field); }

size_t string_length(const uint8_t* field) {
  const char* s = string_at(field);
  return s == nullptr ? 0 : std::strlen(s);
}

/// Element count of a repeated field. A count <= 0 is an empty array
/// (pbio::Encoder's rule), so a negative count can never walk off the
/// elements; a null array with a positive count is a FormatError.
uint64_t repeated_count(const uint8_t* record, const EncodeOp& op, const uint8_t** base) {
  const int64_t count = op.count->as_int(record + op.count_offset);
  if (count <= 0) return 0;
  *base = load_as<const uint8_t*>(record + op.offset);
  if (*base == nullptr) {
    throw FormatError("dynamic array '" + op.fd->name + "' is null but count is " +
                      std::to_string(count));
  }
  return static_cast<uint64_t>(count);
}

using CompiledMessages = std::unordered_map<const FormatDescriptor*, const EncodeMessage*>;

const EncodeMessage* compile_message(const FormatDescriptor& fmt, EncodeProgram& program,
                                     CompiledMessages& compiled) {
  if (auto it = compiled.find(&fmt); it != compiled.end()) return it->second;
  EncodeMessage& m = program.messages.emplace_back();
  compiled.emplace(&fmt, &m);
  for (const auto& fd : fmt.fields()) {
    if (fd.pb_field == 0) continue;  // implied length fields
    EncodeOp op;
    op.fd = &fd;
    op.offset = fd.offset;
    WireType wt = WireType::kLengthDelimited;
    switch (fd.kind) {
      case FieldKind::kString:
        op.kind = EncodeOp::Kind::kString;
        break;
      case FieldKind::kStruct:
        op.kind = EncodeOp::Kind::kMessage;
        op.sub = compile_message(*fd.element_format, program, compiled);
        break;
      case FieldKind::kDynArray: {
        const FieldDescriptor* length_fd = fmt.find_field(fd.length_field);
        if (length_fd == nullptr) {
          throw FormatError("dynamic array '" + fd.name + "' has no length field");
        }
        op.count_offset = length_fd->offset;
        op.count = codec_of(length_fd->kind, length_fd->size, 0);
        op.stride = fd.element_stride();
        if (fd.element_format) {
          op.kind = EncodeOp::Kind::kMessages;
          op.sub = compile_message(*fd.element_format, program, compiled);
        } else if (fd.element_kind == FieldKind::kString) {
          op.kind = EncodeOp::Kind::kStrings;
        } else {
          op.kind = EncodeOp::Kind::kPacked;
          op.scalar = codec_of(fd.element_kind, fd.element_size, fd.pb_field);
        }
        break;
      }
      default:
        op.kind = EncodeOp::Kind::kScalar;
        op.scalar = codec_of(fd.kind, fd.size, fd.pb_field);
        wt = op.scalar->wire_type;
        break;
    }
    const uint64_t key = (static_cast<uint64_t>(fd.pb_number()) << 3) | static_cast<uint64_t>(wt);
    op.tag_len = static_cast<uint8_t>(write_varint(op.tag, key) - op.tag);
    m.ops.push_back(op);
  }
  return &m;
}

size_t measure_message(const EncodeMessage& m, const uint8_t* record,
                       std::vector<size_t>& lengths, int depth);

/// Measure one submessage into the next pre-order slot. An empty
/// submessage keeps its slot (0) but drops its descendants' slots: the
/// write pass never descends into it.
size_t measure_submessage(const EncodeMessage& m, const uint8_t* record,
                          std::vector<size_t>& lengths, int depth) {
  const size_t slot = lengths.size();
  lengths.push_back(0);
  const size_t n = measure_message(m, record, lengths, depth);
  if (n == 0) {
    lengths.resize(slot + 1);
  } else {
    lengths[slot] = n;
  }
  return n;
}

/// Size pass: the encoded size of `record`. Every submessage, string and
/// varint-packed run length goes into `lengths` in pre-order, so the write
/// pass neither re-measures nor re-scans strings.
size_t measure_message(const EncodeMessage& m, const uint8_t* record,
                       std::vector<size_t>& lengths, int depth) {
  if (depth > static_cast<int>(FormatDescriptor::kMaxNesting)) {
    throw FormatError("pb message nesting exceeds depth cap");
  }
  size_t n = 0;
  for (const EncodeOp& op : m.ops) {
    const uint8_t* field = record + op.offset;
    switch (op.kind) {
      case EncodeOp::Kind::kScalar: {
        const size_t len = op.scalar->field_size(field);
        if (len != 0) n += op.tag_len + len;
        break;
      }
      case EncodeOp::Kind::kString: {
        const size_t len = string_length(field);
        lengths.push_back(len);
        if (len != 0) n += op.tag_len + varint_size(len) + len;
        break;
      }
      case EncodeOp::Kind::kMessage: {
        const size_t len = measure_submessage(*op.sub, field, lengths, depth + 1);
        if (len != 0) n += op.tag_len + varint_size(len) + len;
        break;
      }
      case EncodeOp::Kind::kPacked: {
        const uint8_t* base = nullptr;
        const uint64_t count = repeated_count(record, op, &base);
        if (count == 0) break;  // proto3: empty repeated field omitted
        size_t run = op.scalar->fixed_width * count;
        if (run == 0) {
          for (uint64_t i = 0; i < count; ++i) run += op.scalar->element_size(base + i * op.stride);
          lengths.push_back(run);
        }
        n += op.tag_len + varint_size(run) + run;
        break;
      }
      case EncodeOp::Kind::kStrings: {
        const uint8_t* base = nullptr;
        const uint64_t count = repeated_count(record, op, &base);
        for (uint64_t i = 0; i < count; ++i) {
          const size_t len = string_length(base + i * op.stride);
          lengths.push_back(len);
          n += op.tag_len + varint_size(len) + len;
        }
        break;
      }
      case EncodeOp::Kind::kMessages: {
        // Every element is emitted, empty ones included: the occurrence
        // count is the element count on the wire.
        const uint8_t* base = nullptr;
        const uint64_t count = repeated_count(record, op, &base);
        for (uint64_t i = 0; i < count; ++i) {
          const size_t len = measure_submessage(*op.sub, base + i * op.stride, lengths, depth + 1);
          n += op.tag_len + varint_size(len) + len;
        }
        break;
      }
    }
  }
  return n;
}

uint8_t* write_string(uint8_t* dst, const EncodeOp& op, const uint8_t* field, size_t len) {
  dst = write_varint(write_tag(dst, op), len);
  if (len != 0) std::memcpy(dst, string_at(field), len);
  return dst + len;
}

/// Write pass: the bytes measure_message sized, consuming its lengths in
/// the same pre-order. Nothing here can fail; the size pass checked it all.
uint8_t* write_message(const EncodeMessage& m, const uint8_t* record, const size_t*& length,
                       uint8_t* dst) {
  for (const EncodeOp& op : m.ops) {
    const uint8_t* field = record + op.offset;
    switch (op.kind) {
      case EncodeOp::Kind::kScalar:
        dst = op.scalar->write_field(dst, field, op);
        break;
      case EncodeOp::Kind::kString: {
        const size_t len = *length++;
        if (len != 0) dst = write_string(dst, op, field, len);
        break;
      }
      case EncodeOp::Kind::kMessage: {
        const size_t len = *length++;
        if (len == 0) break;
        dst = write_varint(write_tag(dst, op), len);
        dst = write_message(*op.sub, field, length, dst);
        break;
      }
      case EncodeOp::Kind::kPacked: {
        const uint8_t* base = nullptr;
        const uint64_t count = repeated_count(record, op, &base);
        if (count == 0) break;
        const size_t width = op.scalar->fixed_width;
        const size_t run = width != 0 ? width * count : *length++;
        dst = write_varint(write_tag(dst, op), run);
        for (uint64_t i = 0; i < count; ++i) {
          dst = op.scalar->write_element(dst, base + i * op.stride);
        }
        break;
      }
      case EncodeOp::Kind::kStrings: {
        const uint8_t* base = nullptr;
        const uint64_t count = repeated_count(record, op, &base);
        for (uint64_t i = 0; i < count; ++i) {
          dst = write_string(dst, op, base + i * op.stride, *length++);
        }
        break;
      }
      case EncodeOp::Kind::kMessages: {
        const uint8_t* base = nullptr;
        const uint64_t count = repeated_count(record, op, &base);
        for (uint64_t i = 0; i < count; ++i) {
          const size_t len = *length++;
          dst = write_varint(write_tag(dst, op), len);
          if (len != 0) dst = write_message(*op.sub, base + i * op.stride, length, dst);
        }
        break;
      }
    }
  }
  return dst;
}

}  // namespace

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

DecodePlan::DecodePlan(FormatPtr fmt) : fmt_(std::move(fmt)) {
  std::string why;
  if (!pbuf_encodable(*fmt_, &why)) {
    throw FormatError("format '" + fmt_->name() + "' has no protobuf mapping: " + why);
  }
  table_ = MessageTable::build(fmt_);
}

void* DecodePlan::decode(const void* data, size_t size, RecordArena& arena) const {
  BridgeMetrics& m = bridge_metrics();
  m.frames_in.inc();
  try {
    void* record = pbio::alloc_record(*fmt_, arena);
    apply_defaults(record, *table_, arena, nullptr);
    PbReader in(data, size);
    DecodeBudget budget(size);
    decode_message_impl(in, *table_, record, arena, budget, 0);
    m.decoded.inc();
    m.decode_bytes.record(size);
    return record;
  } catch (...) {
    // Not just DecodeError: a bad_alloc from arena growth or a FormatError
    // from a record helper must also keep frames_in == decoded + rejected.
    m.rejected.inc();
    throw;
  }
}

EncodePlan::EncodePlan(FormatPtr fmt) : fmt_(std::move(fmt)) {
  std::string why;
  if (!pbuf_encodable(*fmt_, &why)) {
    throw FormatError("format '" + fmt_->name() + "' has no protobuf mapping: " + why);
  }
  auto program = std::make_shared<EncodeProgram>();
  program->fmt = fmt_;
  CompiledMessages compiled;
  compile_message(*fmt_, *program, compiled);
  program_ = std::move(program);
}

size_t EncodePlan::measure(const void* record, EncodeScratch& scratch) const {
  scratch.lengths_.clear();
  return measure_message(program_->messages.front(), static_cast<const uint8_t*>(record),
                         scratch.lengths_, 0);
}

void EncodePlan::write(const void* record, const EncodeScratch& scratch, uint8_t* dst) const {
  const size_t* length = scratch.lengths_.data();
  const uint8_t* end = write_message(program_->messages.front(),
                                     static_cast<const uint8_t*>(record), length, dst);
  const auto n = static_cast<size_t>(end - dst);
  BridgeMetrics& m = bridge_metrics();
  m.encoded.inc();
  m.encode_bytes.record(n);
}

size_t EncodePlan::encode(const void* record, ByteBuffer& out) const {
  thread_local EncodeScratch scratch;
  const size_t n = measure(record, scratch);
  const size_t at = out.append_zeros(n);
  write(record, scratch, out.data() + at);
  return n;
}

}  // namespace morph::pbuf
