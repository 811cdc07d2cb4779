// Compiled conversion plans between protobuf frames and native records.
//
// DecodePlan: protobuf bytes -> a native-layout record allocated from a
// RecordArena, laid out exactly as the plan's format describes. When that
// format is a morph chain's *source* layout, the decode lands directly in
// the chain's input (the decode-into-morph idiom from the broker fan-out
// work): protobuf frame -> decode -> fused Ecode chain -> delivered native
// record, with no intermediate PBIO round trip.
//
// EncodePlan: native record -> protobuf bytes, proto3 semantics (zero
// scalars, empty strings, empty submessages, and empty arrays are
// omitted; repeated elements are always emitted, zeros included, so
// element counts survive). Round trips are value-identical because the
// decoder zero-fills records before applying field presence. An array
// whose count field reads <= 0 encodes as empty, as in pbio::Encoder.
//
// DecodePlan precompiles a field-number dispatch table per message, so the
// per-frame work is table lookups, not name/number searches. EncodePlan
// compiles each message into a flat op table (offsets, pre-encoded tag
// bytes, a scalar codec chosen by kind, size and zigzag/fixed flags,
// count-field offsets, element strides, sub-plans) and encodes in two
// passes: a size pass that records every submessage, string and packed-run
// length in pre-order into an EncodeScratch, then a write pass that emits
// raw bytes into a buffer sized exactly once. No pass allocates per
// submessage; a reused scratch makes encodes allocation-free.
//
// Conservation law (checked by tools/morph-stat): every frame handed to
// DecodePlan::decode bumps morph_pbuf_frames_in_total and then exactly one
// of morph_pbuf_decoded_total / morph_pbuf_rejected_total, so
//   frames_in == decoded + rejected
// holds at every instant, for every caller (ports, benches, tests). Every
// failure path counts as rejected — malformed input, the per-frame decode
// byte budget, allocation failure — not just DecodeError.
//
// Allocation is bounded per frame: repeated-element storage (dyn-array
// growth plus per-element default strings) is charged against a budget
// proportional to the payload size before each allocation, so a tiny
// hostile frame referencing a peer-learned descriptor with a huge
// element_stride rejects with DecodeError instead of forcing multi-GB
// arena growth.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.hpp"
#include "common/bytes.hpp"
#include "obs/metrics.hpp"
#include "pbio/format.hpp"
#include "pbuf/wire.hpp"

namespace morph::pbuf {

namespace detail {
struct MessageTable;
struct EncodeProgram;
}

/// The process-wide morph_pbuf_* metrics, looked up once (registry
/// references stay valid forever; hot paths keep these references).
struct BridgeMetrics {
  obs::Counter& frames_in;       // morph_pbuf_frames_in_total
  obs::Counter& decoded;         // morph_pbuf_decoded_total
  obs::Counter& rejected;        // morph_pbuf_rejected_total
  obs::Counter& unknown_fields;  // morph_pbuf_unknown_fields_total
  obs::Counter& encoded;         // morph_pbuf_encoded_total
  obs::Histogram& decode_bytes;  // morph_pbuf_decode_bytes
  obs::Histogram& encode_bytes;  // morph_pbuf_encode_bytes
};
BridgeMetrics& bridge_metrics();

/// Decode protobuf payloads into native records of one format.
class DecodePlan {
 public:
  /// Throws FormatError unless `fmt` is pbuf_encodable (the same mapping
  /// completeness is needed in both directions).
  explicit DecodePlan(pbio::FormatPtr fmt);

  /// Decode one protobuf payload into a fresh record from `arena`.
  /// Declared field defaults are applied first, then wire fields overwrite
  /// them (absent fields therefore read as their default, or zero).
  /// Unknown field numbers are skipped deterministically and counted in
  /// morph_pbuf_unknown_fields_total. Malformed input — including input
  /// that exceeds the per-frame decode byte budget — throws DecodeError
  /// after bumping the rejected counter; the record under construction is
  /// abandoned to the arena (reset it between messages as usual). Any
  /// other failure (bad_alloc, FormatError) also bumps rejected before
  /// propagating, so the conservation law holds on every path.
  void* decode(const void* data, size_t size, RecordArena& arena) const;

  const pbio::FormatPtr& format() const { return fmt_; }

 private:
  pbio::FormatPtr fmt_;
  std::shared_ptr<const detail::MessageTable> table_;
};

/// Lengths EncodePlan::measure records for EncodePlan::write: one per
/// submessage, string and varint-packed run, in pre-order. Keep one per
/// encoding thread; once it has grown to the largest record it sees,
/// encodes stop allocating.
class EncodeScratch {
 private:
  friend class EncodePlan;
  std::vector<size_t> lengths_;
};

/// Encode native records of one format as protobuf payloads.
class EncodePlan {
 public:
  /// Throws FormatError unless `fmt` is pbuf_encodable.
  explicit EncodePlan(pbio::FormatPtr fmt);

  /// Append the protobuf encoding of `record` to `out`; returns the number
  /// of bytes appended. Both passes, with a per-thread scratch; `out`
  /// grows at most once. On FormatError `out` is left unchanged.
  size_t encode(const void* record, ByteBuffer& out) const;

  /// Size pass: the exact encoded size of `record`. Throws FormatError
  /// (nesting beyond FormatDescriptor::kMaxNesting, a null array with a
  /// positive count) before anything is written.
  size_t measure(const void* record, EncodeScratch& scratch) const;

  /// Write pass: emit exactly measure(record, scratch) bytes at `dst`.
  /// `record` must not change between the two calls. Bumps
  /// morph_pbuf_encoded_total and morph_pbuf_encode_bytes.
  void write(const void* record, const EncodeScratch& scratch, uint8_t* dst) const;

  const pbio::FormatPtr& format() const { return fmt_; }

 private:
  pbio::FormatPtr fmt_;
  std::shared_ptr<const detail::EncodeProgram> program_;
};

}  // namespace morph::pbuf
