// Frame protocol shared by every transport.
//
// A connection carries length-prefixed frames:
//   [u32 length][u8 type][optional u64 trace id][payload ...]
// where length counts everything after itself (type byte, optional trace
// header, payload). Frame types implement the paper's out-of-band meta-data
// channel: format definitions and transform definitions travel once, data
// messages reference formats by the fingerprint in their PBIO header.
//
// Trace header: when bit 0x80 of the type byte is set, an 8-byte trace id
// follows the type byte before the payload (obs/trace.hpp). The bit is
// optional and per-frame, so peers built before the header existed keep
// interoperating: frames they send parse exactly as they always did, and
// tracing-aware senders only set the bit when a trace is active.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.hpp"

namespace morph::transport {

enum class FrameType : uint8_t {
  kFormatDef = 1,      // serialized FormatDescriptor
  kTransformDef = 2,   // serialized TransformSpec
  kData = 3,           // PBIO-encoded message
  kControl = 4,        // application-level control payload
  kFmtsvcRequest = 5,  // format-service request (fmtsvc/protocol.hpp)
  kFmtsvcReply = 6,    // format-service reply
  kTelemetry = 7,      // telemetry-plane payload (obs/telemetry.hpp)
  /// Protobuf-encoded message: [u64 format fingerprint][protobuf bytes].
  /// Sent only after the peer announced pbuf acceptance (the "@enc pbuf"
  /// control sentinel — see MessagePort::announce_pbuf), so legacy peers
  /// never see the type. The fingerprint substitutes for the PBIO header:
  /// it names the imported .proto format whose field numbers decode the
  /// payload.
  kPbufData = 8,
};

constexpr uint8_t kMaxFrameType = 8;

/// Type-byte bit marking the presence of the 8-byte trace id header.
constexpr uint8_t kFrameTraceBit = 0x80;

struct Frame {
  FrameType type = FrameType::kData;
  uint64_t trace_id = 0;  // 0 when the frame carried no trace header
  std::vector<uint8_t> payload;
};

constexpr size_t kMaxFrameBytes = 64u << 20;  // hostile-peer allocation cap

/// Append a frame to `out`. A non-zero `trace_id` is propagated in the
/// optional trace header (zero sends the legacy headerless shape).
void write_frame(ByteBuffer& out, FrameType type, const void* payload, size_t size,
                 uint64_t trace_id = 0);

/// Bytes write_frame_header appends: the length prefix, the type byte and,
/// for a non-zero `trace_id`, the trace header.
constexpr size_t frame_header_size(uint64_t trace_id) { return 4 + (trace_id != 0 ? 1 + 8 : 1); }

/// Append only the header of a frame whose `size` payload bytes the caller
/// appends next — for payloads written in place into the frame buffer.
void write_frame_header(ByteBuffer& out, FrameType type, size_t size, uint64_t trace_id = 0);

/// Incremental frame decoder: feed raw bytes, pop complete frames.
class FrameAssembler {
 public:
  /// Feed `size` bytes; invokes `sink` for every completed frame.
  /// Throws TransportError on malformed frames (oversized, bad type).
  void feed(const void* data, size_t size, const std::function<void(Frame&)>& sink);

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::vector<uint8_t> buffer_;
};

}  // namespace morph::transport
