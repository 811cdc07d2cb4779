// MessagePort: the morphing middleware endpoint over a Link.
//
// A port implements the paper's out-of-band meta-data discipline:
//   * the first time a format is sent, its FormatDescriptor — and every
//     transform spec reachable from it — travels as meta-data frames;
//   * subsequent messages of that format cost only the 16-byte PBIO header;
//   * the receiving port feeds learned formats/transforms into its
//     core::Receiver and pushes every data frame through Algorithm 2.
//
// Control frames bypass morphing and deliver raw bytes (ECho uses them for
// its own bootstrap before formats are established).
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/receiver.hpp"
#include "pbio/encode.hpp"
#include "pbuf/bridge.hpp"
#include "transport/framing.hpp"
#include "transport/link.hpp"

namespace morph::transport {

/// Control sentinel a port sends to announce it accepts protobuf-encoded
/// data frames (FrameType::kPbufData). The remote port consumes it during
/// frame dispatch — it never reaches the application control handler — and
/// ports that predate the sentinel deliver it as an ordinary control
/// payload, which applications ignore by convention; such peers simply
/// never set the bit and keep receiving PBIO.
inline constexpr char kPbufEnableSentinel[] = "@enc pbuf";

class MessagePort {
 public:
  /// `receiver` may be null for a send-only port. Both must outlive the
  /// port.
  MessagePort(Link& link, core::Receiver* receiver);

  /// Declare a transform to ship alongside its source format (the sender
  /// side of "the writer may also specify a set of transformations").
  void declare_transform(core::TransformSpec spec);

  /// Encode and send a record; lazily sends format + transform meta-data.
  void send_record(const pbio::FormatPtr& fmt, const void* record);

  /// Send a pre-built shared data frame of format `fmt` (see
  /// make_shared_frame). Per-port meta-data for the format still goes out
  /// first — once, lazily, exactly as send_record does — but the payload
  /// bytes themselves are shared: the broker encodes one frame and every
  /// port in the fan-out group forwards the same buffer.
  void send_shared(const pbio::FormatPtr& fmt, const SharedPayload& frame);

  /// Announce to the peer that this port accepts protobuf-encoded data
  /// frames. After the announcement round-trips, the peer's send_record
  /// switches to FrameType::kPbufData for every pbuf-encodable format
  /// (formats without protobuf field numbers keep using PBIO frames).
  void announce_pbuf();

  /// True once the peer announced pbuf acceptance ("@enc pbuf" arrived).
  bool peer_accepts_pbuf() const { return peer_accepts_pbuf_; }

  /// Raw control payload.
  void send_control(const void* data, size_t size);
  void set_on_control(std::function<void(const uint8_t*, size_t)> cb) {
    on_control_ = std::move(cb);
  }

  /// Out-of-band meta-data distribution hook. When set, a first-contact
  /// format (plus the transforms declared for it) is offered to the
  /// publisher — typically fmtsvc::FormatResolver::publish — instead of
  /// being framed inline. A false return (service unreachable or entry
  /// refused) degrades gracefully: the port falls back to inline
  /// kFormatDef/kTransformDef frames for that format, so peers without
  /// service access still learn it. Transforms declared after their source
  /// format already went out always travel inline.
  using MetaPublisher =
      std::function<bool(const pbio::FormatPtr&, const std::vector<core::TransformSpec>&)>;
  void set_meta_publisher(MetaPublisher publisher) { meta_publisher_ = std::move(publisher); }

  struct PortStats {
    uint64_t data_sent = 0;
    uint64_t data_received = 0;
    uint64_t meta_frames_sent = 0;
    uint64_t meta_frames_received = 0;
    uint64_t meta_published = 0;  // formats handed to the meta publisher
    uint64_t bytes_sent = 0;
    uint64_t bad_frames = 0;  // malformed frames; the port is wire-dead after one
    uint64_t pbuf_sent = 0;      // data frames that went out protobuf-encoded
    uint64_t pbuf_received = 0;  // kPbufData frames that arrived
    uint64_t pbuf_rejects = 0;   // pbuf frames dropped (bad payload/unknown format)
  };
  const PortStats& stats() const { return stats_; }

  /// True once a malformed frame poisoned the byte stream: the port stops
  /// processing input (framing cannot resynchronize) but never throws
  /// through the link's receive callback.
  bool wire_dead() const { return wire_dead_; }

 private:
  void on_bytes(const uint8_t* data, size_t size);
  void feed_frames(const uint8_t* data, size_t size);
  void send_meta_for(const pbio::FormatPtr& fmt);
  /// The cached protobuf encoder for `fmt`, or nullptr when the format
  /// cannot be expressed as protobuf (no field numbers).
  pbuf::EncodePlan* pbuf_encoder_for(const pbio::FormatPtr& fmt);
  void send_record_pbuf(const pbuf::EncodePlan& plan, const void* record, uint64_t trace_id);
  void deliver_pbuf(const Frame& frame);

  Link& link_;
  core::Receiver* receiver_;
  FrameAssembler assembler_;
  std::unordered_set<uint64_t> sent_formats_;
  std::vector<core::TransformSpec> declared_transforms_;
  std::unordered_map<uint64_t, std::unique_ptr<pbio::Encoder>> encoders_;
  std::unordered_map<uint64_t, std::unique_ptr<pbuf::EncodePlan>> pbuf_encoders_;
  std::unordered_map<uint64_t, std::unique_ptr<pbuf::DecodePlan>> pbuf_decoders_;
  pbuf::EncodeScratch pbuf_scratch_;
  std::function<void(const uint8_t*, size_t)> on_control_;
  MetaPublisher meta_publisher_;
  RecordArena rx_arena_;
  PortStats stats_;
  bool wire_dead_ = false;
  bool peer_accepts_pbuf_ = false;
};

/// Build a complete kData frame around an already-encoded PBIO message —
/// the shared encode of a fan-out group, ready for MessagePort::send_shared
/// on every member port. A non-zero `trace_id` travels in the frame's trace
/// header, as in send_record.
SharedPayload make_shared_frame(const void* msg, size_t size, uint64_t trace_id = 0);

/// Protobuf-encode `record` straight into a complete kPbufData frame: the
/// fan-out group's shared encode for pbuf-speaking sinks. The payload is
/// the fingerprint of plan.format() (the receiving port resolves it against
/// its learned registry) followed by the protobuf bytes. The plan's size
/// pass sizes the frame, which is allocated once at its exact size and
/// written in place; a FormatError from that pass leaves nothing sent.
SharedPayload make_shared_pbuf_frame(const pbuf::EncodePlan& plan, const void* record,
                                     pbuf::EncodeScratch& scratch, uint64_t trace_id = 0);

}  // namespace morph::transport
