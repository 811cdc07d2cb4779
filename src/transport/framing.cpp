#include "transport/framing.hpp"

#include <cstring>
#include <string>

#include "common/error.hpp"

namespace morph::transport {

void write_frame_header(ByteBuffer& out, FrameType type, size_t size, uint64_t trace_id) {
  const size_t header = frame_header_size(trace_id) - 4;
  if (size + header > kMaxFrameBytes) throw TransportError("frame too large");
  out.append_u32(static_cast<uint32_t>(size + header));
  uint8_t type_byte = static_cast<uint8_t>(type);
  if (trace_id != 0) type_byte |= kFrameTraceBit;
  out.append_u8(type_byte);
  if (trace_id != 0) out.append_u64(trace_id);
}

void write_frame(ByteBuffer& out, FrameType type, const void* payload, size_t size,
                 uint64_t trace_id) {
  write_frame_header(out, type, size, trace_id);
  if (size > 0) out.append(payload, size);
}

void FrameAssembler::feed(const void* data, size_t size,
                          const std::function<void(Frame&)>& sink) {
  const auto* p = static_cast<const uint8_t*>(data);
  buffer_.insert(buffer_.end(), p, p + size);

  size_t pos = 0;
  while (buffer_.size() - pos >= 4) {
    uint32_t len;
    std::memcpy(&len, buffer_.data() + pos, 4);
    if (len == 0 || len > kMaxFrameBytes) throw TransportError("bad frame length");
    if (buffer_.size() - pos - 4 < len) break;
    uint8_t type_byte = buffer_[pos + 4];
    uint8_t type = type_byte & static_cast<uint8_t>(~kFrameTraceBit);
    if (type < 1 || type > kMaxFrameType) {
      throw TransportError("bad frame type " + std::to_string(static_cast<unsigned>(type)));
    }
    Frame frame;
    frame.type = static_cast<FrameType>(type);
    size_t header = 1;
    if ((type_byte & kFrameTraceBit) != 0) {
      if (len < 1 + 8) throw TransportError("bad frame length");  // trace header truncated
      std::memcpy(&frame.trace_id, buffer_.data() + pos + 5, 8);
      header = 1 + 8;
    }
    frame.payload.assign(buffer_.begin() + static_cast<long>(pos + 4 + header),
                         buffer_.begin() + static_cast<long>(pos + 4 + len));
    pos += 4 + len;
    sink(frame);
  }
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(pos));
}

}  // namespace morph::transport
