#include "src/net/frame.h"

#include <algorithm>
#include <cstring>

#include "src/common/byte_io.h"

namespace zeppelin {
namespace net {

const char* FrameStatusName(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk:
      return "ok";
    case FrameStatus::kIncomplete:
      return "incomplete";
    case FrameStatus::kBadMagic:
      return "bad-magic";
    case FrameStatus::kBadType:
      return "bad-type";
    case FrameStatus::kBadReserved:
      return "bad-reserved";
    case FrameStatus::kOversized:
      return "oversized";
  }
  return "unknown";
}

void AppendFrame(FrameType type, std::string_view payload, std::string* out) {
  ByteWriter(ReserveFrame(type, payload.size(), out)).PutBytes(payload.data(), payload.size());
}

char* ReserveFrame(FrameType type, size_t payload_size, std::string* out) {
  const size_t start = out->size();
  out->resize(start + kFrameHeaderBytes + payload_size);
  ByteWriter w(out->data() + start);
  w.PutBytes(kFrameMagic, 4);
  w.Put<uint8_t>(static_cast<uint8_t>(type));
  w.PutBytes("\0\0\0", 3);
  w.Put<uint32_t>(static_cast<uint32_t>(payload_size));
  return w.pos();
}

FrameDecoder::FrameDecoder(uint32_t max_frame_bytes)
    : max_frame_bytes_(std::min(max_frame_bytes, kFrameHardCap)) {}

void FrameDecoder::Feed(const char* data, size_t size) {
  if (poisoned()) {
    return;
  }
  // Compact before growing: consumed bytes are dead weight, and dropping
  // them keeps the buffer bounded by (header + one frame cap + one read).
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > (64u << 10)) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

FrameStatus FrameDecoder::Next(Frame* frame) {
  if (poisoned()) {
    return error_;
  }
  const size_t available = buffer_.size() - consumed_;
  // Validate the header prefix as soon as its bytes exist — a bad magic or
  // type is reportable before the full header arrives.
  const unsigned char* head =
      reinterpret_cast<const unsigned char*>(buffer_.data()) + consumed_;
  const size_t magic_have = std::min<size_t>(available, 4);
  if (std::memcmp(head, kFrameMagic, magic_have) != 0) {
    return error_ = FrameStatus::kBadMagic;
  }
  if (available < kFrameHeaderBytes) {
    return FrameStatus::kIncomplete;
  }
  const uint8_t type = head[4];
  if (type != static_cast<uint8_t>(FrameType::kRequest) &&
      type != static_cast<uint8_t>(FrameType::kResponse) &&
      type != static_cast<uint8_t>(FrameType::kError)) {
    return error_ = FrameStatus::kBadType;
  }
  if (head[5] != 0 || head[6] != 0 || head[7] != 0) {
    return error_ = FrameStatus::kBadReserved;
  }
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, head + 8, sizeof(payload_len));
  // The length field is attacker-controlled: cap it before it can drive any
  // buffering or allocation decision.
  if (payload_len > max_frame_bytes_) {
    return error_ = FrameStatus::kOversized;
  }
  if (available < kFrameHeaderBytes + payload_len) {
    return FrameStatus::kIncomplete;
  }
  frame->type = static_cast<FrameType>(type);
  frame->payload.assign(buffer_, consumed_ + kFrameHeaderBytes, payload_len);
  consumed_ += kFrameHeaderBytes + payload_len;
  return FrameStatus::kOk;
}

}  // namespace net
}  // namespace zeppelin
