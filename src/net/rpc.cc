#include "src/net/rpc.h"

namespace coyote {
namespace net {
namespace rpc {

namespace {
constexpr size_t kHeaderBytes = 4 + 2 + 1 + 1 + 4;
constexpr size_t kTrailerBytes = 4;
}  // namespace

std::vector<uint8_t> FrameWriter::Finish(MsgType type) const {
  sim::FieldWriter out;
  out.Reserve(kHeaderBytes + buf_.size() + kTrailerBytes);
  out.U32(kMagic);
  out.U16(kVersion);
  out.U8(static_cast<uint8_t>(type));
  out.U8(0);         // reserved
  out.Bytes(buf_);   // u32 payload_len + payload
  return std::move(out).Finish();
}

FrameReader::FrameReader(const std::vector<uint8_t>& frame) : sim::FieldReader(frame) {
  const bool header_ok = U32() == kMagic && U16() == kVersion;
  const auto type = static_cast<MsgType>(U8());
  U8();  // reserved
  const uint32_t len = U32();
  if (!header_ok || len != remaining()) {
    Reject();
    return;
  }
  type_ = type;
}

}  // namespace rpc
}  // namespace net
}  // namespace coyote
