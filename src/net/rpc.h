// Length-prefixed, CRC-trailed RPC framing for control-plane messages that
// ride the simulated fabric (router -> node request batches, node -> router
// completions and heartbeats).
//
// The serving tier ships request *metadata* on the wire and lets payloads
// travel as ref-counted axi::BufferViews alongside the frame — the wire
// delay charges for both, the host copies for neither. A frame is:
//
//   u32 magic "CYRP"   u16 version   u8 type   u8 reserved
//   u32 payload_len    payload bytes...
//   u32 crc32          (IEEE 802.3, over everything before it)
//
// Fields are the shared little-endian codec (src/sim/bytes.h); this header
// adds only the CYRP framing. The header's payload_len plus payload is one
// length-prefixed Bytes field. A frame that fails magic/version/length/CRC
// validation is rejected as a whole; the reader then reports !ok(), no type,
// AtEnd() false, and every subsequent field read returns zero.

#ifndef SRC_NET_RPC_H_
#define SRC_NET_RPC_H_

#include <cstdint>
#include <vector>

#include "src/sim/bytes.h"

namespace coyote {
namespace net {
namespace rpc {

inline constexpr uint32_t kMagic = 0x50525943u;  // "CYRP"
inline constexpr uint16_t kVersion = 1;

enum class MsgType : uint8_t {
  kRequestBatch = 1,  // router -> node: a batch of serving requests
  kCompletion = 2,    // node -> router: one typed completion
  kHeartbeat = 3,     // node -> router: liveness beacon
};

class FrameWriter : public sim::FieldWriter {
 public:
  // Seals the frame: prepends the header, appends the CRC trailer.
  std::vector<uint8_t> Finish(MsgType type) const;
};

class FrameReader : public sim::FieldReader {
 public:
  // Validates header + CRC; on any mismatch ok() is false and reads yield 0.
  explicit FrameReader(const std::vector<uint8_t>& frame);

  MsgType type() const { return type_; }

 private:
  MsgType type_{};  // no MsgType until the frame validates
};

}  // namespace rpc
}  // namespace net
}  // namespace coyote

#endif  // SRC_NET_RPC_H_
