#include "src/net/sniffer.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/sim/bytes.h"

namespace coyote {
namespace net {

bool TrafficSniffer::Matches(const axi::BufferView& frame, bool is_tx) const {
  if (is_tx && !filter_.capture_tx) {
    return false;
  }
  if (!is_tx && !filter_.capture_rx) {
    return false;
  }
  if (filter_.src_ip != 0 || filter_.dst_ip != 0 || filter_.opcode.has_value()) {
    auto parsed = ParseFrame(frame);
    if (!parsed) {
      return false;
    }
    if (filter_.src_ip != 0 && parsed->meta.src_ip != filter_.src_ip) {
      return false;
    }
    if (filter_.dst_ip != 0 && parsed->meta.dst_ip != filter_.dst_ip) {
      return false;
    }
    if (filter_.opcode.has_value() && parsed->meta.opcode != *filter_.opcode) {
      return false;
    }
  }
  return true;
}

void TrafficSniffer::OnFrame(const axi::BufferView& frame, bool is_tx) {
  if (!recording_) {
    return;
  }
  if (!Matches(frame, is_tx)) {
    ++dropped_by_filter_;
    return;
  }
  CapturedFrame cap;
  cap.timestamp = engine_->Now();
  cap.is_tx = is_tx;
  cap.original_len = static_cast<uint32_t>(frame.size());
  if (filter_.headers_only) {
    // Keep Ethernet + IPv4 + UDP + BTH + (max) RETH. A truncating slice
    // would pin the full frame alive in the capture buffer, so headers-only
    // mode copies the prefix instead (that's the mode's entire point —
    // bounding the HBM staging footprint).
    const size_t keep = std::min(frame.size(), kEthHeaderBytes + kIpv4HeaderBytes +
                                                   kUdpHeaderBytes + kBthBytes + kRethBytes);
    cap.bytes.assign(frame.begin(), frame.begin() + static_cast<ptrdiff_t>(keep));
  } else {
    cap.bytes = frame;  // shares the wire frame's storage
  }
  guard_.Write();
  frames_.push_back(std::move(cap));
}

uint64_t TrafficSniffer::capture_bytes() const {
  uint64_t n = 0;
  for (const auto& f : frames_) {
    n += f.bytes.size() + 16;  // + per-frame metadata record
  }
  return n;
}

std::vector<uint8_t> TrafficSniffer::ToPcap() const {
  sim::FieldWriter out;
  // Global header.
  out.U32(0xa1b2c3d4);  // magic (microsecond timestamps)
  out.U16(2);           // version major
  out.U16(4);           // version minor
  out.U32(0);           // thiszone
  out.U32(0);           // sigfigs
  out.U32(65535);       // snaplen
  out.U32(1);           // LINKTYPE_ETHERNET
  for (const auto& f : frames_) {
    const uint64_t usec_total = f.timestamp / sim::kPsPerUs;
    out.U32(static_cast<uint32_t>(usec_total / 1'000'000));
    out.U32(static_cast<uint32_t>(usec_total % 1'000'000));
    out.U32(static_cast<uint32_t>(f.bytes.size()));
    out.U32(f.original_len);
    out.Raw(f.bytes.data(), f.bytes.size());
  }
  return std::move(out).Take();
}

bool TrafficSniffer::WritePcapFile(const std::string& path) const {
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  if (fp == nullptr) {
    return false;
  }
  const std::vector<uint8_t> data = ToPcap();
  const bool ok = std::fwrite(data.data(), 1, data.size(), fp) == data.size();
  std::fclose(fp);
  return ok;
}

}  // namespace net
}  // namespace coyote
