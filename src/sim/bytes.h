// The byte layer every wire format and fingerprint in the simulator shares:
// one little-endian field codec, one CRC-32 and one FNV-1a.
//
// A wire format built on it keeps only its framing. CYRP serving frames
// (src/net/rpc.h) and CYK1 checkpoints (src/vfpga/checkpoint.h) are both
// "header fields, payload fields, u32 CRC-32 over everything before it";
// the PCAP capture writer (src/net/sniffer.cc) uses the field writer alone.
//
// Fields are fixed-width little-endian integers and u32-length-prefixed byte
// strings: no varints, no padding, no host-order leaks. A reader over a
// sealed buffer checks the CRC trailer before it hands out a single field, is
// bounds-checked on every read, and once anything fails stays failed: ok()
// and AtEnd() are false and every later read yields zero/empty.

#ifndef SRC_SIM_BYTES_H_
#define SRC_SIM_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace coyote {
namespace sim {

// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF).
uint32_t Crc32(const uint8_t* data, size_t len);

class FieldWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { Le(v); }
  void U32(uint32_t v) { Le(v); }
  void U64(uint64_t v) { Le(v); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  // Length-prefixed (u32) byte string.
  void Bytes(const uint8_t* data, size_t len) {
    U32(static_cast<uint32_t>(len));
    Raw(data, len);
  }
  void Bytes(const std::vector<uint8_t>& data) { Bytes(data.data(), data.size()); }
  void Str(std::string_view s) { Bytes(reinterpret_cast<const uint8_t*>(s.data()), s.size()); }
  // Bytes with no length prefix.
  void Raw(const uint8_t* data, size_t len) { buf_.insert(buf_.end(), data, data + len); }

  void Reserve(size_t n) { buf_.reserve(n); }
  size_t size() const { return buf_.size(); }

  // Hands out the bytes as written. The writer is consumed.
  std::vector<uint8_t> Take() && { return std::move(buf_); }
  // Appends the CRC-32 trailer over every byte written and hands out the
  // sealed buffer. The writer is consumed.
  std::vector<uint8_t> Finish() && {
    U32(Crc32(buf_.data(), buf_.size()));
    return std::move(buf_);
  }

 protected:
  // lint: guard-ok stack-local serialization buffer: a writer is built, filled and finished within one context, never shared
  std::vector<uint8_t> buf_;

 private:
  template <typename T>
  void Le(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
};

class FieldReader {
 public:
  // Opens a buffer sealed by FieldWriter::Finish: ok() is false when it is
  // shorter than the trailer or the CRC does not match.
  explicit FieldReader(const std::vector<uint8_t>& sealed);

  bool ok() const { return ok_; }
  // True when every field byte has been consumed (trailer excluded).
  bool AtEnd() const { return ok_ && pos_ == end_; }
  size_t remaining() const { return ok_ ? end_ - pos_ : 0; }
  // False, and failed from then on, unless `n` more bytes remain.
  bool Need(size_t n) {
    ok_ = ok_ && end_ - pos_ >= n;
    return ok_;
  }

  uint8_t U8() { return Need(1) ? data_[pos_++] : 0; }
  uint16_t U16() { return Le<uint16_t>(); }
  uint32_t U32() { return Le<uint32_t>(); }
  uint64_t U64() { return Le<uint64_t>(); }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  std::vector<uint8_t> Bytes();
  std::string Str();

 protected:
  // Rejects the whole buffer (a framing check failed).
  void Reject() { ok_ = false; }

 private:
  template <typename T>
  T Le() {
    if (!Need(sizeof(T))) {
      return 0;
    }
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_ = nullptr;
  size_t pos_ = 0;
  size_t end_ = 0;  // field end (start of the CRC trailer)
  bool ok_ = false;
};

// FNV-1a, 64-bit: the hash behind every fingerprint and integrity witness.
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

inline void FoldBytes(uint64_t* h, const uint8_t* data, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    *h ^= data[i];
    *h *= 0x100000001b3ull;
  }
}

// Folds `v`'s 8 bytes low byte first.
inline void FoldU64(uint64_t* h, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    const uint8_t b = static_cast<uint8_t>(v >> (8 * i));
    FoldBytes(h, &b, 1);
  }
}

inline uint64_t HashBytes(const uint8_t* data, size_t len) {
  uint64_t h = kFnvOffset;
  FoldBytes(&h, data, len);
  return h;
}

// Hashes `lines` as one text with a '\n' after every line.
uint64_t HashLines(const std::vector<std::string>& lines);

}  // namespace sim
}  // namespace coyote

#endif  // SRC_SIM_BYTES_H_
