#include "src/sim/bytes.h"

#include <array>

namespace coyote {
namespace sim {
namespace {

constexpr size_t kTrailerBytes = 4;

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = kTable[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

FieldReader::FieldReader(const std::vector<uint8_t>& sealed) {
  if (sealed.size() < kTrailerBytes) {
    return;
  }
  // Read the trailer with the field codec, then narrow to the fields.
  data_ = sealed.data();
  pos_ = sealed.size() - kTrailerBytes;
  end_ = sealed.size();
  ok_ = true;
  const uint32_t stored = U32();
  pos_ = 0;
  end_ = sealed.size() - kTrailerBytes;
  ok_ = Crc32(data_, end_) == stored;
}

std::vector<uint8_t> FieldReader::Bytes() {
  const uint32_t len = U32();
  if (!Need(len)) {
    return {};
  }
  std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return out;
}

std::string FieldReader::Str() {
  const uint32_t len = U32();
  if (!Need(len)) {
    return {};
  }
  std::string out(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return out;
}

uint64_t HashLines(const std::vector<std::string>& lines) {
  uint64_t h = kFnvOffset;
  const uint8_t newline = '\n';
  for (const std::string& line : lines) {
    FoldBytes(&h, reinterpret_cast<const uint8_t*>(line.data()), line.size());
    FoldBytes(&h, &newline, 1);
  }
  return h;
}

}  // namespace sim
}  // namespace coyote
