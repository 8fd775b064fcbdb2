// Sparse byte-addressable backing store.
//
// Host DRAM, card HBM/DDR and GPU memory all need functional storage — the
// substrate moves real bytes so kernels (AES, HLL, NN) compute real results.
// Chunked allocation keeps multi-GB address spaces cheap when only small
// windows are touched.

#ifndef SRC_MEMSYS_SPARSE_MEMORY_H_
#define SRC_MEMSYS_SPARSE_MEMORY_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/sim/access_guard.h"

namespace coyote {
namespace memsys {

class SparseMemory {
 public:
  static constexpr uint64_t kChunkBytes = 64 * 1024;

  void Write(uint64_t addr, const void* src, uint64_t len) {
    const auto* p = static_cast<const uint8_t*>(src);
    while (len > 0) {
      const uint64_t chunk = addr / kChunkBytes;
      const uint64_t off = addr % kChunkBytes;
      const uint64_t n = std::min(len, kChunkBytes - off);
      std::memcpy(ChunkFor(chunk) + off, p, n);
      addr += n;
      p += n;
      len -= n;
    }
  }

  void Read(uint64_t addr, void* dst, uint64_t len) const {
    auto* p = static_cast<uint8_t*>(dst);
    while (len > 0) {
      const uint64_t chunk = addr / kChunkBytes;
      const uint64_t off = addr % kChunkBytes;
      const uint64_t n = std::min(len, kChunkBytes - off);
      auto it = chunks_.find(chunk);
      if (it == chunks_.end()) {
        std::memset(p, 0, n);  // untouched memory reads as zero
      } else {
        std::memcpy(p, it->second + off, n);
      }
      addr += n;
      p += n;
      len -= n;
    }
  }

  std::vector<uint8_t> ReadVector(uint64_t addr, uint64_t len) const {
    std::vector<uint8_t> v(len);
    Read(addr, v.data(), len);
    return v;
  }

  void Fill(uint64_t addr, uint8_t value, uint64_t len) {
    while (len > 0) {
      const uint64_t chunk = addr / kChunkBytes;
      const uint64_t off = addr % kChunkBytes;
      const uint64_t n = std::min(len, kChunkBytes - off);
      std::memset(ChunkFor(chunk) + off, value, n);
      addr += n;
      len -= n;
    }
  }

  uint64_t resident_bytes() const { return chunks_.size() * kChunkBytes; }

 private:
  // Chunks are carved from slabs that double from one chunk up to 256 (16
  // MiB): a sparsely touched memory stays small, a dense one makes one
  // allocation per 16 MiB, and freeing it returns a few large runs to the
  // heap rather than 64 KiB pieces that later small allocations split.
  static constexpr uint64_t kSlabChunks = 256;

  uint8_t* ChunkFor(uint64_t chunk) {
    auto it = chunks_.find(chunk);
    if (it == chunks_.end()) {
      guard_.Write();
      if (slab_used_ == slab_chunks_) {
        slab_chunks_ = slabs_.empty() ? 1 : std::min<uint64_t>(slab_chunks_ * 2, kSlabChunks);
        slabs_.push_back(std::make_unique_for_overwrite<uint8_t[]>(slab_chunks_ * kChunkBytes));
        slab_used_ = 0;
      }
      uint8_t* buf = slabs_.back().get() + slab_used_++ * kChunkBytes;
      std::memset(buf, 0, kChunkBytes);
      it = chunks_.emplace(chunk, buf).first;
    }
    return it->second;
  }

  sim::AccessGuard guard_{"memsys.sparse_memory"};
  std::vector<std::unique_ptr<uint8_t[]>> slabs_;
  uint64_t slab_chunks_ = 0;  // size of slabs_.back()
  uint64_t slab_used_ = 0;    // chunks handed out from slabs_.back()
  std::unordered_map<uint64_t, uint8_t*> chunks_;
};

}  // namespace memsys
}  // namespace coyote

#endif  // SRC_MEMSYS_SPARSE_MEMORY_H_
