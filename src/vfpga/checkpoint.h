// Checkpointable vFPGA state: the wire format and the region capture API.
//
// A kernel-state checkpoint is what lets an orchestrator move a tenant
// between nodes (Funky-style cloud-native FPGA orchestration) or context-
// switch more tenants than regions (SYNERGY): everything the region will not
// reproduce on its own — CSR contents, retired-beat counter, and the
// kernel's private state blob — serialized deterministically so two
// same-seed runs produce bit-identical checkpoint bytes.
//
// Wire format (little-endian, see DESIGN.md "Checkpoint wire format"):
//
//   u32 magic 'C''Y''K''1'   u16 version   u16 flags
//   <payload sections written by the owner via Writer>
//   u32 crc32                 (IEEE 802.3, over everything before it)
//
// Fields are the shared little-endian codec and CRC-32 (src/sim/bytes.h);
// this header adds only the CYK1 framing. A Reader validates the CRC and
// magic/version before handing out a single field, so a truncated or
// bit-flipped checkpoint is rejected as a whole rather than half-applied.

#ifndef SRC_VFPGA_CHECKPOINT_H_
#define SRC_VFPGA_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/bytes.h"

namespace coyote {
namespace vfpga {

class Vfpga;

namespace ckpt {

inline constexpr uint32_t kMagic = 0x314B5943u;  // "CYK1"
inline constexpr uint16_t kVersion = 1;

using sim::Crc32;

class Writer : public sim::FieldWriter {
 public:
  // Starts a checkpoint stream: magic + version + flags header. The
  // inherited Finish() && appends the CRC trailer.
  explicit Writer(uint16_t flags = 0);
};

class Reader : public sim::FieldReader {
 public:
  // Validates the CRC trailer, magic and version; ok() is false (and every
  // read returns zero/empty) when the blob is malformed or corrupt.
  explicit Reader(const std::vector<uint8_t>& blob);

  uint16_t flags() const { return flags_; }

 private:
  uint16_t flags_ = 0;
};

}  // namespace ckpt

// Everything a region will not reproduce on its own after a reprogram:
// the resident kernel's name (so the restorer can instantiate it), the CSR
// file, the heartbeat counter and the kernel's private state blob. Captured
// deterministically (CSR indices ascending).
struct RegionSnapshot {
  std::string kernel_name;  // empty: no kernel resident
  std::vector<std::pair<uint32_t, uint64_t>> csr;  // ascending index
  uint64_t beats_retired = 0;
  std::vector<uint8_t> kernel_state;  // HwKernel::SaveState blob

  bool operator==(const RegionSnapshot&) const = default;

  // Serialized payload section (no header/CRC — embed into a Writer).
  void AppendTo(ckpt::Writer* w) const;
  // Reads the section back; returns false (leaving *this unspecified) on a
  // malformed stream.
  bool ParseFrom(ckpt::Reader* r);
};

// Captures the region's restorable state. The kernel, if any, contributes
// its SaveState blob. Safe on a quiesced region (no in-flight streams).
RegionSnapshot CaptureRegion(Vfpga& region);

// Applies a snapshot to a region whose kernel has already been instantiated
// (LoadKernel with a kernel matching snapshot.kernel_name — partial
// reconfiguration is the caller's job; this restores the *state*). Returns
// false when the resident kernel mismatches the snapshot or the kernel
// rejects its state blob.
bool RestoreRegion(Vfpga& region, const RegionSnapshot& snapshot);

}  // namespace vfpga
}  // namespace coyote

#endif  // SRC_VFPGA_CHECKPOINT_H_
