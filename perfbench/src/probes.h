// Probes shared by several workloads: each replays one round's own inputs
// through one layer's public functions, with a span around every call, and
// returns the layer's host cost per unit of work.

#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/axi/buffer.h"

namespace perfbench {

// Sum of the durations of every span named `name` (ns) and their count.
struct SpanSum {
  int64_t ns = 0;
  uint64_t count = 0;
};
SpanSum SumSpans(const Tracer& tracer, const std::string& name);

// CThread::WriteBuffer, then ReadBuffer, of each size on a probe device's
// buffer; ns per KiB copied.
void ProbeSvm(const std::vector<uint64_t>& sizes, Tracer* tracer, double* write_ns_per_kib,
              double* read_ns_per_kib);

// vfpga::ckpt::Crc32 over each buffer; ns per KiB.
double ProbeCrcNsPerKib(const std::vector<std::vector<uint8_t>>& buffers, Tracer* tracer);

// net::ParseFrame on each captured frame, then net::BuildFrame from the
// parsed header and payload; ns per frame for each.
void ProbeFrames(const std::vector<coyote::axi::BufferView>& frames, Tracer* tracer,
                 double* build_ns, double* parse_ns);

// One checkpoint blob per size: CaptureRegion + ckpt::Writer + Finish, then
// ckpt::Reader + RegionSnapshot::ParseFrom + RestoreRegion; us per blob.
double ProbeBlobUs(const std::vector<uint64_t>& blob_bytes, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBES_H_
