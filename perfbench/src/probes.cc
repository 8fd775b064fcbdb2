#include "perfbench/src/probes.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "src/net/packets.h"
#include "src/runtime/cthread.h"
#include "src/runtime/device.h"
#include "src/services/vector_kernels.h"
#include "src/vfpga/checkpoint.h"
#include "src/vfpga/vfpga.h"

namespace perfbench {

using namespace coyote;

namespace {

// A one-region device with the passthrough kernel resident, and a cThread
// with one buffer on it, for probes that need a live region or SVM.
struct ProbeDevice {
  explicit ProbeDevice(uint64_t bytes) {
    runtime::SimDevice::Config c;
    c.shell.name = "probe";
    c.shell.services = {fabric::Service::kHostStream, fabric::Service::kCardMemory};
    c.shell.num_vfpgas = 1;
    dev = std::make_unique<runtime::SimDevice>(c);
    dev->vfpga(0).LoadKernel(std::make_unique<services::PassthroughKernel>());
    thread = std::make_unique<runtime::CThread>(dev.get(), 0);
    buffer = thread->GetMem({runtime::Alloc::kHpf, bytes});
  }
  std::unique_ptr<runtime::SimDevice> dev;
  std::unique_ptr<runtime::CThread> thread;
  uint64_t buffer = 0;
};

}  // namespace

SpanSum SumSpans(const Tracer& tracer, const std::string& name) {
  const auto totals = tracer.Totals();
  auto it = totals.find(name);
  return it == totals.end() ? SpanSum{} : SpanSum{it->second.total_ns, it->second.count};
}

void ProbeSvm(const std::vector<uint64_t>& sizes, Tracer* tracer, double* write_ns_per_kib,
              double* read_ns_per_kib) {
  uint64_t max_size = 1;
  for (uint64_t s : sizes) {
    max_size = std::max(max_size, s);
  }
  ProbeDevice probe(max_size);
  std::vector<uint8_t> host(max_size, 0x5A);
  uint64_t bytes = 0;
  for (uint64_t s : sizes) {
    Scope span(tracer, "probe.mmu.svm.WriteBuffer");
    probe.thread->WriteBuffer(probe.buffer, host.data(), s);
    bytes += s;
  }
  for (uint64_t s : sizes) {
    Scope span(tracer, "probe.mmu.svm.ReadBuffer");
    probe.thread->ReadBuffer(probe.buffer, host.data(), s);
  }
  const double kib = static_cast<double>(bytes) / 1024.0;
  if (kib > 0) {
    *write_ns_per_kib = static_cast<double>(SumSpans(*tracer, "probe.mmu.svm.WriteBuffer").ns) / kib;
    *read_ns_per_kib = static_cast<double>(SumSpans(*tracer, "probe.mmu.svm.ReadBuffer").ns) / kib;
  }
}

double ProbeCrcNsPerKib(const std::vector<std::vector<uint8_t>>& buffers, Tracer* tracer) {
  uint64_t bytes = 0;
  for (const auto& b : buffers) {
    Scope span(tracer, "probe.vfpga.ckpt.Crc32");
    vfpga::ckpt::Crc32(b.data(), b.size());
    bytes += b.size();
  }
  return bytes ? static_cast<double>(SumSpans(*tracer, "probe.vfpga.ckpt.Crc32").ns) /
                     (static_cast<double>(bytes) / 1024.0)
               : 0.0;
}

void ProbeFrames(const std::vector<axi::BufferView>& frames, Tracer* tracer, double* build_ns,
                 double* parse_ns) {
  std::vector<net::ParsedFrame> parsed;
  parsed.reserve(frames.size());
  for (const axi::BufferView& f : frames) {
    std::optional<net::ParsedFrame> p;
    {
      Scope span(tracer, "probe.net.ParseFrame");
      p = net::ParseFrame(f);
    }
    if (p) {
      parsed.push_back(std::move(*p));
    }
  }
  for (const net::ParsedFrame& p : parsed) {
    Scope span(tracer, "probe.net.BuildFrame");
    net::BuildFrame(p.meta, p.payload);
  }
  const SpanSum parse = SumSpans(*tracer, "probe.net.ParseFrame");
  const SpanSum build = SumSpans(*tracer, "probe.net.BuildFrame");
  *parse_ns = parse.count ? static_cast<double>(parse.ns) / static_cast<double>(parse.count) : 0;
  *build_ns = build.count ? static_cast<double>(build.ns) / static_cast<double>(build.count) : 0;
}

double ProbeBlobUs(const std::vector<uint64_t>& blob_bytes, Tracer* tracer) {
  ProbeDevice probe(4096);
  vfpga::Vfpga& region = probe.dev->vfpga(0);
  std::vector<uint8_t> filler;
  uint64_t blobs = 0;
  for (uint64_t target : blob_bytes) {
    Scope span(tracer, "probe.vfpga.ckpt.Blob");
    vfpga::ckpt::Writer w;
    vfpga::CaptureRegion(region).AppendTo(&w);
    // Pad to the migration's blob size with a byte string, the shape the
    // orchestrator's dirty-page segments take.
    const uint64_t used = w.size() + 4 + 4;
    filler.assign(target > used ? target - used : 0, 0xA5);
    w.Bytes(filler);
    std::vector<uint8_t> blob = std::move(w).Finish();
    vfpga::ckpt::Reader r(blob);
    vfpga::RegionSnapshot snap;
    if (r.ok() && snap.ParseFrom(&r)) {
      (void)r.Bytes();
      blobs += vfpga::RestoreRegion(region, snap) ? 1 : 0;
    }
  }
  const SpanSum sum = SumSpans(*tracer, "probe.vfpga.ckpt.Blob");
  return blobs ? static_cast<double>(sum.ns) * 1e-3 / static_cast<double>(sum.count) : 0.0;
}

}  // namespace perfbench
