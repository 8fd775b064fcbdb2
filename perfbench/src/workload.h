// The interface every benchmark workload implements, and the per-layer
// metric table the traced run reports.
//
// One Workload object is one round: Setup() (timed as setup_s), Window()
// (the timed window), then Check() and the per-layer readouts outside any
// timing. main.cc builds a fresh object per round; a seed
// fully determines every simulated number, so all rounds of a run must
// produce the same simulated results.

#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/metrics.h"
#include "perfbench/src/trace.h"

namespace perfbench {

using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual void Setup() = 0;
  virtual void Window() = 0;
  // Empty when every correctness check passed, else the first failure.
  virtual std::string Check() = 0;

  // One record per op attempted in the window.
  virtual const std::vector<OpRecord>& Ops() const = 0;
  // Simulated interval the ops ran in, and the payload bytes of OK ops.
  virtual uint64_t SpanPs() const = 0;
  virtual uint64_t OkBytes() const = 0;
  // Latency limit of the SLO metric.
  virtual uint64_t SloPs() const = 0;

  // Deterministic per-layer counts read from the layers' public counters.
  virtual void Counts(LayerValues* out) = 0;
  // Traced rounds only: host cost per layer, from the window's spans and
  // from probes that replay this round's inputs through each layer.
  // `untraced_s` is the median untraced window so far (same seed, same work).
  virtual void Probe(Tracer* tracer, double untraced_s, LayerValues* out) = 0;

  // Human-readable lines printed above the JSON result (outcome kinds etc.).
  virtual std::vector<std::string> Notes() const { return {}; }
};

std::unique_ptr<Workload> MakeServe(const std::string& name, uint64_t seed, Tracer* tracer);
std::unique_ptr<Workload> MakeRdmaMix(uint64_t seed, Tracer* tracer);
std::unique_ptr<Workload> MakeFleetMigrate(uint64_t seed, Tracer* tracer);

struct LayerMetric {
  const char* name;
  const char* unit;
  bool host;  // host-time metric (varies run to run) vs deterministic count
};

// Every per-layer metric, in report order. A workload that cannot reach a
// layer leaves its metric unset; the traced run prints it as 0 and lists it
// as "n/a" in the text above the result.
inline const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"sim.events_per_op", "count", false},
      {"sim.host_ns_per_event", "ns", true},
      {"sim.windows_per_op", "count", false},
      {"net.roce.frames_per_op", "count", false},
      {"net.roce.retransmits_per_op", "count", false},
      {"net.roce.timeouts", "count", false},
      {"net.roce.qp_resets", "count", false},
      {"net.roce.error_completions", "count", false},
      {"net.host_ns_per_frame_build", "ns", true},
      {"net.host_ns_per_frame_parse", "ns", true},
      {"net.roce.write_host_us_per_op", "us", true},
      {"net.roce.read_host_us_per_op", "us", true},
      {"net.roce.write_sim_p50_us", "us", false},
      {"net.roce.read_sim_p50_us", "us", false},
      {"net.rpc.host_ns_per_kib", "ns", true},
      {"net.rpc.frame_errors", "count", false},
      {"vfpga.ckpt.host_ns_per_kib_crc", "ns", true},
      {"vfpga.ckpt.host_us_per_blob", "us", true},
      {"vfpga.ckpt.bytes_per_migration", "B", false},
      {"vfpga.ckpt.pages_per_migration", "count", false},
      {"vfpga.ckpt.chunks_per_migration", "count", false},
      {"router.shed_ratio", "ratio", false},
      {"router.mean_batch", "count", false},
      {"router.queue_depth_p99", "count", false},
      {"router.integrity_mismatch", "count", false},
      {"router.expired", "count", false},
      {"router.host_ns_per_req", "ns", true},
      {"scheduler.affinity_hit_ratio", "ratio", false},
      {"scheduler.depth_p99", "count", false},
      {"scheduler.failed", "count", false},
      {"cthread.host_ns_per_invoke", "ns", true},
      {"orch.host_us_per_migration", "us", true},
      {"orch.rollbacks", "count", false},
      {"orch.retransmit_rounds", "count", false},
      {"orch.restore_attempts", "count", false},
      {"mmu.svm.host_ns_per_kib_read", "ns", true},
      {"mmu.svm.host_ns_per_kib_write", "ns", true},
      {"mmu.tlb_hit_ratio", "ratio", false},
      {"mmu.page_faults", "count", false},
      {"dyn.packets_per_op", "count", false},
      {"dyn.page_fault_irqs", "count", false},
      {"dyn.aborted_ops", "count", false},
      {"bench.trace_overhead_pct", "%", true},
      {"bench.attributed_share", "ratio", true},
  };
  return kMetrics;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
