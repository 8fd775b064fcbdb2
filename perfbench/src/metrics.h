// Metric arithmetic shared by every workload: percentile support, SLO
// accounting, and the host-cost ratios. Header-only and free of simulator
// dependencies so metrics_test.cc can check the rules in isolation.

#ifndef PERFBENCH_SRC_METRICS_H_
#define PERFBENCH_SRC_METRICS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// How one benchmark operation ended. Shed (refused at admission) and failed
// (typed error completion) are kept apart for reporting; both miss the SLO.
enum class Outcome : uint8_t { kOk, kFailed, kShed };

struct OpRecord {
  Outcome outcome = Outcome::kOk;
  // Simulated latency in ps, from the time the op was due (open loop) or
  // posted (closed loop) to its completion. Meaningful only for kOk.
  uint64_t latency_ps = 0;
};

// Latency of an op measured from when it was due, not from when the
// program got around to accepting it, so a stall that delays later
// arrivals is charged to them.
inline uint64_t LatencyFromDue(uint64_t due_ps, uint64_t done_ps) {
  return done_ps >= due_ps ? done_ps - due_ps : 0;
}

// A percentile is supported when at least kMinBeyond samples lie strictly
// above its rank; the nearest-rank rule picks the sample.
inline constexpr uint64_t kMinBeyond = 10;

struct Percentile {
  double p = 0.0;  // the percentile the value stands for
  double value = 0.0;
  uint64_t samples = 0;
  uint64_t beyond = 0;
  bool supported = false;
};

// `sorted` must be ascending.
inline Percentile PercentileOf(const std::vector<double>& sorted, double p) {
  Percentile out;
  out.p = p;
  out.samples = sorted.size();
  if (sorted.empty()) {
    return out;
  }
  const double exact = p / 100.0 * static_cast<double>(sorted.size());
  uint64_t rank = static_cast<uint64_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<uint64_t>(rank, 1, sorted.size());
  out.value = sorted[rank - 1];
  out.beyond = sorted.size() - rank;
  out.supported = out.beyond >= kMinBeyond;
  return out;
}

struct SimSummary {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t slo_hits = 0;
  double goodput_per_s = 0.0;
  double gbps = 0.0;
  double slo_goodput_per_s = 0.0;
  double ok_ratio = 0.0;
  Percentile p50, p99, p999;
};

// `span_ps` is the simulated interval the ops ran in; `ok_bytes` the payload
// bytes of OK ops. An op meets the SLO only if it completed OK within
// `slo_ps`: failed and shed ops are misses whatever their latency.
inline SimSummary Summarize(const std::vector<OpRecord>& ops, uint64_t span_ps,
                            uint64_t ok_bytes, uint64_t slo_ps) {
  SimSummary s;
  s.attempted = ops.size();
  std::vector<double> lat_us;
  lat_us.reserve(ops.size());
  for (const OpRecord& op : ops) {
    switch (op.outcome) {
      case Outcome::kOk:
        ++s.ok;
        lat_us.push_back(static_cast<double>(op.latency_ps) * 1e-6);
        if (op.latency_ps <= slo_ps) {
          ++s.slo_hits;
        }
        break;
      case Outcome::kFailed:
        ++s.failed;
        break;
      case Outcome::kShed:
        ++s.shed;
        break;
    }
  }
  std::sort(lat_us.begin(), lat_us.end());
  s.p50 = PercentileOf(lat_us, 50);
  s.p99 = PercentileOf(lat_us, 99);
  s.p999 = PercentileOf(lat_us, 99.9);
  const double span_s = static_cast<double>(span_ps) * 1e-12;
  if (span_s > 0) {
    s.goodput_per_s = static_cast<double>(s.ok) / span_s;
    s.slo_goodput_per_s = static_cast<double>(s.slo_hits) / span_s;
    s.gbps = static_cast<double>(ok_bytes) / span_s * 1e-9;
  }
  s.ok_ratio = s.attempted ? static_cast<double>(s.ok) / static_cast<double>(s.attempted) : 0.0;
  return s;
}

// Host wall time per OK op. Dividing by OK ops only means turning failures
// into successes reads as the same or lower cost, never as a slowdown.
inline double HostUsPerOkOp(double window_s, uint64_t ok_ops) {
  return ok_ops ? window_s * 1e6 / static_cast<double>(ok_ops) : 0.0;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_METRICS_H_
