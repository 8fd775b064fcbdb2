// Unit tests of the benchmark's metric arithmetic (perfbench/src/metrics.h).
// Exits nonzero on the first failed expectation.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "perfbench/src/metrics.h"

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  // A percentile needs at least 10 samples strictly beyond its rank.
  {
    const Percentile p999 = PercentileOf(Ramp(10000), 99.9);
    Expect(p999.value == 9990.0, "p999 of 1..10000 is the 9990th sample");
    Expect(p999.beyond == 10 && p999.supported, "10000 samples support p999");
    const Percentile short_p999 = PercentileOf(Ramp(9999), 99.9);
    Expect(!short_p999.supported, "9999 samples do not support p999");
    const Percentile p99 = PercentileOf(Ramp(1000), 99);
    Expect(p99.value == 990.0 && p99.beyond == 10 && p99.supported, "1000 samples support p99");
    Expect(!PercentileOf(Ramp(999), 99).supported, "999 samples do not support p99");
    Expect(PercentileOf(Ramp(21), 50).value == 11.0, "median of 1..21 is 11");
    Expect(!PercentileOf({}, 50).supported && PercentileOf({}, 50).samples == 0,
           "no samples: unsupported");
  }

  // Latency is measured from the due time, not from when work started.
  {
    Expect(LatencyFromDue(1000, 4500) == 3500, "latency = done - due");
    Expect(LatencyFromDue(5000, 4000) == 0, "completion before due clamps to 0");
  }

  // Failed, shed and late ops all miss the SLO; ok_ratio divides by
  // attempted ops; goodput counts OK ops only.
  {
    const uint64_t us = 1000000;  // ps
    std::vector<OpRecord> ops = {
        {Outcome::kOk, 10 * us},      // on time
        {Outcome::kOk, 50 * us},      // exactly at the limit: a hit
        {Outcome::kOk, 51 * us},      // late: a miss
        {Outcome::kFailed, 1 * us},   // fast but failed: a miss
        {Outcome::kShed, 0},          // shed: a miss
    };
    const uint64_t one_second = 1000000 * us;
    const SimSummary s = Summarize(ops, one_second, 3000, 50 * us);
    Expect(s.attempted == 5 && s.ok == 3 && s.failed == 1 && s.shed == 1, "outcome counts");
    Expect(s.slo_hits == 2, "failed, shed and late ops are SLO misses");
    Expect(s.slo_goodput_per_s == 2.0, "SLO goodput per simulated second");
    Expect(s.goodput_per_s == 3.0, "goodput counts OK ops only");
    Expect(s.ok_ratio == 0.6, "ok_ratio = ok / attempted");
    Expect(s.gbps == 3000 * 1e-9, "gbps from OK payload bytes");
    Expect(s.p50.samples == 3, "latency samples come from OK ops only");
  }

  // Host time per OK op divides by OK ops, not attempted ones.
  {
    Expect(HostUsPerOkOp(2.0, 1000000) == 2.0, "2 s over 1M OK ops = 2 us");
    Expect(HostUsPerOkOp(2.0, 500000) == 4.0, "fewer OK ops, higher cost per OK op");
    Expect(HostUsPerOkOp(1.0, 0) == 0.0, "no OK ops reports 0");
    Expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5, "median");
  }

  if (failures == 0) {
    std::printf("metrics_test: all checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}
