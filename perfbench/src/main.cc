// Layered benchmark: entry point.
//
//   perfbench --workload <serve_knee|serve_over|rdma_mix|fleet_migrate>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// A run repeats one round (fresh setup, timed window, correctness checks)
// until --seconds have passed, at least once. The seed fixes the inputs, so
// every round simulates exactly the same thing: the simulated metrics come
// from the first round and every later round must reproduce them bit for
// bit; host-time metrics are medians over the rounds. setup_s is the median
// over the rounds' set-ups plus kExtraSetups set-ups that run no window.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced rounds and prints the per-layer metrics: deterministic counts
// from the layers' public counters, and host costs from spans the benchmark
// records around its own calls into each layer plus per-layer probes. Spans
// of the last traced round are written to --spans at exit.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is nonzero when any correctness check failed.

#include <malloc.h>
#include <sys/resource.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/src/metrics.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workload.h"
#include "src/runtime/serving.h"

namespace perfbench {
namespace {

constexpr int kExtraSetups = 2;
constexpr size_t kMaxSpansWritten = 50000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a->trace = std::atoi(v);
    } else if (key == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds >= 0 &&
         (a->trace == 0 || a->trace == 1);
}

std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed, Tracer* tracer) {
  if (name == "serve_knee" || name == "serve_over") {
    return MakeServe(name, seed, tracer);
  }
  if (name == "rdma_mix") {
    return MakeRdmaMix(seed, tracer);
  }
  if (name == "fleet_migrate") {
    return MakeFleetMigrate(seed, tracer);
  }
  return nullptr;
}

struct Round {
  double setup_s = 0;
  double window_s = 0;
  std::string failure;
  SimSummary sim;
  LayerValues counts;
  LayerValues host;  // traced rounds only
  uint64_t fingerprint = 0;
  std::vector<std::string> notes;
};

template <typename T>
void Fold(uint64_t* h, const T& v) {
  coyote::runtime::serving::FoldBytes(h, reinterpret_cast<const uint8_t*>(&v), sizeof(v));
}

// FNV-1a over every op's outcome and latency, the rate metrics and the
// per-layer counts: equal fingerprints mean equal simulated results.
uint64_t Fingerprint(const std::vector<OpRecord>& ops, const SimSummary& s,
                     const LayerValues& counts) {
  uint64_t h = coyote::runtime::serving::kFnvOffset;
  for (const OpRecord& op : ops) {
    Fold(&h, op.outcome);
    Fold(&h, op.latency_ps);
  }
  for (double v : {s.goodput_per_s, s.gbps, s.slo_goodput_per_s}) {
    Fold(&h, v);
  }
  for (const auto& [name, v] : counts) {
    coyote::runtime::serving::FoldBytes(&h, reinterpret_cast<const uint8_t*>(name.data()),
                                        name.size());
    Fold(&h, v);
  }
  return h;
}

Round RunRound(const Args& args, Tracer* tracer, bool traced, double untraced_s) {
  Round r;
  tracer->set_enabled(traced);
  std::unique_ptr<Workload> w = Make(args.workload, args.seed, tracer);
  const int64_t t0 = NowNs();
  w->Setup();
  if (traced) {
    tracer->Clear();  // spans cover the window and the probes only
  }
  const int64_t t1 = NowNs();
  w->Window();
  const int64_t t2 = NowNs();
  tracer->set_enabled(false);
  r.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  r.window_s = static_cast<double>(t2 - t1) * 1e-9;
  r.failure = w->Check();
  r.sim = Summarize(w->Ops(), w->SpanPs(), w->OkBytes(), w->SloPs());
  w->Counts(&r.counts);
  r.fingerprint = Fingerprint(w->Ops(), r.sim, r.counts);
  r.notes = w->Notes();
  if (traced) {
    tracer->set_enabled(true);
    w->Probe(tracer, untraced_s, &r.host);
    tracer->set_enabled(false);
  }
  return r;
}

// Times one Setup() with no window after it.
double TimeSetup(const Args& args, Tracer* tracer) {
  std::unique_ptr<Workload> w = Make(args.workload, args.seed, tracer);
  const int64_t t0 = NowNs();
  w->Setup();
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PrintPercentile(const char* name, const Percentile& p) {
  std::printf("  %-24s %14.4f us   (p%g of n=%" PRIu64 ", %" PRIu64 " beyond%s)\n", name,
              p.value, p.p, p.samples, p.beyond, p.supported ? "" : ", UNSUPPORTED");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n");
    return 2;
  }
  // Keep freed memory in the heap between rounds, so a round's window does
  // not pay page faults for memory the previous round handed back.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Tracer tracer;
  if (Make(args.workload, args.seed, &tracer) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const int64_t start = NowNs();
  auto elapsed = [&]() { return static_cast<double>(NowNs() - start) * 1e-9; };
  // Set-ups with no window add samples to setup_s (a long round may run
  // only once) and grow the heap before the first round.
  std::vector<double> setups;
  for (int i = 0; i < kExtraSetups; ++i) {
    setups.push_back(TimeSetup(args, &tracer));
  }
  std::vector<Round> untraced, traced;
  std::string failure;
  while (failure.empty()) {
    const bool enough = !untraced.empty() && (args.trace == 0 || !traced.empty());
    if (enough && elapsed() >= args.seconds) {
      break;
    }
    const bool do_trace = args.trace == 1 && traced.size() < untraced.size();
    std::vector<double> windows;
    for (const Round& u : untraced) {
      windows.push_back(u.window_s);
    }
    Round r = RunRound(args, &tracer, do_trace, Median(windows));
    failure = r.failure;
    if (failure.empty() && !untraced.empty() && r.fingerprint != untraced.front().fingerprint) {
      failure = "simulated results differ between rounds of one seed";
    }
    setups.push_back(r.setup_s);
    (do_trace ? traced : untraced).push_back(std::move(r));
  }

  // The first round is the reference for the simulated metrics.
  const Round& ref = untraced.front();
  const SimSummary& s = ref.sim;
  std::printf("perfbench %s seed %" PRIu64 ": %zu untraced + %zu traced rounds\n",
              args.workload.c_str(), args.seed, untraced.size(), traced.size());
  std::printf("  ops attempted %" PRIu64 "  ok %" PRIu64 "  failed %" PRIu64 "  shed %" PRIu64
              "  slo hits %" PRIu64 "\n",
              s.attempted, s.ok, s.failed, s.shed, s.slo_hits);
  for (const std::string& note : ref.notes) {
    std::printf("  %s\n", note.c_str());
  }

  std::vector<double> host_per_op;
  for (const Round& r : untraced) {
    host_per_op.push_back(HostUsPerOkOp(r.window_s, r.sim.ok));
  }
  const double host_us = Median(host_per_op);
  std::string metrics;
  auto add = [&metrics](const std::string& name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), value, unit);
    metrics += buf;
  };

  if (args.trace == 0) {
    const double setup_s = Median(setups);
    const double rss = PeakRssMb();
    std::printf("  %-24s %14.4f us\n", "host_us_per_ok_op", host_us);
    std::printf("  %-24s %14.6f s\n", "setup_s", setup_s);
    std::printf("  %-24s %14.1f MB\n", "peak_rss_mb", rss);
    std::printf("  %-24s %14.1f ops/s\n", "sim_goodput_per_s", s.goodput_per_s);
    std::printf("  %-24s %14.4f GB/s\n", "sim_gbps", s.gbps);
    PrintPercentile("sim_p50_us", s.p50);
    PrintPercentile("sim_p99_us", s.p99);
    PrintPercentile("sim_p999_us", s.p999);
    std::printf("  %-24s %14.1f ops/s\n", "sim_slo_goodput_per_s", s.slo_goodput_per_s);
    std::printf("  %-24s %14.6f\n", "ok_ratio", s.ok_ratio);
    add("host_us_per_ok_op", host_us, "us");
    add("setup_s", setup_s, "s");
    add("peak_rss_mb", rss, "MB");
    add("sim_goodput_per_s", s.goodput_per_s, "1/s");
    add("sim_gbps", s.gbps, "GB/s");
    add("sim_p50_us", s.p50.value, "us");
    add("sim_p99_us", s.p99.value, "us");
    add("sim_p999_us", s.p999.value, "us");
    add("sim_slo_goodput_per_s", s.slo_goodput_per_s, "1/s");
    add("ok_ratio", s.ok_ratio, "ratio");
    if (!s.p50.supported || !s.p99.supported || !s.p999.supported) {
      failure = failure.empty() ? "too few OK ops to support a reported percentile" : failure;
    }
  } else {
    LayerValues layer = ref.counts;
    std::vector<double> traced_per_op;
    for (const Round& r : traced) {
      traced_per_op.push_back(HostUsPerOkOp(r.window_s, r.sim.ok));
    }
    for (const LayerMetric& m : LayerMetrics()) {
      if (!m.host) {
        continue;
      }
      std::vector<double> v;
      for (const Round& r : traced) {
        auto it = r.host.find(m.name);
        if (it != r.host.end()) {
          v.push_back(it->second);
        }
      }
      if (!v.empty()) {
        layer[m.name] = Median(v);
      }
    }
    if (host_us > 0) {
      layer["bench.trace_overhead_pct"] = (Median(traced_per_op) - host_us) / host_us * 100.0;
    }
    for (const LayerMetric& m : LayerMetrics()) {
      auto it = layer.find(m.name);
      const bool reached = it != layer.end();
      const double v = reached ? it->second : 0.0;
      std::printf("  %-34s %16.6f %-5s%s\n", m.name, v, m.unit, reached ? "" : "  n/a");
      add(m.name, v, m.unit);
    }
  }

  if (!args.spans.empty() && !traced.empty() && !tracer.Write(args.spans, kMaxSpansWritten)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans.c_str());
  }
  if (!failure.empty()) {
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              failure.empty() ? "true" : "false", s.attempted, s.failed, metrics.c_str());
  std::fflush(stdout);
  return failure.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
