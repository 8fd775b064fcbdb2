// serve_knee / serve_over: open-loop serving traffic through a 4-node x
// 2-region ServingFabric (router admission, batching and routing; CYRP
// frames; node schedulers; cThread executors; small DMAs).
//
// The benchmark generates the arrival stream itself (a standalone LoadGen
// on a private engine, during setup) and feeds it to the fabric through
// ServingFabric::SubmitAt one slice ahead of the simulated clock; the
// fabric's own generator is switched off. Completions come back through
// Router::SetCompletionObserver. Latency runs from each request's due time.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/probes.h"
#include "perfbench/src/workload.h"
#include "src/net/rpc.h"
#include "src/runtime/loadgen.h"
#include "src/runtime/router.h"
#include "src/services/vector_kernels.h"
#include "src/sim/engine.h"

namespace perfbench {
namespace {

using namespace coyote;
using runtime::OpStatus;
using runtime::Router;
using runtime::ServingFabric;
using runtime::serving::ServingCompletion;
using runtime::serving::ServingRequest;

constexpr uint32_t kNodes = 4;
constexpr uint32_t kRegions = 2;
// Setup runs the idle fabric, then the first kWarmTraffic of arrivals, so
// the window starts in steady state (the admission bucket's initial burst
// bank and empty queues are behind it). Only arrivals due at or after
// kMeasureFrom are measured.
constexpr sim::TimePs kIdle = sim::Microseconds(100);
constexpr sim::TimePs kWarmTraffic = sim::Milliseconds(2);
constexpr sim::TimePs kMeasureFrom = kIdle + kWarmTraffic;
constexpr sim::TimePs kSlice = sim::Microseconds(50);
constexpr sim::TimePs kSlo = sim::Microseconds(100);

struct Spec {
  sim::TimePs session_gap;  // 8 us ~ 3/4 of the admission budget; 2 us ~ 3x
  sim::TimePs duration;     // arrival window
};

Spec SpecFor(const std::string& name) {
  if (name == "serve_over") {
    return {sim::Microseconds(2), sim::Milliseconds(200)};
  }
  return {sim::Microseconds(8), sim::Milliseconds(800)};
}

const std::vector<std::string>& KernelNames() {
  static const std::vector<std::string> kNames = {"kv.bin", "vec.bin"};
  return kNames;
}

// The request mix of bench/bench_serving.cc: 64-512 B payloads, 1-4
// requests per session, diurnal phases, bursts, tenant churn.
runtime::LoadGen::Config LoadConfig(const Spec& spec, uint64_t seed) {
  runtime::LoadGen::Config lc;
  lc.seed = seed;
  lc.start = kIdle;
  lc.duration = kWarmTraffic + spec.duration;
  lc.session_gap = spec.session_gap;
  lc.requests_per_session_max = 4;
  lc.think_gap = sim::Microseconds(2);
  lc.payload_bytes_min = 64;
  lc.payload_bytes_max = 512;
  lc.kernels = KernelNames();
  lc.active_tenants = 6;
  lc.tenant_universe = 24;
  lc.churn_period = sim::Microseconds(500);
  lc.diurnal_permille = {800, 1000, 1300, 1000};
  lc.phase_period = sim::Microseconds(250);
  lc.burst_permille = 40;
  lc.burst_size = 6;
  return lc;
}

// Admission budget: one token per 2 us (500K req/s), 64-token burst.
Router::Config RouterConfig() {
  Router::Config rc;
  rc.admit_period = sim::Microseconds(2);
  rc.bucket_burst = 64;
  rc.tenant_queue_cap = 512;
  rc.batch_max = 8;
  rc.batch_timeout = sim::Microseconds(5);
  rc.node_window = 16;
  rc.heartbeat_window = sim::Microseconds(400);
  return rc;
}

std::vector<std::string> RegionKernels(uint32_t node) {
  std::vector<std::string> out;
  for (uint32_t r = 0; r < kRegions; ++r) {
    out.push_back(KernelNames()[(node + r) % KernelNames().size()]);
  }
  return out;
}

// The batch record layout ServingFabric::SendBatch writes, replayed by the
// rpc probe.
void WriteBatchRecord(net::rpc::FrameWriter* w, const ServingRequest& r) {
  w->U64(r.id);
  w->U32(r.tenant);
  w->Str(r.kernel);
  w->U64(r.payload.size());
  w->U64(r.response_bytes);
  w->U64(r.deadline);
  w->U32(r.priority);
  w->I32(r.region_hint);
  w->U64(r.submitted_at);
  w->U32(r.retries);
}

class Serve : public Workload {
 public:
  Serve(const std::string& name, uint64_t seed, Tracer* tracer)
      : spec_(SpecFor(name)), seed_(seed), tracer_(tracer) {}

  void Setup() override {
    // Arrivals: the same generator the fabric embeds, run on a private
    // engine so the whole stream exists before the window opens.
    {
      sim::Engine gen_engine;
      runtime::LoadGen gen(&gen_engine, LoadConfig(spec_, seed_ ^ 0x5E4E5EEDull),
                           [this, &gen_engine](ServingRequest req) {
                             arrivals_.push_back({gen_engine.Now(), std::move(req), 0});
                           });
      gen.Start();
      gen_engine.RunUntilIdle();
    }
    for (Arrival& a : arrivals_) {
      a.hash = runtime::serving::HashBytes(a.req.payload.data(), a.req.payload.size());
    }
    const size_t n = arrivals_.size();
    seen_.assign(n, 0);
    done_.assign(n, ServingCompletion{});
    delivered_at_.assign(n, 0);

    ServingFabric::Config c;
    c.num_nodes = kNodes;
    c.regions_per_node = kRegions;
    c.num_shards = 1;
    c.use_threads = false;
    c.seed = seed_;
    c.kernel_names = KernelNames();
    c.kernel_factory = [] { return std::make_unique<services::PassthroughKernel>(); };
    c.router = RouterConfig();
    c.loadgen.duration = 0;  // arrivals come from SubmitAt only
    fab_ = std::make_unique<ServingFabric>(c);
    router_engine_ = &fab_->sharded().shard(0);
    fab_->router().SetCompletionObserver([this](const ServingCompletion& comp) {
      Scope span(tracer_, "runtime.Router.CompletionObserver", comp.id);
      const uint64_t idx = comp.id - 1;
      if (comp.id == 0 || idx >= seen_.size()) {
        ++unknown_completions_;
        return;
      }
      ++seen_[idx];
      done_[idx] = comp;
      delivered_at_[idx] = router_engine_->Now();
      ++completed_;
    });
    // Warm-up: arm heartbeats and sweeps, run the idle fabric, then the
    // warm-up traffic.
    fab_->Run(kIdle, kIdle);
    now_ = kIdle;
    RunTo(kMeasureFrom);
    while (first_measured_ < arrivals_.size() && arrivals_[first_measured_].due < kMeasureFrom) {
      ++first_measured_;
    }
    events_before_ = fab_->sharded().events_executed();
    windows_before_ = fab_->sharded().stats().windows;
  }

  void Window() override {
    RunTo(kMeasureFrom + 4 * (kWarmTraffic + spec_.duration));
    // Router ids are assigned in Submit order, which is due-time order here.
    ops_.reserve(arrivals_.size() - first_measured_);
    for (size_t i = first_measured_; i < arrivals_.size(); ++i) {
      OpRecord op;
      const OpStatus st = done_[i].status;
      op.outcome = st == OpStatus::kOk     ? Outcome::kOk
                   : st == OpStatus::kShed ? Outcome::kShed
                                           : Outcome::kFailed;
      op.latency_ps = LatencyFromDue(arrivals_[i].due, delivered_at_[i]);
      if (op.outcome == Outcome::kOk) {
        ok_bytes_ += arrivals_[i].req.payload.size();
        last_done_ = std::max(last_done_, delivered_at_[i]);
      }
      ops_.push_back(op);
    }
  }

  std::string Check() override {
    if (completed_ != arrivals_.size()) {
      return "serve: " + std::to_string(arrivals_.size() - completed_) +
             " requests never completed";
    }
    if (unknown_completions_ != 0) {
      return "serve: completion for an id that was never submitted";
    }
    for (size_t i = 0; i < arrivals_.size(); ++i) {
      if (seen_[i] != 1) {
        return "serve: request " + std::to_string(i + 1) + " completed " +
               std::to_string(seen_[i]) + " times";
      }
      const ServingCompletion& c = done_[i];
      if (c.submitted_at != arrivals_[i].due || c.tenant != arrivals_[i].req.tenant) {
        return "serve: completion " + std::to_string(i + 1) + " does not match its request";
      }
      if (c.status == OpStatus::kOk && c.response_hash != arrivals_[i].hash) {
        return "serve: response hash mismatch on request " + std::to_string(i + 1);
      }
    }
    const sim::CounterSet& ctr = fab_->router().counters();
    if (ctr.value("router.integrity.mismatch") != 0) {
      return "serve: router.integrity.mismatch != 0";
    }
    if (fab_->frame_errors() != 0) {
      return "serve: frame_errors != 0";
    }
    if (ctr.value("router.offered") != arrivals_.size()) {
      return "serve: router.offered != submitted";
    }
    return "";
  }

  const std::vector<OpRecord>& Ops() const override { return ops_; }
  uint64_t SpanPs() const override {
    return std::max(last_done_, kMeasureFrom + spec_.duration) - kMeasureFrom;
  }
  uint64_t OkBytes() const override { return ok_bytes_; }
  uint64_t SloPs() const override { return kSlo; }

  void Counts(LayerValues* out) override {
    const double n = static_cast<double>(arrivals_.size());
    const double measured = static_cast<double>(ops_.size());
    const sim::CounterSet& ctr = fab_->router().counters();
    const uint64_t shed = ctr.value("router.done.shed");
    (*out)["sim.events_per_op"] =
        static_cast<double>(fab_->sharded().events_executed() - events_before_) / measured;
    (*out)["sim.windows_per_op"] =
        static_cast<double>(fab_->sharded().stats().windows - windows_before_) / measured;
    (*out)["net.rpc.frame_errors"] = static_cast<double>(fab_->frame_errors());
    (*out)["router.shed_ratio"] = static_cast<double>(shed) / n;
    (*out)["router.mean_batch"] = fab_->router().batch_histogram().mean();
    (*out)["router.queue_depth_p99"] =
        static_cast<double>(fab_->router().depth_histogram().PercentileBound(99));
    (*out)["router.integrity_mismatch"] =
        static_cast<double>(ctr.value("router.integrity.mismatch"));
    (*out)["router.expired"] = static_cast<double>(ctr.value("router.expired"));
    uint64_t hits = 0, reconfigs = 0, failed = 0, depth_p99 = 0;
    for (uint32_t node = 0; node < kNodes; ++node) {
      const runtime::KernelScheduler& s = fab_->scheduler(node);
      hits += s.affinity_hits();
      reconfigs += s.reconfigurations();
      failed += s.failed_requests();
      depth_p99 = std::max(depth_p99, s.depth_histogram().PercentileBound(99));
    }
    (*out)["scheduler.affinity_hit_ratio"] =
        hits + reconfigs ? static_cast<double>(hits) / static_cast<double>(hits + reconfigs) : 0;
    (*out)["scheduler.depth_p99"] = static_cast<double>(depth_p99);
    (*out)["scheduler.failed"] = static_cast<double>(failed);
  }

  void Probe(Tracer* tracer, double untraced_s, LayerValues* out) override {
    const auto totals = tracer->Totals();
    const uint64_t events = fab_->sharded().events_executed() - events_before_;
    auto run = totals.find("sim.ShardedEngine.RunUntil");
    if (run != totals.end() && events > 0) {
      (*out)["sim.host_ns_per_event"] =
          static_cast<double>(run->second.self_ns) / static_cast<double>(events);
    }
    const double router_ns = ProbeRouter(tracer);
    (*out)["router.host_ns_per_req"] = router_ns;
    double frame_kib = 0;
    std::vector<std::vector<uint8_t>> frames;
    const double rpc_ns = ProbeRpc(tracer, &frames, &frame_kib);
    (*out)["net.rpc.host_ns_per_kib"] = rpc_ns;
    (*out)["vfpga.ckpt.host_ns_per_kib_crc"] = ProbeCrcNsPerKib(frames, tracer);
    // Named layer costs times the work this round gave each layer, over the
    // untraced window. The rpc figure already includes its CRC.
    const double measured_share =
        static_cast<double>(ops_.size()) / static_cast<double>(arrivals_.size());
    const double attributed_ns =
        (router_ns * static_cast<double>(arrivals_.size()) + rpc_ns * frame_kib) * measured_share;
    if (untraced_s > 0) {
      (*out)["bench.attributed_share"] = attributed_ns * 1e-9 / untraced_s;
    }
  }

 private:
  // Feeds arrivals one slice ahead of the clock and runs slice by slice
  // until `stop` or, past the last arrival, until every request completed.
  void RunTo(sim::TimePs stop) {
    while (now_ < stop && (next_ < arrivals_.size() || completed_ < arrivals_.size())) {
      const sim::TimePs until = now_ + kSlice;
      while (next_ < arrivals_.size() && arrivals_[next_].due < until) {
        Scope span(tracer_, "runtime.ServingFabric.SubmitAt", next_ + 1);
        fab_->SubmitAt(arrivals_[next_].due, arrivals_[next_].req);
        ++next_;
      }
      Scope span(tracer_, "sim.ShardedEngine.RunUntil");
      fab_->sharded().RunUntil(until);
      now_ = until;
    }
  }

  struct Arrival {
    sim::TimePs due = 0;
    ServingRequest req;
    uint64_t hash = 0;
  };

  // This round's request stream through a standalone Router whose batch
  // sink completes every batch at once: admission, fair queues, batching,
  // routing and the completion-side integrity check, without the nodes.
  double ProbeRouter(Tracer* tracer) {
    sim::Engine engine;
    Router::Config rc = RouterConfig();
    rc.num_nodes = kNodes;
    Router router(&engine, rc);
    for (uint32_t node = 0; node < kNodes; ++node) {
      router.SetNodeResident(node, RegionKernels(node));
    }
    std::vector<uint64_t> hash_of(arrivals_.size() + 1, 0);
    router.SetBatchSink([&](uint32_t node, std::vector<ServingRequest> batch) {
      for (const ServingRequest& r : batch) {
        ServingCompletion c;
        c.id = r.id;
        c.tenant = r.tenant;
        c.status = OpStatus::kOk;
        c.node = node;
        c.region = r.region_hint;
        c.submitted_at = r.submitted_at;
        c.completed_at = engine.Now();
        c.response_hash = r.id < hash_of.size() ? hash_of[r.id] : 0;
        router.OnCompletion(c);
      }
    });
    for (size_t i = 0; i < arrivals_.size(); ++i) {
      hash_of[i + 1] = arrivals_[i].hash;
      engine.ScheduleAt(arrivals_[i].due, [&router, &arrivals = arrivals_, i]() {
        router.Submit(arrivals[i].req);
      });
    }
    {
      Scope span(tracer, "probe.runtime.Router.Run");
      engine.RunUntilIdle();
    }
    const SpanSum sum = SumSpans(*tracer, "probe.runtime.Router.Run");
    return static_cast<double>(sum.ns) / static_cast<double>(arrivals_.size());
  }

  // CYRP frames shaped like this round's traffic: one request-batch frame
  // per router.mean_batch requests and one completion frame per request,
  // each written with FrameWriter::Finish and read back with FrameReader.
  double ProbeRpc(Tracer* tracer, std::vector<std::vector<uint8_t>>* frames, double* kib) {
    const size_t batch = std::max<size_t>(
        1, static_cast<size_t>(fab_->router().batch_histogram().mean() + 0.5));
    uint64_t bytes = 0;
    for (size_t i = 0; i < arrivals_.size(); i += batch) {
      const size_t end = std::min(arrivals_.size(), i + batch);
      Scope span(tracer, "probe.net.rpc.Frame");
      net::rpc::FrameWriter w;
      w.U32(0);
      w.U32(static_cast<uint32_t>(end - i));
      for (size_t j = i; j < end; ++j) {
        WriteBatchRecord(&w, arrivals_[j].req);
      }
      std::vector<uint8_t> frame = w.Finish(net::rpc::MsgType::kRequestBatch);
      net::rpc::FrameReader r(frame);
      r.U32();
      r.U32();
      for (size_t j = i; j < end; ++j) {
        r.U64();
        r.U32();
        r.Str();
        r.U64();
        r.U64();
        r.U64();
        r.U32();
        r.I32();
        r.U64();
        r.U32();
      }
      bytes += frame.size();
      frames->push_back(std::move(frame));
    }
    for (size_t i = 0; i < arrivals_.size(); ++i) {
      Scope span(tracer, "probe.net.rpc.Frame");
      const ServingCompletion& c = done_[i];
      net::rpc::FrameWriter w;
      w.U64(c.id);
      w.U32(c.tenant);
      w.U8(static_cast<uint8_t>(c.status));
      w.U32(c.node);
      w.I32(c.region);
      w.U64(c.submitted_at);
      w.U64(c.completed_at);
      w.U64(c.response_hash);
      std::vector<uint8_t> frame = w.Finish(net::rpc::MsgType::kCompletion);
      net::rpc::FrameReader r(frame);
      r.U64();
      r.U32();
      r.U8();
      r.U32();
      r.I32();
      r.U64();
      r.U64();
      r.U64();
      bytes += frame.size();
      frames->push_back(std::move(frame));
    }
    *kib = static_cast<double>(bytes) / 1024.0;
    const SpanSum sum = SumSpans(*tracer, "probe.net.rpc.Frame");
    return *kib > 0 ? static_cast<double>(sum.ns) / *kib : 0.0;
  }

  const Spec spec_;
  const uint64_t seed_;
  Tracer* tracer_;

  std::vector<Arrival> arrivals_;
  size_t next_ = 0;            // next arrival to submit
  size_t first_measured_ = 0;  // first arrival due at or after kMeasureFrom
  sim::TimePs now_ = 0;
  std::unique_ptr<ServingFabric> fab_;
  sim::Engine* router_engine_ = nullptr;
  std::vector<uint32_t> seen_;
  std::vector<ServingCompletion> done_;
  std::vector<sim::TimePs> delivered_at_;
  size_t completed_ = 0;
  uint64_t unknown_completions_ = 0;
  uint64_t events_before_ = 0;
  uint64_t windows_before_ = 0;

  std::vector<OpRecord> ops_;
  uint64_t ok_bytes_ = 0;
  sim::TimePs last_done_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServe(const std::string& name, uint64_t seed, Tracer* tracer) {
  return std::make_unique<Serve>(name, seed, tracer);
}

}  // namespace perfbench
