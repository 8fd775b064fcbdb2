// rdma_mix: closed-loop RDMA WRITE and READ, 3:1, interleaved on one QP
// pair between two SimDevices on one net::Network.
//
// Eight clients each keep one op outstanding. Client k owns lane k (an
// eighth) of each 64 MiB hugepage buffer, so no two outstanding ops touch
// the same bytes and "later" is well defined per lane for the final data
// check. Ops go through CThread::Invoke (kRemoteWrite / kRemoteRead);
// latency runs from the Invoke call to the completion callback. After an
// error completion every client stops issuing; once all outstanding ops
// have completed, both ends ResetQp and reconnect and the clients resume.
//
// Reads next to writes on the same QP currently expose a responder defect
// (a READ request does not advance the responder's expected PSN, so the
// next WRITE is discarded until the retry budget errors the QP). The
// workload reports it through ok_ratio, net.roce.qp_resets and the tail
// latency; it does not route around it.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/probes.h"
#include "perfbench/src/workload.h"
#include "src/net/network.h"
#include "src/runtime/cthread.h"
#include "src/runtime/device.h"
#include "src/runtime/serving.h"
#include "src/sim/engine.h"
#include "src/sim/rng.h"

namespace perfbench {
namespace {

using namespace coyote;
using runtime::CThread;
using runtime::OpStatus;

constexpr uint32_t kIpA = 0x0A000001;
constexpr uint32_t kIpB = 0x0A000002;
constexpr uint64_t kBufBytes = 64ull << 20;
constexpr uint64_t kProbeBufBytes = 8ull << 20;
constexpr uint32_t kClients = 8;
constexpr uint64_t kLaneBytes = kBufBytes / kClients;
constexpr uint64_t kMinOp = 4 << 10;
constexpr uint64_t kMaxOp = 64 << 10;
constexpr uint32_t kOps = 26000;  // ~12K OK on today's code; p99.9 needs 10,000
constexpr uint32_t kReadPermille = 250;
constexpr sim::TimePs kSlice = sim::Microseconds(200);
constexpr sim::TimePs kSlo = sim::Microseconds(200);
constexpr size_t kTapFrames = 8192;       // frames kept for the frame probe
constexpr uint32_t kProbeOps = 400;       // ops per single-verb probe run
constexpr uint64_t kGranule = 64;         // overwrite-tracking resolution

struct Op {
  bool read = false;
  uint64_t bytes = 0;
  uint64_t local_off = 0;   // within the client's lane of the A buffer
  uint64_t remote_off = 0;  // within the client's lane of the B buffer
  // Filled when issued / completed.
  uint32_t lane = 0;
  sim::TimePs posted_at = 0;
  sim::TimePs done_at = 0;
  OpStatus status = OpStatus::kPending;
};

runtime::SimDevice::Config NodeConfig(const char* name, uint32_t ip) {
  runtime::SimDevice::Config cfg;
  cfg.shell.name = name;
  cfg.shell.services = {fabric::Service::kHostStream, fabric::Service::kCardMemory,
                        fabric::Service::kRdma};
  cfg.shell.num_vfpgas = 1;
  cfg.ip = ip;
  return cfg;
}

std::vector<Op> MakeOps(uint64_t seed, uint32_t count, uint32_t read_permille,
                        uint64_t lane_bytes) {
  sim::Rng rng(seed);
  std::vector<Op> ops(count);
  for (Op& op : ops) {
    op.read = rng.NextBounded(1000) < read_permille;
    op.bytes = kMinOp + rng.NextBounded(kMaxOp - kMinOp + 1);
    op.local_off = rng.NextBounded(lane_bytes - op.bytes + 1);
    op.remote_off = rng.NextBounded(lane_bytes - op.bytes + 1);
  }
  return ops;
}

// Two RDMA nodes, one QP pair, three buffers: A's write sources and read
// destinations, B's target. The closed loop runs `ops` to completion.
class RdmaPair {
 public:
  RdmaPair(uint64_t seed, uint64_t buf_bytes, std::vector<Op> ops, Tracer* tracer)
      : lane_bytes_(buf_bytes / kClients), ops_(std::move(ops)), tracer_(tracer) {
    network_ = std::make_unique<net::Network>(&engine_, net::Network::Config{});
    dev_a_ = std::make_unique<runtime::SimDevice>(NodeConfig("rdma-a", kIpA), network_.get(),
                                                  &engine_);
    dev_b_ = std::make_unique<runtime::SimDevice>(NodeConfig("rdma-b", kIpB), network_.get(),
                                                  &engine_);
    ta_ = std::make_unique<CThread>(dev_a_.get(), 0);
    tb_ = std::make_unique<CThread>(dev_b_.get(), 0);
    qp_a_ = ta_->CreateQp();
    qp_b_ = tb_->CreateQp();
    Connect();
    a_src_ = ta_->GetMem({runtime::Alloc::kHpf, buf_bytes});
    a_dst_ = ta_->GetMem({runtime::Alloc::kHpf, buf_bytes});
    b_buf_ = tb_->GetMem({runtime::Alloc::kHpf, buf_bytes});
    std::vector<uint8_t> fill(buf_bytes);
    sim::Rng rng(seed ^ 0xF111ull);
    rng.FillBytes(fill.data(), fill.size());
    ta_->WriteBuffer(a_src_, fill.data(), fill.size());
    rng.FillBytes(fill.data(), fill.size());
    tb_->WriteBuffer(b_buf_, fill.data(), fill.size());
    ta_->SetCompletionCallback(
        [this](CThread::Task task, OpStatus status) { OnComplete(task, status); });
  }

  void CaptureFrames(std::vector<axi::BufferView>* frames) {
    auto tap = [frames](const axi::BufferView& frame, bool is_tx) {
      if (is_tx && frames->size() < kTapFrames) {
        frames->push_back(frame);
      }
    };
    dev_a_->roce()->SetTap(tap);
    dev_b_->roce()->SetTap(tap);
  }

  // Runs every op to completion; false if the engine idles first.
  bool Run() {
    for (uint32_t lane = 0; lane < kClients; ++lane) {
      IssueNext(lane);
    }
    while (completed_ < ops_.size()) {
      Scope span(tracer_, "sim.Engine.RunUntil");
      engine_.RunUntil(engine_.Now() + kSlice);
      if (engine_.Idle() && completed_ < ops_.size()) {
        return false;
      }
    }
    return true;
  }

  const std::vector<Op>& ops() const { return ops_; }
  uint64_t resets() const { return resets_; }
  sim::TimePs last_done() const { return last_done_; }
  sim::Engine& engine() { return engine_; }
  runtime::SimDevice& dev_a() { return *dev_a_; }
  runtime::SimDevice& dev_b() { return *dev_b_; }
  CThread& ta() { return *ta_; }
  CThread& tb() { return *tb_; }
  uint64_t a_src() const { return a_src_; }
  uint64_t a_dst() const { return a_dst_; }
  uint64_t b_buf() const { return b_buf_; }

 private:
  void Connect() {
    ta_->ConnectQp(qp_a_, kIpB, qp_b_);
    tb_->ConnectQp(qp_b_, kIpA, qp_a_);
  }

  void IssueNext(uint32_t lane) {
    if (next_ >= ops_.size()) {
      return;
    }
    Op& op = ops_[next_];
    const uint64_t index = next_++;
    op.lane = lane;
    op.posted_at = engine_.Now();
    runtime::SgEntry sg;
    sg.rdma.qpn = qp_a_;
    sg.rdma.len = op.bytes;
    sg.rdma.remote_addr = b_buf_ + lane * lane_bytes_ + op.remote_off;
    sg.rdma.local_addr = (op.read ? a_dst_ : a_src_) + lane * lane_bytes_ + op.local_off;
    Scope span(tracer_, "runtime.CThread.Invoke", index + 1);
    const CThread::Task task =
        ta_->Invoke(op.read ? runtime::Oper::kRemoteRead : runtime::Oper::kRemoteWrite, sg);
    if (task_op_.size() <= task.id) {
      task_op_.resize(task.id + 1, UINT64_MAX);
    }
    task_op_[task.id] = index;
    ++outstanding_;
  }

  void OnComplete(CThread::Task task, OpStatus status) {
    const uint64_t index = task.id < task_op_.size() ? task_op_[task.id] : UINT64_MAX;
    if (index == UINT64_MAX) {
      return;
    }
    Scope span(tracer_, "runtime.CThread.Completion", index + 1);
    Op& op = ops_[index];
    op.status = status;
    op.done_at = engine_.Now();
    last_done_ = std::max(last_done_, op.done_at);
    ++completed_;
    --outstanding_;
    if (status != OpStatus::kOk) {
      draining_ = true;
    }
    if (!draining_) {
      IssueNext(op.lane);
      return;
    }
    if (outstanding_ == 0) {
      // Drained: reset and reconnect both ends outside the stack's own
      // completion loop, then restart every client.
      engine_.ScheduleAfter(0, [this]() {
        dev_a_->roce()->ResetQp(qp_a_);
        dev_b_->roce()->ResetQp(qp_b_);
        Connect();
        ++resets_;
        draining_ = false;
        for (uint32_t lane = 0; lane < kClients; ++lane) {
          IssueNext(lane);
        }
      });
    }
  }

  const uint64_t lane_bytes_;
  std::vector<Op> ops_;
  Tracer* tracer_;
  sim::Engine engine_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<runtime::SimDevice> dev_a_, dev_b_;
  std::unique_ptr<CThread> ta_, tb_;
  uint32_t qp_a_ = 0, qp_b_ = 0;
  uint64_t a_src_ = 0, a_dst_ = 0, b_buf_ = 0;
  std::vector<uint64_t> task_op_;
  size_t next_ = 0;
  size_t completed_ = 0;
  uint32_t outstanding_ = 0;
  bool draining_ = false;
  uint64_t resets_ = 0;
  sim::TimePs last_done_ = 0;
};

class RdmaMix : public Workload {
 public:
  RdmaMix(uint64_t seed, Tracer* tracer) : seed_(seed), tracer_(tracer) {}

  void Setup() override {
    pair_ = std::make_unique<RdmaPair>(
        seed_, kBufBytes, MakeOps(seed_, kOps, kReadPermille, kLaneBytes), tracer_);
    if (tracer_->enabled()) {
      pair_->CaptureFrames(&frames_);
    }
    events_before_ = pair_->engine().events_executed();
  }

  void Window() override {
    ran_ = pair_->Run();
    for (const Op& op : pair_->ops()) {
      OpRecord r;
      r.outcome = op.status == OpStatus::kOk ? Outcome::kOk : Outcome::kFailed;
      r.latency_ps = LatencyFromDue(op.posted_at, op.done_at);
      if (r.outcome == Outcome::kOk) {
        ok_bytes_ += op.bytes;
      }
      records_.push_back(r);
    }
  }

  // For every OK op whose destination no later op of its lane wrote (and,
  // for a READ, whose source no later WRITE changed), the destination bytes
  // must hash-equal the source bytes.
  std::string Check() override {
    if (!ran_) {
      return "rdma_mix: engine went idle with ops outstanding";
    }
    const auto& ops = pair_->ops();
    const uint64_t granules = kLaneBytes / kGranule + 1;
    for (uint32_t lane = 0; lane < kClients; ++lane) {
      std::vector<uint8_t> b_later(granules, 0), a_later(granules, 0);
      for (size_t i = ops.size(); i-- > 0;) {
        const Op& op = ops[i];
        if (op.lane != lane) {
          continue;
        }
        std::vector<uint8_t>& dst_later = op.read ? a_later : b_later;
        const uint64_t dst_off = op.read ? op.local_off : op.remote_off;
        const bool clean = !Touched(dst_later, dst_off, op.bytes) &&
                           !(op.read && Touched(b_later, op.remote_off, op.bytes));
        if (op.status == OpStatus::kOk && clean) {
          const uint64_t b_addr = pair_->b_buf() + lane * kLaneBytes + op.remote_off;
          const uint64_t a_addr =
              (op.read ? pair_->a_dst() : pair_->a_src()) + lane * kLaneBytes + op.local_off;
          if (HashOf(&pair_->ta(), a_addr, op.bytes) != HashOf(&pair_->tb(), b_addr, op.bytes)) {
            return "rdma_mix: data mismatch on op " + std::to_string(i) +
                   (op.read ? " (READ)" : " (WRITE)");
          }
          ++(op.read ? verified_reads_ : verified_writes_);
        }
        Mark(&dst_later, dst_off, op.bytes);
      }
    }
    if (verified_writes_ == 0) {
      return "rdma_mix: no OK WRITE left to verify";
    }
    return "";
  }

  const std::vector<OpRecord>& Ops() const override { return records_; }
  uint64_t SpanPs() const override { return pair_->last_done(); }
  uint64_t OkBytes() const override { return ok_bytes_; }
  uint64_t SloPs() const override { return kSlo; }

  void Counts(LayerValues* out) override {
    net::RoceStack& a = *pair_->dev_a().roce();
    net::RoceStack& b = *pair_->dev_b().roce();
    const double n = static_cast<double>(kOps);
    (*out)["sim.events_per_op"] =
        static_cast<double>(pair_->engine().events_executed() - events_before_) / n;
    (*out)["net.roce.frames_per_op"] = static_cast<double>(a.tx_frames() + b.tx_frames()) / n;
    (*out)["net.roce.retransmits_per_op"] =
        static_cast<double>(a.retransmitted_frames() + b.retransmitted_frames()) / n;
    (*out)["net.roce.timeouts"] = static_cast<double>(a.timeouts() + b.timeouts());
    (*out)["net.roce.qp_resets"] = static_cast<double>(pair_->resets());
    (*out)["net.roce.error_completions"] =
        static_cast<double>(a.error_completions() + b.error_completions());
    std::vector<double> w_us, r_us;
    for (const Op& op : pair_->ops()) {
      if (op.status == OpStatus::kOk) {
        (op.read ? r_us : w_us).push_back(static_cast<double>(op.done_at - op.posted_at) * 1e-6);
      }
    }
    std::sort(w_us.begin(), w_us.end());
    std::sort(r_us.begin(), r_us.end());
    (*out)["net.roce.write_sim_p50_us"] = PercentileOf(w_us, 50).value;
    (*out)["net.roce.read_sim_p50_us"] = PercentileOf(r_us, 50).value;
    uint64_t hits = 0, misses = 0, faults = 0, packets = 0, irqs = 0, aborted = 0;
    for (runtime::SimDevice* d : {&pair_->dev_a(), &pair_->dev_b()}) {
      hits += d->vfpga_mmu(0).tlb().hits();
      misses += d->vfpga_mmu(0).tlb().misses();
      faults += d->vfpga_mmu(0).page_faults();
      packets += d->data_mover().packets_moved();
      irqs += d->data_mover().page_fault_irqs();
      aborted += d->data_mover().aborted_ops();
    }
    if (hits + misses > 0) {
      (*out)["mmu.tlb_hit_ratio"] = static_cast<double>(hits) / static_cast<double>(hits + misses);
    }
    (*out)["mmu.page_faults"] = static_cast<double>(faults);
    (*out)["dyn.packets_per_op"] = static_cast<double>(packets) / n;
    (*out)["dyn.page_fault_irqs"] = static_cast<double>(irqs);
    (*out)["dyn.aborted_ops"] = static_cast<double>(aborted);
  }

  void Probe(Tracer* tracer, double untraced_s, LayerValues* out) override {
    const auto totals = tracer->Totals();
    const uint64_t events = pair_->engine().events_executed() - events_before_;
    auto run = totals.find("sim.Engine.RunUntil");
    if (run != totals.end() && events > 0) {
      (*out)["sim.host_ns_per_event"] =
          static_cast<double>(run->second.self_ns) / static_cast<double>(events);
    }
    auto invoke = totals.find("runtime.CThread.Invoke");
    double invoke_ns = 0;
    if (invoke != totals.end() && invoke->second.count > 0) {
      invoke_ns = static_cast<double>(invoke->second.total_ns) /
                  static_cast<double>(invoke->second.count);
      (*out)["cthread.host_ns_per_invoke"] = invoke_ns;
    }
    double build_ns = 0, parse_ns = 0;
    ProbeFrames(frames_, tracer, &build_ns, &parse_ns);
    (*out)["net.host_ns_per_frame_build"] = build_ns;
    (*out)["net.host_ns_per_frame_parse"] = parse_ns;

    // Each verb alone, on a fresh pair, over this round's first op sizes.
    (*out)["net.roce.write_host_us_per_op"] = ProbeVerb(false, tracer);
    (*out)["net.roce.read_host_us_per_op"] = ProbeVerb(true, tracer);

    std::vector<uint64_t> sizes;
    uint64_t moved = 0;
    for (const Op& op : pair_->ops()) {
      if (sizes.size() < 2000) {
        sizes.push_back(op.bytes);
      }
      if (op.status == OpStatus::kOk) {
        moved += op.bytes;
      }
    }
    double w_ns = 0, r_ns = 0;
    ProbeSvm(sizes, tracer, &w_ns, &r_ns);
    (*out)["mmu.svm.host_ns_per_kib_write"] = w_ns;
    (*out)["mmu.svm.host_ns_per_kib_read"] = r_ns;

    // Frames built and parsed, bytes copied out of and into SVM, and the
    // Invoke calls, over the untraced window.
    const auto& a = *pair_->dev_a().roce();
    const auto& b = *pair_->dev_b().roce();
    const double frames = static_cast<double>(a.tx_frames() + b.tx_frames());
    const double kib = static_cast<double>(moved) / 1024.0;
    const double attributed_ns = frames * (build_ns + parse_ns) + kib * (w_ns + r_ns) +
                                 invoke_ns * static_cast<double>(kOps);
    if (untraced_s > 0) {
      (*out)["bench.attributed_share"] = attributed_ns * 1e-9 / untraced_s;
    }
  }

  std::vector<std::string> Notes() const override {
    return {"rdma_mix: verified " + std::to_string(verified_writes_) + " WRITEs and " +
                std::to_string(verified_reads_) + " READs not overwritten later",
            "rdma_mix: QP reset cycles " + std::to_string(pair_->resets())};
  }

 private:
  static bool Touched(const std::vector<uint8_t>& map, uint64_t off, uint64_t bytes) {
    for (uint64_t g = off / kGranule; g <= (off + bytes - 1) / kGranule; ++g) {
      if (map[g]) {
        return true;
      }
    }
    return false;
  }
  static void Mark(std::vector<uint8_t>* map, uint64_t off, uint64_t bytes) {
    for (uint64_t g = off / kGranule; g <= (off + bytes - 1) / kGranule; ++g) {
      (*map)[g] = 1;
    }
  }
  static uint64_t HashOf(CThread* t, uint64_t vaddr, uint64_t bytes) {
    std::vector<uint8_t> buf(bytes);
    t->ReadBuffer(vaddr, buf.data(), bytes);
    return runtime::serving::HashBytes(buf.data(), buf.size());
  }

  // Host us per op for one verb alone: the first kProbeOps sizes of this
  // round's op stream, all WRITE or all READ, on a fresh QP pair.
  double ProbeVerb(bool read, Tracer* tracer) {
    std::vector<Op> ops =
        MakeOps(seed_, kProbeOps, read ? 1000 : 0, kProbeBufBytes / kClients);
    Tracer quiet;  // the probe's own window is timed as one span
    RdmaPair pair(seed_, kProbeBufBytes, std::move(ops), &quiet);
    const char* name = read ? "probe.net.roce.ReadLoop" : "probe.net.roce.WriteLoop";
    {
      Scope span(tracer, name);
      if (!pair.Run()) {
        return 0.0;
      }
    }
    return static_cast<double>(SumSpans(*tracer, name).ns) * 1e-3 / kProbeOps;
  }

  const uint64_t seed_;
  Tracer* tracer_;
  std::unique_ptr<RdmaPair> pair_;
  std::vector<axi::BufferView> frames_;
  uint64_t events_before_ = 0;
  bool ran_ = false;
  std::vector<OpRecord> records_;
  uint64_t ok_bytes_ = 0;
  uint64_t verified_writes_ = 0;
  uint64_t verified_reads_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeRdmaMix(uint64_t seed, Tracer* tracer) {
  return std::make_unique<RdmaMix>(seed, tracer);
}

}  // namespace perfbench
