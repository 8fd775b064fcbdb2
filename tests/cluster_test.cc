// Cluster harness tests: the one node-death detector, the shared Cluster
// plumbing (Post clamping, wire model, heartbeats, kills, settle loop) and
// the serving CYRP codecs' whole-frame validation. The codec cases are
// structure-aware: they change one field and re-seal the frame so the CRC
// passes, which exercises the semantic checks behind the checksum.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/network.h"
#include "src/net/rpc.h"
#include "src/runtime/cluster.h"
#include "src/runtime/router.h"
#include "src/runtime/serving.h"
#include "src/services/vector_kernels.h"
#include "src/sim/time.h"

namespace coyote {
namespace runtime {

// Hands a hand-built request-batch frame to a fabric node, as the wire would.
struct ServingFabricTestPeer {
  static void DeliverBatch(ServingFabric& fab, uint32_t node, const std::vector<uint8_t>& frame,
                           const std::vector<axi::BufferView>& payloads) {
    fab.OnBatchFrame(node, frame, payloads);
  }
};

namespace {

// --- LivenessDetector ---------------------------------------------------------

struct Deaths {
  std::vector<uint32_t> nodes;
  LivenessDetector::DeathSink Sink() {
    return [this](uint32_t node) { nodes.push_back(node); };
  }
};

TEST(LivenessDetectorTest, DeclaresOnlyStrictlyLongerSilence) {
  Deaths deaths;
  LivenessDetector d(2, /*window=*/100, deaths.Sink());
  d.Beat(0, 50);
  d.Beat(1, 60);
  d.Sweep(150);  // node 0 silent for exactly the window: still alive
  EXPECT_TRUE(d.alive(0));
  d.Sweep(151);
  EXPECT_FALSE(d.alive(0));
  EXPECT_TRUE(d.alive(1));
  EXPECT_EQ(deaths.nodes, std::vector<uint32_t>{0});
}

TEST(LivenessDetectorTest, NodeThatNeverBeatCountsFromTimeZero) {
  Deaths deaths;
  LivenessDetector d(1, 100, deaths.Sink());
  d.Sweep(100);
  EXPECT_TRUE(d.alive(0));
  d.Sweep(101);
  EXPECT_FALSE(d.alive(0));
}

TEST(LivenessDetectorTest, DeathIsFinalAndPublishedOnce) {
  Deaths deaths;
  LivenessDetector d(3, 100, deaths.Sink());
  d.Declare(1);
  d.Declare(1);
  d.Beat(1, 500);  // a late beat does not resurrect
  d.Sweep(550);    // nodes 0 and 2 die together, in id order; 1 stays dead once
  EXPECT_FALSE(d.alive(1));
  EXPECT_EQ(deaths.nodes, (std::vector<uint32_t>{1, 0, 2}));
}

// --- Cluster -------------------------------------------------------------------

TEST(ClusterTest, PlacesControlPlaneOnNodeNAndModelsTheWire) {
  net::Network::Config net;
  Cluster c("test", 3, 2, false, 0x1234, net);
  EXPECT_EQ(c.control(), 3u);
  EXPECT_EQ(c.shard_of(0), 0u);
  EXPECT_EQ(c.shard_of(1), 1u);
  EXPECT_EQ(c.shard_of(3), 1u);
  EXPECT_EQ(c.sharded().lookahead(),
            net.switch_latency + 2 * sim::TransferTime(64, net.link_bps));
  EXPECT_EQ(c.WireDelay(4096), net.switch_latency + sim::TransferTime(4096, net.link_bps));
  EXPECT_EQ(c.NodeSeed(2), 0x1234ull ^ (0x9E3779B97F4A7C15ull * 3));
}

TEST(ClusterTest, PostArrivesAtMaxOfDelayAndLookahead) {
  Cluster c("test", 2, 2, false, 1, net::Network::Config{});
  const sim::TimePs la = c.sharded().lookahead();
  std::vector<sim::TimePs> arrivals;
  c.ScheduleOnNode(0, 1000, [&]() {
    c.Post(0, 1, 0, [&]() { arrivals.push_back(c.NowAt(1)); });
    c.Post(0, 1, la + 500, [&]() { arrivals.push_back(c.NowAt(1)); });
  });
  EXPECT_TRUE(c.Run(sim::Microseconds(10), sim::Microseconds(1), [&]() {
    return arrivals.size() == 2;
  }));
  EXPECT_EQ(arrivals, (std::vector<sim::TimePs>{1000 + la, 1000 + la + 500}));
}

TEST(ClusterTest, KillStopsHeartbeatsAndRunsTheHookOnce) {
  Cluster c("test", 2, 1, false, 1, net::Network::Config{});
  const sim::TimePs period = sim::Microseconds(10);
  std::vector<std::pair<uint32_t, uint64_t>> beats;
  uint32_t sweeps = 0;
  std::vector<uint32_t> killed;
  c.SetKillHook([&](uint32_t node) { killed.push_back(node); });
  c.ScheduleKill(sim::Microseconds(25), 1);
  c.ScheduleKill(sim::Microseconds(26), 1);
  EXPECT_TRUE(c.Start(
      period, [&](uint32_t node, uint64_t seq) { beats.emplace_back(node, seq); },
      sim::Microseconds(20), [&]() { ++sweeps; }));
  EXPECT_FALSE(c.Start(period, nullptr, period, nullptr));  // arms once
  EXPECT_FALSE(c.Run(sim::Microseconds(40), sim::Microseconds(5), []() { return false; }));

  // Node 0 beats at 10/20/30/40 us; node 1 only until its kill at 25 us.
  const std::vector<std::pair<uint32_t, uint64_t>> want = {
      {0, 1}, {1, 1}, {0, 2}, {1, 2}, {0, 3}, {0, 4}};
  EXPECT_EQ(beats, want);
  EXPECT_EQ(sweeps, 2u);
  EXPECT_EQ(killed, std::vector<uint32_t>{1});
  EXPECT_TRUE(c.alive(0));
  EXPECT_FALSE(c.alive(1));
}

// A control plane on the Cluster: nodes beat over Post, one node is killed,
// and the detector's death trace is identical at every shard count.
TEST(ClusterTest, HeartbeatDeathTraceIsShardPlacementInvariant) {
  auto run = [](uint32_t shards) {
    Cluster c("test", 4, shards, false, 7, net::Network::Config{});
    std::vector<std::string> trace;
    LivenessDetector d(4, sim::Microseconds(40), [&](uint32_t node) {
      trace.push_back("dead " + std::to_string(node) + " @" + std::to_string(c.NowAt(4)));
    });
    d.BindShard(c.shard_of(c.control()));
    c.ScheduleKill(sim::Microseconds(33), 2);
    c.Start(
        sim::Microseconds(10),
        [&](uint32_t node, uint64_t) {
          c.Post(node, c.control(), 0, [&, node]() { d.Beat(node, c.NowAt(c.control())); });
        },
        sim::Microseconds(15), [&]() { d.Sweep(c.NowAt(c.control())); });
    c.Run(sim::Microseconds(200), sim::Microseconds(20), []() { return false; });
    return trace;
  };
  const std::vector<std::string> one = run(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].rfind("dead 2 @", 0), 0u);
  EXPECT_EQ(run(2), one);
  EXPECT_EQ(run(4), one);
}

// --- serving CYRP codecs --------------------------------------------------------

constexpr size_t kHeaderBytes = 12;  // magic, version, type, reserved, length
constexpr size_t kTrailerBytes = 4;  // CRC-32

// Re-seals `frame` after `mutate` edited its payload bytes: the CRC passes, so
// only the decoder's semantic checks stand between the edit and the caller.
std::vector<uint8_t> Reseal(const std::vector<uint8_t>& frame, net::rpc::MsgType type,
                            const std::function<void(std::vector<uint8_t>*)>& mutate) {
  std::vector<uint8_t> payload(frame.begin() + kHeaderBytes, frame.end() - kTrailerBytes);
  mutate(&payload);
  net::rpc::FrameWriter w;
  w.Raw(payload.data(), payload.size());
  return w.Finish(type);
}

serving::ServingCompletion SampleCompletion() {
  serving::ServingCompletion c;
  c.id = 42;
  c.tenant = 7;
  c.status = OpStatus::kOk;
  c.node = 1;
  c.region = 0;
  c.submitted_at = 1000;
  c.completed_at = 2000;
  c.response_hash = 0xABCDEFull;
  return c;
}

TEST(ServingCodecTest, CompletionDecoderRejectsOutOfRangeStatus) {
  const std::vector<uint8_t> frame = serving::EncodeCompletion(SampleCompletion());
  constexpr size_t kStatusOffset = 8 + 4;  // after id and tenant
  auto with_status = [&](uint8_t status) {
    return Reseal(frame, net::rpc::MsgType::kCompletion,
                  [status](std::vector<uint8_t>* p) { (*p)[kStatusOffset] = status; });
  };
  serving::ServingCompletion out;
  ASSERT_TRUE(serving::DecodeCompletion(with_status(static_cast<uint8_t>(OpStatus::kOk)), &out));
  EXPECT_EQ(out.id, 42u);
  EXPECT_EQ(out.response_hash, 0xABCDEFull);
  EXPECT_TRUE(
      serving::DecodeCompletion(with_status(static_cast<uint8_t>(OpStatus::kShed)), &out));
  EXPECT_EQ(out.status, OpStatus::kShed);
  EXPECT_FALSE(serving::DecodeCompletion(with_status(0), &out));  // kPending is not terminal
  EXPECT_FALSE(serving::DecodeCompletion(with_status(0xFF), &out));
}

TEST(ServingCodecTest, HeartbeatDecoderChecksTheSender) {
  const std::vector<uint8_t> frame = serving::EncodeHeartbeat(3, 9, 12345);
  uint64_t seq = 0;
  ASSERT_TRUE(serving::DecodeHeartbeat(frame, 3, &seq));
  EXPECT_EQ(seq, 9u);
  EXPECT_FALSE(serving::DecodeHeartbeat(frame, 2, &seq));
}

serving::ServingRequest BatchReq(uint64_t id, uint64_t bytes) {
  serving::ServingRequest r;
  r.id = id;
  r.tenant = static_cast<uint32_t>(id);
  r.kernel = "serve.bin";
  r.payload = axi::BufferView(std::vector<uint8_t>(bytes, static_cast<uint8_t>(id)));
  return r;
}

struct Batch {
  std::vector<serving::ServingRequest> reqs;
  std::vector<axi::BufferView> payloads;
  std::vector<uint8_t> frame;
};

// A 3-record batch for node 0; `bad_len_of_record_2` re-seals it with record
// 2's payload_len one byte longer than its payload view.
Batch ThreeRecordBatch(bool bad_len_of_record_2) {
  Batch b;
  for (uint64_t id = 1; id <= 3; ++id) {
    b.reqs.push_back(BatchReq(id, 64));
    b.payloads.push_back(b.reqs.back().payload);
  }
  b.frame = serving::EncodeBatch(0, b.reqs);
  if (bad_len_of_record_2) {
    // u32 node, u32 count, then each record: u64 id, u32 tenant, str kernel,
    // u64 payload_len, ... — 60 bytes plus the kernel name.
    const size_t record = 60 + b.reqs[0].kernel.size();
    const size_t len_off = 8 + record + 8 + 4 + 4 + b.reqs[1].kernel.size();
    b.frame = Reseal(b.frame, net::rpc::MsgType::kRequestBatch,
                     [len_off](std::vector<uint8_t>* p) { ++(*p)[len_off]; });
  }
  return b;
}

TEST(ServingCodecTest, BatchDecoderValidatesEveryRecordBeforeReturningAny) {
  std::vector<serving::ServingRequest> out;
  const Batch good = ThreeRecordBatch(false);
  ASSERT_TRUE(serving::DecodeBatch(good.frame, 0, good.payloads, &out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].id, 3u);
  EXPECT_EQ(out[2].payload.size(), 64u);

  const Batch bad = ThreeRecordBatch(true);
  EXPECT_FALSE(serving::DecodeBatch(bad.frame, 0, bad.payloads, &out));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(serving::DecodeBatch(good.frame, 1, good.payloads, &out));  // wrong node
  EXPECT_TRUE(out.empty());
}

// The whole-batch contract on a live fabric node: a batch with one bad record
// executes none of its requests and counts exactly one frame error.
TEST(ServingCodecTest, FabricExecutesNoRecordOfABadBatch) {
  auto run = [](bool bad, uint64_t* executed) {
    ServingFabric::Config c;
    c.num_nodes = 1;
    c.regions_per_node = 1;
    c.kernel_factory = [] { return std::make_unique<services::PassthroughKernel>(); };
    c.loadgen.duration = 0;
    ServingFabric fab(c);
    const Batch b = ThreeRecordBatch(bad);
    ServingFabricTestPeer::DeliverBatch(fab, 0, b.frame, b.payloads);
    EXPECT_TRUE(fab.Run(sim::Milliseconds(1), sim::Microseconds(50)));
    *executed = fab.scheduler(0).completed() + fab.scheduler(0).failed_requests();
    return fab.frame_errors();
  };
  uint64_t executed = 0;
  EXPECT_EQ(run(false, &executed), 0u);
  EXPECT_EQ(executed, 3u);
  EXPECT_EQ(run(true, &executed), 1u);
  EXPECT_EQ(executed, 0u);
}

}  // namespace
}  // namespace runtime
}  // namespace coyote
