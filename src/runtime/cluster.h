// The cluster harness under every multi-node deployment (Fleet,
// ServingFabric): N simulated nodes plus one control-plane node (logical id
// N) on one sharded PDES engine. It owns placement and lookahead, the one
// cross-node Post, the wire model, per-node seeds, heartbeat timers with
// kill gating, the control-plane sweep timer and the settle loop; a service
// supplies the heartbeat transport, the sweep and its LivenessDetector.
// See DESIGN.md "Cluster harness".

#ifndef SRC_RUNTIME_CLUSTER_H_
#define SRC_RUNTIME_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/net/network.h"
#include "src/sim/access_guard.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/time.h"

namespace coyote {
namespace runtime {

// The one node-death detector. A beat refreshes a node's last-beat time; a
// sweep declares dead, in node-id order, every live node whose last beat is
// strictly more than `window` old (a node that never beat counts from t=0).
// A death is final — later beats are ignored — and each one is published
// exactly once to the owning service's death sink.
class LivenessDetector {
 public:
  using DeathSink = std::function<void(uint32_t node)>;

  LivenessDetector(uint32_t num_nodes, sim::TimePs window, DeathSink on_death);

  void BindShard(sim::ShardId shard) { guard_.BindShard(shard); }
  void Beat(uint32_t node, sim::TimePs now);
  void Sweep(sim::TimePs now);
  // Declares `node` dead now (no-op when it already is).
  void Declare(uint32_t node);
  bool alive(uint32_t node) const { return alive_[node] != 0; }

 private:
  const sim::TimePs window_;
  const DeathSink on_death_;
  std::vector<uint8_t> alive_;
  std::vector<sim::TimePs> last_beat_;
  sim::AccessGuard guard_{"runtime.liveness"};
};

class Cluster {
 public:
  // Ships heartbeat `seq` from `node` to the control plane (node's shard).
  using HeartbeatSink = std::function<void(uint32_t node, uint64_t seq)>;
  using NodeHook = std::function<void(uint32_t node)>;

  // `name` prefixes the per-node access guards ("<name>.node<i>").
  Cluster(const char* name, uint32_t num_nodes, uint32_t num_shards, bool use_threads,
          uint64_t seed, const net::Network::Config& net);
  Cluster(const Cluster&) = delete;  // callbacks hold `this`
  Cluster& operator=(const Cluster&) = delete;

  uint32_t num_nodes() const { return num_nodes_; }
  uint32_t control() const { return num_nodes_; }  // the control plane's logical id
  sim::ShardId shard_of(uint32_t logical) const { return shard_of_[logical]; }
  sim::ShardedEngine& sharded() { return sharded_; }

  // `logical`'s own engine / local clock. Callers pass their *own* logical
  // node; reaching another node is what Post is for.
  sim::Engine& EngineAt(uint32_t logical);
  sim::TimePs NowAt(uint32_t logical) { return EngineAt(logical).Now(); }
  void Post(uint32_t src, uint32_t dst, sim::TimePs delay, sim::InlineCallback cb);
  // Switch latency plus serialization of `bytes` at the link rate.
  sim::TimePs WireDelay(uint64_t bytes) const {
    return net_.switch_latency + sim::TransferTime(bytes, net_.link_bps);
  }
  // One independent RNG stream per logical node, stable across placements.
  uint64_t NodeSeed(uint32_t logical) const {
    return seed_ ^ (0x9E3779B97F4A7C15ull * (logical + 1));
  }
  // Guard over node-local state, bound to the node's shard.
  sim::AccessGuard& node_guard(uint32_t node) { return *nodes_[node].guard; }

  // --- Host side (before Run or between windows) ------------------------------
  void ScheduleOnNode(uint32_t logical, sim::TimePs t, sim::InlineCallback cb);
  void ScheduleKill(sim::TimePs t, uint32_t node) {
    ScheduleOnNode(node, t, [this, node]() { Kill(node); });
  }
  // Runs in the node's shard after Kill stopped its heartbeat.
  void SetKillHook(NodeHook hook) { on_kill_ = std::move(hook); }
  // Once: arms each node's periodic heartbeat, calling `after_node(node)`
  // right after each, then the control plane's periodic sweep. Equal-time
  // events break ties by scheduling order, so this order is part of every
  // fingerprint. Returns false (arming nothing) when already started.
  bool Start(sim::TimePs heartbeat_period, HeartbeatSink beat, sim::TimePs sweep_period,
             std::function<void()> sweep, const NodeHook& after_node = nullptr);
  // Steps `step` windows until `settled()` or `horizon`; returns settled().
  bool Run(sim::TimePs horizon, sim::TimePs step, const std::function<bool()>& settled);

  // --- Node shard context -----------------------------------------------------
  bool alive(uint32_t node) const { return nodes_[node].alive; }
  // Hard crash: heartbeats stop, the kill hook runs, alive() turns false.
  void Kill(uint32_t node);

 private:
  struct Node {
    bool alive = true;
    uint64_t hb_seq = 0;
    std::unique_ptr<sim::AccessGuard> guard;
  };

  // Periodic ticks re-arm before they run, like sim::TimerWheel's; a dead
  // node's pending tick fires once more as a no-op and stops.
  void HeartbeatTick(uint32_t node, sim::TimePs period);
  void SweepTick(sim::TimePs period);

  const uint32_t num_nodes_;
  const uint64_t seed_;
  const net::Network::Config net_;
  const std::vector<uint32_t> shard_of_;  // logical node (incl. control) -> shard
  sim::ShardedEngine sharded_;
  std::vector<Node> nodes_;
  HeartbeatSink beat_;
  std::function<void()> sweep_;
  NodeHook on_kill_;
  bool started_ = false;
};

}  // namespace runtime
}  // namespace coyote

#endif  // SRC_RUNTIME_CLUSTER_H_
