#include "src/runtime/cluster.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/runtime/placement.h"

namespace coyote {
namespace runtime {

// ---------------------------------------------------------------------------
// LivenessDetector
// ---------------------------------------------------------------------------

LivenessDetector::LivenessDetector(uint32_t num_nodes, sim::TimePs window, DeathSink on_death)
    : window_(window), on_death_(std::move(on_death)), alive_(num_nodes, 1),
      last_beat_(num_nodes, 0) {}

void LivenessDetector::Beat(uint32_t node, sim::TimePs now) {
  guard_.Write();
  if (alive(node)) {  // no resurrection: a declared death sticks for the run
    last_beat_[node] = now;
  }
}

void LivenessDetector::Sweep(sim::TimePs now) {
  for (uint32_t n = 0; n < alive_.size(); ++n) {
    if (alive(n) && now - last_beat_[n] > window_) {
      Declare(n);
    }
  }
}

void LivenessDetector::Declare(uint32_t node) {
  if (!alive(node)) {
    return;
  }
  guard_.Write();
  alive_[node] = 0;
  on_death_(node);
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

namespace {

sim::ShardedEngine::Config EngineConfig(uint32_t num_shards, bool use_threads,
                                        const net::Network::Config& net) {
  sim::ShardedEngine::Config ec;
  ec.num_shards = num_shards;
  // Conservative lookahead: the minimum cross-node traversal of the modeled
  // fabric — switch latency plus serialization of a minimum frame on both
  // links (net::Network::MinCrossNodeLatencyPs's formula).
  ec.lookahead = net.switch_latency + 2 * sim::TransferTime(64, net.link_bps);
  ec.use_threads = use_threads;
  return ec;
}

}  // namespace

Cluster::Cluster(const char* name, uint32_t num_nodes, uint32_t num_shards, bool use_threads,
                 uint64_t seed, const net::Network::Config& net)
    : num_nodes_(num_nodes),
      seed_(seed),
      net_(net),
      shard_of_(ShardPlacement::RoundRobin(num_nodes + 1, num_shards)),
      sharded_(EngineConfig(num_shards, use_threads, net)),
      nodes_(num_nodes) {
  for (uint32_t n = 0; n < num_nodes; ++n) {
    nodes_[n].guard =
        std::make_unique<sim::AccessGuard>(std::string(name) + ".node" + std::to_string(n));
    nodes_[n].guard->BindShard(shard_of_[n]);
  }
}

sim::Engine& Cluster::EngineAt(uint32_t logical) {
  return sharded_.shard(shard_of_[logical]);  // lint: cross-shard-ok own-shard accessor, callers pass their own logical node; cross-node traffic goes through Post
}

void Cluster::Post(uint32_t src, uint32_t dst, sim::TimePs delay, sim::InlineCallback cb) {
  const sim::TimePs wire = std::max(delay, sharded_.lookahead());
  sharded_.Post(shard_of_[dst], NowAt(src) + wire, std::move(cb), /*order_key=*/src);
}

void Cluster::ScheduleOnNode(uint32_t logical, sim::TimePs t, sim::InlineCallback cb) {
  sharded_.ScheduleOn(shard_of_[logical], t, std::move(cb));
}

bool Cluster::Start(sim::TimePs heartbeat_period, HeartbeatSink beat, sim::TimePs sweep_period,
                    std::function<void()> sweep, const NodeHook& after_node) {
  if (started_) {
    return false;
  }
  started_ = true;
  beat_ = std::move(beat);
  sweep_ = std::move(sweep);
  for (uint32_t n = 0; n < num_nodes_; ++n) {
    EngineAt(n).ScheduleAfter(heartbeat_period,
                              [this, n, p = heartbeat_period]() { HeartbeatTick(n, p); });
    if (after_node) {
      after_node(n);
    }
  }
  EngineAt(control()).ScheduleAfter(sweep_period,
                                    [this, sweep_period]() { SweepTick(sweep_period); });
  return true;
}

bool Cluster::Run(sim::TimePs horizon, sim::TimePs step, const std::function<bool()>& settled) {
  for (sim::TimePs t = step; t <= horizon; t += step) {
    sharded_.RunUntil(t);
    if (settled()) {
      return true;
    }
  }
  return settled();
}

void Cluster::HeartbeatTick(uint32_t node, sim::TimePs period) {
  Node& n = nodes_[node];
  if (!n.alive) {
    return;
  }
  EngineAt(node).ScheduleAfter(period, [this, node, period]() { HeartbeatTick(node, period); });
  n.guard->Write();
  beat_(node, ++n.hb_seq);
}

void Cluster::SweepTick(sim::TimePs period) {
  EngineAt(control()).ScheduleAfter(period, [this, period]() { SweepTick(period); });
  sweep_();
}

void Cluster::Kill(uint32_t node) {
  Node& n = nodes_[node];
  if (!n.alive) {
    return;
  }
  n.guard->Write();
  n.alive = false;
  if (on_kill_) {
    on_kill_(node);
  }
  // Everything else decays passively: heartbeats stop, in-flight work never
  // completes, and the control plane's sweep declares the death.
}

}  // namespace runtime
}  // namespace coyote
