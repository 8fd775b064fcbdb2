// Fleet resilience layer: checkpoint/restore driven live migration and
// failure-driven evacuation across a simulated rack of Coyote v2 nodes.
//
// The Supervisor (src/runtime/supervisor.h) keeps one *node* healthy: it
// detects hung regions and hot-swaps them in place. This layer closes the
// loop one level up, across nodes — the role the paper assigns to the data
// center control plane sitting on the shell's monitoring registers:
//
//   Fleet         — the deployment: a Cluster (src/runtime/cluster.h;
//                   placement, Post, wire delay, heartbeats, kills, the
//                   settle loop) whose N nodes each run a SimDevice with a
//                   fault injector, a supervisor and event-driven tenant
//                   workloads, with the Orchestrator on the control node.
//                   Heartbeats are unframed posts at lookahead.
//   Orchestrator  — the control plane. Declares node deaths through its
//                   LivenessDetector, stores each tenant's periodic
//                   checkpoint, and drives the migration pipeline:
//
//       quiesce -> checkpoint -> transfer (chunked, RoCE-latency modeled,
//       lossy) -> restore -> resume
//
//   with bounded retransmit rounds and rollback to the source when the
//   destination cannot restore. A node whose heartbeats go silent is
//   declared dead; its tenants are replayed from their last stored
//   checkpoint on a survivor, and when capacity runs out the lowest-
//   priority tenant is shed with typed kShed completions — degraded, never
//   hung.
//
// Checkpoints use the CYK1 wire format (src/vfpga/checkpoint.h): region
// CSR/kernel state, the tenant's progress counters, in-flight op
// descriptors rebased to buffer-relative offsets, and the dirty-page
// manifest from the SVM layer (pages never written are not shipped — the
// restore target reproduces zero state for free). See DESIGN.md
// "Checkpoint wire format and migration protocol".

#ifndef SRC_RUNTIME_ORCHESTRATOR_H_
#define SRC_RUNTIME_ORCHESTRATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/runtime/cluster.h"
#include "src/runtime/cthread.h"
#include "src/runtime/device.h"
#include "src/runtime/placement.h"
#include "src/runtime/supervisor.h"
#include "src/sim/access_guard.h"
#include "src/sim/bytes.h"
#include "src/sim/fault.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/time.h"
#include "src/sim/timer_wheel.h"

namespace coyote {
namespace runtime {

// A fleet tenant: one kernel occupying one vFPGA region, streaming a fixed
// number of deterministic data items through it.
struct TenantSpec {
  std::string name;
  // Higher wins capacity fights; equal priorities shed the higher tenant id.
  uint32_t priority = 0;
  uint32_t home_node = 0;
  uint64_t items_total = 8;
  uint64_t item_bytes = 8 << 10;
  sim::TimePs think_time = sim::Microseconds(20);
};

// Terminal fate of a tenant, for settlement accounting.
enum class TenantOutcome : uint8_t {
  kRunning,  // not terminal yet
  kDone,     // all items retired (possibly after migration / evacuation)
  kShed,     // dropped by the orchestrator with kShed completions
};

// One quiesce->checkpoint->transfer->restore->resume attempt (or a
// checkpoint replay after a node death). Everything needed by
// BENCH_migration.json, in simulated picoseconds / bytes.
struct MigrationRecord {
  uint32_t tenant = 0;
  uint32_t src_node = 0;
  uint32_t dst_node = 0;
  std::string reason;  // "planned", "drain", "node.dead", ...
  sim::TimePs started_at = 0;
  sim::TimePs quiesced_at = 0;   // tenant stopped executing on the source
  sim::TimePs resumed_at = 0;    // tenant executing again (dst or rollback)
  sim::TimePs downtime = 0;      // quiesced_at -> resumed_at
  uint64_t ckpt_bytes = 0;
  uint64_t ckpt_pages = 0;       // dirty pages shipped
  uint32_t chunks = 0;           // first-round transfer chunks
  uint32_t retransmit_rounds = 0;
  uint32_t restore_attempts = 0;
  // "ok" | "rollback.transfer" | "rollback.restore" | "rollback.dst_dead"
  // | "evacuated" | "evacuated.fresh" | "shed"
  std::string outcome;
};

class Orchestrator;

// The deployment: nodes, tenants, injectors, and the sharded engine that
// runs them. Construction and Run() are host-side; everything else executes
// inside shard callbacks and communicates through Post().
class Fleet {
 public:
  struct Config {
    uint32_t num_nodes = 4;
    uint32_t regions_per_node = 2;
    uint32_t num_shards = 1;
    bool use_threads = false;
    uint64_t seed = 1;

    // Per-node fault plan template; each node derives its injector seed from
    // `seed` and its node id, the orchestrator from id num_nodes.
    sim::FaultPlan fault_template;

    // Control-plane cadence.
    sim::TimePs heartbeat_period = sim::Microseconds(50);
    sim::TimePs sweep_period = sim::Microseconds(100);
    // Periodic tenant checkpoint cadence (0 disables periodic checkpoints;
    // a dead node's tenants then restart from scratch).
    sim::TimePs checkpoint_period = sim::Microseconds(300);

    // Migration transport: checkpoint chunk size on the wire and capture
    // serialization bandwidth. Link rate and switch latency come from
    // net::Network::Config — the same constants the RoCE fabric models.
    uint64_t chunk_bytes = 4096;
    uint64_t capture_bps = 8'000'000'000ull;
    uint32_t chunk_retry_max = 6;
    sim::TimePs chunk_retry_backoff = sim::Microseconds(5);
    uint32_t restore_attempts_max = 2;

    net::Network::Config net;
    Supervisor::Config supervisor;

    // Kernel preloaded into every region at setup. Restores must find the
    // same kernel resident (RestoreRegion matches by name); the factory
    // keeps this layer independent of the concrete kernel library.
    std::string kernel_name = "passthrough";
    SimDevice::KernelFactory kernel_factory;
  };

  explicit Fleet(const Config& config);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // --- Host-side setup (before Run) -------------------------------------------
  // Admits a tenant on its home node's first free region. Returns the tenant
  // id. Must be called before Run().
  uint32_t AddTenant(const TenantSpec& spec);
  // Schedules a migration command (orchestrator-driven) at simulated time t.
  void ScheduleMigration(sim::TimePs t, uint32_t tenant, uint32_t dst_node);
  // Schedules a hard node crash at simulated time t: timers stop, heartbeats
  // go silent, every callback on the node becomes a no-op.
  void ScheduleKill(sim::TimePs t, uint32_t node) { cluster_.ScheduleKill(t, node); }

  // Runs the fleet in fixed `step` windows until every tenant settled (done
  // or shed) or `horizon` elapses. Returns true when settled.
  bool Run(sim::TimePs horizon, sim::TimePs step = sim::Milliseconds(1));

  // --- Observation (host-side, after Run) --------------------------------------
  Orchestrator& orchestrator() { return *orch_; }
  const Orchestrator& orchestrator() const { return *orch_; }
  sim::ShardedEngine& sharded() { return cluster_.sharded(); }
  SimDevice& node_device(uint32_t node) { return *nodes_[node]->dev; }
  uint32_t num_nodes() const { return config_.num_nodes; }
  bool node_alive(uint32_t node) const { return cluster_.alive(node); }

  TenantOutcome tenant_outcome(uint32_t tenant) const;
  // Rolling FNV-1a over every item the tenant verified end-to-end; carried
  // through checkpoints, so it is the data-integrity witness for migration.
  uint64_t tenant_data_hash(uint32_t tenant) const;
  uint64_t tenant_items_done(uint32_t tenant) const;

  // Fault-schedule fingerprint folded over every injector (nodes then
  // orchestrator) — bit-identical across shard counts for one seed.
  uint64_t InjectorFingerprint() const;

 private:
  friend class Orchestrator;

  // Tenant execution state on a node. Retired entries are kept (a CThread
  // with in-flight completions must outlive them); `region < 0` marks them.
  struct TenantRt {
    uint32_t id = 0;
    TenantSpec spec;
    int32_t region = -1;
    std::unique_ptr<CThread> thread;
    uint64_t src_vaddr = 0;
    uint64_t dst_vaddr = 0;
    uint64_t items_done = 0;
    uint64_t retries = 0;
    uint64_t data_hash = sim::kFnvOffset;
    bool running = false;  // false: quiesced / retired / shed
    // Exactly one item op in flight at a time. Guards against a stale
    // think-time timer firing right after a rollback resumed the tenant,
    // which would double-issue the current item.
    bool item_inflight = false;

    // Live-migration scratch, valid while this tenant is the source of an
    // in-flight transfer: the frozen checkpoint for retransmit rounds and
    // the aborted in-flight ops for a rollback re-issue.
    std::vector<uint8_t> mig_blob;
    std::vector<CThread::PendingOp> mig_pending;
    uint32_t mig_dst = 0;
    int32_t mig_dst_region = -1;
  };

  struct NodeRt {
    std::unique_ptr<SimDevice> dev;
    std::unique_ptr<Supervisor> sup;
    std::unique_ptr<sim::FaultInjector> injector;
    sim::TimerWheel::TimerId ckpt_timer = sim::TimerWheel::kInvalidTimer;
    // region -> resident tenant id (-1 free). Orchestrator placement is
    // authoritative; this is the node-local execution view.
    std::vector<int32_t> region_tenant;
    // tenant id -> runtime (including retired entries).
    std::map<uint32_t, std::unique_ptr<TenantRt>> tenants;
    // In-progress inbound checkpoint transfer: tenant -> chunk id -> bytes.
    // Chunks accumulate across retransmit rounds.
    std::map<uint32_t, std::map<uint32_t, std::vector<uint8_t>>> inbound;
  };

  // --- Node-side handlers (shard context of the node) ---------------------------
  // A runtime for `tenant` on (node, region): a cThread with both item
  // buffers allocated and its completions routed to OnItemComplete.
  std::unique_ptr<TenantRt> NewTenantRt(uint32_t node, uint32_t tenant, const TenantSpec& spec,
                                        int32_t region);
  // `tenant`'s runtime on `node`; null when the node is dead or lacks it.
  TenantRt* LiveTenant(uint32_t node, uint32_t tenant);
  // Frees the tenant's buffers and its node-local region slot.
  void ReleaseTenant(NodeRt& n, TenantRt& t);
  void StartTenantFresh(uint32_t node, uint32_t tenant, const TenantSpec& spec, int32_t region);
  void StartItem(uint32_t node, uint32_t tenant);
  void OnItemComplete(uint32_t node, uint32_t tenant, CThread::Task task, OpStatus status);
  void CheckpointTick(uint32_t node);
  void BeginMigration(uint32_t node, uint32_t tenant, uint32_t dst_node, int32_t dst_region);
  // Ships `chunk_ids` of `blob`, then the round's marker.
  void SendChunks(uint32_t src_logical, uint32_t dst_node, uint32_t tenant,
                  const std::vector<uint8_t>& blob, const std::vector<uint32_t>& chunk_ids,
                  uint32_t round, int32_t dst_region, sim::TimePs extra_delay);
  uint32_t ChunkCount(uint64_t blob_bytes) const;
  std::vector<uint32_t> AllChunks(uint64_t blob_bytes) const;  // 0 .. ChunkCount-1
  void OnChunk(uint32_t node, uint32_t tenant, uint32_t chunk_id, std::vector<uint8_t> bytes);
  void OnTransferMarker(uint32_t node, uint32_t tenant, uint32_t src_logical, int32_t dst_region,
                        uint32_t total_chunks, uint32_t round, uint64_t corrupt_entropy);
  void OnResendRequest(uint32_t src_logical, uint32_t tenant, std::vector<uint32_t> missing,
                       uint32_t round);
  void TryRestore(uint32_t node, uint32_t tenant, uint32_t src_logical, int32_t dst_region,
                  uint32_t round, std::vector<uint8_t> blob);
  void ResumeAtSource(uint32_t node, uint32_t tenant);
  void CleanupSource(uint32_t node, uint32_t tenant);
  void AbandonInbound(uint32_t node, uint32_t tenant);
  void ShedTenant(uint32_t node, uint32_t tenant);

  // Serializes a tenant's full state (progress, region snapshot, pending
  // ops, dirty pages) into a CYK1 blob. `pending` comes from SnapshotPending
  // *before* the quiesce abort.
  std::vector<uint8_t> BuildCheckpoint(const NodeRt& n, const TenantRt& t,
                                       const std::vector<CThread::PendingOp>& pending,
                                       uint64_t* pages_out) const;
  // Instantiates the tenant described by `blob` on (node, region). Returns
  // false when the blob fails validation or the region state mismatches.
  bool ApplyCheckpoint(uint32_t node, int32_t region, const std::vector<uint8_t>& blob);

  Config config_;
  // Node-side tenant/region tables are shard-owned: the cluster's per-node
  // guard is bound to the node's shard so a stray cross-shard touch trips
  // the ledger.
  Cluster cluster_;
  std::vector<std::unique_ptr<NodeRt>> nodes_;
  std::unique_ptr<sim::FaultInjector> orch_injector_;
  std::unique_ptr<Orchestrator> orch_;
  uint32_t next_tenant_ = 0;
};

// The control plane. Lives on logical node `num_nodes` (its own shard slot);
// every method below executes in that shard's context unless noted.
class Orchestrator {
 public:
  struct NodeHealth {
    bool believed_alive = true;
    // Orchestrator-authoritative placement books (src/runtime/placement.h).
    // Reservations happen here before the destination node hears anything,
    // so two migrations can never race for one region.
    RegionBook regions;
  };

  // Tenant bookkeeping from the orchestrator's point of view.
  struct TenantBook {
    TenantSpec spec;
    uint32_t node = 0;
    int32_t region = -1;
    TenantOutcome outcome = TenantOutcome::kRunning;
    bool migrating = false;
  };

  explicit Orchestrator(Fleet* fleet);

  // --- Control-plane events (shard context) ------------------------------------
  void OnHeartbeat(uint32_t node);
  void OnCheckpoint(uint32_t tenant, std::vector<uint8_t> blob, uint64_t pages);
  void StartMigration(uint32_t tenant, uint32_t dst_node, const std::string& reason);
  void OnMigrationQuiesced(uint32_t tenant, sim::TimePs quiesced_at, uint64_t ckpt_bytes,
                           uint64_t ckpt_pages, uint32_t chunks);
  void OnTransferRound(uint32_t tenant, uint32_t round);
  void OnRestoreAttempt(uint32_t tenant);
  void OnMigrationDone(uint32_t tenant, sim::TimePs resumed_at);
  void OnMigrationFailed(uint32_t tenant, const std::string& why);
  void OnRollbackResumed(uint32_t tenant, sim::TimePs resumed_at);
  void OnTenantDone(uint32_t tenant);
  void OnTenantShed(uint32_t tenant, const std::string& why);
  void Sweep();

  // --- Host-side observation ----------------------------------------------------
  bool AllSettled() const;
  const std::vector<MigrationRecord>& migrations() const { return records_; }
  const std::map<uint32_t, TenantBook>& tenants() const { return tenants_; }
  const std::map<uint32_t, NodeHealth>& node_health() const { return health_; }
  uint64_t deaths_declared() const { return deaths_declared_; }
  uint64_t evacuations() const { return evacuations_; }
  uint64_t sheds() const { return sheds_; }
  uint64_t rollbacks() const { return rollbacks_; }
  sim::TimePs settled_at() const { return settled_at_; }

  // Append-ordered control-plane event trace and its FNV-1a fingerprint —
  // the cross-shard-count determinism witness for the whole fleet.
  const std::vector<std::string>& trace() const { return trace_; }
  uint64_t TraceFingerprint() const;

 private:
  friend class Fleet;

  // Heartbeats a node may miss before the sweep declares it dead.
  static constexpr uint32_t kDeadAfterMissed = 4;

  struct StoredCkpt {
    std::vector<uint8_t> blob;
    uint64_t pages = 0;
  };

  void AdmitTenant(uint32_t tenant, const TenantSpec& spec, uint32_t node, int32_t region);
  void DeclareDead(uint32_t node);
  void EvacuateTenant(uint32_t tenant, const std::string& reason);
  // Reserves (dst, region) for a migrating tenant and opens its active record.
  MigrationRecord& OpenMigration(uint32_t tenant, uint32_t dst, int32_t region,
                                 const std::string& reason, const char* outcome);
  // Marks a running tenant done or shed, frees its region, resumes an
  // evacuation waiting on that region, and traces `what`.
  void SettleTenant(uint32_t tenant, TenantOutcome outcome, const std::string& what);
  void ReleaseRegion(uint32_t node, int32_t region);
  // Lowest-priority running tenant strictly below `below` (ties: highest
  // id). Returns false when none qualifies.
  bool FindShedVictim(uint32_t below_priority, uint32_t* victim_out) const;
  bool FindFreeRegion(uint32_t* node_out, int32_t* region_out) const;
  MigrationRecord* ActiveRecord(uint32_t tenant);
  void Trace(const std::string& line);
  void CheckSettled();

  Fleet* fleet_;
  Cluster& cluster_;
  LivenessDetector liveness_;

  std::map<uint32_t, TenantBook> tenants_;
  std::map<uint32_t, NodeHealth> health_;
  // Last periodic checkpoint per tenant (evacuation replays these).
  std::map<uint32_t, StoredCkpt> ckpt_store_;
  // Tenants whose evacuation waits on a shed victim's region (victim -> evacuee).
  std::map<uint32_t, uint32_t> pending_evacuations_;
  // Index into records_ of each tenant's active migration.
  std::map<uint32_t, size_t> active_migration_;

  std::vector<MigrationRecord> records_;
  std::vector<std::string> trace_;
  uint64_t deaths_declared_ = 0;
  uint64_t evacuations_ = 0;
  uint64_t sheds_ = 0;
  uint64_t rollbacks_ = 0;
  sim::TimePs settled_at_ = 0;
  bool settled_ = false;

  // Orchestrator-owned state maps, bound to the orchestrator's shard.
  sim::AccessGuard tenants_guard_{"orch.tenants"};
  sim::AccessGuard health_guard_{"orch.node_health"};
  sim::AccessGuard ckpt_guard_{"orch.ckpt_store"};
};

}  // namespace runtime
}  // namespace coyote

#endif  // SRC_RUNTIME_ORCHESTRATOR_H_
