// fleet_migrate: planned live migrations through the orchestrator.
//
// A 4-node x 2-region Fleet runs six tenants that stream small items
// through passthrough kernels. Every 100 us of simulated time the benchmark
// issues one Fleet::ScheduleMigration, round-robin over tenants and over
// destination nodes with a free region (read from the orchestrator's books
// between slices, one slice ahead of the clock). One op is one planned
// migration; its latency is the tenant's downtime from quiesce to resume.
// This is the only workload that runs the orchestrator and the CYK1
// checkpoint path; items stay small so migration, not streaming, dominates.
//
// p99.9 of the downtime needs 10,000 migrations, but a device's sparse
// memory keeps the chunks of every buffer it ever backed (~190 KB per
// migration). So a round runs kFleets fleets of its own seed one after the
// other, each with kMigrationsPerFleet migrations, and releases each fleet
// once its window ends, keeping only what the checks and readouts need.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/probes.h"
#include "perfbench/src/workload.h"
#include "src/runtime/orchestrator.h"
#include "src/runtime/serving.h"
#include "src/services/vector_kernels.h"
#include "src/sim/rng.h"

namespace perfbench {
namespace {

using namespace coyote;
using runtime::Fleet;

constexpr uint32_t kNodes = 4;
constexpr uint32_t kRegions = 2;
constexpr uint32_t kTenants = 6;  // leaves two regions free for migrations
// Item sizes are drawn per tenant from the seed, so checkpoint sizes and
// with them downtimes differ from seed to seed.
constexpr uint64_t kItemBytesMin = 896;
constexpr uint64_t kItemBytesMax = 1152;
constexpr sim::TimePs kThink = sim::Microseconds(100);
constexpr uint32_t kFleets = 4;
constexpr uint32_t kMigrationsPerFleet = 2750;
constexpr uint32_t kMigrations = kFleets * kMigrationsPerFleet;
constexpr sim::TimePs kPeriod = sim::Microseconds(100);
constexpr sim::TimePs kWarmup = sim::Milliseconds(20);
constexpr sim::TimePs kDrain = sim::Milliseconds(1);
constexpr sim::TimePs kSlo = sim::Microseconds(50);

// The orchestrator's item pattern (src/runtime/orchestrator.cc), the
// reference the tenants' rolling data hashes are checked against.
uint8_t PatternByte(uint32_t tenant, uint64_t item, uint64_t i) {
  return static_cast<uint8_t>((tenant * 131 + item * 31 + i * 7) ^ (i >> 8));
}

uint64_t ExpectedHash(uint32_t tenant, uint64_t items, uint64_t bytes) {
  uint64_t h = runtime::serving::kFnvOffset;
  std::vector<uint8_t> item_bytes(bytes);
  for (uint64_t item = 0; item < items; ++item) {
    runtime::serving::FoldBytes(&h, reinterpret_cast<const uint8_t*>(&item), sizeof(item));
    for (uint64_t i = 0; i < bytes; ++i) {
      item_bytes[i] = PatternByte(tenant, item, i);
    }
    runtime::serving::FoldBytes(&h, item_bytes.data(), item_bytes.size());
  }
  return h;
}

// What a released fleet leaves behind for Check(), Counts(), Probe() and
// Notes(), summed over the round's fleets where it is a count.
struct Tally {
  uint64_t events = 0;
  uint64_t windows = 0;
  uint64_t ckpt_bytes = 0, ckpt_pages = 0, chunks = 0, planned_ok = 0;
  uint64_t rollbacks = 0, retransmit_rounds = 0, restore_attempts = 0;
  uint64_t tlb_hits = 0, tlb_misses = 0, page_faults = 0;
  uint64_t packets = 0, irqs = 0, aborted = 0;
  std::map<std::string, uint64_t> kinds;  // migration reason/outcome -> count
  std::vector<uint64_t> blob_bytes;       // checkpoint sizes, for the probes
};

struct TenantEnd {
  runtime::TenantOutcome outcome = runtime::TenantOutcome::kRunning;
  uint64_t items = 0;  // since the tenant started
  uint64_t data_hash = 0;
};

// One fleet of a round.
struct Part {
  uint64_t seed = 0;
  std::vector<uint64_t> item_bytes;  // per tenant
  std::unique_ptr<Fleet> fleet;
  // At the end of set-up, so the window's counts exclude the warm-up.
  uint64_t events_before = 0;
  uint64_t windows_before = 0;
  std::vector<uint64_t> items_before;
  // Filled when the fleet's window ends.
  uint32_t scheduled = 0;
  sim::TimePs end_ps = 0;
  std::vector<TenantEnd> tenants;
};

class FleetMigrate : public Workload {
 public:
  FleetMigrate(uint64_t seed, Tracer* tracer) : tracer_(tracer) {
    sim::Rng rng(seed ^ 0x17E45ull);
    for (Part& part : parts_) {
      part.seed = rng.Next();
      for (uint32_t t = 0; t < kTenants; ++t) {
        part.item_bytes.push_back(kItemBytesMin +
                                  rng.NextBounded(kItemBytesMax - kItemBytesMin + 1));
      }
    }
  }

  void Setup() override {
    for (Part& part : parts_) {
      part.fleet = Build(part.seed, part.item_bytes);
      part.fleet->Run(kWarmup, kWarmup);  // arms heartbeats, checkpoints, supervisors
      part.events_before = part.fleet->sharded().events_executed();
      part.windows_before = part.fleet->sharded().stats().windows;
      for (uint32_t t = 0; t < kTenants; ++t) {
        part.items_before.push_back(part.fleet->tenant_items_done(t));
      }
    }
  }

  void Window() override {
    for (Part& part : parts_) {
      part.end_ps = RunWindow(part.fleet.get(), kMigrationsPerFleet, tracer_, &part.scheduled);
      Harvest(&part);
      part.fleet.reset();
    }
  }

  std::string Check() override {
    for (const Part& part : parts_) {
      for (uint32_t t = 0; t < kTenants; ++t) {
        const TenantEnd& end = part.tenants[t];
        if (end.outcome != runtime::TenantOutcome::kRunning) {
          return "fleet_migrate: tenant " + std::to_string(t) + " left the running state";
        }
        if (end.items == 0 || end.data_hash != ExpectedHash(t, end.items, part.item_bytes[t])) {
          return "fleet_migrate: tenant " + std::to_string(t) + " data hash mismatch after " +
                 std::to_string(end.items) + " items";
        }
      }
      if (part.scheduled != kMigrationsPerFleet) {
        return "fleet_migrate: scheduled " + std::to_string(part.scheduled) + " of " +
               std::to_string(kMigrationsPerFleet) + " migrations on one fleet";
      }
    }
    return "";
  }

  const std::vector<OpRecord>& Ops() const override { return records_; }
  uint64_t SpanPs() const override {
    uint64_t span = 0;
    for (const Part& part : parts_) {
      span += part.end_ps - kWarmup;
    }
    return span;
  }
  // Items the tenants completed in the window; warm-up items are left out.
  uint64_t OkBytes() const override {
    uint64_t bytes = 0;
    for (const Part& part : parts_) {
      for (uint32_t t = 0; t < kTenants; ++t) {
        bytes += (part.tenants[t].items - part.items_before[t]) * part.item_bytes[t];
      }
    }
    return bytes;
  }
  uint64_t SloPs() const override { return kSlo; }

  void Counts(LayerValues* out) override {
    const double n = static_cast<double>(kMigrations);
    (*out)["sim.events_per_op"] = static_cast<double>(tally_.events) / n;
    (*out)["sim.windows_per_op"] = static_cast<double>(tally_.windows) / n;
    const double ok = static_cast<double>(std::max<uint64_t>(1, tally_.planned_ok));
    (*out)["vfpga.ckpt.bytes_per_migration"] = static_cast<double>(tally_.ckpt_bytes) / ok;
    (*out)["vfpga.ckpt.pages_per_migration"] = static_cast<double>(tally_.ckpt_pages) / ok;
    (*out)["vfpga.ckpt.chunks_per_migration"] = static_cast<double>(tally_.chunks) / ok;
    (*out)["orch.rollbacks"] = static_cast<double>(tally_.rollbacks);
    (*out)["orch.retransmit_rounds"] = static_cast<double>(tally_.retransmit_rounds);
    (*out)["orch.restore_attempts"] = static_cast<double>(tally_.restore_attempts);
    const uint64_t lookups = tally_.tlb_hits + tally_.tlb_misses;
    if (lookups > 0) {
      (*out)["mmu.tlb_hit_ratio"] =
          static_cast<double>(tally_.tlb_hits) / static_cast<double>(lookups);
    }
    (*out)["mmu.page_faults"] = static_cast<double>(tally_.page_faults);
    (*out)["dyn.packets_per_op"] = static_cast<double>(tally_.packets) / n;
    (*out)["dyn.page_fault_irqs"] = static_cast<double>(tally_.irqs);
    (*out)["dyn.aborted_ops"] = static_cast<double>(tally_.aborted);
  }

  void Probe(Tracer* tracer, double untraced_s, LayerValues* out) override {
    const auto totals = tracer->Totals();
    auto run = totals.find("sim.ShardedEngine.RunUntil");
    if (run != totals.end() && tally_.events > 0) {
      (*out)["sim.host_ns_per_event"] =
          static_cast<double>(run->second.self_ns) / static_cast<double>(tally_.events);
    }
    // Orchestrator cost: the same fleets and windows with no migration
    // schedule, against the untraced window with it.
    {
      std::vector<std::unique_ptr<Fleet>> idle;
      for (const Part& part : parts_) {
        idle.push_back(Build(part.seed, part.item_bytes));
        idle.back()->Run(kWarmup, kWarmup);
      }
      Tracer quiet;
      const int64_t t0 = NowNs();
      {
        Scope span(tracer, "probe.runtime.Fleet.NoMigrations");
        for (size_t k = 0; k < idle.size(); ++k) {
          uint32_t none = 0;
          RunWindow(idle[k].get(), 0, &quiet, &none, parts_[k].end_ps);
          idle[k].reset();
        }
      }
      const double idle_s = static_cast<double>(NowNs() - t0) * 1e-9;
      (*out)["orch.host_us_per_migration"] = (untraced_s - idle_s) * 1e6 / kMigrations;
    }
    std::vector<std::vector<uint8_t>> blobs;
    for (size_t i = 0; i < tally_.blob_bytes.size(); ++i) {
      blobs.emplace_back(tally_.blob_bytes[i], static_cast<uint8_t>(i));
    }
    (*out)["vfpga.ckpt.host_ns_per_kib_crc"] = ProbeCrcNsPerKib(blobs, tracer);
    (*out)["vfpga.ckpt.host_us_per_blob"] = ProbeBlobUs(tally_.blob_bytes, tracer);
    double w_ns = 0, r_ns = 0;
    std::vector<uint64_t> sizes;
    for (uint32_t i = 0; i < 2000; ++i) {
      sizes.push_back(parts_[i % kFleets].item_bytes[(i / kFleets) % kTenants]);
    }
    ProbeSvm(sizes, tracer, &w_ns, &r_ns);
    (*out)["mmu.svm.host_ns_per_kib_write"] = w_ns;
    (*out)["mmu.svm.host_ns_per_kib_read"] = r_ns;
    // Checkpoint capture, serialization, parsing and restore once per
    // migration, over the untraced window.
    if (untraced_s > 0) {
      (*out)["bench.attributed_share"] =
          (*out)["vfpga.ckpt.host_us_per_blob"] * 1e-6 * kMigrations / untraced_s;
    }
  }

  std::vector<std::string> Notes() const override {
    std::string line = "fleet_migrate: migration outcomes over " + std::to_string(kFleets) +
                       " fleets";
    for (const auto& [kind, count] : tally_.kinds) {
      line += " " + kind + "=" + std::to_string(count);
    }
    return {line};
  }

 private:
  // Reads what the checks and readouts need from a fleet whose window has
  // ended: one op record per scheduled migration, the tenants' end state and
  // the layer counters. The orchestrator appends a MigrationRecord per
  // accepted command in command order; commands it rejects leave none and
  // count as failed.
  void Harvest(Part* part) {
    Fleet& fleet = *part->fleet;
    uint32_t planned = 0;
    for (const runtime::MigrationRecord& rec : fleet.orchestrator().migrations()) {
      ++tally_.kinds[rec.reason + "/" + rec.outcome];
      tally_.retransmit_rounds += rec.retransmit_rounds;
      tally_.restore_attempts += rec.restore_attempts;
      if (rec.ckpt_bytes > 0 && tally_.blob_bytes.size() < 1000) {
        tally_.blob_bytes.push_back(rec.ckpt_bytes);
      }
      if (rec.reason != "planned") {
        continue;
      }
      ++planned;
      const bool ok = rec.outcome == "ok" && rec.resumed_at > 0;
      records_.push_back(OpRecord{ok ? Outcome::kOk : Outcome::kFailed, rec.downtime});
      if (rec.outcome == "ok") {
        ++tally_.planned_ok;
        tally_.ckpt_bytes += rec.ckpt_bytes;
        tally_.ckpt_pages += rec.ckpt_pages;
        tally_.chunks += rec.chunks;
      }
    }
    for (uint32_t i = planned; i < part->scheduled; ++i) {
      records_.push_back(OpRecord{Outcome::kFailed, 0});
    }
    tally_.kinds["planned/rejected"] += part->scheduled - planned;
    for (uint32_t t = 0; t < kTenants; ++t) {
      part->tenants.push_back(
          {fleet.tenant_outcome(t), fleet.tenant_items_done(t), fleet.tenant_data_hash(t)});
    }
    tally_.events += fleet.sharded().events_executed() - part->events_before;
    tally_.windows += fleet.sharded().stats().windows - part->windows_before;
    tally_.rollbacks += fleet.orchestrator().rollbacks();
    for (uint32_t node = 0; node < kNodes; ++node) {
      runtime::SimDevice& d = fleet.node_device(node);
      for (uint32_t r = 0; r < kRegions; ++r) {
        tally_.tlb_hits += d.vfpga_mmu(r).tlb().hits();
        tally_.tlb_misses += d.vfpga_mmu(r).tlb().misses();
        tally_.page_faults += d.vfpga_mmu(r).page_faults();
      }
      tally_.packets += d.data_mover().packets_moved();
      tally_.irqs += d.data_mover().page_fault_irqs();
      tally_.aborted += d.data_mover().aborted_ops();
    }
  }

  static std::unique_ptr<Fleet> Build(uint64_t seed, const std::vector<uint64_t>& item_bytes) {
    Fleet::Config c;
    c.num_nodes = kNodes;
    c.regions_per_node = kRegions;
    c.num_shards = 1;
    c.use_threads = false;
    c.seed = seed;
    c.kernel_factory = [] { return std::make_unique<services::PassthroughKernel>(); };
    auto fleet = std::make_unique<Fleet>(c);
    for (uint32_t t = 0; t < kTenants; ++t) {
      runtime::TenantSpec spec;
      spec.name = std::to_string(t);
      spec.home_node = t % kNodes;
      spec.items_total = UINT64_MAX;  // streams for the whole window
      spec.item_bytes = item_bytes[t];
      spec.think_time = kThink;
      fleet->AddTenant(spec);
    }
    return fleet;
  }

  // Issues `migrations` planned migrations, one per kPeriod, then drains.
  // With migrations == 0 it runs the fleet until `until_ps`. Returns the
  // simulated end time.
  static sim::TimePs RunWindow(Fleet* fleet, uint32_t migrations, Tracer* tracer,
                               uint32_t* scheduled, sim::TimePs until_ps = 0) {
    sim::TimePs t = kWarmup;
    uint32_t next_tenant = 0;
    uint32_t next_node = 0;
    for (uint32_t k = 0; k < migrations; ++k) {
      uint32_t tenant = 0, dst = 0;
      if (PickMigration(*fleet, &next_tenant, &next_node, &tenant, &dst)) {
        Scope span(tracer, "runtime.Fleet.ScheduleMigration", k + 1);
        fleet->ScheduleMigration(t, tenant, dst);
        ++*scheduled;
      }
      Scope span(tracer, "sim.ShardedEngine.RunUntil");
      t += kPeriod;
      fleet->sharded().RunUntil(t);
    }
    const sim::TimePs end = migrations > 0 ? t + kDrain : until_ps;
    Scope span(tracer, "sim.ShardedEngine.RunUntil");
    fleet->sharded().RunUntil(end);
    return end;
  }

  // Round-robin over tenants that are not mid-migration; destination is the
  // next node (round-robin) other than the tenant's own with a free region.
  static bool PickMigration(const Fleet& fleet, uint32_t* next_tenant, uint32_t* next_node,
                            uint32_t* tenant_out, uint32_t* dst_out) {
    const auto& books = fleet.orchestrator().tenants();
    const auto& health = fleet.orchestrator().node_health();
    for (uint32_t i = 0; i < kTenants; ++i) {
      const uint32_t tenant = (*next_tenant + i) % kTenants;
      const auto& book = books.at(tenant);
      if (book.migrating || book.outcome != runtime::TenantOutcome::kRunning) {
        continue;
      }
      for (uint32_t j = 0; j < kNodes; ++j) {
        const uint32_t node = (*next_node + j) % kNodes;
        if (node != book.node && health.at(node).believed_alive &&
            health.at(node).regions.free() > 0) {
          *tenant_out = tenant;
          *dst_out = node;
          *next_tenant = (tenant + 1) % kTenants;
          *next_node = (node + 1) % kNodes;
          return true;
        }
      }
    }
    return false;
  }

  Tracer* tracer_;
  Part parts_[kFleets];
  Tally tally_;
  std::vector<OpRecord> records_;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetMigrate(uint64_t seed, Tracer* tracer) {
  return std::make_unique<FleetMigrate>(seed, tracer);
}

}  // namespace perfbench
