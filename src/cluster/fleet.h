// ClusterScheduler: round-based multi-tenant arbitration over one shared
// spot market (DESIGN.md §14).
//
// The scheduler owns the fleet's capacity: a finite slot market (one
// slot == one instance of config.slot_market's type, capacity sampled
// per round from a CapacityTrace or fixed) inside a SpotMarket that
// bills by the market's hourly rules, plus unlimited on-demand for
// deadline-driven top-ups. Each round it:
//   1. retires completed/cancelled tenants and admits arrivals,
//   2. collects one reported demand per tenant (bidbrain demand seam;
//      computed in parallel, one seeded Rng stream per tenant),
//   3. asks the Allocator (Karma / fair-share / greedy) to divide the
//      round's capacity among the reports,
//   4. reconciles market holdings to the grants — shrink pass before
//      grow pass, so concurrent claimants never overdraw the finite
//      market — and tops up with on-demand when a deadline demands it,
//   5. integrates work piecewise over the round (startup prep delay,
//      mid-round price evictions, cancellation instants, completion),
//   6. records per-round, per-tenant accounting: utilization, Jain
//      fairness, credit flows, preemptions, costs.
//
// Determinism: same (specs, allocator, config) => byte-identical
// FleetResult::ToCsv() and Digest() at any config.threads value. All
// randomness lives in per-tenant streams seeded from (config.seed,
// spec); the parallel section touches only per-tenant state; every
// aggregation walks tenants in id order.
#ifndef SRC_CLUSTER_FLEET_H_
#define SRC_CLUSTER_FLEET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/bidbrain/eviction_estimator.h"
#include "src/cluster/allocator.h"
#include "src/cluster/tenant.h"
#include "src/market/capacity_trace.h"
#include "src/market/spot_market.h"
#include "src/obs/sinks.h"

namespace proteus {
namespace cluster {

struct FleetConfig {
  SimTime start = 0.0;
  SimDuration round = kHour;  // Billing-aligned when a whole hour.
  int rounds = 48;
  // The shared slot market: one slot == one instance of this type.
  MarketKey slot_market = {"z0", "c4.xlarge"};
  // Spot bid per slot, as a multiple of the type's on-demand price.
  double bid_multiplier = 1.0;
  // Work produced per slot per hour (scaling efficiency).
  double phi = 1.0;
  // Newly granted slots start producing this far into their first round.
  SimDuration prep_delay = 5 * kMinute;
  // Per-round slot capacity: the trace (sampled at each round start)
  // when non-empty, else the fixed value.
  CapacityTrace capacity;
  int fixed_capacity = 32;
  std::uint64_t seed = 2016;
  // Demand fan-out threads; 0 = hardware concurrency. The result is
  // byte-identical at any value.
  int threads = 1;
};

// One row per (round, active tenant): the fleet's CSV unit.
struct TenantRound {
  int round = 0;
  int tenant = 0;
  int reported = 0;
  int true_need = 0;
  int granted = 0;
  int borrowed = 0;
  int held_end = 0;           // Slots still running at round end.
  std::int64_t balance = 0;   // Credit balance after the round (Karma).
  double useful_hours = 0.0;  // Productive slot-hours this round.
};

struct RoundRecord {
  int round = 0;
  SimTime time = 0.0;
  int capacity = 0;
  int active_tenants = 0;
  int reported = 0;   // Sum of reported demands.
  int truthful = 0;   // Sum of true needs.
  int granted = 0;    // Sum of grants (<= capacity).
  int borrowed = 0;
  int on_demand = 0;  // Top-up instances outside the shared pool.
  double useful_hours = 0.0;
  double utilization = 0.0;   // useful_hours / (capacity * round).
  double jain_granted = 1.0;  // Per-round fairness over grants.
  std::int64_t escrow = 0;
  std::int64_t balances = 0;
  bool conservation_ok = true;
  int preempted_slots = 0;
  int evictions = 0;
};

struct FleetResult {
  std::string allocator;
  std::vector<TenantResult> tenants;     // Spec order.
  std::vector<RoundRecord> rounds;       // Round order.
  std::vector<TenantRound> tenant_rounds;  // (round, tenant id) order.
  double mean_utilization = 0.0;
  double jain_long_term = 1.0;   // Over per-tenant total allocated hours.
  double jain_short_term = 1.0;  // Mean of per-round jain_granted.
  double total_useful_hours = 0.0;
  Money total_cost = 0.0;
  int preempted_slots = 0;
  int evictions = 0;

  // Per-(round, tenant) rows plus a final per-tenant summary block;
  // byte-identical for the same inputs at any thread count.
  std::string ToCsv() const;
  // FNV-1a over ToCsv() — the cheap replay-pinning handle.
  std::uint64_t Digest() const;

  const TenantResult* Find(const std::string& name) const;
};

class ClusterScheduler {
 public:
  ClusterScheduler(const InstanceTypeCatalog* catalog, const TraceStore* traces,
                   const EvictionModel* estimator);

  // Optional sinks; recorded only from the sequential sections so
  // output is deterministic. Either pointer may be null.
  void SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);
  void SetLedger(obs::EventLedger* ledger);

  // Runs the tenant mix to the horizon (config.rounds). `allocator` is
  // stateful across rounds (Karma credits) and is driven through its
  // admission/retirement hooks; pass a fresh instance per run.
  FleetResult Run(const std::vector<TenantSpec>& specs, Allocator& allocator,
                  const FleetConfig& config);

 private:
  const InstanceTypeCatalog* catalog_;
  const TraceStore* traces_;
  const EvictionModel* estimator_;
  obs::Sinks sinks_{"cluster"};
};

}  // namespace cluster
}  // namespace proteus

#endif  // SRC_CLUSTER_FLEET_H_
