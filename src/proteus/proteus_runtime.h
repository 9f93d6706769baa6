// ProteusRuntime: the full §5 integration. Couples a live AgileML
// training run to the spot market through BidBrain (Fig. 7):
//
//   - BidBrain watches market prices and makes allocation decisions
//     every two minutes of (virtual) time, near billing-hour ends, and
//     immediately after evictions;
//   - granted allocations materialize as transient AgileML nodes that
//     preload input data in the background and join the computation;
//   - the elasticity controller polls for eviction warnings every five
//     seconds (§3.3); warned evictions trigger graceful scale-down,
//     missed warnings ("effective failures") trigger rollback recovery;
//   - billing follows the market simulator's hourly rules.
//
// Unlike JobSimulator (which abstracts the application into phi / sigma
// / lambda for long-horizon cost studies, as the paper's §6.3 does),
// this runtime executes the actual ML application: the model really
// converges while machines come and go.
#ifndef SRC_PROTEUS_PROTEUS_RUNTIME_H_
#define SRC_PROTEUS_PROTEUS_RUNTIME_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/agileml/runtime.h"
#include "src/bidbrain/bidbrain.h"
#include "src/market/serverless_tier.h"
#include "src/market/spot_market.h"
#include "src/obs/sinks.h"
#include "src/proteus/accounting.h"
#include "src/rpc/channel.h"

namespace proteus {

struct ProteusConfig {
  AgileMLConfig agileml;
  BidBrainConfig bidbrain;
  // Reliable tier (never terminated; §4.2).
  int on_demand_count = 3;
  std::string on_demand_type = "c4.xlarge";
  std::string on_demand_zone;  // Defaults to the first zone in the traces.
  // Elasticity controller's warning-poll period (§3.3).
  SimDuration warning_poll = 5 * kSecond;
  SimDuration decision_period = 2 * kMinute;
  // Fraction of evictions whose 2-minute warning is missed, turning the
  // eviction into an effective failure handled by rollback (§3.3).
  double effective_failure_fraction = 0.0;
  // Fraction of *missed-warning* evictions that are additionally silent:
  // no eviction notice ever reaches the controller — the nodes simply
  // stop heartbeating, and only the failure detector (which must be
  // enabled in agileml.detector when this is > 0) notices, confirms
  // them dead, and triggers the rollback. Models the unannounced spot
  // terminations the paper's notification path cannot see.
  double silent_failure_fraction = 0.0;
  // --- Ultra-transient serverless tier (zero eviction warning) ---
  // Target number of serverless worker nodes to keep enrolled (0 = the
  // tier is disabled). Requires agileml.detector.enabled: serverless
  // losses carry no notification whatsoever, so only the heartbeat
  // detector can catch them. Acquisition is clamped every decision point
  // by the TierGuard admission headroom (agileml.tier_guard).
  int serverless_target = 0;
  // Slots acquired per serverless allocation (burst granularity).
  int serverless_nodes_per_allocation = 4;
  ServerlessTierConfig serverless;
  // Checkpoint the reliable tier every this many clocks (0 = never).
  // Insures against reliable-node failure; free in stage 3 (§3.3).
  int checkpoint_every = 0;
  // Compute the training objective every this many clocks (0 = never).
  int objective_every = 0;
  std::uint64_t seed = 99;
};

struct ProteusStatus {
  Clock clock = 0;
  SimTime now = 0.0;            // Market time.
  SimDuration virtual_time = 0.0;
  int transient_nodes = 0;      // Ready + preparing.
  int serverless_nodes = 0;     // Ready + preparing (ultra-transient).
  int evictions = 0;
  int failures = 0;
  // Subset of `failures` that arrived with no notification at all and
  // were caught by the heartbeat failure detector.
  int silent_failures = 0;
  int acquisitions = 0;
  // Allocations revoked before any of their nodes finished preloading;
  // they never joined the computation, so they are not evictions or
  // failures and cost no clocks.
  int aborted_preloads = 0;
  int lost_clocks = 0;
  Money cost_so_far = 0.0;
  // Parameter-store shape: stripe count and max/mean live-row skew
  // (1.0 = balanced; see ModelStore::ShardImbalance).
  int model_shards = 1;
  double shard_imbalance = 1.0;
};

// Per-tier damage/cost attribution for a run (ISSUE 10 satellite):
// `evictions` counts allocations the market took back (any path);
// warned_losses is the subset drained gracefully inside a warning
// window, silent_losses the subset caught only by the failure detector.
// The reliable tier never loses allocations; the serverless tier's
// losses are all silent by construction (zero warning).
struct ProteusTierBreakdown {
  Money cost = 0.0;
  int evictions = 0;
  int warned_losses = 0;
  int silent_losses = 0;
  int lost_clocks = 0;
};

struct ProteusRunSummary {
  int clocks = 0;
  SimDuration runtime = 0.0;
  JobBill bill;
  int evictions = 0;
  int failures = 0;
  int silent_failures = 0;  // Detector-caught subset of `failures`.
  int acquisitions = 0;
  int aborted_preloads = 0;
  int lost_clocks = 0;
  double final_objective = 0.0;
  std::vector<double> objective_trace;  // When objective_every > 0.
  int model_shards = 1;
  double shard_imbalance = 1.0;  // At end of run.
  // Durability traffic (PR 6): checkpoint bytes serialized out of /
  // restored into the model over the run, and how many completed clocks
  // checkpoint restores rolled back (a subset of `lost_clocks`).
  std::uint64_t checkpoint_bytes_written = 0;
  std::uint64_t checkpoint_bytes_restored = 0;
  int restore_clocks_lost = 0;
  // Per-tier breakdown (cost, evictions, warned vs. silent losses,
  // clocks lost). tier_serverless.cost is additionally folded into
  // bill.cost so the headline total covers all three tiers.
  ProteusTierBreakdown tier_reliable;
  ProteusTierBreakdown tier_transient;
  ProteusTierBreakdown tier_serverless;
  int serverless_acquisitions = 0;  // Subset of `acquisitions`.
};

class ProteusRuntime {
 public:
  ProteusRuntime(MLApp* app, const InstanceTypeCatalog* catalog, const TraceStore* traces,
                 const EvictionModel* estimator, ProteusConfig config, SimTime start);
  ~ProteusRuntime();

  ProteusRuntime(const ProteusRuntime&) = delete;
  ProteusRuntime& operator=(const ProteusRuntime&) = delete;

  // Attaches the whole §5 stack to an observability sink: allocation
  // lifecycle instants (bid -> preload -> active -> evicted/failed/
  // aborted/terminated) land on the "proteus" track at market time, the
  // accumulated job cost is exported as gauges (total plus one per
  // allocation), and the call is forwarded to the embedded AgileML
  // runtime, BidBrain, and both control channels. Either may be nullptr.
  void SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  // Attaches the causal event ledger: allocation lifecycle events
  // mirror onto it ("alloc.*", component "proteus"), every Step records
  // a "cost.sample" carrying the accumulated job bill (the analyzer
  // normalizes its synthetic cost split to the last sample), and the
  // call forwards to the embedded AgileML runtime and both control
  // channels. Pass nullptr to detach.
  void SetLedger(obs::EventLedger* ledger);

  // Runs one training clock, advancing market time and processing all
  // market events (decisions, warnings, evictions, renewals) that fall
  // inside it.
  void Step();

  // Runs until the completed-clock count reaches `target_clock`
  // (rollbacks can make this take more iterations than the difference).
  ProteusRunSummary Train(int target_clock);

  ProteusStatus Status() const;
  const AgileMLRuntime& agileml() const { return *agileml_; }
  // The ultra-transient tier's market surface (nullptr when disabled).
  const ServerlessTier* serverless_tier() const { return serverless_.get(); }
  // Mutable access for chaos/fault injection: lets a test or the chaos
  // harness drive checkpoints, restores, and node failures that the
  // market alone would not produce (e.g. reliable-tier failures).
  AgileMLRuntime& mutable_agileml() { return *agileml_; }
  const SpotMarket& market() const { return market_; }
  SimTime now() const { return now_; }
  // §5 wiring: the message channels between components (Fig. 7).
  // BidBrain -> cloud API (allocation requests).
  const Channel& api_channel() const { return api_channel_; }
  // BidBrain -> elasticity controller (grants, eviction notices).
  const Channel& controller_channel() const { return controller_channel_; }
  // Mutable channel access so chaos runs can install fault hooks
  // (message drop/delay) on the §5 control links.
  Channel& mutable_api_channel() { return api_channel_; }
  Channel& mutable_controller_channel() { return controller_channel_; }

 private:
  struct TrackedAllocation {
    AllocationId id = kInvalidAllocation;
    std::vector<NodeId> nodes;
    bool warned = false;       // Eviction warning already handled.
    bool terminating = false;  // Renewal decision said terminate.
    bool active = false;       // At least one node has been incorporated.
    // Terminated silently: the market took the nodes but no notice was
    // sent; the entry stays live until the detector confirms the death.
    bool silenced = false;
    SimTime terminate_at = 0.0;
  };

  // One serverless allocation's lifecycle. There is no warned state: a
  // revocation cuts both planes at once and only the detector notices.
  struct TrackedServerless {
    AllocationId id = kInvalidAllocation;  // ServerlessTier id space.
    std::vector<NodeId> nodes;
    bool active = false;   // At least one node incorporated.
    bool revoked = false;  // Revocation applied; awaiting confirmation.
  };

  std::vector<LiveAllocation> LiveView() const;
  void RunDecisionPoint();
  // Tops the serverless tier up to its target, clamped by the TierGuard
  // admission headroom.
  void RunServerlessAcquisition();
  // Handles warnings/evictions/terminations due at or before `until`.
  void ProcessMarketEventsUntil(SimTime until);
  // Applies due zero-warning serverless revocations: ready victims stop
  // working and heartbeating in the same instant (SetNodeRevoked) and
  // are only accounted once the detector confirms them dead.
  void ProcessServerlessEventsUntil(SimTime until);
  void HandleEviction(TrackedAllocation& tracked, bool warned);
  // Args of an "alloc.<event>" / "serverless.<event>" lifecycle event.
  obs::TraceArgs AllocArgs(const TrackedAllocation& tracked, obs::TraceArgs extra = {}) const;
  obs::TraceArgs ServerlessArgs(const TrackedServerless& tracked,
                                obs::TraceArgs extra = {}) const;
  // Refreshes proteus.cost.dollars and the per-allocation cost gauges.
  void UpdateCostGauges();

  MLApp* app_;
  const InstanceTypeCatalog* catalog_;
  Channel api_channel_;
  Channel controller_channel_;
  ProteusConfig config_;
  SpotMarket market_;
  BidBrain bidbrain_;
  std::unique_ptr<AgileMLRuntime> agileml_;
  Rng rng_;

  SimTime start_;
  SimTime now_;
  SimTime next_decision_;
  NodeId next_node_id_ = 0;
  std::map<AllocationId, TrackedAllocation> live_;
  AllocationId on_demand_allocation_ = kInvalidAllocation;
  // Ultra-transient tier (present only when serverless_target > 0).
  std::unique_ptr<ServerlessTier> serverless_;
  std::map<AllocationId, TrackedServerless> serverless_live_;

  int evictions_ = 0;
  int failures_ = 0;
  int silent_failures_ = 0;
  int acquisitions_ = 0;
  int aborted_preloads_ = 0;
  // Per-tier damage attribution (reliable allocations never die).
  int transient_lost_clocks_ = 0;
  int serverless_losses_ = 0;       // All silent by construction.
  int serverless_lost_clocks_ = 0;
  int serverless_acquisitions_ = 0;

  // Observability sinks (optional). Per-allocation cost gauges register
  // as allocations appear; allocation ids restart at 0 every run, so
  // cardinality stays bounded.
  obs::Sinks sinks_{"proteus"};
};

}  // namespace proteus

#endif  // SRC_PROTEUS_PROTEUS_RUNTIME_H_
