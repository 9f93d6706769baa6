// BidBrain: Proteus' resource-allocation policy (§4).
//
// At every decision point (periodic, just before a billing-hour boundary,
// and immediately after an eviction) BidBrain enumerates candidate
// allocations — (market, bid delta, count) tuples priced at the current
// spot price — and acquires the best candidate if and only if it lowers
// the footprint's expected cost per unit work (Eq. 4). Near the end of an
// allocation's billing hour it decides whether renewing or terminating
// the allocation yields the lower cost-per-work. On-demand resources are
// acquired as required and never terminated (§4.2), and are modeled as
// producing no work (Fig. 6: the reliable allocation has W = 0 — in
// stages 2/3 reliable machines serve state, they do not run workers).
#ifndef SRC_BIDBRAIN_BIDBRAIN_H_
#define SRC_BIDBRAIN_BIDBRAIN_H_

#include <optional>
#include <string>
#include <vector>

#include "src/bidbrain/acquisition_policy.h"
#include "src/bidbrain/app_profile.h"
#include "src/bidbrain/cost_model.h"
#include "src/bidbrain/eviction_estimator.h"
#include "src/market/instance_type.h"
#include "src/market/trace_store.h"
#include "src/obs/sinks.h"

namespace proteus {

struct BidBrainConfig {
  // Bid deltas considered over the current market price (§4.2 range).
  std::vector<Money> bid_deltas = {0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.4};
  // Instances per candidate spot allocation.
  int allocation_quantum = 16;
  // Cap on total spot instances (application scalability limit).
  int max_spot_instances = 192;
  // Periodic decision cadence (§5: every two minutes).
  SimDuration decision_period = 2 * kMinute;
  // Renewal decisions happen this close to a billing-hour end.
  SimDuration renewal_lead = 4 * kMinute;
  // Candidate must beat the current cost-per-work by this relative
  // margin to be acquired (hysteresis against churn).
  double improvement_margin = 0.02;
  AppProfile app;
  // Work produced per on-demand instance per hour (0 per Fig. 6).
  WorkUnits on_demand_work_per_hour = 0.0;
};

// LiveAllocation and BidAction moved to acquisition_policy.h; BidBrain
// is the paper's AcquisitionPolicy instance.
class BidBrain : public AcquisitionPolicy {
 public:
  BidBrain(const InstanceTypeCatalog* catalog, const TraceStore* prices,
           const EvictionModel* estimator, BidBrainConfig config);

  // Attaches BidBrain to an observability sink: every Decide() records a
  // "decision" instant on the "bidbrain" track (timestamped with the
  // caller's market time) carrying E_A, the chosen bid delta, and the
  // candidate's eviction probability beta. Either pointer may be null.
  void SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  std::string name() const override { return "bidbrain"; }

  // Evaluates the footprint at `now` and returns the actions to take.
  std::vector<BidAction> Decide(SimTime now,
                                const std::vector<LiveAllocation>& live) const override;

  const BidBrainConfig& config() const { return config_; }

 private:
  AllocationPlan PlanFor(SimTime now, const LiveAllocation& alloc) const;
  std::vector<AllocationPlan> PlansFor(SimTime now,
                                       const std::vector<LiveAllocation>& live) const;

  const InstanceTypeCatalog* catalog_;
  const TraceStore* prices_;
  const EvictionModel* estimator_;
  BidBrainConfig config_;

  // Observability sinks; Decide() is logically const, so recording into
  // external sinks does not touch BidBrain state.
  obs::Sinks sinks_{"bidbrain"};
};

}  // namespace proteus

#endif  // SRC_BIDBRAIN_BIDBRAIN_H_
