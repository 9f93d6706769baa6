// Tier-aware acquisition: split a capacity target across the three
// reliability tiers on cost vs. expected loss (ISSUE 10).
//
// The paper's BidBrain trades two tiers — reliable on-demand and
// transient spot. The ultra-transient serverless tier adds a third point
// on the cost/reliability frontier: dirt-cheap burstable slots with zero
// eviction warning and a per-hour revocation probability (beta) an order
// of magnitude above spot's. TieredAcquisitionPolicy prices all three
// with one number, the *effective* cost per useful vCPU-hour:
//
//   effective(t) = P_t / max(eps, 1 - beta_t * penalty_t)
//
// where P_t is the tier's dollar price per vCPU-hour, beta_t its
// probability of losing the allocation within the hour, and penalty_t
// the fraction of an hour's useful work destroyed when that loss lands
// (rollback depth, re-preload, detector latency — zero-warning losses
// carry a larger penalty than warned drains). Capacity then fills
// cheapest-effective-first, subject to a reliable floor and a serverless
// exposure cap that mirrors the runtime-side TierGuard bound.
//
// Decide() emits spot-market actions only (the transient share), so the
// policy is backtestable through the existing BacktestEngine unchanged;
// ComputeSplit() reports the full three-tier split.
#ifndef SRC_BIDBRAIN_TIER_POLICY_H_
#define SRC_BIDBRAIN_TIER_POLICY_H_

#include <string>
#include <vector>

#include "src/bidbrain/acquisition_policy.h"
#include "src/bidbrain/eviction_estimator.h"
#include "src/market/instance_type.h"
#include "src/market/trace_store.h"

namespace proteus {

struct TieredPolicyConfig {
  int target_vcpus = 512;  // Total capacity target across all tiers.

  // Reliable tier (on-demand): beta = 0 by definition; priced at the
  // catalog's on-demand rate for this type. The floor is what the
  // serving tier needs regardless of economics.
  std::string reliable_type = "c4.xlarge";
  double min_reliable_fraction = 0.05;

  // Transient tier (spot): bid (current price + delta); beta comes from
  // the trained EvictionModel at that delta. Warned drains destroy
  // little work.
  Money bid_delta = 0.02;
  double transient_loss_penalty = 0.25;

  // Ultra-transient tier (serverless): fixed slot pricing, zero
  // warning. beta_serverless should fold in both the burst-duration cap
  // and the storm rate (see ServerlessTierConfig); the penalty is the
  // largest of the three because every loss is silent (detector latency
  // + rollback to the last clean backup).
  Money serverless_price_per_slot_hour = 0.012;
  int serverless_slot_vcpus = 2;
  double serverless_beta = 0.30;
  double serverless_loss_penalty = 0.75;
  // Cap on the serverless share of target_vcpus; keep this at or below
  // the runtime TierGuard's max_worker_fraction or admission will clamp.
  double max_serverless_fraction = 0.4;
};

// One evaluated capacity split, exposed for drivers and tests.
struct TierSplit {
  int reliable_vcpus = 0;
  int transient_vcpus = 0;
  int serverless_vcpus = 0;
  // Effective $ per useful vCPU-hour each tier was scored at.
  double reliable_effective = 0.0;
  double transient_effective = 0.0;
  double serverless_effective = 0.0;
};

class TieredAcquisitionPolicy : public AcquisitionPolicy {
 public:
  TieredAcquisitionPolicy(const InstanceTypeCatalog* catalog, const TraceStore* prices,
                          const EvictionModel* estimator, TieredPolicyConfig config);

  std::string name() const override;

  // Emits spot acquisitions topping the *transient* share of the split
  // up to its target; the reliable floor and serverless share belong to
  // the driver (BacktestEngine models them as the fixed on-demand tier
  // and nothing, respectively).
  std::vector<BidAction> Decide(SimTime now,
                                const std::vector<LiveAllocation>& live) const override;

  // The full three-way split at `now` given the live footprint.
  TierSplit ComputeSplit(SimTime now) const;

  const TieredPolicyConfig& config() const { return config_; }

 private:
  // Best spot market right now by effective cost per useful vCPU-hour
  // (price+delta, beta from the estimator). Returns false if no market
  // has a usable price.
  bool BestSpotMarket(SimTime now, MarketKey* market, Money* price, double* effective) const;

  const InstanceTypeCatalog* catalog_;
  const TraceStore* prices_;
  const EvictionModel* estimator_;
  TieredPolicyConfig config_;
};

}  // namespace proteus

#endif  // SRC_BIDBRAIN_TIER_POLICY_H_
