#include "src/bidbrain/bidbrain.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"

namespace proteus {

BidBrain::BidBrain(const InstanceTypeCatalog* catalog, const TraceStore* prices,
                   const EvictionModel* estimator, BidBrainConfig config)
    : catalog_(catalog), prices_(prices), estimator_(estimator), config_(std::move(config)) {
  PROTEUS_CHECK(catalog_ != nullptr);
  PROTEUS_CHECK(prices_ != nullptr);
  PROTEUS_CHECK(estimator_ != nullptr);
}

void BidBrain::SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  sinks_.Attach(tracer, metrics);
}

AllocationPlan BidBrain::PlanFor(SimTime now, const LiveAllocation& alloc) const {
  AllocationPlan plan;
  plan.market = alloc.market;
  plan.count = alloc.count;
  plan.on_demand = alloc.on_demand;
  const InstanceType& type = catalog_->Get(alloc.market.instance_type);
  // Time remaining in the allocation's current billing hour.
  const double elapsed = now - alloc.start;
  const double into_hour = elapsed - kHour * std::floor(elapsed / kHour);
  const SimDuration remaining = kHour - into_hour;
  if (alloc.on_demand) {
    plan.hourly_price = type.on_demand_price;
    plan.beta = 0.0;
    plan.omega = remaining;
    plan.work_per_hour = config_.on_demand_work_per_hour;
    return plan;
  }
  const Money price = prices_->Get(alloc.market).PriceAt(now);
  plan.hourly_price = price;
  const Money delta = std::max(0.0, alloc.bid - price);
  const EvictionStats stats = estimator_->Estimate(alloc.market, delta);
  plan.beta = stats.beta;
  plan.omega = remaining;
  // "If BidBrain expects the allocation to be evicted prior to the end of
  // the billing hour, it reduces omega accordingly."
  if (stats.beta > 0.5) {
    plan.omega = std::min(plan.omega, stats.median_time_to_eviction);
  }
  plan.work_per_hour = type.WorkPerHour();
  return plan;
}

std::vector<AllocationPlan> BidBrain::PlansFor(SimTime now,
                                               const std::vector<LiveAllocation>& live) const {
  std::vector<AllocationPlan> plans;
  plans.reserve(live.size());
  for (const auto& alloc : live) {
    plans.push_back(PlanFor(now, alloc));
  }
  return plans;
}

std::vector<BidAction> BidBrain::Decide(SimTime now,
                                        const std::vector<LiveAllocation>& live) const {
  std::vector<BidAction> actions;
  std::vector<AllocationPlan> current = PlansFor(now, live);
  const double current_cpw =
      CostModel::ExpectedCostPerWork(current, config_.app, /*footprint_changing=*/false);

  int spot_count = 0;
  for (const auto& alloc : live) {
    if (!alloc.on_demand) {
      spot_count += alloc.count;
    }
  }

  // --- Acquisition: best (market, delta) candidate, if it helps ---
  std::optional<BidAction> chosen;        // Acquisition taken this decision.
  std::optional<AllocationPlan> chosen_plan;
  Money chosen_delta = 0.0;
  const int headroom = config_.max_spot_instances - spot_count;
  if (headroom > 0) {
    const int count = std::min(config_.allocation_quantum, headroom);
    double best_cpw = std::numeric_limits<double>::infinity();
    std::optional<BidAction> best;
    std::optional<AllocationPlan> best_plan;
    Money best_delta = 0.0;
    for (const MarketKey& market : prices_->Keys()) {
      const InstanceType* type = catalog_->Find(market.instance_type);
      if (type == nullptr) {
        continue;
      }
      const Money price = prices_->Get(market).PriceAt(now);
      for (const Money delta : config_.bid_deltas) {
        const EvictionStats stats = estimator_->Estimate(market, delta);
        AllocationPlan cand;
        cand.market = market;
        cand.count = count;
        cand.hourly_price = price;
        cand.beta = stats.beta;
        cand.omega = stats.beta > 0.5 ? std::min(kHour, stats.median_time_to_eviction) : kHour;
        cand.work_per_hour = type->WorkPerHour();
        std::vector<AllocationPlan> with = current;
        with.push_back(cand);
        const double cpw =
            CostModel::ExpectedCostPerWork(with, config_.app, /*footprint_changing=*/true);
        if (cpw < best_cpw) {
          best_cpw = cpw;
          best = BidAction{BidAction::Kind::kAcquire, market, count, price + delta,
                           kInvalidAllocation};
          best_plan = cand;
          best_delta = delta;
        }
      }
    }
    if (best.has_value() && best_cpw < current_cpw * (1.0 - config_.improvement_margin)) {
      actions.push_back(*best);
      chosen = best;
      chosen_plan = best_plan;
      chosen_delta = best_delta;
      // Renewal decisions below evaluate the footprint as it will be
      // after this acquisition (the terminate-vs-renew comparison should
      // not treat soon-to-be-replaced capacity as irreplaceable).
      current.push_back(*best_plan);
    }
  }

  // --- Renewal: terminate allocations whose renewal raises cost/work ---
  for (std::size_t i = 0; i < live.size(); ++i) {
    const LiveAllocation& alloc = live[i];
    if (alloc.on_demand) {
      continue;  // Never terminated by BidBrain (§4.2).
    }
    const double elapsed = now - alloc.start;
    const double into_hour = elapsed - kHour * std::floor(elapsed / kHour);
    const SimDuration remaining = kHour - into_hour;
    if (remaining > config_.renewal_lead) {
      continue;  // Not near a billing boundary yet.
    }
    // Renewed: this allocation restarts a full hour at the current price.
    std::vector<AllocationPlan> renewed = current;
    renewed[i].omega = kHour;
    renewed[i].hourly_price = prices_->Get(alloc.market).PriceAt(now);
    const double cpw_renewed =
        CostModel::ExpectedCostPerWork(renewed, config_.app, /*footprint_changing=*/false);
    // Terminated: footprint without it (and we pay the resize overhead).
    std::vector<AllocationPlan> without;
    for (std::size_t j = 0; j < current.size(); ++j) {
      if (j != i) {
        without.push_back(current[j]);
      }
    }
    for (auto& plan : without) {
      plan.omega = kHour;  // Compare steady-state going forward.
    }
    const double cpw_without =
        CostModel::ExpectedCostPerWork(without, config_.app, /*footprint_changing=*/true);
    if (cpw_without < cpw_renewed) {
      actions.push_back(
          {BidAction::Kind::kTerminate, alloc.market, alloc.count, alloc.bid, alloc.id});
    }
  }

  int terminations = 0;
  for (const auto& action : actions) {
    if (action.kind == BidAction::Kind::kTerminate) {
      ++terminations;
    }
  }
  if (chosen.has_value()) {
    sinks_.Record(obs::Metric::kBidBrainAcquires, 1);
  }
  if (terminations > 0) {
    sinks_.Record(obs::Metric::kBidBrainTerminations, terminations);
  }
  sinks_.Record(obs::Metric::kBidBrainCostPerWork, current_cpw);
  sinks_.Emit(obs::Ev::kDecision, now, [&] {
    obs::TraceArgs args = {{"E_A", current_cpw},
                           {"spot_instances", static_cast<std::int64_t>(spot_count)},
                           {"terminations", static_cast<std::int64_t>(terminations)}};
    if (chosen.has_value()) {
      args.emplace_back("market", chosen->market.zone + "/" + chosen->market.instance_type);
      args.emplace_back("bid", chosen->bid);
      args.emplace_back("delta", chosen_delta);
      args.emplace_back("beta", chosen_plan->beta);
      args.emplace_back("count", static_cast<std::int64_t>(chosen->count));
    }
    return args;
  });
  return actions;
}

}  // namespace proteus
