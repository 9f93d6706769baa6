#include <gtest/gtest.h>

#include "src/bidbrain/bidbrain.h"
#include "src/market/trace_gen.h"

namespace proteus {
namespace {

class BidBrainTest : public ::testing::Test {
 protected:
  BidBrainTest() : catalog_(InstanceTypeCatalog::Default()) {
    SyntheticTraceConfig config;
    config.spikes_per_day = 3.0;
    Rng rng(31);
    traces_ =
        TraceStore::GenerateSynthetic(catalog_, {"z0", "z1"}, 40 * kDay, config, rng);
    estimator_.Train(traces_, 0.0, 20 * kDay);  // Train on the first half.
  }

  BidBrain Make(BidBrainConfig config = {}) const {
    return BidBrain(&catalog_, &traces_, &estimator_, config);
  }

  static LiveAllocation OnDemand(const MarketKey& key, int count) {
    return {0, key, count, 0.0, /*on_demand=*/true, 0.0};
  }

  InstanceTypeCatalog catalog_;
  TraceStore traces_;
  EvictionEstimator estimator_;
};

TEST_F(BidBrainTest, BootstrapsFromOnDemandOnlyFootprint) {
  const BidBrain brain = Make();
  // On-demand produces no work, so cost-per-work is infinite and any
  // finite-cost spot allocation helps.
  const auto actions =
      brain.Decide(21 * kDay, {OnDemand({"z0", "c4.xlarge"}, 3)});
  ASSERT_FALSE(actions.empty());
  EXPECT_EQ(actions[0].kind, BidAction::Kind::kAcquire);
  EXPECT_GT(actions[0].count, 0);
  // The bid must be above the market price at decision time.
  EXPECT_GT(actions[0].bid, traces_.Get(actions[0].market).PriceAt(21 * kDay));
}

TEST_F(BidBrainTest, RespectsSpotInstanceCap) {
  BidBrainConfig config;
  config.max_spot_instances = 8;
  config.allocation_quantum = 16;
  const BidBrain brain = Make(config);
  std::vector<LiveAllocation> live{OnDemand({"z0", "c4.xlarge"}, 3)};
  live.push_back({1, {"z0", "c4.xlarge"}, 8, 0.3, false, 21 * kDay - kHour / 2});
  for (const auto& action : brain.Decide(21 * kDay, live)) {
    EXPECT_NE(action.kind, BidAction::Kind::kAcquire) << "cap exceeded";
  }
}

TEST_F(BidBrainTest, AcquiresAtMostQuantumPerDecision) {
  BidBrainConfig config;
  config.allocation_quantum = 4;
  const BidBrain brain = Make(config);
  const auto actions = brain.Decide(21 * kDay, {OnDemand({"z0", "c4.xlarge"}, 3)});
  ASSERT_FALSE(actions.empty());
  EXPECT_LE(actions[0].count, 4);
}

TEST_F(BidBrainTest, LargeResizeOverheadBlocksAcquisition) {
  // sigma (Eq. 2) penalizes every allocation's useful time when the
  // footprint changes; with a severe resize overhead, growing the
  // footprint hurts cost-per-work and BidBrain must hold steady.
  TraceStore store;
  store.Put({"z0", "c4.xlarge"}, PriceSeries({{0.0, 0.15}}));  // Flat, calm.
  EvictionEstimator est;
  est.Train(store, 0.0, 12 * kHour, 10 * kMinute);
  BidBrainConfig config;
  config.app.sigma = 45 * kMinute;  // Pathological resize cost.
  BidBrain brain(&catalog_, &store, &est, config);
  std::vector<LiveAllocation> live{OnDemand({"z0", "c4.xlarge"}, 3)};
  live.push_back({1, {"z0", "c4.xlarge"}, 12, 0.3, false, 0.0});
  int acquisitions = 0;
  for (const auto& action : brain.Decide(10 * kMinute, live)) {
    if (action.kind == BidAction::Kind::kAcquire) {
      ++acquisitions;
    }
  }
  EXPECT_EQ(acquisitions, 0);
}

TEST_F(BidBrainTest, RenewalTerminatesWhenPriceSpikes) {
  // Build a bespoke store where z0 spikes above on-demand right before
  // the allocation's billing hour ends, while z1 stays cheap.
  TraceStore store;
  store.Put({"z0", "c4.xlarge"},
            PriceSeries({{0.0, 0.05}, {0.9 * kHour, 0.35}}));  // Expensive now.
  store.Put({"z1", "c4.xlarge"}, PriceSeries({{0.0, 0.05}}));
  EvictionEstimator est;
  est.Train(store, 0.0, 0.0 + 12 * kHour, 10 * kMinute);
  BidBrain brain(&catalog_, &store, &est, BidBrainConfig{});
  std::vector<LiveAllocation> live{OnDemand({"z0", "c4.xlarge"}, 3)};
  // Spot allocation in z0 started at t=0; at t=58min its hour is ending
  // and z0 now costs 0.35/hr (above on-demand 0.209).
  live.push_back({1, {"z0", "c4.xlarge"}, 16, 0.5, false, 0.0});
  const auto actions = brain.Decide(58 * kMinute, live);
  bool terminated = false;
  for (const auto& action : actions) {
    if (action.kind == BidAction::Kind::kTerminate && action.target == 1) {
      terminated = true;
    }
  }
  EXPECT_TRUE(terminated);
}

TEST_F(BidBrainTest, NeverTerminatesOnDemand) {
  const BidBrain brain = Make();
  // On-demand allocation approaching its hour boundary.
  const auto actions =
      brain.Decide(59 * kMinute, {OnDemand({"z0", "c4.xlarge"}, 3)});
  for (const auto& action : actions) {
    EXPECT_NE(action.kind, BidAction::Kind::kTerminate);
  }
}

}  // namespace
}  // namespace proteus
