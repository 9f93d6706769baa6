#include <gtest/gtest.h>

#include "src/market/capacity_trace.h"

namespace proteus {
namespace {

TEST(CapacityTrace, StepSemantics) {
  const CapacityTrace trace({{0.0, 100}, {50.0, 40}, {120.0, 90}});
  EXPECT_EQ(trace.SlotsAt(0.0), 100);
  EXPECT_EQ(trace.SlotsAt(49.9), 100);
  EXPECT_EQ(trace.SlotsAt(50.0), 40);
  EXPECT_EQ(trace.SlotsAt(1000.0), 90);
}

TEST(CapacityTrace, FirstTimeBelowFindsSqueeze) {
  const CapacityTrace trace({{0.0, 100}, {50.0, 40}, {120.0, 90}});
  const auto t = trace.FirstTimeBelow(60, 0.0, 1000.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 50.0);
  EXPECT_FALSE(trace.FirstTimeBelow(30, 0.0, 1000.0).has_value());
  // Already below at the query instant.
  EXPECT_DOUBLE_EQ(*trace.FirstTimeBelow(60, 60.0, 1000.0), 60.0);
}

TEST(CapacityTrace, GeneratedTraceIsBounded) {
  CapacityTraceConfig config;
  Rng rng(61);
  const CapacityTrace trace = GenerateCapacityTrace(config, 7 * kDay, rng);
  ASSERT_FALSE(trace.empty());
  for (const auto& point : trace.points()) {
    EXPECT_GE(point.slots, 0);
    EXPECT_LE(point.slots, config.total_slots);
  }
}

TEST(CapacityTrace, DiurnalSwingSqueezesDaytime) {
  CapacityTraceConfig config;
  config.bursts_per_day = 0.0;  // Pure diurnal pattern.
  Rng rng(62);
  const CapacityTrace trace = GenerateCapacityTrace(config, 2 * kDay, rng);
  // Midnight (cos phase 0) has more slack than midday.
  EXPECT_GT(trace.SlotsAt(0.0), trace.SlotsAt(kDay / 2));
}

TEST(CapacityEvictionModel, BurstyClusterHasHigherBeta) {
  CapacityTraceConfig calm;
  calm.bursts_per_day = 0.5;
  CapacityTraceConfig busy;
  busy.bursts_per_day = 10.0;
  Rng rng1(63);
  Rng rng2(63);
  const CapacityTrace calm_trace = GenerateCapacityTrace(calm, 30 * kDay, rng1);
  const CapacityTrace busy_trace = GenerateCapacityTrace(busy, 30 * kDay, rng2);
  CapacityEvictionModel calm_model;
  CapacityEvictionModel busy_model;
  calm_model.Train(calm_trace, 0.0, 30 * kDay, /*allocation_slots=*/64);
  busy_model.Train(busy_trace, 0.0, 30 * kDay, /*allocation_slots=*/64);
  ASSERT_TRUE(calm_model.trained());
  ASSERT_TRUE(busy_model.trained());
  EXPECT_GT(busy_model.Estimate({"", ""}, 0.0).beta, calm_model.Estimate({"", ""}, 0.0).beta);
}

TEST(CapacityEvictionModel, BiggerAllocationsEvictMore) {
  CapacityTraceConfig config;
  Rng rng(64);
  const CapacityTrace trace = GenerateCapacityTrace(config, 30 * kDay, rng);
  CapacityEvictionModel small;
  CapacityEvictionModel large;
  small.Train(trace, 0.0, 30 * kDay, 16);
  large.Train(trace, 0.0, 30 * kDay, 128);
  EXPECT_GE(large.Estimate({"", ""}, 0.0).beta, small.Estimate({"", ""}, 0.0).beta);
}

}  // namespace
}  // namespace proteus
