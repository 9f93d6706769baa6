#include <gtest/gtest.h>

#include "src/market/price_series.h"

namespace proteus {
namespace {

PriceSeries MakeSeries() {
  // Steps: 0.10 at t=0, 0.50 at t=100, 0.08 at t=200.
  return PriceSeries({{0.0, 0.10}, {100.0, 0.50}, {200.0, 0.08}});
}

TEST(PriceSeries, PriceAtStepSemantics) {
  const PriceSeries s = MakeSeries();
  EXPECT_DOUBLE_EQ(s.PriceAt(0.0), 0.10);
  EXPECT_DOUBLE_EQ(s.PriceAt(99.9), 0.10);
  EXPECT_DOUBLE_EQ(s.PriceAt(100.0), 0.50);
  EXPECT_DOUBLE_EQ(s.PriceAt(150.0), 0.50);
  EXPECT_DOUBLE_EQ(s.PriceAt(1000.0), 0.08);
}

TEST(PriceSeries, PriceBeforeStartIsFirstPrice) {
  const PriceSeries s = MakeSeries();
  EXPECT_DOUBLE_EQ(s.PriceAt(-5.0), 0.10);
}

TEST(PriceSeries, FirstTimeAboveFindsCrossing) {
  const PriceSeries s = MakeSeries();
  const auto t = s.FirstTimeAbove(0.2, 0.0, 1e9);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 100.0);
}

TEST(PriceSeries, FirstTimeAboveImmediateWhenAlreadyAbove) {
  const PriceSeries s = MakeSeries();
  const auto t = s.FirstTimeAbove(0.3, 150.0, 1e9);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 150.0);
}

TEST(PriceSeries, FirstTimeAboveRespectsHorizon) {
  const PriceSeries s = MakeSeries();
  EXPECT_FALSE(s.FirstTimeAbove(0.2, 0.0, 50.0).has_value());
}

TEST(PriceSeries, FirstTimeAboveNeverCrossingHighBid) {
  const PriceSeries s = MakeSeries();
  EXPECT_FALSE(s.FirstTimeAbove(1.0, 0.0, 1e9).has_value());
}

TEST(PriceSeries, MinMaxOverWindow) {
  const PriceSeries s = MakeSeries();
  EXPECT_DOUBLE_EQ(s.MaxPrice(0.0, 300.0), 0.50);
  EXPECT_DOUBLE_EQ(s.MaxPrice(0.0, 50.0), 0.10);
}

TEST(PriceSeries, AveragePriceTimeWeighted) {
  const PriceSeries s = MakeSeries();
  // [0,200): 100s at 0.10, 100s at 0.50 -> 0.30.
  EXPECT_NEAR(s.AveragePrice(0.0, 200.0), 0.30, 1e-12);
}

// Boundary clamping (see the header's boundary-semantics note): a
// backtest window may overhang either end of a recorded trace, and every
// query must clamp to the recorded span rather than extrapolate.
TEST(PriceSeries, LastPricePersistsPastEnd) {
  const PriceSeries s = MakeSeries();
  EXPECT_DOUBLE_EQ(s.PriceAt(s.end_time()), 0.08);
  EXPECT_DOUBLE_EQ(s.PriceAt(1e12), 0.08);
  // No change points exist past the end, so a bid above the final price
  // never crosses out there.
  EXPECT_FALSE(s.FirstTimeAbove(0.09, 250.0, 1e12).has_value());
}

TEST(PriceSeries, RangeQueriesClampToRecordedSpan) {
  const PriceSeries s = MakeSeries();
  // Entirely past the end: only the frozen final price is visible.
  EXPECT_DOUBLE_EQ(s.MaxPrice(300.0, 500.0), 0.08);
  EXPECT_NEAR(s.AveragePrice(300.0, 500.0), 0.08, 1e-12);
  // Entirely before the start: the first price backfills.
  EXPECT_DOUBLE_EQ(s.MaxPrice(-100.0, -50.0), 0.10);
  EXPECT_NEAR(s.AveragePrice(-100.0, -50.0), 0.10, 1e-12);
}

TEST(PriceSeries, AverageWeighsOverhangAtFinalPrice) {
  const PriceSeries s = MakeSeries();
  // [100, 300): 100s at 0.50, then 100s frozen at 0.08 -> 0.29.
  EXPECT_NEAR(s.AveragePrice(100.0, 300.0), 0.29, 1e-12);
}

TEST(PriceSeries, AppendEnforcesMonotoneTime) {
  PriceSeries s;
  s.Append(0.0, 1.0);
  s.Append(10.0, 2.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.end_time(), 10.0);
}

}  // namespace
}  // namespace proteus
