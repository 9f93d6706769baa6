// A spot price history for one (availability zone, instance type) pair:
// a right-continuous step function of time.
//
// Boundary semantics (every query clamps to the recorded span; none
// extrapolates): queries before start_time() read the first recorded
// price, and the last recorded price persists indefinitely past
// end_time() — a backtest window may overhang the end of a trace and
// sees a frozen market there rather than an error. All queries
// CHECK-fail on an empty series. tests/price_series_test.cc pins these
// down.
#ifndef SRC_MARKET_PRICE_SERIES_H_
#define SRC_MARKET_PRICE_SERIES_H_

#include <optional>
#include <vector>

#include "src/common/types.h"

namespace proteus {

struct PricePoint {
  SimTime time;
  Money price;
};

class PriceSeries {
 public:
  PriceSeries() = default;
  // Points must be strictly increasing in time; first point defines the
  // series start.
  explicit PriceSeries(std::vector<PricePoint> points);

  void Append(SimTime time, Money price);

  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }
  SimTime start_time() const;
  SimTime end_time() const;  // Time of the last change point.

  // Price in effect at time t (the step value). t before the first point
  // returns the first price; t past the last point returns the last
  // price (see the boundary-semantics note above).
  Money PriceAt(SimTime t) const;

  // Earliest time in (from, horizon] at which the price strictly exceeds
  // `bid`. Returns nullopt if it never does within the horizon. If the
  // price already exceeds the bid at `from`, returns `from`.
  std::optional<SimTime> FirstTimeAbove(Money bid, SimTime from, SimTime horizon) const;

  // Maximum price over [from, to]. Change points outside the recorded
  // span don't exist, so a range hanging past end_time() only sees the
  // final price.
  Money MaxPrice(SimTime from, SimTime to) const;

  // Time-weighted average price over [from, to]. Requires to > from;
  // the stretch past the last change point is weighted at the final
  // price.
  Money AveragePrice(SimTime from, SimTime to) const;

  const std::vector<PricePoint>& points() const { return points_; }

 private:
  // Index of the last point with time <= t, or 0.
  std::size_t IndexAt(SimTime t) const;

  std::vector<PricePoint> points_;
};

}  // namespace proteus

#endif  // SRC_MARKET_PRICE_SERIES_H_
