// Small descriptive-statistics helpers used by benches and BidBrain's
// trace analysis.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace proteus {

// Accumulates samples and answers summary queries. Percentile queries sort
// a copy lazily; suitable for the sample counts we deal with (<= millions).
class SampleStats {
 public:
  void Add(double value);
  void AddAll(const std::vector<double>& values);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double Sum() const;
  double Mean() const;      // CHECK-fails on an empty sample set.
  double Variance() const;  // Population variance; CHECK-fails when empty.
  double StdDev() const;
  // Order statistics return 0.0 on an empty sample set (benches can
  // print a row for a scheme that completed no jobs without aborting).
  double Min() const;
  double Max() const;
  double Median() const;
  // p in [0, 100]; linear interpolation between order statistics.
  // Returns 0.0 when empty.
  double Percentile(double p) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void EnsureSorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace proteus

#endif  // SRC_COMMON_STATS_H_
