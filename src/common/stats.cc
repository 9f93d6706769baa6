#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace proteus {

void SampleStats::Add(double value) {
  samples_.push_back(value);
  sorted_valid_ = false;
}

void SampleStats::AddAll(const std::vector<double>& values) {
  samples_.insert(samples_.end(), values.begin(), values.end());
  sorted_valid_ = false;
}

double SampleStats::Sum() const {
  double total = 0.0;
  for (double v : samples_) {
    total += v;
  }
  return total;
}

double SampleStats::Mean() const {
  PROTEUS_CHECK(!samples_.empty());
  return Sum() / static_cast<double>(samples_.size());
}

double SampleStats::Variance() const {
  PROTEUS_CHECK(!samples_.empty());
  const double mean = Mean();
  double accum = 0.0;
  for (double v : samples_) {
    accum += (v - mean) * (v - mean);
  }
  return accum / static_cast<double>(samples_.size());
}

double SampleStats::StdDev() const { return std::sqrt(Variance()); }

double SampleStats::Min() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleStats::Max() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleStats::Median() const { return Percentile(50.0); }

double SampleStats::Percentile(double p) const {
  if (samples_.empty()) {
    return 0.0;
  }
  PROTEUS_CHECK_GE(p, 0.0);
  PROTEUS_CHECK_LE(p, 100.0);
  EnsureSorted();
  if (sorted_.size() == 1) {
    return sorted_[0];
  }
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

void SampleStats::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

}  // namespace proteus
