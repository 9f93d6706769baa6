// Unified metrics registry: labeled counters, gauges, and fixed-bucket
// histograms with a lock-free fast path.
//
// Registration (GetCounter / GetGauge / GetHistogram) takes a mutex and
// returns a stable handle; callers cache the handle and every subsequent
// Add / Set / Observe is a relaxed atomic operation, safe from any
// thread. Snapshots are taken concurrently with updates (values are read
// atomically; a snapshot is a consistent-enough point-in-time view for
// reporting, not a linearizable cut).
//
// Naming scheme (see DESIGN.md "Observability"): dot-separated
// `<component>.<subject>[.<unit>]`, e.g. `agileml.push.bytes`,
// `proteus.cost.dollars`, `rpc.messages.dropped`. Labels carry bounded
// cardinality dimensions (stage, fault class, message type, channel,
// allocation id).
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace proteus {
namespace obs {

// Sorted key=value pairs identifying one series within a metric family.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Renders {a=1, b=2} as "a=1,b=2" (keys sorted). Empty labels -> "".
std::string FormatLabels(const Labels& labels);

class Counter {
 public:
  void Add(std::uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed upper-bound buckets (plus an implicit +inf overflow bucket).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  // bucket_counts()[i] counts observations <= bounds()[i]; the last entry
  // (index bounds().size()) is the +inf overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1.
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

// One series in a snapshot.
struct MetricPoint {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  // Counter value (as double), gauge value, or histogram sum.
  // Histogram-only fields.
  std::uint64_t count = 0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
};

struct MetricsSnapshot {
  std::vector<MetricPoint> points;  // Sorted by (name, labels).

  const MetricPoint* Find(const std::string& name, const Labels& labels = {}) const;
  // Convenience: value of a counter/gauge series, or 0 if absent.
  double Value(const std::string& name, const Labels& labels = {}) const;

  // One line per series: `name{a=1,b=2} kind value [count]`.
  std::string ToText() const;
  // CSV with header `name,labels,kind,value,count`.
  std::string ToCsv() const;
  // {"metrics":[{"name":..,"labels":{..},"kind":..,"value":..},...]} in
  // the same deterministic (name, labels) order as text/CSV; histograms
  // carry "count"/"bounds"/"buckets". proteus_analyze reads this form.
  std::string ToJson() const;
  // Returns false (and logs) on I/O failure.
  bool WriteText(const std::string& path) const;
  bool WriteCsv(const std::string& path) const;
  bool WriteJson(const std::string& path) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Handles are stable for the registry's lifetime; repeated calls with
  // the same (name, labels) return the same handle. A name registered as
  // one kind must not be re-registered as another (checked).
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds,
                          const Labels& labels = {});

  MetricsSnapshot Snapshot() const;

  std::size_t series_count() const;

 private:
  struct Series {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  using SeriesKey = std::pair<std::string, Labels>;

  Series& GetSeries(const std::string& name, const Labels& labels, MetricKind kind);

  mutable std::mutex mu_;
  std::map<SeriesKey, Series> series_;
};

}  // namespace obs
}  // namespace proteus

#endif  // SRC_OBS_METRICS_H_
