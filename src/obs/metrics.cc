#include "src/obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "src/common/logging.h"
#include "src/obs/json.h"

namespace proteus {
namespace obs {

namespace {

Labels SortedLabels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

std::string FormatLabels(const Labels& labels) {
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) {
      out += ',';
    }
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  PROTEUS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be ascending";
}

void Histogram::Observe(double value) {
  // First bucket whose upper bound admits the value; the extra slot at
  // the end is the +inf overflow bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

const MetricPoint* MetricsSnapshot::Find(const std::string& name, const Labels& labels) const {
  const Labels sorted = SortedLabels(labels);
  for (const MetricPoint& point : points) {
    if (point.name == name && point.labels == sorted) {
      return &point;
    }
  }
  return nullptr;
}

double MetricsSnapshot::Value(const std::string& name, const Labels& labels) const {
  const MetricPoint* point = Find(name, labels);
  return point != nullptr ? point->value : 0.0;
}

std::string MetricsSnapshot::ToText() const {
  std::ostringstream out;
  for (const MetricPoint& point : points) {
    out << point.name;
    if (!point.labels.empty()) {
      out << '{' << FormatLabels(point.labels) << '}';
    }
    out << ' ' << MetricKindName(point.kind) << ' ' << FormatJsonNumber(point.value);
    if (point.kind == MetricKind::kHistogram) {
      out << " count=" << point.count << " buckets=";
      for (std::size_t i = 0; i < point.buckets.size(); ++i) {
        if (i > 0) {
          out << '|';
        }
        out << point.buckets[i];
      }
    }
    out << '\n';
  }
  return out.str();
}

std::string MetricsSnapshot::ToCsv() const {
  std::ostringstream out;
  out << "name,labels,kind,value,count\n";
  for (const MetricPoint& point : points) {
    // Label pairs use ';' inside the cell: the CSV layer has no quoting.
    std::string labels = FormatLabels(point.labels);
    std::replace(labels.begin(), labels.end(), ',', ';');
    out << point.name << ',' << labels << ',' << MetricKindName(point.kind) << ','
        << FormatJsonNumber(point.value) << ',' << point.count << '\n';
  }
  return out.str();
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"metrics\":[";
  for (std::size_t p = 0; p < points.size(); ++p) {
    const MetricPoint& point = points[p];
    out += p == 0 ? "\n" : ",\n";
    out += "{\"name\":";
    AppendJsonString(out, point.name);
    out += ",\"labels\":{";
    for (std::size_t i = 0; i < point.labels.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      AppendJsonString(out, point.labels[i].first);
      out += ':';
      AppendJsonString(out, point.labels[i].second);
    }
    out += "},\"kind\":";
    AppendJsonString(out, MetricKindName(point.kind));
    out += ",\"value\":";
    out += FormatJsonNumber(point.value);
    if (point.kind == MetricKind::kHistogram) {
      out += ",\"count\":" + std::to_string(point.count);
      out += ",\"bounds\":[";
      for (std::size_t i = 0; i < point.bounds.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        AppendJsonNumber(out, point.bounds[i]);
      }
      out += "],\"buckets\":[";
      for (std::size_t i = 0; i < point.buckets.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        out += std::to_string(point.buckets[i]);
      }
      out += ']';
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

bool MetricsSnapshot::WriteText(const std::string& path) const {
  return WriteStringToFile(path, ToText());
}

bool MetricsSnapshot::WriteCsv(const std::string& path) const {
  return WriteStringToFile(path, ToCsv());
}

bool MetricsSnapshot::WriteJson(const std::string& path) const {
  return WriteStringToFile(path, ToJson());
}

MetricsRegistry::Series& MetricsRegistry::GetSeries(const std::string& name,
                                                    const Labels& labels, MetricKind kind) {
  // Callers hold mu_.
  Series& series = series_[{name, SortedLabels(labels)}];
  if (series.counter == nullptr && series.gauge == nullptr && series.histogram == nullptr) {
    series.kind = kind;
  }
  PROTEUS_CHECK(series.kind == kind)
      << "metric " << name << " re-registered as " << MetricKindName(kind) << " (was "
      << MetricKindName(series.kind) << ")";
  return series;
}

Counter* MetricsRegistry::GetCounter(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& series = GetSeries(name, labels, MetricKind::kCounter);
  if (series.counter == nullptr) {
    series.counter = std::make_unique<Counter>();
  }
  return series.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& series = GetSeries(name, labels, MetricKind::kGauge);
  if (series.gauge == nullptr) {
    series.gauge = std::make_unique<Gauge>();
  }
  return series.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name, std::vector<double> bounds,
                                         const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& series = GetSeries(name, labels, MetricKind::kHistogram);
  if (series.histogram == nullptr) {
    series.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return series.histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.points.reserve(series_.size());
  for (const auto& [key, series] : series_) {
    MetricPoint point;
    point.name = key.first;
    point.labels = key.second;
    point.kind = series.kind;
    switch (series.kind) {
      case MetricKind::kCounter:
        point.value = static_cast<double>(series.counter->value());
        break;
      case MetricKind::kGauge:
        point.value = series.gauge->value();
        break;
      case MetricKind::kHistogram:
        point.value = series.histogram->sum();
        point.count = series.histogram->count();
        point.bounds = series.histogram->bounds();
        point.buckets = series.histogram->bucket_counts();
        break;
    }
    snapshot.points.push_back(std::move(point));
  }
  return snapshot;  // std::map iteration order == sorted by (name, labels).
}

std::size_t MetricsRegistry::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

}  // namespace obs
}  // namespace proteus
