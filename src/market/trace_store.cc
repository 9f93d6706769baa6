#include "src/market/trace_store.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/common/csv.h"
#include "src/common/logging.h"

namespace proteus {

void TraceStore::Put(const MarketKey& key, PriceSeries series) {
  traces_[key] = std::move(series);
}

const PriceSeries* TraceStore::Find(const MarketKey& key) const {
  auto it = traces_.find(key);
  return it == traces_.end() ? nullptr : &it->second;
}

const PriceSeries& TraceStore::Get(const MarketKey& key) const {
  const PriceSeries* series = Find(key);
  PROTEUS_CHECK(series != nullptr) << "no trace for " << key.zone << "/" << key.instance_type;
  return *series;
}

std::vector<MarketKey> TraceStore::Keys() const {
  std::vector<MarketKey> keys;
  keys.reserve(traces_.size());
  for (const auto& [key, unused] : traces_) {
    keys.push_back(key);
  }
  return keys;
}

TraceStore TraceStore::GenerateSynthetic(const InstanceTypeCatalog& catalog,
                                         const std::vector<std::string>& zones,
                                         SimDuration duration, const SyntheticTraceConfig& config,
                                         Rng& rng) {
  TraceStore store;
  for (const auto& zone : zones) {
    for (const auto& type : catalog.types()) {
      Rng child = rng.Fork();
      store.Put({zone, type.name}, GenerateSyntheticTrace(type, duration, config, child));
    }
  }
  return store;
}

std::string TraceStore::ToCsv() const {
  CsvWriter writer({"zone", "type", "time_sec", "price"});
  for (const auto& [key, series] : traces_) {
    for (const auto& point : series.points()) {
      writer.AddRow({key.zone, key.instance_type, std::to_string(point.time),
                     std::to_string(point.price)});
    }
  }
  return writer.Render();
}

namespace {

// Parses a whole cell as a finite number.
bool ParseFinite(const std::string& cell, double* value) {
  char* end = nullptr;
  *value = std::strtod(cell.c_str(), &end);
  return !cell.empty() && end == cell.c_str() + cell.size() && std::isfinite(*value);
}

}  // namespace

bool TraceStore::FromCsv(const std::string& text, const std::string& source, TraceStore* out,
                         std::string* error) {
  const CsvTable table = ParseCsv(text);
  const auto fail = [&](int line, const std::string& reason) {
    *error = source + ":" + std::to_string(line) + ": " + reason;
    return false;
  };
  if (table.header_line == 0) {
    *error = source + ": empty trace file";
    return false;
  }
  if (table.headers != std::vector<std::string>{"zone", "type", "time_sec", "price"}) {
    return fail(table.header_line, "expected header zone,type,time_sec,price");
  }
  if (table.rows.empty()) {
    return fail(table.header_line, "no price rows after the header");
  }
  std::map<MarketKey, std::vector<PricePoint>> grouped;
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const std::vector<std::string>& row = table.rows[i];
    const int line = table.row_lines[i];
    if (row.size() != 4) {
      return fail(line, "expected 4 cells, got " + std::to_string(row.size()));
    }
    PricePoint point;
    if (!ParseFinite(row[2], &point.time)) {
      return fail(line, "time_sec '" + row[2] + "' is not a finite number");
    }
    if (!ParseFinite(row[3], &point.price) || point.price < 0.0) {
      return fail(line, "price '" + row[3] + "' is not a finite non-negative number");
    }
    std::vector<PricePoint>& points = grouped[{row[0], row[1]}];
    if (!points.empty() && point.time <= points.back().time) {
      return fail(line, "time_sec " + row[2] + " does not increase for " + row[0] + "/" +
                            row[1]);
    }
    points.push_back(point);
  }
  TraceStore store;
  for (auto& [key, points] : grouped) {
    store.Put(key, PriceSeries(std::move(points)));
  }
  *out = std::move(store);
  return true;
}

bool TraceStore::WriteFile(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    PROTEUS_LOG(Error) << "cannot write " << path;
    return false;
  }
  f << ToCsv();
  return static_cast<bool>(f);
}

bool TraceStore::ReadFile(const std::string& path, TraceStore* out, std::string* error) {
  std::ifstream f(path);
  if (!f) {
    *error = path + ": cannot open";
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return FromCsv(buf.str(), path, out, error);
}

}  // namespace proteus
