// Collection of price traces keyed by (availability zone, instance type).
#ifndef SRC_MARKET_TRACE_STORE_H_
#define SRC_MARKET_TRACE_STORE_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/market/instance_type.h"
#include "src/market/price_series.h"
#include "src/market/trace_gen.h"

namespace proteus {

struct MarketKey {
  std::string zone;
  std::string instance_type;
  bool operator<(const MarketKey& other) const {
    if (zone != other.zone) {
      return zone < other.zone;
    }
    return instance_type < other.instance_type;
  }
  bool operator==(const MarketKey& other) const = default;
};

class TraceStore {
 public:
  void Put(const MarketKey& key, PriceSeries series);

  const PriceSeries* Find(const MarketKey& key) const;
  // CHECK-fails when absent.
  const PriceSeries& Get(const MarketKey& key) const;

  std::vector<MarketKey> Keys() const;

  // Builds a store covering `zones` x `catalog types`, each generated
  // independently (the paper notes markets "move relatively
  // independently").
  static TraceStore GenerateSynthetic(const InstanceTypeCatalog& catalog,
                                      const std::vector<std::string>& zones, SimDuration duration,
                                      const SyntheticTraceConfig& config, Rng& rng);

  // CSV persistence: header zone,type,time_sec,price. FromCsv and
  // ReadFile validate every row (four cells, finite numbers, a
  // non-negative price, time strictly increasing per market) and reject
  // an input without rows. On failure they leave *out untouched and set
  // *error to "<source>:<line>: <reason>" for the first bad line.
  std::string ToCsv() const;
  static bool FromCsv(const std::string& text, const std::string& source, TraceStore* out,
                      std::string* error);
  bool WriteFile(const std::string& path) const;
  static bool ReadFile(const std::string& path, TraceStore* out, std::string* error);

 private:
  std::map<MarketKey, PriceSeries> traces_;
};

}  // namespace proteus

#endif  // SRC_MARKET_TRACE_STORE_H_
