// Spot-market explorer: generate (or load) price traces, train the
// eviction estimator, and inspect how bid deltas trade eviction risk
// against price — the inputs to BidBrain's policy (§4.1).
//
// Usage: spot_market_explorer [trace.csv]
//   Without an argument, synthesizes 60 days of traces for two zones.
//   With one, loads a CSV written by TraceStore::WriteFile.
#include <cstdio>
#include <string>

#include "src/bidbrain/eviction_estimator.h"
#include "src/common/table.h"
#include "src/market/spot_market.h"
#include "src/market/trace_gen.h"

using namespace proteus;

int main(int argc, char** argv) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  TraceStore traces;
  if (argc > 1) {
    std::string error;
    if (!TraceStore::ReadFile(argv[1], &traces, &error)) {
      std::fprintf(stderr, "failed to load traces: %s\n", error.c_str());
      return 1;
    }
    std::printf("loaded traces from %s\n", argv[1]);
  } else {
    SyntheticTraceConfig config;
    config.spikes_per_day = 3.0;
    Rng rng(2016);
    traces = TraceStore::GenerateSynthetic(catalog, {"zone-a", "zone-b"}, 60 * kDay, config, rng);
    std::printf("synthesized 60-day traces for 2 zones x %zu instance types\n",
                catalog.types().size());
  }

  // Market overview.
  TextTable overview({"market", "on-demand ($/h)", "avg spot ($/h)", "max spot", "discount"});
  for (const MarketKey& key : traces.Keys()) {
    const InstanceType* type = catalog.Find(key.instance_type);
    if (type == nullptr) {
      continue;
    }
    const PriceSeries& series = traces.Get(key);
    const Money avg = series.AveragePrice(series.start_time(), series.end_time());
    overview.AddRow({key.zone + "/" + key.instance_type,
                     TextTable::Cell(type->on_demand_price, 3), TextTable::Cell(avg, 3),
                     TextTable::Cell(series.MaxPrice(series.start_time(), series.end_time()), 3),
                     TextTable::Cell(100.0 * (1.0 - avg / type->on_demand_price), 0) + "%"});
  }
  overview.Print();

  // Eviction statistics per bid delta (first market).
  EvictionEstimator estimator;
  const PriceSeries& first = traces.Get(traces.Keys().front());
  estimator.Train(traces, first.start_time(), first.end_time());
  const MarketKey key = traces.Keys().front();
  std::printf("\neviction risk for %s/%s by bid delta:\n", key.zone.c_str(),
              key.instance_type.c_str());
  TextTable risk({"bid delta ($)", "P(evicted within hour)", "median time-to-eviction"});
  for (const Money delta : EvictionEstimator::DefaultDeltaGrid()) {
    const EvictionStats stats = estimator.Estimate(key, delta);
    risk.AddRow({TextTable::Cell(delta, 4), TextTable::Cell(stats.beta, 3),
                 FormatDuration(stats.median_time_to_eviction)});
  }
  risk.Print();

  // A worked billing example.
  SpotMarket market(catalog, traces);
  const SimTime t0 = first.start_time() + 5 * kDay;
  const Money price = market.PriceAt(key, t0);
  const auto id = market.RequestSpot(key, 4, price + 0.01, t0);
  if (id.has_value()) {
    const Allocation& alloc = market.Get(*id);
    std::printf("\nbid %s at $%.4f (market $%.4f): ", key.instance_type.c_str(), price + 0.01,
                price);
    if (alloc.eviction_time.has_value()) {
      std::printf("evicted after %s\n", FormatDuration(*alloc.eviction_time - t0).c_str());
      market.MarkEvicted(*id);
    } else {
      std::printf("never evicted within the trace\n");
      market.Terminate(*id, t0 + 3 * kHour);
    }
    const BillingBreakdown bill = market.Bill(*id, first.end_time());
    std::printf("billed %s, refunded %s (%.1f free machine-hours)\n",
                FormatMoney(bill.charged).c_str(), FormatMoney(bill.refunded).c_str(),
                bill.free_hours);
  }
  return 0;
}
