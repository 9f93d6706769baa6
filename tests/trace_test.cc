#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/market/trace_gen.h"
#include "src/market/trace_store.h"

namespace proteus {
namespace {

TEST(TraceGen, StaysAboveFloorAndBelowCap) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  const InstanceType& type = catalog.Get("c4.xlarge");
  SyntheticTraceConfig config;
  Rng rng(11);
  const PriceSeries series = GenerateSyntheticTrace(type, 7 * kDay, config, rng);
  ASSERT_FALSE(series.empty());
  for (const auto& point : series.points()) {
    EXPECT_GE(point.price, type.on_demand_price * config.floor_fraction - 1e-9);
    EXPECT_LE(point.price, type.on_demand_price * config.spike_multiple_max + 0.5);
  }
}

TEST(TraceGen, QuietRegimeNearBaseFraction) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  const InstanceType& type = catalog.Get("c4.2xlarge");
  SyntheticTraceConfig config;
  config.spikes_per_day = 0.0;  // Pure quiet regime.
  Rng rng(12);
  const PriceSeries series = GenerateSyntheticTrace(type, 7 * kDay, config, rng);
  const Money avg = series.AveragePrice(0.0, 7 * kDay);
  EXPECT_NEAR(avg, type.on_demand_price * config.base_fraction,
              type.on_demand_price * config.base_fraction * 0.5);
}

TEST(TraceGen, SpikesExceedOnDemand) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  const InstanceType& type = catalog.Get("c4.xlarge");
  SyntheticTraceConfig config;
  config.spikes_per_day = 6.0;
  Rng rng(13);
  const PriceSeries series = GenerateSyntheticTrace(type, 7 * kDay, config, rng);
  EXPECT_GT(series.MaxPrice(0.0, 7 * kDay), type.on_demand_price);
}

TEST(TraceGen, DeterministicBySeed) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  const InstanceType& type = catalog.Get("c4.xlarge");
  SyntheticTraceConfig config;
  Rng rng1(99);
  Rng rng2(99);
  const PriceSeries a = GenerateSyntheticTrace(type, kDay, config, rng1);
  const PriceSeries b = GenerateSyntheticTrace(type, kDay, config, rng2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points()[i].price, b.points()[i].price);
  }
}

TEST(TraceStore, GenerateCoversZonesTimesTypes) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  Rng rng(14);
  const TraceStore store = TraceStore::GenerateSynthetic(catalog, {"z0", "z1"}, kDay,
                                                         SyntheticTraceConfig{}, rng);
  EXPECT_EQ(store.Keys().size(), 2 * catalog.types().size());
  EXPECT_NE(store.Find({"z1", "c4.xlarge"}), nullptr);
  EXPECT_EQ(store.Find({"z2", "c4.xlarge"}), nullptr);
}

TEST(TraceStore, CsvRoundTrip) {
  TraceStore store;
  store.Put({"z0", "c4.xlarge"}, PriceSeries({{0.0, 0.05}, {60.0, 0.07}}));
  store.Put({"z1", "m4.xlarge"}, PriceSeries({{0.0, 0.06}}));
  TraceStore loaded;
  std::string error;
  ASSERT_TRUE(TraceStore::FromCsv(store.ToCsv(), "mem", &loaded, &error)) << error;
  ASSERT_EQ(loaded.Keys().size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.Get({"z0", "c4.xlarge"}).PriceAt(61.0), 0.07);
  EXPECT_DOUBLE_EQ(loaded.Get({"z1", "m4.xlarge"}).PriceAt(0.0), 0.06);
}

// Parses `body` under the standard header; returns the error message, or
// "" if it loaded. A rejected input must leave the output store alone.
std::string CsvError(const std::string& body) {
  TraceStore out;
  out.Put({"keep", "c4.xlarge"}, PriceSeries({{0.0, 0.1}}));
  std::string error;
  if (TraceStore::FromCsv("zone,type,time_sec,price\n" + body, "t.csv", &out, &error)) {
    return "";
  }
  EXPECT_NE(out.Find({"keep", "c4.xlarge"}), nullptr) << "rejected input replaced the store";
  return error;
}

TEST(TraceStore, CsvRejectsNonNumericCell) {
  EXPECT_EQ(CsvError("z0,c4.xlarge,0,0.05\nz0,c4.xlarge,abc,0.06\n"),
            "t.csv:3: time_sec 'abc' is not a finite number");
  EXPECT_EQ(CsvError("z0,c4.xlarge,0,0.05x\n"),
            "t.csv:2: price '0.05x' is not a finite non-negative number");
  EXPECT_EQ(CsvError("z0,c4.xlarge,,0.05\n"), "t.csv:2: time_sec '' is not a finite number");
}

TEST(TraceStore, CsvRejectsNonFiniteAndNegative) {
  EXPECT_EQ(CsvError("z0,c4.xlarge,nan,0.05\n"), "t.csv:2: time_sec 'nan' is not a finite number");
  EXPECT_EQ(CsvError("z0,c4.xlarge,0,inf\n"),
            "t.csv:2: price 'inf' is not a finite non-negative number");
  EXPECT_EQ(CsvError("z0,c4.xlarge,0,1e400\n"),
            "t.csv:2: price '1e400' is not a finite non-negative number");
  EXPECT_EQ(CsvError("z0,c4.xlarge,0,-0.01\n"),
            "t.csv:2: price '-0.01' is not a finite non-negative number");
}

TEST(TraceStore, CsvRejectsWrongWidth) {
  EXPECT_EQ(CsvError("z0,c4.xlarge,0\n"), "t.csv:2: expected 4 cells, got 3");
  // Comment and blank lines still count toward the reported line.
  EXPECT_EQ(CsvError("# note\n\nz0,c4.xlarge,0,0.05,extra\n"), "t.csv:4: expected 4 cells, got 5");
}

TEST(TraceStore, CsvRejectsNonIncreasingTime) {
  EXPECT_EQ(CsvError("z0,c4.xlarge,60,0.05\nz0,c4.xlarge,60,0.06\n"),
            "t.csv:3: time_sec 60 does not increase for z0/c4.xlarge");
  EXPECT_EQ(CsvError("z0,c4.xlarge,60,0.05\nz1,c4.xlarge,0,0.05\nz0,c4.xlarge,30,0.06\n"),
            "t.csv:4: time_sec 30 does not increase for z0/c4.xlarge");
  // Each market has its own timeline.
  EXPECT_EQ(CsvError("z0,c4.xlarge,60,0.05\nz1,c4.xlarge,0,0.05\n"), "");
}

TEST(TraceStore, CsvRejectsEmptyOrMissingInput) {
  TraceStore out;
  std::string error;
  EXPECT_FALSE(TraceStore::FromCsv("", "t.csv", &out, &error));
  EXPECT_EQ(error, "t.csv: empty trace file");
  EXPECT_FALSE(TraceStore::FromCsv("# only a comment\n", "t.csv", &out, &error));
  EXPECT_EQ(error, "t.csv: empty trace file");
  EXPECT_EQ(CsvError(""), "t.csv:1: no price rows after the header");
  EXPECT_FALSE(TraceStore::FromCsv("z0,c4.xlarge,0,0.05\n", "t.csv", &out, &error));
  EXPECT_EQ(error, "t.csv:1: expected header zone,type,time_sec,price");
  EXPECT_FALSE(TraceStore::ReadFile("/nonexistent-dir/trace.csv", &out, &error));
  EXPECT_EQ(error, "/nonexistent-dir/trace.csv: cannot open");
  EXPECT_TRUE(out.Keys().empty());
}

// The bundled CI trace still loads, and to exactly the store its text
// describes: re-serializing it reproduces the file byte for byte.
TEST(TraceStore, BundledMiniTraceLoadsUnchanged) {
  const std::string path = std::string(PROTEUS_SOURCE_DIR) + "/bench/data/mini_trace.csv";
  std::ifstream f(path);
  ASSERT_TRUE(f) << path;
  std::ostringstream text;
  text << f.rdbuf();
  TraceStore store;
  std::string error;
  ASSERT_TRUE(TraceStore::ReadFile(path, &store, &error)) << error;
  EXPECT_EQ(store.Keys().size(), 2 * InstanceTypeCatalog::Default().types().size());
  EXPECT_EQ(store.ToCsv(), text.str());
}

TEST(InstanceTypeCatalog, DefaultHasPaperTypes) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  EXPECT_EQ(catalog.Get("c4.2xlarge").vcpus, 8);
  EXPECT_EQ(catalog.Get("c4.xlarge").vcpus, 4);
  // nu proportionality (footnote 7): c4.2xlarge does 2x c4.xlarge work.
  EXPECT_DOUBLE_EQ(catalog.Get("c4.2xlarge").WorkPerHour(),
                   2 * catalog.Get("c4.xlarge").WorkPerHour());
}

}  // namespace
}  // namespace proteus
