// Golden determinism test for the run analyzer: a same-seed chaos run
// must yield a byte-identical REPORT json — across repeated runs AND
// across worker thread counts — with 100% of wall-clock attributed to
// {compute, transport, rollback, recovery, idle} and 100% of dollars to
// {transient, reliable, recovery, wasted_evicted}.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/apps/datasets.h"
#include "src/apps/mf.h"
#include "src/chaos/harness.h"
#include "src/obs/analyze/analyze.h"
#include "src/obs/json.h"
#include "src/obs/ledger.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace proteus {
namespace {

ChaosConfig GoldenConfig(std::uint64_t seed, bool parallel) {
  ChaosConfig config;
  config.agileml.num_partitions = 8;
  config.agileml.data_blocks = 64;
  config.agileml.parallel_execution = parallel;
  config.agileml.backup_sync_every = 3;
  config.agileml.seed = seed;
  config.schedule.horizon = 20;
  config.schedule.events = 8;
  config.schedule.zones = 3;
  config.seed = seed;
  return config;
}

// One fully instrumented chaos run through the analyzer; returns the
// report bytes.
std::string ReportOneRun(MLApp* app, std::uint64_t seed, bool parallel = false) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::EventLedger ledger;
  ChaosHarness harness(app, GoldenConfig(seed, parallel));
  harness.SetObservability(&tracer, &metrics);
  harness.SetLedger(&ledger, nullptr);
  const ChaosRunResult result = harness.Run();
  EXPECT_TRUE(result.ok()) << harness.auditor().Report();

  const obs::analyze::AnalyzeResult analysis = obs::analyze::AnalyzeRun(
      ledger.ToJsonl(), tracer.ToChromeJson(), metrics.Snapshot().ToJson());
  EXPECT_TRUE(analysis.error.empty()) << analysis.error;
  EXPECT_EQ(analysis.unattributed_clocks, 0);
  EXPECT_EQ(analysis.ledger_gaps, 0);
  return analysis.report_json;
}

TEST(AnalyzeGolden, SameSeedReportsAreByteIdenticalAcrossRunsAndThreads) {
  RatingsConfig rc;
  rc.users = 200;
  rc.items = 100;
  rc.ratings = 6000;
  RatingsDataset data = GenerateRatings(rc);
  MfConfig mc;
  mc.rank = 4;
  MatrixFactorizationApp app(&data, mc);

  const std::string first = ReportOneRun(&app, /*seed=*/7);
  const std::string second = ReportOneRun(&app, /*seed=*/7);
  EXPECT_EQ(first, second);

  // Thread-count invariance: the parallel execution engine changes how
  // work is scheduled on the host, but every analyzer input derives
  // from the virtual-time model, so the report must not move a byte.
  const std::string parallel = ReportOneRun(&app, /*seed=*/7, /*parallel=*/true);
  EXPECT_EQ(first, parallel);

  // A different seed must change the report (the equality above is not
  // vacuous).
  const std::string other = ReportOneRun(&app, /*seed=*/8);
  EXPECT_NE(first, other);
}

TEST(AnalyzeGolden, ReportAttributesAllTimeAndAllDollars) {
  RatingsConfig rc;
  rc.users = 200;
  rc.items = 100;
  rc.ratings = 6000;
  RatingsDataset data = GenerateRatings(rc);
  MfConfig mc;
  mc.rank = 4;
  MatrixFactorizationApp app(&data, mc);

  const std::string report = ReportOneRun(&app, /*seed=*/11);
  obs::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(report, &parsed, &error)) << error;
  EXPECT_EQ(parsed.StringField("schema"), "proteus.report.v1");

  // 100% of wall-clock in exactly the five buckets.
  const obs::JsonValue* wall = parsed.Find("wall_time");
  ASSERT_NE(wall, nullptr);
  const double total = wall->NumberField("total");
  ASSERT_GT(total, 0.0);
  const double sum = wall->NumberField("compute") + wall->NumberField("transport") +
                     wall->NumberField("rollback") + wall->NumberField("recovery") +
                     wall->NumberField("idle");
  EXPECT_NEAR(sum, total, 1e-6 * total);
  const obs::JsonValue* wall_shares = parsed.Find("wall_time_shares");
  ASSERT_NE(wall_shares, nullptr);
  const double share_sum =
      wall_shares->NumberField("compute") + wall_shares->NumberField("transport") +
      wall_shares->NumberField("rollback") + wall_shares->NumberField("recovery") +
      wall_shares->NumberField("idle");
  EXPECT_NEAR(share_sum, 1.0, 1e-9);

  // 100% of dollars in exactly the four buckets (paper Fig 8/9 split).
  const obs::JsonValue* cost = parsed.Find("cost");
  ASSERT_NE(cost, nullptr);
  const double cost_total = cost->NumberField("total");
  ASSERT_GT(cost_total, 0.0);
  EXPECT_NEAR(cost->NumberField("transient") + cost->NumberField("reliable") +
                  cost->NumberField("recovery") + cost->NumberField("wasted_evicted"),
              cost_total, 1e-6 * cost_total);
  const obs::JsonValue* cost_shares = parsed.Find("cost_shares");
  ASSERT_NE(cost_shares, nullptr);
  EXPECT_NEAR(cost_shares->NumberField("transient") +
                  cost_shares->NumberField("reliable") +
                  cost_shares->NumberField("recovery") +
                  cost_shares->NumberField("wasted_evicted"),
              1.0, 1e-9);

  // Structural sections the CI gate and post-mortems read.
  const obs::JsonValue* clocks = parsed.Find("clocks");
  ASSERT_NE(clocks, nullptr);
  EXPECT_GT(clocks->NumberField("executed"), 0.0);
  EXPECT_NE(parsed.Find("stragglers"), nullptr);
  EXPECT_NE(parsed.Find("critical_path"), nullptr);
  EXPECT_NE(parsed.Find("recoveries"), nullptr);
  EXPECT_NE(parsed.Find("rollbacks"), nullptr);
  const obs::JsonValue* checks = parsed.Find("checks");
  ASSERT_NE(checks, nullptr);
  EXPECT_EQ(checks->NumberField("unattributed_clocks"), 0.0);
  EXPECT_EQ(checks->NumberField("ledger_gaps"), 0.0);
}

TEST(AnalyzeGolden, ReportsTheLostClocksTheMetricsSnapshotCounts) {
  RatingsConfig rc;
  rc.users = 200;
  rc.items = 100;
  rc.ratings = 6000;
  RatingsDataset data = GenerateRatings(rc);
  MfConfig mc;
  mc.rank = 4;
  MatrixFactorizationApp app(&data, mc);

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::EventLedger ledger;
  ChaosHarness harness(&app, GoldenConfig(/*seed=*/7, /*parallel=*/false));
  harness.SetObservability(&tracer, &metrics);
  harness.SetLedger(&ledger, nullptr);
  ASSERT_TRUE(harness.Run().ok()) << harness.auditor().Report();
  const double lost = metrics.Snapshot().Value("agileml.rollback.lost_clocks");
  ASSERT_GT(lost, 0.0) << "the run must roll back for this test to mean anything";

  const obs::analyze::AnalyzeResult analysis = obs::analyze::AnalyzeRun(
      ledger.ToJsonl(), tracer.ToChromeJson(), metrics.Snapshot().ToJson());
  ASSERT_TRUE(analysis.error.empty()) << analysis.error;
  obs::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(analysis.report_json, &parsed, &error)) << error;
  const obs::JsonValue* report_metrics = parsed.Find("metrics");
  ASSERT_NE(report_metrics, nullptr);
  EXPECT_EQ(report_metrics->NumberField("agileml.rollback.lost_clocks", -1.0), lost);
}

}  // namespace
}  // namespace proteus
