// Small seeded runs that together reach every module emitting into the
// observability sinks: the chaos harness (runtime, recovery ladder,
// auditor, control channel, flight recorder), the lossy-link and
// tier-storm drivers, a ProteusRuntime job with BidBrain and the
// serverless tier, a ClusterScheduler fleet, a BacktestEngine run and a
// ReliableChannel over a lossy link with the ledger attached.
//
// obs_output_pin_test pins their output bytes; obs_catalog_test checks
// that everything they emit is declared in the event catalog.
#ifndef TESTS_OBS_SCENARIOS_H_
#define TESTS_OBS_SCENARIOS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/datasets.h"
#include "src/apps/mf.h"
#include "src/backtest/backtest_engine.h"
#include "src/chaos/fault_injector.h"
#include "src/chaos/harness.h"
#include "src/chaos/lossy_link.h"
#include "src/chaos/tier_storm.h"
#include "src/cluster/fleet.h"
#include "src/cluster/karma.h"
#include "src/market/trace_gen.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/ledger.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/proteus/proteus_runtime.h"
#include "src/rpc/channel.h"
#include "src/rpc/messages.h"
#include "src/rpc/reliable.h"

namespace proteus {
namespace obs_scenarios {

// The three sink outputs of one run.
struct Outputs {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::EventLedger ledger;
};

inline std::unique_ptr<MatrixFactorizationApp> SmallMf(RatingsDataset* data, int users,
                                                       int items, int ratings, int rank) {
  RatingsConfig rc;
  rc.users = users;
  rc.items = items;
  rc.ratings = ratings;
  *data = GenerateRatings(rc);
  MfConfig mc;
  mc.rank = rank;
  return std::make_unique<MatrixFactorizationApp>(data, mc);
}

inline void RunChaos(Outputs* out) {
  RatingsDataset data;
  const auto app = SmallMf(&data, 200, 100, 6000, 4);
  ChaosConfig config;
  config.agileml.num_partitions = 8;
  config.agileml.data_blocks = 64;
  config.agileml.parallel_execution = false;
  config.agileml.backup_sync_every = 3;
  config.agileml.model.shards = 2;
  config.agileml.detector.enabled = true;
  config.agileml.seed = 7;
  config.schedule.horizon = 40;
  config.schedule.events = 18;
  config.schedule.zones = 3;
  config.initial_serverless_allocations = 1;
  config.seed = 7;

  obs::FlightRecorder recorder(&out->ledger);
  ChaosHarness harness(app.get(), config);
  harness.SetObservability(&out->tracer, &out->metrics);
  harness.SetLedger(&out->ledger, &recorder);
  const ChaosRunResult result = harness.Run();
  EXPECT_TRUE(result.ok()) << harness.auditor().Report();
  EXPECT_GT(result.lost_clocks_total, 0);
}

inline void RunLossyLinkAndTierStorm(Outputs* out) {
  RatingsDataset data;
  const auto app = SmallMf(&data, 300, 150, 10000, 4);

  LossyLinkConfig link;
  link.agileml.num_partitions = 8;
  link.agileml.data_blocks = 64;
  link.agileml.parallel_execution = false;
  link.agileml.backup_sync_every = 3;
  link.agileml.seed = 5;
  link.horizon = 16;
  link.command_every = 2;
  link.link.drop_permille = 250;
  link.link.delay_permille = 200;
  link.link.dup_permille = 150;
  link.seed = 5;
  EXPECT_TRUE(RunLossyLink(app.get(), link, &out->tracer, &out->metrics).ok());

  TierStormConfig storm;
  storm.agileml.num_partitions = 8;
  storm.agileml.data_blocks = 64;
  storm.agileml.parallel_execution = false;
  storm.agileml.backup_sync_every = 3;
  storm.agileml.seed = 5;
  storm.scenario = TierStormScenario::kCrossTierSpot;
  storm.horizon = 16;
  storm.checkpoint_every = 4;
  storm.storm_at = 7;
  storm.initial_serverless = 6;
  storm.seed = 5;
  EXPECT_TRUE(RunTierStorm(app.get(), storm, &out->tracer, &out->metrics).ok());
}

inline void RunProteusJob(Outputs* out) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  SyntheticTraceConfig trace_config;
  trace_config.spikes_per_day = 12.0;
  Rng rng(51);
  const TraceStore traces =
      TraceStore::GenerateSynthetic(catalog, {"z0", "z1"}, 12 * kDay, trace_config, rng);
  EvictionEstimator estimator;
  estimator.Train(traces, 0.0, 8 * kDay);
  RatingsDataset data;
  const auto app = SmallMf(&data, 400, 200, 12000, 8);

  ProteusConfig config;
  config.agileml.num_partitions = 16;
  config.agileml.data_blocks = 64;
  config.agileml.parallel_execution = false;
  config.agileml.core_speed = 2e2;
  config.agileml.detector.enabled = true;
  config.agileml.detector.suspect_after = 1;
  config.agileml.detector.confirm_after = 3;
  config.bidbrain.max_spot_instances = 24;
  config.bidbrain.allocation_quantum = 8;
  config.on_demand_count = 2;
  config.serverless_target = 8;
  config.serverless_nodes_per_allocation = 4;
  config.serverless.storms_per_day = 96.0;
  config.serverless.horizon = 11 * kDay;
  config.serverless.max_burst = 12 * kMinute;

  ProteusRuntime runtime(app.get(), &catalog, &traces, &estimator, config, 9 * kDay);
  runtime.SetObservability(&out->tracer, &out->metrics);
  runtime.SetLedger(&out->ledger);
  const ProteusRunSummary summary = runtime.Train(48);
  EXPECT_GT(summary.acquisitions, 0);
}

inline void RunFleet(Outputs* out) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  SyntheticTraceConfig trace_config;
  trace_config.spikes_per_day = 3.0;
  Rng rng(81);
  const TraceStore traces =
      TraceStore::GenerateSynthetic(catalog, {"z0"}, 20 * kDay, trace_config, rng);
  EvictionEstimator estimator;
  estimator.Train(traces, 0.0, 15 * kDay);
  cluster::ClusterScheduler scheduler(&catalog, &traces, &estimator);

  std::vector<cluster::TenantSpec> specs;
  for (const char* name : {"a", "b", "c"}) {
    cluster::TenantSpec spec;
    spec.name = name;
    spec.slot_hours = 40.0;
    spec.max_slots = 8;
    spec.active_fraction = 0.8;
    specs.push_back(spec);
  }
  specs.back().arrival = 16 * kDay + 4 * kHour;
  specs.back().slot_hours = 30.0;
  cluster::FleetConfig config;
  config.slot_market = {"z0", "c4.xlarge"};
  config.start = 16 * kDay;
  config.rounds = 16;
  config.fixed_capacity = 8;

  scheduler.SetObservability(&out->tracer, &out->metrics);
  scheduler.SetLedger(&out->ledger);
  const auto allocator = cluster::MakeAllocator("karma");
  scheduler.Run(specs, *allocator, config);
}

inline void RunBacktest(Outputs* out) {
  const InstanceTypeCatalog catalog = InstanceTypeCatalog::Default();
  SyntheticTraceConfig trace_config;
  trace_config.spikes_per_day = 4.0;
  Rng rng(11);
  const TraceStore traces =
      TraceStore::GenerateSynthetic(catalog, {"z0", "z1"}, 10 * kDay, trace_config, rng);
  EvictionEstimator estimator;
  estimator.Train(traces, 0.0, 5 * kDay);

  backtest::BacktestConfig config;
  config.eval_begin = 5 * kDay;
  config.eval_end = 10 * kDay;
  config.windows = 3;
  config.window_duration = kHour;
  config.reference_count = 8;
  config.scheme.standard_target_vcpus = 64;
  config.scheme.bidbrain.max_spot_instances = 24;
  backtest::BacktestEngine engine(&catalog, &traces, &estimator);
  ASSERT_TRUE(engine.RegisterPolicySpec("on_demand", config.scheme));
  ASSERT_TRUE(engine.RegisterPolicySpec("bidbrain", config.scheme));

  engine.SetObservability(&out->tracer, &out->metrics);
  engine.Run(config);
}

inline void RunReliableChannel(Outputs* out) {
  Channel data;
  Channel ack;
  FaultScheduleConfig schedule;
  schedule.events = 0;
  FaultInjector injector(3, schedule);
  LinkFaultProfile profile;
  profile.drop_permille = 250;
  profile.delay_permille = 200;
  profile.dup_permille = 150;
  profile.blackhole_every = 20;
  profile.blackhole_len = 3;
  data.SetFaultHook(injector.MakeLinkFaultHook(profile));
  ack.SetFaultHook(injector.MakeLinkFaultHook(profile));
  ReliableChannelConfig config;
  config.seed = 3;
  ReliableChannel reliable(&data, &ack, config);

  data.SetObservability(&out->metrics, "data");
  data.SetLedger(&out->ledger, "data");
  reliable.SetObservability(&out->tracer, &out->metrics, "pin");
  reliable.SetLedger(&out->ledger, "pin");

  double now = 0.0;
  for (std::int32_t i = 0; i < 40; ++i) {
    reliable.Send(Message(AllocationGrantMsg{i, {i, i + 1}, 8}), now);
  }
  int delivered = 0;
  for (int rounds = 0; !reliable.Quiescent(); ++rounds) {
    ASSERT_LT(rounds, 200000) << "failed to reach quiescence";
    now += 0.01;
    reliable.Tick(now);
    while (reliable.Receive(now).has_value()) {
      ++delivered;
    }
  }
  while (reliable.Receive(now).has_value()) {
    ++delivered;
  }
  EXPECT_EQ(delivered, 40);
  EXPECT_GT(reliable.retransmits(), 0u);
}

}  // namespace obs_scenarios
}  // namespace proteus

#endif  // TESTS_OBS_SCENARIOS_H_
