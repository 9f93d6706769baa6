// mf-stage2: real MF training at Fig. 12's operating point — stage 2
// with 32 ActivePSs on 4 reliable + 60 transient nodes, 96 partitions,
// parallel workers, no faults, no checkpoints, obs sinks detached. The
// PS row path (row reads, ApplyDelta, hash lookups, row locks, access
// tracking) is a large share of RunClock here, so PS-engine and
// worker-cache changes must move this workload.
#include <cmath>
#include <memory>

#include "perfbench/src/harness.h"
#include "src/apps/datasets.h"
#include "src/apps/mf.h"
#include "src/obs/metrics.h"

namespace perfbench {
namespace {

using proteus::AgileMLRuntime;

struct Shape {
  std::int64_t users;
  std::int64_t items;
  std::int64_t ratings;
  int rank;
  int reliable;
  int transient;
  int partitions;
  int active_ps;
  // RMSE at kReferenceClock for the default seed, and the stated bound
  // on the relative distance any seed's RMSE may land from it.
  double reference_objective;
  double reference_tolerance;
};

// MakeMfEnv's dataset and model, on the Fig. 12 cluster.
// References measured with seed 1; seeds 2-5 landed within 6% (full)
// and 9% (tiny) of them.
constexpr Shape kFull = {30000, 2000, 200000, 512, 4, 60, 96, 32, 0.2510, 0.10};
constexpr Shape kTiny = {600, 100, 4000, 16, 2, 6, 8, 4, 0.3182, 0.15};

constexpr int kWarmupClocks = 2;
constexpr proteus::Clock kReferenceClock = 32;

struct Setup {
  proteus::RatingsDataset data;
  std::unique_ptr<proteus::MatrixFactorizationApp> app;
  std::unique_ptr<TimedApp> timed;
  std::unique_ptr<AgileMLRuntime> runtime;
  double start_objective = 0.0;
  double seconds = 0.0;
};

std::unique_ptr<Setup> MakeSetup(const Options& opt, const Shape& shape) {
  auto s = std::make_unique<Setup>();
  const std::int64_t t0 = NowNs();
  proteus::RatingsConfig rc;
  rc.users = shape.users;
  rc.items = shape.items;
  rc.ratings = shape.ratings;
  rc.item_zipf = 1.01;
  rc.sort_by_user = true;
  rc.seed = SubSeed(opt.seed, 1);
  s->data = proteus::GenerateRatings(rc);
  proteus::MfConfig mf;
  mf.rank = shape.rank;
  mf.learning_rate = 0.01;
  mf.regularization = 0.02;
  mf.objective_sample = 20000;
  s->app = std::make_unique<proteus::MatrixFactorizationApp>(&s->data, mf);
  s->timed = std::make_unique<TimedApp>(s->app.get(), shape.reliable + shape.transient);
  proteus::AgileMLConfig config = ClusterAConfig(shape.partitions, SubSeed(opt.seed, 2));
  config.planner.forced_stage = proteus::Stage::kStage2;
  config.planner.forced_active_ps_count = shape.active_ps;
  proteus::MLApp* app = opt.trace ? static_cast<proteus::MLApp*>(s->timed.get()) : s->app.get();
  s->runtime = std::make_unique<AgileMLRuntime>(app, config,
                                                MakeNodes(shape.reliable, shape.transient, 0));
  const std::int64_t t1 = NowNs();
  s->start_objective = s->runtime->ComputeObjective();  // Check input, not set-up.
  const std::int64_t t2 = NowNs();
  s->runtime->RunClocks(kWarmupClocks);
  s->seconds = static_cast<double>((t1 - t0) + (NowNs() - t2)) / 1e9;
  return s;
}

}  // namespace

RunResult RunMfStage2(const Options& opt, SpanLog& log) {
  const Shape& shape = opt.tiny ? kTiny : kFull;
  RunResult r;
  // Declared before the runtime that points at it, so it outlives it.
  proteus::obs::MetricsRegistry metrics;
  // Set-up is repeated and its median reported; the last one is kept.
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < SetupReps(opt); ++rep) {
    setup.reset();
    setup = MakeSetup(opt, shape);
    r.setup_s.push_back(setup->seconds);
  }

  AgileMLRuntime& runtime = *setup->runtime;
  // The traced run counts pull/push bytes; the untraced run keeps every
  // obs sink detached.
  if (opt.trace) {
    runtime.SetObservability(nullptr, &metrics);
  }

  const double items_per_clock = static_cast<double>(setup->app->NumItems());
  double reference_objective = -1.0;
  double total_bytes = 0.0;
  int clocks = 0;
  const std::int64_t loop_start = NowNs();
  while (KeepGoing(opt, clocks, loop_start)) {
    // The traced run alternates spans on and off, so its overhead is the
    // difference between the two halves.
    const bool traced = opt.trace && clocks % 2 == 0;
    log.set_enabled(traced);
    setup->timed->set_enabled(traced);
    TimedCall call(log, "agileml.RunClock", -1, clocks);
    const proteus::IterationReport report = runtime.RunClock();
    const double ms = call.Finish();
    if (traced) {
      setup->timed->Harvest(log, call.span(), clocks);
    }
    if (opt.trace) {
      r.series[traced ? "step_ms.traced" : "step_ms.untraced"].push_back(ms);
    }
    r.step_ms.push_back(ms);
    r.work_items += items_per_clock;
    r.work_seconds += ms / 1e3;
    total_bytes += static_cast<double>(report.total_bytes);
    ++r.attempted;
    ++clocks;
    if (runtime.clock() == kReferenceClock) {
      log.set_enabled(false);
      reference_objective = runtime.ComputeObjective();
    }
  }
  log.set_enabled(false);
  setup->timed->set_enabled(false);
  const double final_objective = runtime.ComputeObjective();

  double expected = shape.reference_objective;
  if (opt.corrupt) {
    expected *= 1.5;
  }
  r.Check("objective_falls",
          std::isfinite(final_objective) && final_objective < setup->start_objective);
  r.Check("objective_near_reference",
          reference_objective > 0.0 &&
              std::abs(reference_objective - expected) <= shape.reference_tolerance * expected);

  r.counters["objective.start"] = setup->start_objective;
  r.counters["objective.reference_clock"] = reference_objective;
  r.counters["objective.final"] = final_objective;
  r.counters["runclock_calls"] = clocks;
  r.counters["lost_clocks"] = runtime.lost_clocks_total();
  r.counters["net.total_bytes"] = total_bytes;
  r.counters["agileml.pull.bytes"] =
      static_cast<double>(metrics.GetCounter("agileml.pull.bytes")->value());
  r.counters["agileml.push.bytes"] =
      static_cast<double>(metrics.GetCounter("agileml.push.bytes")->value());
  return r;
}

}  // namespace perfbench
