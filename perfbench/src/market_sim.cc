// market-sim: trace-driven JobSimulator runs, the paper's cost-headline
// path. A MakeMarketEnv-shaped market (4 zones, 90 days of synthetic
// prices, eviction estimator trained on the first half) serves 2-hour
// jobs of 64 x c4.2xlarge work at seeded start times, each run under the
// on-demand, Standard+Checkpoint, Standard+AgileML and Proteus schemes.
// BidBrain's Decide dominates; no apps/agileml/ps code runs, so
// training-side changes must leave this workload unchanged.
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/bidbrain/bidbrain.h"
#include "src/bidbrain/eviction_estimator.h"
#include "src/common/rng.h"
#include "src/market/instance_type.h"
#include "src/market/trace_store.h"
#include "src/proteus/job_simulator.h"

namespace perfbench {
namespace {

using proteus::JobResult;
using proteus::SchemeKind;

struct Shape {
  int days;
  int warmup_jobs;
};

constexpr Shape kFull = {90, 4};
constexpr Shape kTiny = {20, 1};

// Jobs whose decorated Proteus run is checked against the plain
// Run(SchemeKind::kProteus, ...) path, outside the timed calls.
constexpr int kIdentityJobs = 8;

constexpr SchemeKind kBaselines[] = {SchemeKind::kOnDemandOnly, SchemeKind::kStandardCheckpoint,
                                     SchemeKind::kStandardAgileML};

struct Setup {
  proteus::InstanceTypeCatalog catalog;
  proteus::TraceStore traces;
  proteus::EvictionEstimator estimator;
  proteus::SimTime eval_begin = 0.0;
  proteus::SimTime eval_end = 0.0;
  std::unique_ptr<proteus::JobSimulator> sim;
  proteus::SchemeConfig config;
  proteus::JobSpec job;
  double trace_gen_s = 0.0;
  double estimator_train_s = 0.0;
  double seconds = 0.0;
};

// PaperSchemeConfig: Cluster-A-sized jobs with a 3 x c4.xlarge reliable tier.
proteus::SchemeConfig PaperSchemeConfig() {
  proteus::SchemeConfig config;
  config.on_demand_count = 3;
  config.on_demand_type = "c4.xlarge";
  config.standard_target_vcpus = 64 * 8;
  config.bidbrain.max_spot_instances = 189;
  config.bidbrain.allocation_quantum = 16;
  return config;
}

std::unique_ptr<Setup> MakeSetup(const Options& opt, const Shape& shape, SpanLog& log) {
  auto s = std::make_unique<Setup>();
  const std::int64_t t0 = NowNs();
  TimedCall gen(log, "market.GenerateSynthetic", -1, -1);
  s->catalog = proteus::InstanceTypeCatalog::Default();
  proteus::SyntheticTraceConfig trace_config;
  trace_config.spikes_per_day = 3.0;
  proteus::Rng rng(SubSeed(opt.seed, 1));
  const proteus::SimDuration horizon = shape.days * proteus::kDay;
  s->traces = proteus::TraceStore::GenerateSynthetic(
      s->catalog, {"us-east-1a", "us-east-1b", "us-east-1c", "us-east-1d"}, horizon,
      trace_config, rng);
  s->trace_gen_s = gen.Finish() / 1e3;
  TimedCall train(log, "bidbrain.EvictionEstimator.Train", -1, -1);
  s->estimator.Train(s->traces, 0.0, horizon / 2);
  s->estimator_train_s = train.Finish() / 1e3;
  s->eval_begin = horizon / 2;
  s->eval_end = horizon;
  s->sim = std::make_unique<proteus::JobSimulator>(&s->catalog, &s->traces, &s->estimator);
  s->config = PaperSchemeConfig();
  s->job = proteus::JobSpec::ForReferenceDuration(s->catalog, "c4.2xlarge", 64,
                                                  2 * proteus::kHour, 0.95);
  for (int i = 0; i < shape.warmup_jobs; ++i) {
    const proteus::SimTime start = s->eval_begin + i * proteus::kDay;
    for (const SchemeKind scheme : kBaselines) {
      s->sim->Run(scheme, s->job, s->config, start);
    }
    s->sim->Run(SchemeKind::kProteus, s->job, s->config, start);
  }
  s->seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return s;
}

bool SameBill(const proteus::JobBill& a, const proteus::JobBill& b) {
  return a.cost == b.cost && a.on_demand_hours == b.on_demand_hours &&
         a.spot_paid_hours == b.spot_paid_hours && a.free_hours == b.free_hours;
}

bool SameResult(const JobResult& a, const JobResult& b) {
  if (a.completed != b.completed || a.runtime != b.runtime || !SameBill(a.bill, b.bill) ||
      a.evictions != b.evictions || a.acquisitions != b.acquisitions ||
      a.work_done != b.work_done || a.allocation_bills.size() != b.allocation_bills.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.allocation_bills.size(); ++i) {
    const auto& x = a.allocation_bills[i];
    const auto& y = b.allocation_bills[i];
    if (x.id != y.id || x.on_demand != y.on_demand || x.evicted != y.evicted ||
        x.count != y.count || !SameBill(x.bill, y.bill)) {
      return false;
    }
  }
  return true;
}

}  // namespace

RunResult RunMarketSim(const Options& opt, SpanLog& log) {
  const Shape& shape = opt.tiny ? kTiny : kFull;
  RunResult r;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < SetupReps(opt); ++rep) {
    setup.reset();
    log.set_enabled(opt.trace);
    setup = MakeSetup(opt, shape, log);
    log.set_enabled(false);
    r.setup_s.push_back(setup->seconds);
  }

  const proteus::JobSimulator& sim = *setup->sim;
  const proteus::BidBrain bidbrain(&setup->catalog, &setup->traces, &setup->estimator,
                                   setup->config.bidbrain);
  TimedPolicy timed_bidbrain(&bidbrain, &log);

  proteus::Rng starts(SubSeed(opt.seed, 3));
  const proteus::SimDuration slack = 8 * 2 * proteus::kHour;
  // Summed cost per scheme: on-demand, Standard+Checkpoint,
  // Standard+AgileML, Proteus.
  double cost[4] = {0.0, 0.0, 0.0, 0.0};
  int jobs = 0;
  bool identical = true;
  const std::int64_t loop_start = NowNs();
  while (KeepGoing(opt, jobs, loop_start)) {
    // The traced run alternates spans on and off, as the training
    // workloads do.
    const bool traced = opt.trace && jobs % 2 == 0;
    log.set_enabled(traced);
    const proteus::SimTime start = starts.Uniform(setup->eval_begin, setup->eval_end - slack);
    bool job_ok = true;
    double all_ms = 0.0;
    for (int s = 0; s < 3; ++s) {
      TimedCall call(log, "market.JobSimulator.Run", -1, jobs, static_cast<int>(kBaselines[s]));
      const JobResult result = sim.Run(kBaselines[s], setup->job, setup->config, start);
      all_ms += call.Finish();
      job_ok = job_ok && result.completed;
      cost[s] += result.bill.cost;
    }
    // Proteus: the plain scheme path untraced, BidBrain behind the timing
    // decorator when traced.
    TimedCall call(log, "proteus.JobSimulator.Run", -1, jobs,
                   static_cast<int>(SchemeKind::kProteus));
    timed_bidbrain.set_job(call.span(), jobs);
    const JobResult proteus_result =
        opt.trace ? sim.Run(timed_bidbrain, setup->job, setup->config, start)
                  : sim.Run(SchemeKind::kProteus, setup->job, setup->config, start);
    const double ms = call.Finish();
    all_ms += ms;
    job_ok = job_ok && proteus_result.completed;
    cost[3] += proteus_result.bill.cost;
    if (jobs < kIdentityJobs) {
      log.set_enabled(false);
      const JobResult other =
          opt.trace ? sim.Run(SchemeKind::kProteus, setup->job, setup->config, start)
                    : sim.Run(timed_bidbrain, setup->job, setup->config, start);
      if (!SameResult(proteus_result, other)) {
        identical = false;
        job_ok = false;
      }
    }
    if (opt.trace) {
      r.series[traced ? "step_ms.traced" : "step_ms.untraced"].push_back(ms);
    }
    r.step_ms.push_back(ms);
    r.work_items += 4.0;
    r.work_seconds += all_ms / 1e3;
    ++r.attempted;
    if (!job_ok) {
      ++r.failed;
    }
    ++jobs;
  }
  log.set_enabled(false);

  if (opt.corrupt) {
    std::swap(cost[0], cost[3]);
  }
  r.Check("decorated_proteus_identical", identical);
  r.Check("cost_order", cost[3] < cost[2] && cost[2] < cost[1] && cost[1] < cost[0]);
  r.counters["jobs"] = jobs;
  r.counters["market.trace_gen_s"] = setup->trace_gen_s;
  r.counters["bidbrain.estimator_train_s"] = setup->estimator_train_s;
  const char* names[] = {"cost.on_demand", "cost.standard_checkpoint", "cost.standard_agileml",
                         "cost.proteus"};
  for (int s = 0; s < 4; ++s) {
    r.counters[names[s]] = cost[s] / std::max(jobs, 1);
  }
  return r;
}

}  // namespace perfbench
