// BacktestEngine: parallel what-if replay of acquisition policies over
// stored spot-price traces (DESIGN.md §9).
//
// The engine enumerates (policy x reference-instance-type x window)
// cells. Each cell runs JobSimulator's policy-driven event loop — the
// exact loop the paper's kProteus scheme uses — over one sliding window
// of the traces, and produces a per-cell row of cost / work / E_A /
// evictions / free-compute / machine-hours. Cells fan out across a
// ThreadPool.
//
// Determinism rules:
//  - every cell owns a seed derived from (config.seed, policy name,
//    instance type, window index) via a fixed FNV-1a/splitmix mix, so a
//    cell's result does not depend on which thread ran it or on the
//    thread count;
//  - results land in a pre-sized vector slot per cell, so report order
//    is the enumeration order, never completion order;
//  - all aggregate and CSV output derives from those slots; same seed =>
//    byte-identical CSV at any --threads value (tests/backtest_golden_
//    test.cc holds this).
#ifndef SRC_BACKTEST_BACKTEST_ENGINE_H_
#define SRC_BACKTEST_BACKTEST_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/backtest/policies.h"
#include "src/common/table.h"
#include "src/obs/sinks.h"
#include "src/proteus/job_simulator.h"

namespace proteus {
namespace backtest {

struct BacktestConfig {
  // Evaluation span; windows slide over it. Ignored when explicit_starts
  // is set.
  SimTime eval_begin = 0.0;
  SimTime eval_end = 0.0;
  int windows = 8;
  // Each window's job is sized to keep the reference cluster busy for
  // this long (JobSpec::ForReferenceDuration); runs may finish earlier
  // or later depending on the policy.
  SimDuration window_duration = 2 * kHour;
  // Gap between consecutive window starts; 0 spreads the windows evenly
  // so the last one ends at eval_end.
  SimDuration stride = 0.0;
  // Explicit window starts (overrides the sliding grid when non-empty).
  std::vector<SimTime> explicit_starts;
  // Each cell's job start is its window start plus Uniform(0, jitter)
  // drawn from the cell's own seeded Rng.
  SimDuration start_jitter = 0.0;

  // Variant axis: one cell column per reference instance type.
  std::vector<std::string> reference_types = {"c4.2xlarge"};
  int reference_count = 64;
  double reference_phi = 0.95;

  // Scheme knobs shared by every cell (BidBrain config, profiles,
  // capacity targets, decision cadence).
  SchemeConfig scheme;

  std::uint64_t seed = 2016;
  // Worker threads for the fan-out; 0 = hardware concurrency.
  int threads = 0;
};

struct BacktestCellResult {
  std::string policy;
  std::string instance_type;
  int window = 0;
  SimTime start = 0.0;  // Actual job start (window start + jitter).
  std::uint64_t cell_seed = 0;
  bool completed = false;
  Money cost = 0.0;
  WorkUnits work = 0.0;
  double cost_per_work = 0.0;  // E_A realized: cost / work (0 if no work).
  SimDuration runtime = 0.0;
  int evictions = 0;
  int acquisitions = 0;
  double machine_hours = 0.0;
  double on_demand_hours = 0.0;
  double spot_paid_hours = 0.0;
  double free_hours = 0.0;
  double free_fraction = 0.0;  // free_hours / total machine-hours.
};

struct BacktestPolicyAggregate {
  std::string policy;
  int cells = 0;
  int completed = 0;
  // Means over completed cells (matching the cost benches' convention).
  double mean_cost = 0.0;
  double mean_runtime = 0.0;
  double mean_evictions = 0.0;
  double mean_acquisitions = 0.0;
  double mean_cost_per_work = 0.0;
  double mean_free_fraction = 0.0;
  double total_machine_hours = 0.0;
  // mean_cost / on-demand baseline's mean_cost; 0 when no baseline
  // policy (one with OnDemandDoesWork()) is registered.
  double cost_vs_on_demand = 0.0;
};

struct BacktestReport {
  std::vector<BacktestCellResult> cells;            // Enumeration order.
  std::vector<BacktestPolicyAggregate> aggregates;  // Registration order.
  std::vector<std::size_t> ranking;  // Indices into aggregates, cheapest first.
  int threads_used = 0;
  double wall_seconds = 0.0;

  // Per-cell rows; byte-identical for same seed at any thread count.
  std::string ToCsv() const;
  // Ranked policy comparison as a printable table.
  TextTable RankedTable() const;

  const BacktestPolicyAggregate* Find(const std::string& policy) const;
};

class BacktestEngine {
 public:
  BacktestEngine(const InstanceTypeCatalog* catalog, const TraceStore* traces,
                 const EvictionModel* estimator);

  // Optional sinks: per-cell instants land on the "backtest" track and
  // per-policy counters/histograms/gauges in the registry. Recorded
  // after the parallel section, in enumeration order, so observability
  // output is deterministic too.
  void SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  // Registers a policy. `label` overrides the instance's name() in
  // reports (empty keeps it). The factory is invoked once per cell, on
  // the worker thread running that cell; it must be thread-safe and the
  // data it captures must stay alive for every Run().
  void RegisterPolicy(PolicyFactory factory, std::string label = "");
  // Registers via textual spec (see policies.h). Returns false and sets
  // *error on a bad spec.
  bool RegisterPolicySpec(const std::string& spec, const SchemeConfig& scheme,
                          std::string* error = nullptr, std::string label = "");

  std::size_t policy_count() const { return policies_.size(); }
  const std::vector<std::string>& policy_names() const { return names_; }

  BacktestReport Run(const BacktestConfig& config) const;

  // The deterministic per-cell seed mix (exposed for tests).
  static std::uint64_t CellSeed(std::uint64_t base, const std::string& policy,
                                const std::string& instance_type, int window);

 private:
  const InstanceTypeCatalog* catalog_;
  const TraceStore* traces_;
  const EvictionModel* estimator_;
  std::vector<PolicyFactory> policies_;
  std::vector<std::string> names_;
  obs::Sinks sinks_{"backtest"};
};

}  // namespace backtest
}  // namespace proteus

#endif  // SRC_BACKTEST_BACKTEST_ENGINE_H_
