// Shared setup for the benchmark harness: paper-scale workloads,
// cluster builders, measurement helpers, and the spot-market environment
// used by the cost benches.
//
// Calibration: the AgileML benches emulate the paper's Cluster-A (64
//8-core machines, 1 Gbps NICs). Absolute seconds depend on the virtual
// core speed; the constants below are set so the relative anchors from
// the paper hold (see bench/tab_model_validation.cc):
//   - stage 1 with 4 ParamServs at 60:4 is slowed >85% vs traditional,
//   - stage 2 with 32 ActivePSs at 15:1 is ~18% slower than traditional,
//   - stage 3 at 63:1 roughly matches traditional.
#ifndef BENCH_SUPPORT_H_
#define BENCH_SUPPORT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/agileml/runtime.h"
#include "src/apps/datasets.h"
#include "src/apps/lda.h"
#include "src/apps/mf.h"
#include "src/apps/mlr.h"
#include "src/bidbrain/eviction_estimator.h"
#include "src/chaos/harness.h"
#include "src/market/spot_market.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/ledger.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/proteus/job_simulator.h"
#include "src/proteus/proteus_runtime.h"

namespace proteus {
namespace bench {

// Pops `--name=value` style flags out of argv; returns the value of the
// last occurrence (empty if absent). Positional arguments keep their
// relative order.
std::string TakeFlag(int& argc, char** argv, const char* name);

// Pops a bare `--name` switch out of argv; returns whether it was present.
bool TakeSwitch(int& argc, char** argv, const char* name);

// --- --bench_json artifacts ---
//
// Headline numbers CI tracks across runs. Benches that support
// `--bench_json=PATH` emit `{"schema": "proteus.<bench>.v1",
// "benchmarks": [{name, metric, value, unit}, ...]}` through this shared
// writer so every artifact parses the same way.
struct BenchJsonRow {
  std::string name;
  std::string metric;
  double value = 0.0;
  std::string unit;
};

// Writes the rows to `path` under `proteus.<schema>.v1` and echoes them
// to stdout. Returns false (and logs to stderr) on I/O failure.
bool WriteBenchJson(const std::string& path, const std::string& schema,
                    const std::vector<BenchJsonRow>& rows);

// --- Observability session (--trace_out= / --metrics_out= /
//     --ledger_out= / --flight_out=) ---
//
// Every bench accepts four optional flags:
//   --trace_out=PATH    Chrome trace_event JSON of the run, viewable in
//                       Perfetto (ui.perfetto.dev) or chrome://tracing.
//   --metrics_out=PATH  MetricsRegistry snapshot; a .csv suffix selects
//                       CSV, a .json suffix the JSON export, anything
//                       else the text exposition format.
//   --ledger_out=PATH   Causal event ledger as JSONL — the input
//                       proteus_analyze turns into critical-path and
//                       cost-attribution reports.
//   --flight_out=PATH   Where FlightRecorder post-mortems land (default
//                       flight_recorder.json) when an auditor violation
//                       or a PROTEUS_CHECK failure fires.
// The session owns the Tracer, MetricsRegistry, EventLedger, and
// FlightRecorder that instrumented runtimes record into, strips the
// flags it recognizes from argc/argv (positional-argument parsing stays
// untouched), and writes the requested artifacts when it goes out of
// scope. The recorder holds the fatal-log hook for the session's
// lifetime, so a CHECK failure anywhere dumps the recent event window.
class ObsSession {
 public:
  ObsSession(int& argc, char** argv);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  obs::Tracer* tracer() { return &tracer_; }
  obs::MetricsRegistry* metrics() { return &metrics_; }
  obs::EventLedger* ledger() { return &ledger_; }
  obs::FlightRecorder* recorder() { return &recorder_; }
  bool enabled() const {
    return !trace_path_.empty() || !metrics_path_.empty() || !ledger_path_.empty();
  }

  // Wires a runtime into this session's sinks.
  void Attach(AgileMLRuntime& runtime) {
    runtime.SetObservability(&tracer_, &metrics_);
    runtime.SetLedger(&ledger_);
  }
  void Attach(ProteusRuntime& runtime) {
    runtime.SetObservability(&tracer_, &metrics_);
    runtime.SetLedger(&ledger_);
  }
  void Attach(ChaosHarness& harness) {
    harness.SetObservability(&tracer_, &metrics_);
    harness.SetLedger(&ledger_, &recorder_);
  }

  // Writes a FlightRecorder post-mortem to the configured --flight_out
  // path right now (used by benches on a failing exit).
  void DumpFlightRecorder(const std::string& reason);

  // Writes the requested artifacts now (idempotent; the destructor
  // calls it too).
  void Flush();

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string ledger_path_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  obs::EventLedger ledger_;
  obs::FlightRecorder recorder_;
  bool flushed_ = false;
};

// The bench's ambient session: set while an ObsSession is alive (one per
// process), nullptr otherwise. Helpers that build runtimes internally
// (e.g. MeasureTimePerIter) attach through this.
ObsSession* CurrentObsSession();

// --- AgileML-side environment (Figs. 11-16) ---

struct MfEnv {
  RatingsDataset data;
  MfConfig mf;
};

// The MF workload standing in for Netflix-on-Cluster-A.
MfEnv MakeMfEnv();

struct LdaEnv {
  CorpusDataset data;
  LdaConfig lda;
};

// The LDA workload standing in for NYTimes (Fig. 15).
LdaEnv MakeLdaEnv();

// AgileML runtime config emulating Cluster-A.
AgileMLConfig ClusterAConfig(int num_partitions = 32);

// reliable then transient nodes, ids 0..n-1, 8 cores each.
std::vector<NodeInfo> MakeCluster(int reliable, int transient);

// Mean time-per-iteration after warm-up.
double MeasureTimePerIter(AgileMLRuntime& runtime, int warmup, int iters);

// --- Market-side environment (Figs. 1, 3, 8, 9, 10) ---

struct MarketEnv {
  InstanceTypeCatalog catalog;
  TraceStore traces;       // Full horizon.
  EvictionEstimator estimator;  // Trained on the first part of the horizon.
  SimTime eval_begin = 0;  // Evaluation windows start here.
  SimTime eval_end = 0;
};

// Four zones (like US-EAST-1), ~90 days of synthetic prices; estimator
// trained on the first 45 days, evaluation on the rest — mirroring the
// paper's train (Mar-Jun) / evaluate (Jun-Aug) split.
MarketEnv MakeMarketEnv(std::uint64_t seed = 2016);

// MarketEnv from a stored trace CSV (columns zone,type,time_sec,price,
// see TraceStore::ReadFile). Mirrors MakeMarketEnv's split: the
// estimator trains on the first half of the recorded horizon and the
// evaluation span is the second half. Returns false and sets *error
// (naming the file, and the line for a malformed row) when the file is
// missing, malformed or spans no time.
bool MakeMarketEnvFromCsv(const std::string& path, MarketEnv* env, std::string* error);

// Scheme config shared by the cost benches (Cluster-A-sized jobs).
SchemeConfig PaperSchemeConfig();

// Random job start times within the evaluation window.
std::vector<SimTime> SampleStartTimes(const MarketEnv& env, int count, SimDuration job_slack,
                                      std::uint64_t seed);

}  // namespace bench
}  // namespace proteus

#endif  // BENCH_SUPPORT_H_
