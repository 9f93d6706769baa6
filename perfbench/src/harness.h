// Measurement plumbing shared by the perfbench workloads: a wall clock,
// an in-memory span log, timing decorators for the two public seams the
// benchmark drives (MLApp and AcquisitionPolicy), and the result record
// every workload fills in.
//
// Spans are recorded from the benchmark's own files, around the calls it
// makes into each layer; nothing inside src/ is instrumented. A span has
// a name, start and end (ns since process start), a parent (index into
// the log, -1 for a root), the id of the clock or job it belongs to, the
// worker node that ran it (-1 on the control thread) and one integer
// attribute (the recovery depth of a Recover call, for example).
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/agileml/app.h"
#include "src/agileml/runtime.h"
#include "src/bidbrain/acquisition_policy.h"

namespace perfbench {

std::int64_t NowNs();

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t id = -1;
  int worker = -1;
  int attr = -1;
};

// Spans of one run, kept in memory and written out at exit. Only the
// control thread touches the log; worker-thread spans reach it through
// TimedApp::Harvest after the parallel section has joined.
class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Opens a span starting at `start_ns`; returns its index, or -1 when
  // the log is disabled.
  int Open(const char* name, int parent, std::int64_t id, std::int64_t start_ns, int attr = -1);
  void Close(int index, std::int64_t end_ns);
  void Add(const Span& span) { spans_.push_back(span); }

  // One tab-separated line per span: name start end parent id worker attr.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// Times one call on the control thread. The duration is always measured
// (the end-to-end metrics need it); a span is recorded only while the
// log is enabled.
class TimedCall {
 public:
  TimedCall(SpanLog& log, const char* name, int parent, std::int64_t id, int attr = -1)
      : log_(log), start_ns_(NowNs()), span_(log.Open(name, parent, id, start_ns_, attr)) {}

  // Ends the call; returns its wall time in milliseconds.
  double Finish();
  int span() const { return span_; }

 private:
  SpanLog& log_;
  std::int64_t start_ns_;
  int span_;
};

// MLApp decorator timing every ProcessRange call. Workers record into
// their own cache-line-aligned slot (indexed by node id), so the hot path
// takes no shared lock; the control thread collects the slots after
// RunClock returns.
class TimedApp : public proteus::MLApp {
 public:
  TimedApp(proteus::MLApp* inner, int max_node_ids);

  std::string Name() const override { return inner_->Name(); }
  proteus::ModelInit DefineModel() const override { return inner_->DefineModel(); }
  std::int64_t NumItems() const override { return inner_->NumItems(); }
  double CostPerItem() const override { return inner_->CostPerItem(); }
  void ProcessRange(proteus::WorkerContext& ctx, std::int64_t begin, std::int64_t end) override;
  double ComputeObjective(const proteus::ModelStore& model) const override {
    return inner_->ComputeObjective(model);
  }

  // Set only between clocks (the thread pool's hand-off orders it before
  // the workers read it).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Moves every worker's recorded calls into `log` as children of
  // `parent` and clears the slots.
  void Harvest(SpanLog& log, int parent, std::int64_t id);

 private:
  struct alignas(64) Slot {
    std::vector<std::pair<std::int64_t, std::int64_t>> calls;
  };

  proteus::MLApp* inner_;
  std::atomic<bool> enabled_{false};
  std::vector<Slot> slots_;
};

// AcquisitionPolicy decorator timing every Decide call. JobSimulator runs
// a job on one thread, so spans go straight into the log under the job
// span the caller set with set_job.
class TimedPolicy : public proteus::AcquisitionPolicy {
 public:
  TimedPolicy(const proteus::AcquisitionPolicy* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  std::string name() const override { return inner_->name(); }
  std::vector<proteus::BidAction> Decide(
      proteus::SimTime now, const std::vector<proteus::LiveAllocation>& live) const override;
  bool OnDemandDoesWork() const override { return inner_->OnDemandDoesWork(); }

  void set_job(int span, std::int64_t id) {
    job_span_ = span;
    job_id_ = id;
  }

 private:
  const proteus::AcquisitionPolicy* inner_;
  SpanLog* log_;
  int job_span_ = -1;
  std::int64_t job_id_ = -1;
};

// Fingerprint of the solution state: every shard's canonical checkpoint
// bytes plus the clock.
std::uint64_t StateDigest(const proteus::AgileMLRuntime& runtime);

// Peak resident set size of this process, in MB (VmHWM).
double PeakRssMb();

// splitmix64: derives independent sub-seeds from the workload seed.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream);

// The Cluster-A emulation the figure benches use (64 8-core machines,
// 1 Gbps NICs), with the parallel worker pool on as by default.
proteus::AgileMLConfig ClusterAConfig(int num_partitions, std::uint64_t seed);

// `reliable` then `transient` 8-core nodes with ids first_id, first_id+1, ...
std::vector<proteus::NodeInfo> MakeNodes(int reliable, int transient, proteus::NodeId first_id);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;     // Small inputs for the benchmark's own smoke tests.
  bool corrupt = false;  // Perturb one expected value: the checks must fail.
  std::string spans_path;
};

// Set-up repetitions: the untraced run reports their median as setup_s;
// the traced run does not report set-up time and sets up once.
inline int SetupReps(const Options& opt) { return opt.trace ? 1 : 5; }

// The timed loop runs for at least `seconds` and at least kMinSamples
// operations, so the p90 keeps ten samples beyond it, and stops at
// kMaxLoopSeconds regardless.
constexpr int kMinSamples = 100;
constexpr double kMaxLoopSeconds = 100.0;
bool KeepGoing(const Options& opt, int samples, std::int64_t loop_start_ns);

// Everything one run reports; main.cc prints it as one JSON object.
struct RunResult {
  std::vector<double> setup_s;  // One entry per set-up repetition.
  std::vector<double> step_ms;  // Wall time of each timed operation.
  double work_items = 0.0;      // Items (or jobs) processed by the timed operations.
  double work_seconds = 0.0;    // Wall time those operations took.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, bool> checks;  // Run-level output checks.
  std::map<std::string, double> counters;
  std::map<std::string, std::vector<double>> series;

  // Records a run-level check: it counts as one attempted operation, and
  // as a failed one when it does not hold.
  void Check(const std::string& name, bool ok);
};

RunResult RunMfStage2(const Options& opt, SpanLog& log);
RunResult RunDurableChurn(const Options& opt, SpanLog& log);
RunResult RunMarketSim(const Options& opt, SpanLog& log);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
