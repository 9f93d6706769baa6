// durable-churn: MF with a small dataset and a large model, forced stage 2
// on 4 reliable + 28 transient nodes with the failure detector on. A
// RecoveryManager checkpoints every clock boundary into a CheckpointStore
// on a MemDurableDevice, and a seeded schedule adds bulk AddNodes, warned
// Evict, and failures that reach recovery depths 1, 2 and 3. The ledger
// and metrics sinks are attached, as in the chaos smoke run. Checkpoint
// serialization and the CRC-framed store write outweigh RunClock here,
// so this workload exercises the PS layer in bulk (serialize, restore,
// backup snapshot) and obs emission on the hot path.
#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <memory>
#include <set>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/agileml/recovery_manager.h"
#include "src/apps/datasets.h"
#include "src/apps/mf.h"
#include "src/chaos/consistency_auditor.h"
#include "src/common/rng.h"
#include "src/obs/ledger.h"
#include "src/obs/metrics.h"
#include "src/ps/checkpoint_store.h"

namespace perfbench {
namespace {

using proteus::AgileMLRuntime;
using proteus::NodeId;
using proteus::RecoveryDepth;

struct Shape {
  std::int64_t users;
  std::int64_t items;
  std::int64_t ratings;
  int rank;
  int reliable;
  int transient;
  int partitions;
  int evict;  // Transient nodes per warned eviction (and per bulk add).
};

// 22k ratings touch ~17.5k rows. At 20k the row count (~16.4k) straddles
// 2^14, where the un-reserved checkpoint buffer doubles its capacity, and
// peak RSS split by seed into two modes 30 MB apart; at 22k every seed
// sits above that point.
constexpr Shape kFull = {30000, 2000, 22000, 128, 4, 28, 32, 6};
constexpr Shape kTiny = {300, 60, 600, 8, 3, 8, 8, 2};

// Backup syncs every other clock, so a depth-1 failure fired one clock
// after a sync loses that clock and must roll back to the sync's bytes.
constexpr int kBackupSyncEvery = 2;
constexpr int kWarmupSteps = 2;
// One schedule cycle: eight events, one in each 5-step segment.
constexpr int kCycleSteps = 40;
constexpr int kSegmentSteps = 5;
// Node ids grow with every replacement; the TimedApp slot table must
// cover every id a run can reach.
constexpr int kMaxNodeIds = 1 << 14;

enum class Event { kEvict, kAdd, kFailDepth1, kFailDepth2, kFailDepth3 };

const char* EventSpanName(Event e) {
  switch (e) {
    case Event::kEvict:
      return "agileml.Evict";
    case Event::kAdd:
      return "agileml.AddNodes";
    default:
      return "agileml.RecoveryManager.Recover";
  }
}

struct Planned {
  int step;
  Event kind;
};

// Seeded schedule: each cycle evicts, fails at depth 1, 2 and 3, and
// replaces what each of those removed with a bulk add.
std::vector<Planned> MakeSchedule(std::uint64_t seed, int cycles) {
  constexpr Event kOrder[] = {Event::kEvict, Event::kAdd,        Event::kFailDepth1,
                              Event::kAdd,   Event::kFailDepth2, Event::kAdd,
                              Event::kFailDepth3, Event::kAdd};
  proteus::Rng rng(SubSeed(seed, 10));
  std::vector<Planned> plan;
  for (int c = 0; c < cycles; ++c) {
    for (int k = 0; k < 8; ++k) {
      const int offset = static_cast<int>(rng.UniformInt(1, kSegmentSteps - 1));
      plan.push_back({c * kCycleSteps + k * kSegmentSteps + offset, kOrder[k]});
    }
  }
  return plan;
}

// Members are declared so that everything outlives what points at it.
struct World {
  proteus::RatingsDataset data;
  proteus::obs::MetricsRegistry metrics;
  proteus::obs::EventLedger ledger;
  proteus::MemDurableDevice device;
  std::unique_ptr<proteus::MatrixFactorizationApp> app;
  std::unique_ptr<TimedApp> timed;
  std::unique_ptr<AgileMLRuntime> runtime;
  std::unique_ptr<proteus::CheckpointStore> store;
  std::unique_ptr<proteus::RecoveryManager> recovery;
  std::unique_ptr<proteus::ConsistencyAuditor> auditor;
  NodeId next_id = 0;
  double setup_seconds = 0.0;
};

std::unique_ptr<World> MakeWorld(const Options& opt, const Shape& shape, bool sinks) {
  auto w = std::make_unique<World>();
  const std::int64_t t0 = NowNs();
  proteus::RatingsConfig rc;
  rc.users = shape.users;
  rc.items = shape.items;
  rc.ratings = shape.ratings;
  rc.item_zipf = 1.01;
  rc.sort_by_user = true;
  rc.seed = SubSeed(opt.seed, 1);
  w->data = proteus::GenerateRatings(rc);
  proteus::MfConfig mf;
  mf.rank = shape.rank;
  mf.learning_rate = 0.01;
  mf.regularization = 0.02;
  mf.objective_sample = 5000;
  w->app = std::make_unique<proteus::MatrixFactorizationApp>(&w->data, mf);
  w->timed = std::make_unique<TimedApp>(w->app.get(), kMaxNodeIds);
  proteus::AgileMLConfig config = ClusterAConfig(shape.partitions, SubSeed(opt.seed, 2));
  config.planner.forced_stage = proteus::Stage::kStage2;
  config.backup_sync_every = kBackupSyncEvery;
  config.detector.enabled = true;
  proteus::MLApp* app = opt.trace ? static_cast<proteus::MLApp*>(w->timed.get()) : w->app.get();
  w->runtime = std::make_unique<AgileMLRuntime>(app, config,
                                                MakeNodes(shape.reliable, shape.transient, 0));
  w->next_id = shape.reliable + shape.transient;
  w->store = std::make_unique<proteus::CheckpointStore>(&w->device,
                                                        proteus::CheckpointStoreConfig{3});
  w->recovery = std::make_unique<proteus::RecoveryManager>(
      w->runtime.get(), w->store.get(),
      proteus::RecoveryManagerConfig{/*checkpoint_every=*/1, /*scrub_every=*/0});
  w->auditor = std::make_unique<proteus::ConsistencyAuditor>(w->runtime.get());
  if (sinks) {
    w->runtime->SetObservability(nullptr, &w->metrics);
    w->runtime->SetLedger(&w->ledger);
    w->recovery->SetObservability(nullptr, &w->metrics);
    w->recovery->SetLedger(&w->ledger);
    w->auditor->SetObservability(nullptr, &w->metrics);
    w->auditor->SetLedger(&w->ledger, nullptr);
  }
  // Start-up insurance: a committed durable epoch exists before clock 0.
  w->recovery->ForceCheckpoint();
  for (int i = 0; i < kWarmupSteps; ++i) {
    w->recovery->OnClockBoundary();
    w->runtime->RunClock();
    w->auditor->ObserveClock();
  }
  w->setup_seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return w;
}

// Drives one World through the schedule and checks every recovery.
class Runner {
 public:
  Runner(World& w, const Shape& shape, const Options& opt, SpanLog& log, RunResult& r)
      : w_(w), shape_(shape), opt_(opt), log_(log), r_(r), rng_(SubSeed(opt.seed, 11)) {}

  // Runs steps until `keep_going(steps)` is false, recording per-call
  // series under `prefix`. With `spans`, the span log is on for even steps
  // only, so the traced run also measures its own overhead.
  template <typename KeepGoingFn>
  int Run(const std::vector<Planned>& plan, bool spans, const std::string& prefix,
          KeepGoingFn keep_going) {
    std::size_t next = 0;
    int step = 0;
    while (keep_going(step)) {
      const bool traced = spans && step % 2 == 0;
      log_.set_enabled(traced);
      w_.timed->set_enabled(traced);
      bool step_ok = true;
      const std::size_t violations_before = w_.auditor->violations().size();

      const std::uint64_t bytes_before = w_.device.bytes_written_total();
      TimedCall checkpoint(log_, "ps.RecoveryManager.OnClockBoundary", -1, step);
      w_.recovery->OnClockBoundary();
      const double checkpoint_ms = checkpoint.Finish();
      boundary_bytes_ += static_cast<double>(w_.device.bytes_written_total() - bytes_before);
      boundary_ms_ += checkpoint_ms;

      const bool event_due = next < plan.size() && plan[next].step <= step;
      const Event kind = event_due ? plan[next].kind : Event::kAdd;
      if (event_due && kind == Event::kFailDepth3) {
        // The epoch just committed is the one a depth-3 restore must load.
        epoch_ = w_.store->last_committed_epoch();
        epoch_digest_ = Expected(StateDigest(*w_.runtime));
      }

      TimedCall clock(log_, "agileml.RunClock", -1, step);
      const proteus::IterationReport report = w_.runtime->RunClock();
      const double clock_ms = clock.Finish();
      if (traced) {
        w_.timed->Harvest(log_, clock.span(), step);
      }
      ++runclock_calls_;
      total_bytes_ += static_cast<double>(report.total_bytes);
      w_.auditor->ObserveClock();
      const bool depth1_next = next < plan.size() && plan[next].kind == Event::kFailDepth1;
      if (depth1_next && w_.runtime->clock() == w_.runtime->last_sync_clock()) {
        sync_digest_ = Expected(StateDigest(*w_.runtime));
        sync_clock_ = w_.runtime->clock();
      }

      // A depth-1 failure waits for the clock after a sync, so it always
      // discards one clock of work.
      const bool fire = event_due && (kind != Event::kFailDepth1 ||
                                      (sync_clock_ == w_.runtime->last_sync_clock() &&
                                       w_.runtime->clock() == sync_clock_ + 1));
      double event_ms = 0.0;
      if (fire) {
        // Events are rare, so the traced run records every one of them,
        // not only those on span-on steps.
        log_.set_enabled(spans);
        event_ms = Fire(kind, step, &step_ok);
        log_.set_enabled(traced);
        if (kind != Event::kEvict && kind != Event::kAdd) {
          r_.series[prefix + "recover_ms"].push_back(event_ms);
        }
        ++next;
      }
      if (w_.auditor->violations().size() != violations_before) {
        step_ok = false;
      }
      const double ms = checkpoint_ms + clock_ms + event_ms;
      r_.series[prefix + "checkpoint_ms"].push_back(checkpoint_ms);
      r_.series[prefix + "clock_ms"].push_back(clock_ms);
      if (spans) {
        r_.series[traced ? "step_ms.traced" : "step_ms.untraced"].push_back(ms);
      }
      if (prefix.empty()) {
        r_.step_ms.push_back(ms);
        r_.work_items += static_cast<double>(w_.app->NumItems());
        r_.work_seconds += ms / 1e3;
      } else {
        r_.series[prefix + "step_ms"].push_back(ms);
      }
      ++r_.attempted;
      if (!step_ok) {
        ++r_.failed;
      }
      ++step;
    }
    log_.set_enabled(false);
    w_.timed->set_enabled(false);
    return step;
  }

  int runclock_calls() const { return runclock_calls_; }
  int recovery_mismatches() const { return recovery_mismatches_; }
  double restore_ms() const { return restore_ms_; }
  double boundary_bytes() const { return boundary_bytes_; }
  double boundary_ms() const { return boundary_ms_; }
  double total_bytes() const { return total_bytes_; }

 private:
  std::uint64_t Expected(std::uint64_t digest) const { return opt_.corrupt ? digest ^ 1 : digest; }

  std::vector<proteus::NodeInfo> Ready(proteus::Tier tier) const {
    std::vector<proteus::NodeInfo> out;
    for (const proteus::NodeInfo& n : w_.runtime->ReadyNodes()) {
      if (n.tier == tier) {
        out.push_back(n);
      }
    }
    return out;
  }

  // A random element, or kInvalidNode when there is none.
  NodeId Pick(const std::vector<NodeId>& ids) {
    if (ids.empty()) return proteus::kInvalidNode;
    return ids[static_cast<std::size_t>(rng_.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))];
  }

  // Reliable nodes that hold backups and serve no partition.
  std::vector<NodeId> PureBackupHolders() const {
    const proteus::RoleAssignment& roles = w_.runtime->roles();
    std::set<NodeId> servers;
    for (const auto& [p, node] : roles.server) servers.insert(node);
    std::set<NodeId> holders;
    for (const auto& [p, node] : roles.backup) {
      if (servers.count(node) == 0) holders.insert(node);
    }
    return {holders.begin(), holders.end()};
  }

  void Forget(const std::vector<NodeId>& victims) {
    const std::vector<proteus::NodeInfo> nodes = w_.runtime->nodes();
    for (const NodeId id : victims) {
      for (const proteus::NodeInfo& n : nodes) {
        if (n.id == id) {
          (n.reliable() ? lost_reliable_ : lost_transient_) += 1;
        }
      }
    }
  }

  double Fire(Event kind, int step, bool* step_ok) {
    const proteus::RoleAssignment& roles = w_.runtime->roles();
    std::vector<NodeId> victims;
    RecoveryDepth want = RecoveryDepth::kNone;
    std::uint64_t expected = 0;
    switch (kind) {
      case Event::kEvict: {
        std::vector<NodeId> pool;
        for (const auto& n : Ready(proteus::Tier::kTransient)) pool.push_back(n.id);
        rng_.Shuffle(pool);
        pool.resize(std::min<std::size_t>(pool.size(), static_cast<std::size_t>(shape_.evict)));
        Forget(pool);
        TimedCall call(log_, EventSpanName(kind), -1, step);
        w_.runtime->Evict(pool);
        return call.Finish();
      }
      case Event::kAdd: {
        const auto nodes = MakeNodes(lost_reliable_, lost_transient_, w_.next_id);
        w_.next_id += lost_reliable_ + lost_transient_;
        lost_reliable_ = lost_transient_ = 0;
        if (nodes.empty()) return 0.0;
        TimedCall call(log_, EventSpanName(kind), -1, step);
        w_.runtime->AddNodes(nodes);
        return call.Finish();
      }
      case Event::kFailDepth1: {
        std::set<NodeId> servers;
        for (const auto& [p, node] : roles.server) servers.insert(node);
        victims.push_back(Pick({servers.begin(), servers.end()}));
        want = RecoveryDepth::kBackupPromotion;
        expected = sync_digest_;
        break;
      }
      case Event::kFailDepth2: {
        victims.push_back(Pick(PureBackupHolders()));
        want = RecoveryDepth::kActiveRebuild;
        expected = Expected(StateDigest(*w_.runtime));
        break;
      }
      case Event::kFailDepth3: {
        const NodeId holder = Pick(PureBackupHolders());
        std::set<NodeId> dead = {holder};
        for (const auto& [p, node] : roles.backup) {
          if (node == holder) dead.insert(roles.server.at(p));
        }
        victims.assign(dead.begin(), dead.end());
        want = RecoveryDepth::kDurableRestore;
        expected = epoch_digest_;
        break;
      }
    }
    if (std::find(victims.begin(), victims.end(), proteus::kInvalidNode) != victims.end()) {
      ++recovery_mismatches_;  // The schedule found no victim of the wanted role.
      *step_ok = false;
      return 0.0;
    }
    Forget(victims);
    const int depth_attr = static_cast<int>(want);
    TimedCall call(log_, EventSpanName(kind), -1, step, depth_attr);
    const proteus::RecoveryOutcome outcome = w_.recovery->Recover(victims);
    const double ms = call.Finish();
    if (want == RecoveryDepth::kDurableRestore) {
      restore_ms_ += ms;
    }
    bool ok = outcome.depth == want && StateDigest(*w_.runtime) == expected;
    if (want == RecoveryDepth::kDurableRestore) {
      ok = ok && outcome.used_durable && outcome.durable_epoch == epoch_;
    }
    if (!ok) {
      ++recovery_mismatches_;
      *step_ok = false;
    }
    return ms;
  }

  World& w_;
  const Shape& shape_;
  const Options& opt_;
  SpanLog& log_;
  RunResult& r_;
  proteus::Rng rng_;
  int lost_reliable_ = 0;
  int lost_transient_ = 0;
  std::uint64_t sync_digest_ = 0;
  proteus::Clock sync_clock_ = -1;
  std::uint64_t epoch_ = 0;
  std::uint64_t epoch_digest_ = 0;
  int runclock_calls_ = 0;
  int recovery_mismatches_ = 0;
  double boundary_bytes_ = 0.0;  // Device bytes written inside OnClockBoundary.
  double boundary_ms_ = 0.0;
  double total_bytes_ = 0.0;  // IterationReport wire bytes.
  double restore_ms_ = 0.0;  // Depth-3 Recover time.
};

}  // namespace

RunResult RunDurableChurn(const Options& opt, SpanLog& log) {
  const Shape& shape = opt.tiny ? kTiny : kFull;
  RunResult r;
  std::unique_ptr<World> world;
  for (int rep = 0; rep < SetupReps(opt); ++rep) {
    world.reset();
    world = MakeWorld(opt, shape, /*sinks=*/true);
    r.setup_s.push_back(world->setup_seconds);
  }

  // Enough cycles for the longest loop KeepGoing allows.
  const std::vector<Planned> plan = MakeSchedule(opt.seed, 64);

  // Counters cover the timed steps only, not set-up and warm-up.
  constexpr const char* kCounters[] = {"agileml.pull.bytes",        "agileml.push.bytes",
                                       "checkpoint.bytes_written",  "checkpoint.bytes_restored",
                                       "checkpoint.chunks_written", "checkpoint.chunks_reused"};
  std::map<std::string, double> before;
  for (const char* name : kCounters) {
    before[name] = static_cast<double>(world->metrics.GetCounter(name)->value());
  }
  const double ledger_before = static_cast<double>(world->ledger.size());
  const int lost_before = world->runtime->lost_clocks_total();
  const std::array<int, 4> depths_before = world->recovery->depth_counts();

  Runner runner(*world, shape, opt, log, r);
  const std::int64_t loop_start = NowNs();
  // The traced run spends half its time with sinks attached and half
  // replaying the same schedule with them detached.
  Options phase_opt = opt;
  if (opt.trace) phase_opt.seconds = opt.seconds / 2;
  const int steps = runner.Run(plan, opt.trace, "", [&](int n) {
    return KeepGoing(phase_opt, n, loop_start) || n < kCycleSteps;
  });

  const std::array<int, 4>& depths = world->recovery->depth_counts();
  const std::size_t violations = world->auditor->violations().size();
  r.Check("audit_clean", violations == 0);
  r.Check("recovery_digests_match", runner.recovery_mismatches() == 0);
  r.Check("depths_1_2_3_fired",
          depths[1] > depths_before[1] && depths[2] > depths_before[2] &&
              depths[3] > depths_before[3]);

  r.counters["steps"] = steps;
  r.counters["runclock_calls"] = runner.runclock_calls();
  r.counters["lost_clocks"] = world->runtime->lost_clocks_total() - lost_before;
  for (int d = 1; d <= 3; ++d) {
    r.counters["recoveries.d" + std::to_string(d)] = depths[d] - depths_before[d];
  }
  r.counters["audit_violations"] = static_cast<double>(violations);
  r.counters["net.total_bytes"] = runner.total_bytes();
  r.counters["checkpoint.boundary_bytes"] = runner.boundary_bytes();
  r.counters["checkpoint.boundary_ms"] = runner.boundary_ms();
  r.counters["restore_ms"] = runner.restore_ms();
  for (const char* name : kCounters) {
    r.counters[name] = static_cast<double>(world->metrics.GetCounter(name)->value()) - before[name];
  }
  r.counters["obs.ledger_events"] = static_cast<double>(world->ledger.size()) - ledger_before;

  if (opt.trace) {
    // Replay the same steps with every obs sink detached.
    world.reset();
    world = MakeWorld(opt, shape, /*sinks=*/false);
    Runner bare(*world, shape, opt, log, r);
    const std::int64_t bare_start = NowNs();
    bare.Run(plan, false, "bare.", [&](int n) {
      return n < steps && static_cast<double>(NowNs() - bare_start) / 1e9 < kMaxLoopSeconds / 2;
    });
    r.Check("bare_replay_clean", world->auditor->violations().empty() &&
                                     bare.recovery_mismatches() == 0);
  }
  return r;
}

}  // namespace perfbench
