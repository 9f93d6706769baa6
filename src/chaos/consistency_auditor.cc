#include "src/chaos/consistency_auditor.h"

#include <map>
#include <set>
#include <sstream>

#include "src/common/logging.h"

namespace proteus {

ConsistencyAuditor::ConsistencyAuditor(const AgileMLRuntime* runtime)
    : runtime_(runtime) {
  PROTEUS_CHECK(runtime_ != nullptr);
}

void ConsistencyAuditor::SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  sinks_.Attach(tracer, metrics);
}

void ConsistencyAuditor::SetLedger(obs::EventLedger* ledger, obs::FlightRecorder* recorder) {
  sinks_.AttachLedger(ledger, recorder);
}

void ConsistencyAuditor::Add(const std::string& invariant, const std::string& detail) {
  violations_.push_back({invariant, detail, runtime_->clock()});
  sinks_.RecordLabeled(obs::Metric::kAuditViolations, invariant, 1);
  // Parent to the clock whose boundary exposed the invariant break —
  // the causal chain then leads from the violation to the offending
  // clock (and through it to the fault/rollback that set it up).
  const obs::EventId violation =
      sinks_.Emit(obs::Ev::kAuditViolation, {runtime_->total_time(), runtime_->last_clock_event()},
                  "invariant", invariant, "detail", detail, "clock", runtime_->clock());
  if (violation != obs::kNoEvent && !dumped_) {
    dumped_ = sinks_.DumpFlightRecorder("audit.violation: " + invariant + ": " + detail, violation);
  }
}

void ConsistencyAuditor::ObserveClock() {
  CheckServingOwnership();
  CheckStaleness();
  CheckDataCoverage();
  CheckBackupLag();
  CheckProgressAccounting();
  CheckMembership();
  CheckDetector();
  CheckTierGuard();
  prev_clock_ = runtime_->clock();
  prev_lost_ = runtime_->lost_clocks_total();
  prev_credited_ = runtime_->restore_clocks_credited_total();
  has_prev_ = true;
}

void ConsistencyAuditor::CheckServingOwnership() {
  const RoleAssignment& roles = runtime_->roles();
  std::set<NodeId> ready;
  std::set<NodeId> reliable;
  for (const NodeInfo& node : runtime_->ReadyNodes()) {
    ready.insert(node.id);
    if (node.reliable()) {
      reliable.insert(node.id);
    }
  }
  const int parts = runtime_->config().num_partitions;
  if (roles.server.size() != static_cast<std::size_t>(parts)) {
    std::ostringstream out;
    out << "server map covers " << roles.server.size() << " of " << parts
        << " partitions";
    Add("serving-ownership", out.str());
  }
  for (const auto& [part, server] : roles.server) {
    if (ready.count(server) == 0) {
      std::ostringstream out;
      out << "partition " << part << " served by non-ready node " << server;
      Add("serving-ownership", out.str());
    }
    if (!roles.UsesBackups() && reliable.count(server) == 0) {
      std::ostringstream out;
      out << "stage-1 partition " << part << " served by transient node " << server;
      Add("serving-ownership", out.str());
    }
  }
  if (roles.UsesBackups()) {
    if (roles.backup.size() != static_cast<std::size_t>(parts)) {
      std::ostringstream out;
      out << "backup map covers " << roles.backup.size() << " of " << parts
          << " partitions";
      Add("serving-ownership", out.str());
    }
    for (const auto& [part, backup] : roles.backup) {
      if (reliable.count(backup) == 0) {
        std::ostringstream out;
        out << "partition " << part << " backed by non-reliable or non-ready node "
            << backup;
        Add("serving-ownership", out.str());
      }
    }
  }
}

void ConsistencyAuditor::CheckStaleness() {
  const ClockTable& table = runtime_->clock_table();
  const Clock min_clock = table.MinClock();
  for (const NodeId worker : runtime_->roles().worker_nodes) {
    if (!table.HasWorkerNode(worker)) {
      std::ostringstream out;
      out << "worker " << worker << " missing from the clock table";
      Add("ssp-staleness", out.str());
      continue;
    }
    const Clock c = table.ClockOf(worker);
    if (c - min_clock > table.staleness()) {
      std::ostringstream out;
      out << "worker " << worker << " at clock " << c << " exceeds staleness bound "
          << table.staleness() << " over min " << min_clock;
      Add("ssp-staleness", out.str());
    }
    if (c > runtime_->clock()) {
      std::ostringstream out;
      out << "worker " << worker << " at clock " << c << " ahead of global clock "
          << runtime_->clock();
      Add("ssp-staleness", out.str());
    }
  }
}

void ConsistencyAuditor::CheckDataCoverage() {
  const DataAssignment& data = runtime_->data();
  const std::set<NodeId>& workers = runtime_->roles().worker_nodes;
  if (!data.OwnershipIsComplete()) {
    Add("data-coverage", "some input block has no live owner");
  }
  for (int block = 0; block < data.num_blocks(); ++block) {
    const NodeId owner = data.OwnerOf(block);
    if (owner != kInvalidNode && workers.count(owner) == 0) {
      std::ostringstream out;
      out << "block " << block << " owned by non-worker node " << owner;
      Add("data-coverage", out.str());
    }
  }
  std::int64_t total = 0;
  for (const NodeId w : workers) {
    total += data.ItemCountOf(w);
  }
  if (total != data.num_items()) {
    std::ostringstream out;
    out << "workers cover " << total << " of " << data.num_items() << " items";
    Add("data-coverage", out.str());
  }
}

void ConsistencyAuditor::CheckBackupLag() {
  if (!runtime_->roles().UsesBackups()) {
    return;
  }
  // While zero-warning revocations await detector confirmation, backup
  // syncs are suppressed (they would capture clocks missing the revoked
  // nodes' updates); the bound widens by the confirm window.
  Clock allowed = runtime_->config().backup_sync_every;
  if (runtime_->RevokedCount() > 0) {
    allowed += runtime_->config().detector.confirm_after;
  }
  const Clock lag = runtime_->clock() - runtime_->last_sync_clock();
  if (lag < 0 || lag > allowed) {
    std::ostringstream out;
    out << "backup lag " << lag << " outside [0, " << allowed << "]";
    Add("backup-lag", out.str());
  }
}

void ConsistencyAuditor::CheckProgressAccounting() {
  const Clock completed = runtime_->clock() + runtime_->lost_clocks_total();
  if (!has_prev_) {
    return;
  }
  // The counter may only decrease by the clocks a forward restore (a
  // durable epoch newer than the last backup sync) credited back; any
  // larger drop is a reset or double-credit.
  const int credited =
      runtime_->restore_clocks_credited_total() - prev_credited_;
  if (runtime_->lost_clocks_total() < prev_lost_ - std::max(0, credited)) {
    std::ostringstream out;
    out << "lost-clock counter went backwards: " << prev_lost_ << " -> "
        << runtime_->lost_clocks_total() << " (forward-restore credit "
        << credited << ")";
    Add("progress-accounting", out.str());
  }
  // Rollbacks move clocks from `clock` to `lost`; one RunClock adds one.
  const Clock prev_completed = prev_clock_ + prev_lost_;
  if (completed != prev_completed + 1) {
    std::ostringstream out;
    out << "completed-clock count moved " << prev_completed << " -> " << completed
        << " across one executed clock (expected +1): silent loss or double count";
    Add("progress-accounting", out.str());
  }
}

void ConsistencyAuditor::CheckMembership() {
  const std::size_t ready = runtime_->ReadyNodes().size();
  const std::size_t preparing = static_cast<std::size_t>(runtime_->PreparingCount());
  const std::size_t all = runtime_->nodes().size();
  if (ready + preparing != all) {
    std::ostringstream out;
    out << ready << " ready + " << preparing << " preparing != " << all << " nodes";
    Add("membership", out.str());
  }
  if (runtime_->ReadyTierCounts().reliable < 1) {
    Add("membership", "reliable tier is empty");
  }
}

void ConsistencyAuditor::CheckDetector() {
  const FailureDetector& detector = runtime_->failure_detector();
  if (!detector.config().enabled) {
    return;
  }
  // The lease table must track exactly the ready set: a ready node the
  // detector has forgotten can die without anyone noticing, and a
  // tracked ghost would eventually be "confirmed dead" and Fail()ed.
  std::set<NodeId> ready;
  for (const NodeInfo& node : runtime_->ReadyNodes()) {
    ready.insert(node.id);
  }
  for (const NodeId node : detector.Tracked()) {
    if (ready.erase(node) == 0) {
      std::ostringstream out;
      out << "detector tracks non-ready node " << node;
      Add("detector-bound", out.str());
    }
  }
  for (const NodeId node : ready) {
    std::ostringstream out;
    out << "ready node " << node << " untracked by the detector";
    Add("detector-bound", out.str());
  }
  // Suspected nodes must resolve (recover or be confirmed) within the
  // configured bound: the runtime polls every clock, so any survivor's
  // missed count stays strictly below confirm_after.
  for (const NodeId node : detector.Suspected()) {
    const std::int64_t missed = runtime_->clock() - detector.LastHeartbeat(node);
    if (missed >= detector.config().confirm_after) {
      std::ostringstream out;
      out << "node " << node << " suspected for " << missed
          << " clocks, past the confirm bound " << detector.config().confirm_after;
      Add("detector-bound", out.str());
    }
  }
}

void ConsistencyAuditor::CheckTierGuard() {
  const TierGuardReport report = runtime_->AuditTierGuard();
  if (!report.ok) {
    Add("tier-guard", report.detail);
  }
}

void ConsistencyAuditor::ObserveChannel(const Channel& channel, const std::string& name) {
  const std::uint64_t accounted = channel.messages_delivered() +
                                  channel.messages_dropped() +
                                  static_cast<std::uint64_t>(channel.pending()) -
                                  channel.messages_duplicated();
  if (channel.messages_sent() != accounted) {
    std::ostringstream out;
    out << "channel " << name << ": sent " << channel.messages_sent()
        << " != delivered " << channel.messages_delivered() << " + dropped "
        << channel.messages_dropped() << " + pending " << channel.pending()
        << " - duplicated " << channel.messages_duplicated();
    Add("channel-conservation", out.str());
  }
}

std::string ConsistencyAuditor::Report(std::size_t max_items) const {
  if (violations_.empty()) {
    return "no violations";
  }
  std::ostringstream out;
  out << violations_.size() << " violation(s):";
  for (std::size_t i = 0; i < violations_.size() && i < max_items; ++i) {
    const AuditViolation& v = violations_[i];
    out << "\n  [clock " << v.clock << "] " << v.invariant << ": " << v.detail;
  }
  if (violations_.size() > max_items) {
    out << "\n  ... and " << (violations_.size() - max_items) << " more";
  }
  return out.str();
}

}  // namespace proteus
