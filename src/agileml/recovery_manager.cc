#include "src/agileml/recovery_manager.h"

#include <set>
#include <utility>

#include "src/common/logging.h"

namespace proteus {

const char* RecoveryDepthName(RecoveryDepth depth) {
  switch (depth) {
    case RecoveryDepth::kNone:
      return "none";
    case RecoveryDepth::kBackupPromotion:
      return "backup-promotion";
    case RecoveryDepth::kActiveRebuild:
      return "active-rebuild";
    case RecoveryDepth::kDurableRestore:
      return "durable-restore";
  }
  return "?";
}

RecoveryManager::RecoveryManager(AgileMLRuntime* runtime, CheckpointStore* store,
                                 RecoveryManagerConfig config)
    : runtime_(runtime), store_(store), config_(config) {
  PROTEUS_CHECK(runtime_ != nullptr);
}

void RecoveryManager::SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  if (store_ != nullptr) {
    store_->SetObservability(metrics);
  }
  sinks_.Attach(tracer, metrics);
  std::vector<obs::Labels> depths;
  for (int d = 0; d < 4; ++d) {
    depths.push_back({{"depth", RecoveryDepthName(static_cast<RecoveryDepth>(d))}});
  }
  sinks_.BindSeries({obs::Metric::kRecoveryEvents}, depths);
}

void RecoveryManager::SetLedger(obs::EventLedger* ledger) { sinks_.AttachLedger(ledger); }

void RecoveryManager::OnClockBoundary() {
  ++boundaries_;
  if (config_.checkpoint_every > 0 && boundaries_ % config_.checkpoint_every == 0) {
    ForceCheckpoint();
  }
  if (store_ != nullptr && config_.scrub_every > 0 && boundaries_ % config_.scrub_every == 0) {
    const ScrubReport report = store_->Scrub();
    ++scrubs_run_;
    scrub_corruptions_found_ += report.corrupt_objects.size();
    sinks_.Emit(obs::Ev::kRecoveryScrub, runtime_->total_time(),
                "corrupt_found", report.corrupt_objects.size());
  }
}

void RecoveryManager::ForceCheckpoint() {
  const obs::EventId region =
      sinks_.Open(obs::Ev::kRecoveryCheckpoint, runtime_->total_time(), "clock", runtime_->clock());
  runtime_->CheckpointReliable();
  last_checkpoint_clock_ = runtime_->clock();
  ++checkpoints_written_;
  std::int64_t durable_committed = 0;
  if (store_ != nullptr) {
    // Mirror the snapshot the runtime just took, blob for blob: the
    // model is serialized once per checkpoint, and the shard versions
    // captured with it key incremental reuse.
    const AgileMLRuntime::Checkpoint& snapshot = runtime_->checkpoint();
    const CheckpointWriteResult result =
        store_->WriteBlobs(snapshot.shard_blobs, snapshot.shard_versions, snapshot.clock);
    if (result.committed) {
      ++durable_commits_;
      durable_committed = 1;
    }
  }
  sinks_.Close(region, 0.0, "durable_committed", durable_committed);
}

RecoveryDepth RecoveryManager::Classify(const std::vector<NodeId>& failed) const {
  const RoleAssignment& roles = runtime_->roles();
  std::set<NodeId> dead;
  for (const NodeId id : failed) {
    // Preparing nodes hold no solution state and never appear in roles.
    if (runtime_->IsReadyNode(id)) {
      dead.insert(id);
    }
  }
  if (dead.empty()) {
    return RecoveryDepth::kNone;
  }
  bool server_lost = false;
  bool backup_lost = false;
  bool pair_lost = false;
  for (const auto& [partition, server] : roles.server) {
    const bool server_dead = dead.count(server) > 0;
    bool backup_dead = false;
    if (roles.UsesBackups()) {
      const auto it = roles.backup.find(partition);
      backup_dead = it != roles.backup.end() && dead.count(it->second) > 0;
    }
    server_lost |= server_dead;
    backup_lost |= backup_dead;
    // In stage 1 there is no backup tier at all, so a dead server
    // already means "every live copy of this partition is gone".
    if (server_dead && (!roles.UsesBackups() || backup_dead)) {
      pair_lost = true;
    }
  }
  // Losing the in-memory checkpoint holders together with the active
  // copy is also a both-tiers event even if the backup map looks
  // intact on paper (the harness drops the checkpoint explicitly).
  if (pair_lost) {
    return RecoveryDepth::kDurableRestore;
  }
  if (server_lost) {
    return RecoveryDepth::kBackupPromotion;
  }
  if (backup_lost) {
    return RecoveryDepth::kActiveRebuild;
  }
  return RecoveryDepth::kNone;
}

RecoveryOutcome RecoveryManager::Recover(const std::vector<NodeId>& failed) {
  RecoveryOutcome outcome;
  outcome.depth = Classify(failed);
  const SimDuration at = runtime_->total_time();
  // Everything the ladder does — the runtime's rollback, checkpoint
  // restore, eviction records — lands inside this causal region.
  const obs::EventId step_event = sinks_.Open(obs::Ev::kRecoveryStep, at, "failed", failed.size());

  if (outcome.depth == RecoveryDepth::kDurableRestore) {
    // Load *before* Fail(): the failure path refuses to proceed without
    // a checkpoint once both tiers are gone. Corrupt or torn epochs are
    // skipped by the store's validation — never loaded.
    if (store_ != nullptr) {
      if (auto loaded = store_->ReadNewestValid()) {
        outcome.used_durable = true;
        outcome.durable_epoch = loaded->epoch;
        outcome.corrupt_epochs_skipped = loaded->corrupt_epochs_skipped;
        outcome.torn_epochs_skipped = loaded->torn_epochs_skipped;
        runtime_->InstallCheckpoint(std::move(loaded->shard_blobs), loaded->clock);
      }
    }
    // If no durable epoch validates, fall back to the in-memory
    // checkpoint — Fail() CHECKs that one exists.
    outcome.lost_clocks = runtime_->FailWithDurableRestore(failed);
  } else {
    outcome.lost_clocks = runtime_->Fail(failed);
  }
  outcome.restored_clock = runtime_->clock();

  const auto depth_index = static_cast<std::size_t>(outcome.depth);
  ++depth_counts_[depth_index];
  sinks_.Record(obs::Metric::kRecoveryEvents, 1, depth_index);
  sinks_.Record(obs::Metric::kRecoveryLastDepth, static_cast<double>(outcome.depth));
  if (outcome.used_durable) {
    sinks_.Record(obs::Metric::kRecoveryDurableRestores, 1);
    sinks_.Record(obs::Metric::kRecoveryCorruptEpochsSkipped, outcome.corrupt_epochs_skipped);
  }
  sinks_.Emit(obs::Ev::kRecoveryLadder, at, "depth", RecoveryDepthName(outcome.depth),
              "lost_clocks", outcome.lost_clocks, "to_clock", outcome.restored_clock,
              "durable_epoch", outcome.durable_epoch,
              "corrupt_epochs_skipped", outcome.corrupt_epochs_skipped);

  if (outcome.depth == RecoveryDepth::kDurableRestore) {
    // Re-arm immediately: until the next cadence tick the freshly
    // restored state is the only copy, and a second correlated loss
    // before then must still find a checkpoint.
    ForceCheckpoint();
  }
  sinks_.Close(step_event, runtime_->total_time() - at, "depth", RecoveryDepthName(outcome.depth),
               "lost_clocks", outcome.lost_clocks, "restored_clock", outcome.restored_clock,
               "durable_epoch", outcome.durable_epoch, "used_durable", outcome.used_durable,
               "corrupt_epochs_skipped", outcome.corrupt_epochs_skipped);
  return outcome;
}

}  // namespace proteus
