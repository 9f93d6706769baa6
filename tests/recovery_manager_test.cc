// RecoveryManager tests: escalation-ladder classification, checkpoint
// cadence, durable-restore recovery, the lost-work <= checkpoint
// interval property, and the checkpoint metrics surfaced by the runtime
// and the store.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/agileml/recovery_manager.h"
#include "src/agileml/runtime.h"
#include "src/apps/datasets.h"
#include "src/apps/mf.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/ps/checkpoint_store.h"

namespace proteus {
namespace {

class RecoveryManagerTest : public ::testing::Test {
 protected:
  RecoveryManagerTest() {
    RatingsConfig rc;
    rc.users = 200;
    rc.items = 100;
    rc.ratings = 5000;
    data_ = GenerateRatings(rc);
    MfConfig mc;
    mc.rank = 4;
    app_ = std::make_unique<MatrixFactorizationApp>(&data_, mc);
  }

  AgileMLConfig Config(std::uint64_t seed = 1) const {
    AgileMLConfig config;
    config.num_partitions = 8;
    config.data_blocks = 64;
    config.parallel_execution = false;
    config.backup_sync_every = 2;
    config.seed = seed;
    return config;
  }

  static std::vector<NodeInfo> Nodes(int reliable, int transient) {
    std::vector<NodeInfo> nodes;
    NodeId id = 0;
    for (int i = 0; i < reliable; ++i) {
      nodes.push_back({id++, Tier::kReliable, 8, kInvalidAllocation});
    }
    for (int i = 0; i < transient; ++i) {
      nodes.push_back({id++, Tier::kTransient, 8, kInvalidAllocation});
    }
    return nodes;
  }

  RatingsDataset data_;
  std::unique_ptr<MatrixFactorizationApp> app_;
};

TEST_F(RecoveryManagerTest, ClassifiesEveryRungOfTheLadder) {
  AgileMLRuntime runtime(app_.get(), Config(), Nodes(2, 8));
  MemDurableDevice device;
  CheckpointStore store(&device);
  RecoveryManager manager(&runtime, &store);
  runtime.RunClock();

  const RoleAssignment& roles = runtime.roles();
  ASSERT_TRUE(roles.UsesBackups());
  std::set<NodeId> servers;
  for (const auto& [partition, owner] : roles.server) {
    servers.insert(owner);
  }
  ASSERT_FALSE(servers.empty());
  const NodeId one_server = *servers.begin();
  const NodeId its_backup = roles.backup.at(
      roles.PartitionsServedBy(one_server).front());

  EXPECT_EQ(manager.Classify({}), RecoveryDepth::kNone);
  EXPECT_EQ(manager.Classify({one_server}), RecoveryDepth::kBackupPromotion);
  EXPECT_EQ(manager.Classify({its_backup}), RecoveryDepth::kActiveRebuild);
  EXPECT_EQ(manager.Classify({one_server, its_backup}),
            RecoveryDepth::kDurableRestore);
  // A node that holds no state classifies as no recovery needed.
  EXPECT_EQ(manager.Classify({9999}), RecoveryDepth::kNone);
}

TEST_F(RecoveryManagerTest, CadenceWritesDurableEpochs) {
  AgileMLRuntime runtime(app_.get(), Config(), Nodes(2, 4));
  MemDurableDevice device;
  CheckpointStore store(&device);
  RecoveryManager manager(&runtime, &store, RecoveryManagerConfig{3, 6});
  manager.ForceCheckpoint();
  for (int i = 0; i < 12; ++i) {
    runtime.RunClock();
    manager.OnClockBoundary();
  }
  // Start-up + every 3rd of 12 boundaries.
  EXPECT_EQ(manager.checkpoints_written(), 1u + 4u);
  EXPECT_EQ(manager.durable_commits(), 1u + 4u);
  EXPECT_EQ(store.epochs_committed(), 5u);
  EXPECT_EQ(manager.scrubs_run(), 2u);
  EXPECT_EQ(manager.scrub_corruptions_found(), 0u);
  const auto loaded = store.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->clock, 12);
}

// The durable epoch is the runtime's in-memory checkpoint written out
// blob for blob, keyed by the shard versions captured with it: a second
// checkpoint with no training in between rewrites no chunk.
TEST_F(RecoveryManagerTest, DurableEpochMirrorsReliableCheckpoint) {
  AgileMLConfig config = Config();
  config.model.shards = 4;
  AgileMLRuntime runtime(app_.get(), config, Nodes(2, 4));
  MemDurableDevice device;
  CheckpointStore store(&device);
  RecoveryManager manager(&runtime, &store, RecoveryManagerConfig{1, 0});
  runtime.RunClock();
  manager.OnClockBoundary();

  const AgileMLRuntime::Checkpoint& snapshot = runtime.checkpoint();
  ASSERT_EQ(snapshot.shard_versions.size(), 4u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(snapshot.shard_versions[static_cast<std::size_t>(s)],
              runtime.model().ShardVersion(s));
    EXPECT_EQ(snapshot.shard_blobs[static_cast<std::size_t>(s)],
              runtime.model().SerializeShardCheckpoint(s));
  }
  const auto loaded = store.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->clock, snapshot.clock);
  EXPECT_EQ(loaded->shard_blobs, snapshot.shard_blobs);

  const std::uint64_t epochs_before = store.epochs_committed();
  manager.ForceCheckpoint();
  EXPECT_EQ(store.epochs_committed(), epochs_before + 1);
  std::size_t chunk_objects = 0;
  for (const std::string& name : device.List()) {
    chunk_objects += name.rfind("ck/obj/", 0) == 0;
  }
  EXPECT_EQ(chunk_objects, 4u);  // Every shard reused by name.
}

TEST_F(RecoveryManagerTest, DurableRestoreRecoversBothTierLoss) {
  AgileMLRuntime runtime(app_.get(), Config(), Nodes(2, 6));
  MemDurableDevice device;
  CheckpointStore store(&device);
  RecoveryManager manager(&runtime, &store, RecoveryManagerConfig{2, 0});
  manager.ForceCheckpoint();
  for (int i = 0; i < 6; ++i) {
    runtime.RunClock();
    manager.OnClockBoundary();
  }

  // Kill every ActivePS host plus a backup-holding reliable node; drop
  // the in-memory checkpoint (it lived on the dead reliable machine).
  const RoleAssignment& roles = runtime.roles();
  ASSERT_TRUE(roles.UsesBackups());
  std::set<NodeId> victims;
  for (const auto& [partition, owner] : roles.server) {
    victims.insert(owner);
  }
  victims.insert(roles.backup.begin()->second);
  runtime.DropCheckpoint();
  const RecoveryOutcome outcome =
      manager.Recover({victims.begin(), victims.end()});

  EXPECT_EQ(outcome.depth, RecoveryDepth::kDurableRestore);
  EXPECT_TRUE(outcome.used_durable);
  EXPECT_EQ(outcome.corrupt_epochs_skipped, 0);
  EXPECT_LE(outcome.lost_clocks, 2);  // Bounded by the cadence.
  EXPECT_EQ(manager.depth_counts()[3], 1);
  // Recovery re-armed the insurance immediately.
  EXPECT_TRUE(runtime.HasCheckpoint());

  // The job keeps training after the restore.
  const Clock before = runtime.clock();
  runtime.RunClock();
  EXPECT_EQ(runtime.clock(), before + 1);
}

// PR 6 satellite (b): across seeded fault points, the work lost to a
// both-tier failure never exceeds the checkpoint interval.
TEST_F(RecoveryManagerTest, LostWorkNeverExceedsCheckpointInterval) {
  constexpr int kInterval = 3;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    AgileMLRuntime runtime(app_.get(), Config(seed), Nodes(2, 6));
    MemDurableDevice device;
    CheckpointStore store(&device);
    RecoveryManager manager(&runtime, &store,
                            RecoveryManagerConfig{kInterval, 0});
    manager.ForceCheckpoint();
    Rng rng(seed * 77);
    const Clock crash_at = rng.UniformInt(2, 14);
    for (Clock boundary = 0; boundary < 16; ++boundary) {
      if (boundary == crash_at) {
        const RoleAssignment& roles = runtime.roles();
        if (roles.UsesBackups()) {
          std::set<NodeId> victims;
          for (const auto& [partition, owner] : roles.server) {
            victims.insert(owner);
          }
          victims.insert(roles.backup.begin()->second);
          runtime.DropCheckpoint();
          const RecoveryOutcome outcome =
              manager.Recover({victims.begin(), victims.end()});
          EXPECT_EQ(outcome.depth, RecoveryDepth::kDurableRestore)
              << "seed " << seed;
          EXPECT_LE(outcome.lost_clocks, kInterval)
              << "seed " << seed << ": lost more than the checkpoint interval";
          // The operator replaces the dead reliable machine.
          runtime.AddNodes({{static_cast<NodeId>(100 + seed), Tier::kReliable, 8,
                             kInvalidAllocation}});
        }
      }
      runtime.RunClock();
      manager.OnClockBoundary();
    }
  }
}

TEST_F(RecoveryManagerTest, CheckpointAndRecoveryMetricsSurface) {
  AgileMLRuntime runtime(app_.get(), Config(), Nodes(2, 6));
  MemDurableDevice device;
  CheckpointStore store(&device);
  RecoveryManager manager(&runtime, &store, RecoveryManagerConfig{2, 0});
  obs::MetricsRegistry metrics;
  runtime.SetObservability(nullptr, &metrics);
  manager.SetObservability(nullptr, &metrics);
  manager.ForceCheckpoint();
  for (int i = 0; i < 6; ++i) {
    runtime.RunClock();
    manager.OnClockBoundary();
  }
  const RoleAssignment& roles = runtime.roles();
  ASSERT_TRUE(roles.UsesBackups());
  std::set<NodeId> victims;
  for (const auto& [partition, owner] : roles.server) {
    victims.insert(owner);
  }
  victims.insert(roles.backup.begin()->second);
  runtime.DropCheckpoint();
  manager.Recover({victims.begin(), victims.end()});

  // Runtime-side totals and their metric mirrors.
  EXPECT_GT(runtime.checkpoint_bytes_written_total(), 0u);
  EXPECT_GT(runtime.checkpoint_bytes_restored_total(), 0u);
  EXPECT_EQ(metrics.GetCounter("agileml.checkpoint.bytes_written")->value(),
            runtime.checkpoint_bytes_written_total());
  EXPECT_EQ(metrics.GetCounter("agileml.checkpoint.bytes_restored")->value(),
            runtime.checkpoint_bytes_restored_total());
  EXPECT_EQ(metrics.GetCounter("agileml.checkpoint.restore_clocks_lost")->value(),
            static_cast<std::uint64_t>(runtime.restore_clocks_lost_total()));
  // Store-side traffic.
  EXPECT_GT(metrics.GetCounter("checkpoint.bytes_written")->value(), 0u);
  EXPECT_GT(metrics.GetCounter("checkpoint.bytes_restored")->value(), 0u);
  // Ladder accounting.
  EXPECT_EQ(metrics.GetCounter("recovery.events", {{"depth", "durable-restore"}})
                ->value(),
            1u);
  EXPECT_EQ(metrics.GetCounter("recovery.durable_restores")->value(), 1u);
  EXPECT_EQ(metrics.GetGauge("recovery.last_depth")->value(), 3.0);
}

}  // namespace
}  // namespace proteus
