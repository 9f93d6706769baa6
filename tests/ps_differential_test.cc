// Differential battery for the parameter store. Store level: a seeded op
// stream runs in lockstep on ModelStores of every shard count and on a
// map-based ReferenceStore (tests/ps_reference_store.h), the oracle; every
// store must match it in canonical checkpoint bytes, materialized rows
// and coalesced dirty-row payloads. Runtime level: a full elasticity
// scenario at shards=1 and shards=N must keep bit-identical model state,
// identical clock tables and identical dirty payloads. Wire-byte
// *accounting* deliberately differs between shard counts (per-row framing
// vs coalesced batches), so the runtime comparisons are over state, never
// over durations or fabric byte totals.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "src/agileml/runtime.h"
#include "src/apps/datasets.h"
#include "src/apps/mf.h"
#include "src/ps/model.h"
#include "tests/ps_reference_store.h"

namespace proteus {
namespace {

constexpr int kShardCounts[] = {1, 2, 4, 8};

// --- Store-level differential: a seeded op stream applied in lockstep ---

class StoreFleet {
 public:
  StoreFleet(std::vector<TableSpec> tables, int num_partitions, std::uint64_t seed)
      : oracle_(tables, num_partitions, seed) {
    for (const int shards : kShardCounts) {
      ModelOptions options;
      options.shards = shards;
      stores_.push_back(std::make_unique<ModelStore>(tables, num_partitions, seed, options));
    }
  }

  ModelStore& store(std::size_t i) { return *stores_[i]; }
  std::size_t size() const { return stores_.size(); }

  // Applies `fn` to the oracle first, then to every ModelStore.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    fn(oracle_);
    for (auto& s : stores_) {
      fn(*s);
    }
  }

  // Every store must serialize to the oracle's exact bytes, report the
  // same materialized-row count, and encode the same per-partition dirty
  // payloads.
  void ExpectIdentical(const char* where) {
    const std::vector<std::uint8_t> oracle = oracle_.SerializeCheckpoint();
    const std::size_t oracle_rows = oracle_.MaterializedRows();
    for (std::size_t i = 0; i < stores_.size(); ++i) {
      SCOPED_TRACE(testing::Message() << where << ": shards=" << stores_[i]->shards());
      EXPECT_EQ(stores_[i]->SerializeCheckpoint(), oracle);
      EXPECT_EQ(stores_[i]->MaterializedRows(), oracle_rows);
      for (PartitionId p = 0; p < oracle_.num_partitions(); ++p) {
        EXPECT_EQ(stores_[i]->EncodeDirtyRows(p), oracle_.EncodeDirtyRows(p))
            << "partition " << p;
      }
    }
  }

 private:
  ReferenceStore oracle_;
  std::vector<std::unique_ptr<ModelStore>> stores_;
};

std::vector<TableSpec> TwoTables() {
  return {{0, 500, 8, 0.5F, 0.25F}, {1, 64, 3, -1.0F, 0.0F}};
}

TEST(PsDifferentialTest, OpStreamBitIdenticalAcrossShardCounts) {
  StoreFleet fleet(TwoTables(), /*num_partitions=*/12, /*seed=*/42);
  std::mt19937_64 rng(7);
  auto rand_row = [&rng](std::int64_t rows) {
    return static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(rows));
  };
  auto rand_delta = [&rng](int cols) {
    std::vector<float> d(static_cast<std::size_t>(cols));
    for (auto& v : d) {
      v = static_cast<float>(static_cast<std::int64_t>(rng() % 2001) - 1000) / 256.0F;
    }
    return d;
  };

  const std::vector<TableSpec> tables = TwoTables();
  for (int round = 0; round < 6; ++round) {
    // A burst of single-row applies (the worker hot path) ...
    for (int i = 0; i < 50; ++i) {
      const int t = static_cast<int>(rng() % 2);
      const std::int64_t row = rand_row(tables[static_cast<std::size_t>(t)].rows);
      const std::vector<float> d = rand_delta(tables[static_cast<std::size_t>(t)].cols);
      fleet.ForEach([&](auto& s) { s.ApplyDelta(t, row, d); });
    }
    // ... a batched apply (including duplicate rows, which must sum in
    // input order) ...
    std::vector<std::vector<float>> payloads;
    std::vector<RowDelta> batch;
    for (int i = 0; i < 20; ++i) {
      const int t = static_cast<int>(rng() % 2);
      const std::int64_t row = rand_row(tables[static_cast<std::size_t>(t)].rows / 4);
      payloads.push_back(rand_delta(tables[static_cast<std::size_t>(t)].cols));
      batch.push_back({t, row, std::span<const float>(payloads.back())});
    }
    fleet.ForEach([&](auto& s) { s.ApplyUpdates(batch); });
    // ... some overwrites and reads (reads materialize rows).
    for (int i = 0; i < 10; ++i) {
      const int t = static_cast<int>(rng() % 2);
      const std::int64_t row = rand_row(tables[static_cast<std::size_t>(t)].rows);
      if (i % 2 == 0) {
        const std::vector<float> v = rand_delta(tables[static_cast<std::size_t>(t)].cols);
        fleet.ForEach([&](auto& s) { s.SetRow(t, row, v); });
      } else {
        fleet.ForEach([&](auto& s) {
          std::vector<float> out;
          s.ReadRow(t, row, out);
        });
      }
    }
    fleet.ExpectIdentical("after mutation round");

    switch (round) {
      case 0:
        fleet.ForEach([](auto& s) { s.EnableBackups(); });
        break;
      case 1:  // Partial sync, then more dirt, then rollback.
        fleet.ForEach([](auto& s) {
          for (PartitionId p = 0; p < s.num_partitions(); p += 2) {
            s.SyncPartitionToBackup(p, /*at_clock=*/10 + p);
          }
        });
        break;
      case 2:
        fleet.ForEach([](auto& s) { s.RollbackAllToBackup(); });
        fleet.ExpectIdentical("after rollback");
        break;
      case 3: {  // Full checkpoint -> restore round trip.
        std::vector<std::uint8_t> blob;
        fleet.ForEach([&blob](auto& s) {
          if (blob.empty()) {
            blob = s.SerializeCheckpoint();
          }
          s.RestoreCheckpoint(blob);
          EXPECT_FALSE(s.backups_enabled());  // Restore invalidates backups.
          s.EnableBackups();
        });
        fleet.ExpectIdentical("after restore");
        break;
      }
      case 4:  // Sync everything so round 5 rolls back to a rich backup.
        fleet.ForEach([](auto& s) {
          for (PartitionId p = 0; p < s.num_partitions(); ++p) {
            s.SyncPartitionToBackup(p, /*at_clock=*/50);
          }
        });
        break;
      default:
        break;
    }
  }
  fleet.ForEach([](auto& s) { s.RollbackAllToBackup(); });
  fleet.ExpectIdentical("final rollback");
}

TEST(PsDifferentialTest, ShardCheckpointsReassembleTheFullModel) {
  ModelOptions options;
  options.shards = 4;
  ModelStore store(TwoTables(), /*num_partitions=*/10, /*seed=*/3, options);
  std::vector<float> d8(8, 0.125F);
  std::vector<float> d3(3, -2.0F);
  for (std::int64_t r = 0; r < 200; ++r) {
    store.ApplyDelta(0, r, d8);
  }
  for (std::int64_t r = 0; r < 64; ++r) {
    store.ApplyDelta(1, r, d3);
  }
  const std::vector<std::uint8_t> full = store.SerializeCheckpoint();

  // Restore shard-by-shard into a fresh store (different shard count to
  // prove the blob format is layout-independent at the full level, and
  // same count for the shard level).
  ModelStore same(TwoTables(), 10, /*seed=*/3, options);
  std::size_t shard_bytes = 0;
  for (int s = 0; s < store.shards(); ++s) {
    const std::vector<std::uint8_t> blob = store.SerializeShardCheckpoint(s);
    shard_bytes += blob.size();
    same.RestoreShardCheckpoint(s, blob);
  }
  EXPECT_EQ(shard_bytes, full.size());  // Shard blobs partition the model.
  EXPECT_EQ(same.SerializeCheckpoint(), full);

  ModelStore one_shard(TwoTables(), 10, /*seed=*/3, ModelOptions{});
  one_shard.RestoreCheckpoint(full);
  EXPECT_EQ(one_shard.SerializeCheckpoint(), full);
  ReferenceStore oracle(TwoTables(), 10, /*seed=*/3);
  oracle.RestoreCheckpoint(full);
  EXPECT_EQ(oracle.SerializeCheckpoint(), full);
}

TEST(PsDifferentialTest, ShardMetadataTracksSyncsAndMutations) {
  ModelOptions options;
  options.shards = 4;
  ModelStore store({{0, 100, 4, 0.0F, 0.0F}}, /*num_partitions=*/8, /*seed=*/1, options);
  const std::uint64_t v0 = store.ShardVersion(0);
  std::vector<float> d(4, 1.0F);
  store.ApplyDelta(0, 0, d);  // Row 0 -> partition 0 -> shard 0.
  EXPECT_GT(store.ShardVersion(0), v0);
  store.EnableBackups();
  store.SyncPartitionToBackup(0, /*at_clock=*/17);
  EXPECT_EQ(store.ShardStateOf(0).last_sync_clock, 17);
  EXPECT_EQ(store.ShardStateOf(1).last_sync_clock, -1);  // Untouched shard.
  EXPECT_GE(store.ShardImbalance(), 1.0);
}

// --- Runtime-level differential: full elasticity scenario in lockstep ---

class PsRuntimeDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  PsRuntimeDifferentialTest() {
    RatingsConfig rc;
    rc.users = 300;
    rc.items = 150;
    rc.ratings = 9000;
    data_ = GenerateRatings(rc);
    MfConfig mc;
    mc.rank = 8;
    oracle_app_ = std::make_unique<MatrixFactorizationApp>(&data_, mc);
    sharded_app_ = std::make_unique<MatrixFactorizationApp>(&data_, mc);
  }

  AgileMLConfig Config(int shards) const {
    AgileMLConfig config;
    config.num_partitions = 16;
    config.data_blocks = 64;
    config.parallel_execution = false;  // Lockstep determinism.
    config.backup_sync_every = 3;       // Leave unsynced clocks for Fail().
    // Engines account wire bytes differently (per-row vs coalesced), so
    // virtual durations diverge. Infinite storage bandwidth makes preload
    // complete within one clock regardless of duration, keeping
    // membership events on identical clocks in both runs.
    config.storage_bandwidth = 1e18;
    config.model.shards = shards;
    return config;
  }

  static std::vector<NodeInfo> Cluster(int reliable, int transient, NodeId first_id = 0) {
    std::vector<NodeInfo> nodes;
    NodeId id = first_id;
    for (int i = 0; i < reliable; ++i) {
      nodes.push_back({id++, Tier::kReliable, 8, kInvalidAllocation});
    }
    for (int i = 0; i < transient; ++i) {
      nodes.push_back({id++, Tier::kTransient, 8, kInvalidAllocation});
    }
    return nodes;
  }

  // Applies `step` to both runtimes, then checks full state equivalence.
  template <typename Fn>
  void Lockstep(const char* what, Fn&& step) {
    step(*oracle_);
    step(*sharded_);
    SCOPED_TRACE(what);
    ExpectEquivalent();
  }

  void ExpectEquivalent() {
    ASSERT_EQ(sharded_->clock(), oracle_->clock());
    EXPECT_EQ(sharded_->stage(), oracle_->stage());
    EXPECT_EQ(sharded_->lost_clocks_total(), oracle_->lost_clocks_total());
    EXPECT_EQ(sharded_->clock_table().clocks(), oracle_->clock_table().clocks());
    EXPECT_EQ(sharded_->clock_table().Digest(), oracle_->clock_table().Digest());
    // The tentpole claim: bit-identical model state under every layout.
    EXPECT_EQ(sharded_->model().SerializeCheckpoint(), oracle_->model().SerializeCheckpoint());
    for (PartitionId p = 0; p < oracle_->config().num_partitions; ++p) {
      EXPECT_EQ(sharded_->model().EncodeDirtyRows(p), oracle_->model().EncodeDirtyRows(p))
          << "partition " << p;
    }
  }

  // First transient node currently serving at least one partition.
  static NodeId ServingTransient(const AgileMLRuntime& runtime) {
    for (const auto& [part, server] : runtime.roles().server) {
      for (const auto& node : runtime.nodes()) {
        if (node.id == server && !node.reliable()) {
          return server;
        }
      }
    }
    return kInvalidNode;
  }

  RatingsDataset data_;
  std::unique_ptr<MatrixFactorizationApp> oracle_app_;
  std::unique_ptr<MatrixFactorizationApp> sharded_app_;
  std::unique_ptr<AgileMLRuntime> oracle_;
  std::unique_ptr<AgileMLRuntime> sharded_;
};

TEST_P(PsRuntimeDifferentialTest, ElasticityScenarioStaysBitIdentical) {
  oracle_ = std::make_unique<AgileMLRuntime>(oracle_app_.get(), Config(1), Cluster(4, 0));
  sharded_ =
      std::make_unique<AgileMLRuntime>(sharded_app_.get(), Config(GetParam()), Cluster(4, 0));
  ASSERT_EQ(sharded_->model().shards(), GetParam());
  ExpectEquivalent();

  Lockstep("stage-1 clocks", [](AgileMLRuntime& r) { r.RunClocks(3); });
  Lockstep("reliable checkpoint", [](AgileMLRuntime& r) { r.CheckpointReliable(); });

  // Bulk addition driving the stage 1 -> 2 transition.
  Lockstep("add transient nodes", [this](AgileMLRuntime& r) {
    r.AddNodes(Cluster(0, 8, /*first_id=*/100));
  });
  Lockstep("incorporate + stage 2", [](AgileMLRuntime& r) { r.RunClocks(2); });
  ASSERT_EQ(oracle_->stage(), Stage::kStage2);

  // Warned eviction of part of the transient tier: end-of-life pushes,
  // partition migration, no lost work.
  Lockstep("warned eviction", [](AgileMLRuntime& r) { r.Evict({100, 101}); });
  Lockstep("post-eviction clocks", [](AgileMLRuntime& r) { r.RunClocks(2); });

  // Unwarned failure of a serving ActivePS mid-push: the model holds
  // dirty rows newer than the last backup sync (backup_sync_every=3), so
  // this exercises rollback-to-backup including dropped fresh rows.
  const NodeId victim = ServingTransient(*oracle_);
  ASSERT_NE(victim, kInvalidNode);
  ASSERT_EQ(victim, ServingTransient(*sharded_));  // Same placement plan.
  Lockstep("fail ActivePS mid-push", [victim](AgileMLRuntime& r) {
    const int lost = r.Fail({victim});
    EXPECT_GE(lost, 0);
  });
  Lockstep("post-rollback clocks", [](AgileMLRuntime& r) { r.RunClocks(3); });

  // Chaos-style reliable-tier checkpoint / restore cycle (shard-granular
  // snapshot + restore on the fast path).
  Lockstep("checkpoint", [](AgileMLRuntime& r) { r.CheckpointReliable(); });
  Lockstep("advance", [](AgileMLRuntime& r) { r.RunClocks(2); });
  Lockstep("restore from checkpoint", [](AgileMLRuntime& r) {
    const int lost = r.RestoreFromCheckpoint();
    EXPECT_EQ(lost, 2);
  });
  Lockstep("post-restore clocks", [](AgileMLRuntime& r) { r.RunClocks(2); });
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, PsRuntimeDifferentialTest, ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace proteus
