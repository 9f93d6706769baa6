#include <gtest/gtest.h>

#include "src/ps/model.h"

namespace proteus {
namespace {

std::vector<TableSpec> TwoTables() {
  return {{0, 100, 4, 0.0F, 0.1F}, {1, 50, 8, 1.0F, 0.0F}};
}

TEST(ModelStore, LazyInitIsDeterministic) {
  ModelStore a(TwoTables(), 8, 7);
  ModelStore b(TwoTables(), 8, 7);
  std::vector<float> va;
  std::vector<float> vb;
  a.ReadRow(0, 42, va);
  b.ReadRow(0, 42, vb);
  EXPECT_EQ(va, vb);
  ASSERT_EQ(va.size(), 4u);
  for (float v : va) {
    EXPECT_LE(std::abs(v), 0.1F);
  }
}

TEST(ModelStore, LazyInitIndependentOfAccessOrder) {
  ModelStore a(TwoTables(), 8, 7);
  ModelStore b(TwoTables(), 8, 7);
  std::vector<float> tmp;
  b.ReadRow(0, 1, tmp);  // Touch another row first in b.
  std::vector<float> va;
  std::vector<float> vb;
  a.ReadRow(0, 42, va);
  b.ReadRow(0, 42, vb);
  EXPECT_EQ(va, vb);
}

TEST(ModelStore, JitterFreeTableInitsToValue) {
  ModelStore m(TwoTables(), 8, 7);
  std::vector<float> v;
  m.ReadRow(1, 3, v);
  ASSERT_EQ(v.size(), 8u);
  for (float x : v) {
    EXPECT_FLOAT_EQ(x, 1.0F);
  }
}

TEST(ModelStore, ApplyDeltaAccumulates) {
  ModelStore m(TwoTables(), 8, 7);
  const std::vector<float> delta{1.0F, 2.0F, 3.0F, 4.0F, 5.0F, 6.0F, 7.0F, 8.0F};
  m.ApplyDelta(1, 0, delta);
  m.ApplyDelta(1, 0, delta);
  std::vector<float> v;
  m.ReadRow(1, 0, v);
  EXPECT_FLOAT_EQ(v[0], 3.0F);  // 1.0 init + 2x1.0.
  EXPECT_FLOAT_EQ(v[7], 17.0F);
}

TEST(ModelStore, PartitionOfIsStableAndInRange) {
  ModelStore m(TwoTables(), 8, 7);
  for (std::int64_t r = 0; r < 100; ++r) {
    const PartitionId p = m.PartitionOf(0, r);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 8);
    EXPECT_EQ(p, m.PartitionOf(0, r));
  }
}

TEST(ModelStore, RowBytesIncludesOverhead) {
  ModelStore m(TwoTables(), 8, 7);
  EXPECT_EQ(m.RowBytes(0), 4 * sizeof(float) + kRowWireOverhead);
  EXPECT_EQ(m.ModelBytes(), 100 * m.RowBytes(0) + 50 * m.RowBytes(1));
}

TEST(ModelStore, SyncClearsDirtyAndReportsBytes) {
  ModelStore m(TwoTables(), 4, 7);
  m.EnableBackups();
  const std::vector<float> delta(4, 1.0F);
  m.ApplyDelta(0, 0, delta);
  const PartitionId p = m.PartitionOf(0, 0);
  EXPECT_EQ(m.DirtyBytes(p), m.RowBytes(0));
  EXPECT_EQ(m.SyncPartitionToBackup(p), m.RowBytes(0));
  EXPECT_EQ(m.DirtyBytes(p), 0u);
  EXPECT_EQ(m.SyncPartitionToBackup(p), 0u);  // Nothing dirty anymore.
}

TEST(ModelStore, RollbackRestoresBackupState) {
  ModelStore m(TwoTables(), 4, 7);
  std::vector<float> before;
  m.ReadRow(0, 5, before);
  m.EnableBackups();
  const std::vector<float> delta(4, 2.0F);
  m.ApplyDelta(0, 5, delta);
  m.RollbackPartitionToBackup(m.PartitionOf(0, 5));
  std::vector<float> after;
  m.ReadRow(0, 5, after);
  EXPECT_EQ(before, after);
}

TEST(ModelStore, RollbackKeepsSyncedChanges) {
  ModelStore m(TwoTables(), 4, 7);
  m.EnableBackups();
  const std::vector<float> delta(4, 2.0F);
  m.ApplyDelta(0, 5, delta);
  m.SyncPartitionToBackup(m.PartitionOf(0, 5));
  m.ApplyDelta(0, 5, delta);  // Unsynced second delta.
  m.RollbackAllToBackup();
  std::vector<float> v;
  m.ReadRow(0, 5, v);
  std::vector<float> fresh;
  ModelStore clean(TwoTables(), 4, 7);
  clean.ReadRow(0, 5, fresh);
  EXPECT_FLOAT_EQ(v[0], fresh[0] + 2.0F);  // First delta survived.
}

TEST(ModelStore, RollbackDropsRowsCreatedAfterSync) {
  ModelStore m(TwoTables(), 4, 7);
  m.EnableBackups();
  const std::vector<float> delta(4, 2.0F);
  m.ApplyDelta(0, 7, delta);  // Materializes after backup snapshot.
  m.RollbackAllToBackup();
  std::vector<float> v;
  m.ReadRow(0, 7, v);  // Lazy re-init must give the original value.
  ModelStore clean(TwoTables(), 4, 7);
  std::vector<float> fresh;
  clean.ReadRow(0, 7, fresh);
  EXPECT_EQ(v, fresh);
}

TEST(ModelStore, CheckpointRoundTrip) {
  ModelStore m(TwoTables(), 4, 7);
  const std::vector<float> delta(4, 3.0F);
  m.ApplyDelta(0, 1, delta);
  m.ApplyDelta(0, 2, delta);
  const auto blob = m.SerializeCheckpoint();
  const std::vector<float> more(4, 9.0F);
  m.ApplyDelta(0, 1, more);
  m.RestoreCheckpoint(blob);
  std::vector<float> v;
  m.ReadRow(0, 1, v);
  ModelStore expect(TwoTables(), 4, 7);
  std::vector<float> e;
  expect.ReadRow(0, 1, e);
  EXPECT_FLOAT_EQ(v[0], e[0] + 3.0F);
}

TEST(ModelStore, ForEachRowVisitsMaterializedRows) {
  ModelStore m(TwoTables(), 4, 7);
  std::vector<float> tmp;
  m.ReadRow(0, 1, tmp);
  m.ReadRow(0, 2, tmp);
  m.ReadRow(1, 0, tmp);
  int count = 0;
  m.ForEachRow(0, [&](std::int64_t, std::span<const float>) { ++count; });
  EXPECT_EQ(count, 2);
  EXPECT_EQ(m.MaterializedRows(), 3u);
}

TEST(ModelStore, PartitionBytesCountsMaterializedRows) {
  ModelStore m(TwoTables(), 1, 7);  // Single partition.
  std::vector<float> tmp;
  m.ReadRow(0, 1, tmp);
  m.ReadRow(1, 1, tmp);
  EXPECT_EQ(m.PartitionBytes(0), m.RowBytes(0) + m.RowBytes(1));
}

// --- Shard-grouping invariants (ModelOptions::shards >= 2) ---
// Full differentials against a reference store live in
// tests/ps_differential_test.cc; these pin the grouping's own contracts.

ModelStore Striped(int shards, int num_partitions = 8) {
  ModelOptions options;
  options.shards = shards;
  return ModelStore(TwoTables(), num_partitions, 7, options);
}

TEST(ModelStore, ShardsClampToPartitionCount) {
  ModelStore m = Striped(/*shards=*/64, /*num_partitions=*/4);
  EXPECT_EQ(m.shards(), 4);
  for (PartitionId p = 0; p < 4; ++p) {
    EXPECT_EQ(m.ShardOfPartition(p), p % m.shards());
  }
}

TEST(ModelStore, StripedDirtyBytesUseCoalescedAccounting) {
  ModelStore m = Striped(4);
  m.EnableBackups();
  const std::vector<float> delta(4, 1.0F);
  m.ApplyDelta(0, 0, delta);
  const PartitionId p = m.PartitionOf(0, 0);
  // One dirty row: exactly the bytes of its coalesced payload, which is
  // far below the legacy per-row framing.
  EXPECT_EQ(m.DirtyBytes(p), m.EncodeDirtyRows(p).size());
  EXPECT_LT(m.DirtyBytes(p), m.RowBytes(0));
  EXPECT_EQ(m.SyncPartitionToBackup(p), m.EncodeDirtyRows(p).size());
  EXPECT_EQ(m.DirtyBytes(p), 0u);
}

TEST(ModelStore, StripedCheckpointMatchesLegacy) {
  ModelStore legacy(TwoTables(), 8, 7);
  ModelStore striped = Striped(4);
  const std::vector<float> d0(4, 0.5F);
  const std::vector<float> d1(8, -0.5F);
  for (std::int64_t r = 0; r < 100; ++r) {
    legacy.ApplyDelta(0, r, d0);
    striped.ApplyDelta(0, r, d0);
  }
  for (std::int64_t r = 0; r < 50; ++r) {
    legacy.ApplyDelta(1, r, d1);
    striped.ApplyDelta(1, r, d1);
  }
  EXPECT_EQ(striped.SerializeCheckpoint(), legacy.SerializeCheckpoint());
}

TEST(ModelStore, StripedRestoreInvalidatesBackup) {
  ModelStore m = Striped(4);
  m.EnableBackups();
  ASSERT_TRUE(m.backups_enabled());
  m.RestoreCheckpoint(m.SerializeCheckpoint());
  EXPECT_FALSE(m.backups_enabled());  // Caller must re-EnableBackups().
}

TEST(ModelStore, ShardStateReflectsRowPlacement) {
  ModelStore m = Striped(4);
  const std::vector<float> delta(4, 1.0F);
  // Table 0 rows land round-robin over partitions; partition p lives in
  // shard p % 4. Touch rows of one known partition only.
  std::int64_t row = -1;
  for (std::int64_t r = 0; r < 100; ++r) {
    if (m.PartitionOf(0, r) == 2) {
      row = r;
      break;
    }
  }
  ASSERT_GE(row, 0);
  m.ApplyDelta(0, row, delta);
  EXPECT_EQ(m.ShardStateOf(2).live_rows, 1u);
  EXPECT_EQ(m.ShardStateOf(3).live_rows, 0u);
  EXPECT_EQ(m.MaterializedRows(), 1u);
  // One populated shard out of four: imbalance is max/mean = 4.
  EXPECT_DOUBLE_EQ(m.ShardImbalance(), 4.0);
}

TEST(ModelStore, StripedRollbackRecyclesArenaSlots) {
  ModelStore m = Striped(4);
  m.EnableBackups();
  const std::vector<float> delta(4, 2.0F);
  m.ApplyDelta(0, 7, delta);  // Materialized after the backup snapshot.
  ASSERT_EQ(m.MaterializedRows(), 1u);
  m.RollbackAllToBackup();
  EXPECT_EQ(m.MaterializedRows(), 0u);  // Row dropped, slot freed.
  std::vector<float> v;
  m.ReadRow(0, 7, v);  // Lazy re-init must give the pristine value.
  ModelStore clean(TwoTables(), 8, 7);
  std::vector<float> fresh;
  clean.ReadRow(0, 7, fresh);
  EXPECT_EQ(v, fresh);
  EXPECT_EQ(m.MaterializedRows(), 1u);  // Re-materialized cleanly.
}

// --- Arena invariants (every shard count shares one layout) ---

std::size_t ArenaFloats(const ModelStore& m) {
  std::size_t floats = 0;
  for (int s = 0; s < m.shards(); ++s) {
    floats += m.ShardStateOf(s).arena_floats;
  }
  return floats;
}

TEST(ModelStore, ApplyRollbackChurnReusesArenaSlots) {
  for (const int shards : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ModelStore m = Striped(shards);
    const std::vector<float> d0(4, 1.0F);
    const std::vector<float> d1(8, -1.0F);
    m.ApplyDelta(0, 3, d0);
    m.EnableBackups();
    // Rows 11 (table 0) and 4 (table 1) materialize after the last sync,
    // so every rollback drops them.
    m.ApplyDelta(0, 11, d0);
    m.ApplyDelta(1, 4, d1);
    m.RollbackAllToBackup();
    const std::size_t floats = ArenaFloats(m);
    const std::size_t rows = m.MaterializedRows();
    ASSERT_EQ(rows, 1u);
    for (int cycle = 0; cycle < 1000; ++cycle) {
      m.ApplyDelta(0, 11, d0);
      m.ApplyDelta(1, 4, d1);
      m.ApplyDelta(0, 3, d0);
      m.RollbackAllToBackup();
      ASSERT_EQ(ArenaFloats(m), floats) << "cycle " << cycle;
      ASSERT_EQ(m.MaterializedRows(), rows) << "cycle " << cycle;
    }
    // The synced row kept its backup value; the dropped rows re-init.
    ModelStore expect = Striped(shards);
    expect.ApplyDelta(0, 3, d0);
    std::vector<float> got;
    std::vector<float> want;
    m.ReadRow(0, 3, got);
    expect.ReadRow(0, 3, want);
    EXPECT_EQ(got, want);
    m.ReadRow(1, 4, got);
    expect.ReadRow(1, 4, want);
    EXPECT_EQ(got, want);
  }
}

TEST(ModelStore, DenseIndexCoversRaggedTables) {
  // 3 rows over 8 partitions (rows < num_partitions), 13 rows
  // (13 % 8 != 0) and a single-row table, like LDA's totals.
  const std::vector<TableSpec> tables = {
      {0, 3, 2, 0.0F, 0.0F}, {1, 13, 3, 0.0F, 0.0F}, {2, 1, 5, 0.0F, 0.0F}};
  for (const int shards : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ModelOptions options;
    options.shards = shards;
    ModelStore m(tables, /*num_partitions=*/8, /*seed=*/7, options);
    auto value = [](int t, std::int64_t r, int c) {
      return static_cast<float>(100 * t + 10 * r + c);
    };
    std::size_t total_rows = 0;
    for (const TableSpec& t : tables) {
      for (std::int64_t r = 0; r < t.rows; ++r) {
        std::vector<float> v(static_cast<std::size_t>(t.cols));
        for (int c = 0; c < t.cols; ++c) {
          v[static_cast<std::size_t>(c)] = value(t.table_id, r, c);
        }
        m.SetRow(t.table_id, r, v);
        ++total_rows;
      }
    }
    EXPECT_EQ(m.MaterializedRows(), total_rows);
    const std::vector<std::uint8_t> blob = m.SerializeCheckpoint();
    ModelStore restored(tables, 8, 7, options);
    restored.RestoreCheckpoint(blob);
    EXPECT_EQ(restored.SerializeCheckpoint(), blob);
    for (const TableSpec& t : tables) {
      std::vector<int> seen(static_cast<std::size_t>(t.rows), 0);
      restored.ForEachRow(t.table_id, [&](std::int64_t r, std::span<const float> row) {
        ASSERT_LT(r, t.rows);
        ++seen[static_cast<std::size_t>(r)];
        for (int c = 0; c < t.cols; ++c) {
          EXPECT_EQ(row[static_cast<std::size_t>(c)], value(t.table_id, r, c));
        }
      });
      for (std::int64_t r = 0; r < t.rows; ++r) {
        EXPECT_EQ(seen[static_cast<std::size_t>(r)], 1) << "table " << t.table_id << " row " << r;
        std::vector<float> v;
        restored.ReadRow(t.table_id, r, v);
        ASSERT_EQ(v.size(), static_cast<std::size_t>(t.cols));
        EXPECT_EQ(v[0], value(t.table_id, r, 0));
      }
    }
  }
}

TEST(ModelStore, ShardVersionMovesOnEveryMutation) {
  for (const int shards : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ModelStore m = Striped(shards);
    // Row 5 of table 0 lives in partition 5, shard 5 % shards.
    const PartitionId part = m.PartitionOf(0, 5);
    const int shard = m.ShardOfPartition(part);
    std::vector<std::uint64_t> last(static_cast<std::size_t>(m.shards()));
    for (int s = 0; s < m.shards(); ++s) {
      last[static_cast<std::size_t>(s)] = m.ShardVersion(s);
    }
    // Every shard's version is monotonic; the touched shard's moves.
    auto expect_moved = [&](const char* what) {
      SCOPED_TRACE(what);
      for (int s = 0; s < m.shards(); ++s) {
        const std::uint64_t v = m.ShardVersion(s);
        EXPECT_GE(v, last[static_cast<std::size_t>(s)]);
        EXPECT_EQ(m.ShardStateOf(s).version, v);
        if (s == shard) {
          EXPECT_GT(v, last[static_cast<std::size_t>(s)]);
        }
        last[static_cast<std::size_t>(s)] = v;
      }
    };
    const std::vector<float> d(4, 1.0F);
    m.ApplyDelta(0, 5, d);
    expect_moved("apply");
    const RowDelta batch[] = {{0, 5, std::span<const float>(d)}};
    m.ApplyUpdates(batch);
    expect_moved("batched apply");
    m.SetRow(0, 5, d);
    expect_moved("set");
    m.EnableBackups();
    expect_moved("enable backups");
    m.ApplyDelta(0, 5, d);
    m.SyncPartitionToBackup(part, /*at_clock=*/3);
    expect_moved("sync");
    EXPECT_EQ(m.ShardStateOf(shard).last_sync_clock, 3);
    m.ApplyDelta(0, 5, d);
    m.RollbackPartitionToBackup(part);
    expect_moved("rollback");
    const std::vector<std::uint8_t> blob = m.SerializeShardCheckpoint(shard);
    m.RestoreShardCheckpoint(shard, blob);
    expect_moved("shard restore");
    m.RestoreCheckpoint(m.SerializeCheckpoint());
    expect_moved("full restore");
  }
}

}  // namespace
}  // namespace proteus
