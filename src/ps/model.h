// Partitioned parameter storage: the value plane of the parameter server.
//
// The solution state is a set of tables of float-vector rows (the paper's
// value type: vectors with component-wise add as the aggregation
// function). Rows are assigned round-robin to a fixed number of
// partitions chosen at start-up (§3.3: N partitions, ownership moves but
// shards are never re-split). This class owns:
//   - the authoritative state (what ActivePSs / ParamServs serve),
//   - an optional backup copy (what BackupPSs hold in stages 2/3),
//   - per-partition dirty tracking: the set of rows changed since the
//     last active->backup sync. This is the paper's "aggregate of the
//     delta applied ... since the last time they applied their state to
//     the BackupPSs", which makes rollback cheap.
//
// Storage layout: one engine for every ModelOptions::shards value. Each
// partition owns
//   - its mutex (one lock per partition: workers updating rows of
//     different partitions never contend);
//   - a contiguous float arena with room for every row the partition
//     can hold, allocated up front (virtual memory: pages are touched
//     only as rows materialize), plus a backup arena at the same offsets;
//   - a dense [table][row / num_partitions] slot index (no hashing);
//   - a dirty list plus a per-slot dirty flag;
//   - its own version counter.
// A rollback that drops a row created after the last sync puts its slot
// on a free list, so apply/rollback churn never grows the arena.
//
// `shards` only groups partitions: partition p belongs to shard
// p % shards. The grouping decides the checkpoint blobs
// (SerializeShardCheckpoint / RestoreShardCheckpoint), the values of
// ShardVersion / ShardStateOf (sum or max over the shard's partitions),
// and wire-byte accounting: per-row framing at shards == 1, coalesced
// varint delta batches (EncodeDeltaBatch in src/rpc/serializer.h) at
// shards >= 2.
//
// Checkpoints are canonical (partitions ascending, rows sorted by key
// within a partition), so every shard count produces bit-identical bytes
// for identical state. RestoreCheckpoint / RestoreShardCheckpoint
// invalidate the backup copy; callers that use backups must
// EnableBackups() afterwards (AgileMLRuntime does).
//
// Thread-safety: every row operation takes the owning partition's mutex.
// Row storage never moves after construction. Shard versions are
// readable lock-free.
#ifndef SRC_PS_MODEL_H_
#define SRC_PS_MODEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/obs/sinks.h"
#include "src/ps/clock_table.h"  // For the Clock alias.

namespace proteus {

struct TableSpec {
  int table_id = 0;
  std::int64_t rows = 0;
  int cols = 0;
  // Rows are lazily materialized as init_value plus a deterministic
  // per-row jitter in [-init_jitter, +init_jitter].
  float init_value = 0.0F;
  float init_jitter = 0.0F;
};

// Store knobs (see the header comment for semantics).
struct ModelOptions {
  // Partition groups for checkpoints, shard metadata and wire-byte
  // accounting (1 = per-row framing). Clamped to num_partitions.
  int shards = 1;
};

using RowKey = std::uint64_t;

constexpr RowKey MakeRowKey(int table, std::int64_t row) {
  return (static_cast<RowKey>(static_cast<std::uint32_t>(table)) << 40) |
         static_cast<RowKey>(row);
}
constexpr int TableOfKey(RowKey key) { return static_cast<int>(key >> 40); }
constexpr std::int64_t RowOfKey(RowKey key) {
  return static_cast<std::int64_t>(key & ((1ULL << 40) - 1));
}

// Serialization overhead per row on the wire with per-row framing
// (key + length + framing). At shards >= 2 coalesced varint batches
// replace it.
inline constexpr std::size_t kRowWireOverhead = 16;

// One row update for the batched apply path. `values` must stay alive
// for the duration of the ApplyUpdates call.
struct RowDelta {
  int table = 0;
  std::int64_t row = 0;
  std::span<const float> values;
};

// Point-in-time metadata of one shard, aggregated over its partitions.
struct ShardState {
  std::uint64_t version = 0;    // Sum of partition versions; moves on every mutation.
  Clock last_sync_clock = -1;   // Max SyncPartitionToBackup(p, clock) over the shard.
  std::size_t live_rows = 0;    // Materialized, non-dropped rows.
  std::size_t arena_floats = 0; // Arena floats bound to slots (live or free).
};

class ModelStore {
 public:
  ModelStore(std::vector<TableSpec> tables, int num_partitions, std::uint64_t seed)
      : ModelStore(std::move(tables), num_partitions, seed, ModelOptions{}) {}
  ModelStore(std::vector<TableSpec> tables, int num_partitions, std::uint64_t seed,
             ModelOptions options);

  int num_partitions() const { return num_partitions_; }
  int shards() const { return options_.shards; }
  int ShardOfPartition(PartitionId p) const { return static_cast<int>(p) % options_.shards; }
  const std::vector<TableSpec>& tables() const { return tables_; }
  const TableSpec& table(int table_id) const;

  PartitionId PartitionOf(int table, std::int64_t row) const;
  std::size_t RowBytes(int table) const;  // Per-row-framed wire size of one row.
  // Total wire size of the full model (all rows of all tables).
  std::uint64_t ModelBytes() const;

  // Copies the row's current value into `out` (resized to cols).
  void ReadRow(int table, std::int64_t row, std::vector<float>& out) const;
  // Component-wise add; marks the row dirty.
  void ApplyDelta(int table, std::int64_t row, std::span<const float> delta);
  // Batched component-wise add: each partition's lock is taken once for
  // the whole batch and rows are applied in input order within a
  // partition, so the float sums equal per-row ApplyDelta calls.
  void ApplyUpdates(std::span<const RowDelta> deltas);
  // Overwrites the row (used by tests and recovery paths).
  void SetRow(int table, std::int64_t row, std::span<const float> value);

  // --- Backup machinery (stages 2 and 3) ---
  // Snapshots current state as the backup copy and clears dirty sets.
  void EnableBackups();
  bool backups_enabled() const { return backups_enabled_; }
  // Wire bytes that a sync of partition p would transfer right now:
  // per-row framing at shards == 1, one coalesced delta batch at
  // shards >= 2 (0 when nothing is dirty).
  std::uint64_t DirtyBytes(PartitionId p) const;
  // Copies dirty rows of partition p into the backup; returns the wire
  // bytes (same accounting as DirtyBytes). `at_clock >= 0` records the
  // sync clock in the partition's metadata.
  std::uint64_t SyncPartitionToBackup(PartitionId p, Clock at_clock = -1);
  // The exact coalesced wire payload a sync of partition p would send:
  // the dirty rows' current values as one delta batch, rows in key
  // order. Byte-identical across shard counts for identical state.
  std::vector<std::uint8_t> EncodeDirtyRows(PartitionId p) const;
  // Reverts partition p's state to the backup copy (discarding deltas
  // applied since the last sync). Rows created after the last sync are
  // dropped; lazy init will recreate them identically.
  void RollbackPartitionToBackup(PartitionId p);
  void RollbackAllToBackup();
  // Wire bytes of all current rows of partition p (for state migration).
  std::uint64_t PartitionBytes(PartitionId p) const;

  // --- Checkpointing (stage-1 reliable-machine insurance, §3.3) ---
  // Serializes the full authoritative state in canonical order
  // (partitions ascending, rows sorted by key within each partition);
  // identical state yields identical bytes at every shard count.
  std::vector<std::uint8_t> SerializeCheckpoint() const;
  // Canonical bytes of one shard's partitions (ascending), enabling
  // shard-granular snapshot/restore.
  std::vector<std::uint8_t> SerializeShardCheckpoint(int shard) const;
  // Both restores invalidate the backup copy; re-EnableBackups() after.
  void RestoreCheckpoint(const std::vector<std::uint8_t>& blob);
  // Clears and reloads exactly the given shard's partitions. Rows in the
  // blob must belong to the shard.
  void RestoreShardCheckpoint(int shard, std::span<const std::uint8_t> blob);

  // --- Per-shard metadata and observability ---
  // Lock-free monotonic mutation counter of one shard (sum over its
  // partitions).
  std::uint64_t ShardVersion(int shard) const;
  ShardState ShardStateOf(int shard) const;
  // max/mean live rows across shards (1.0 = perfectly balanced; 1.0 when
  // the store is empty).
  double ShardImbalance() const;
  // Registers ps.apply.* counters and ps.shard.* gauges (per-shard
  // labels). Pass nullptr to detach. Not thread-safe against concurrent
  // mutators; attach before use like the runtime does.
  void SetObservability(obs::MetricsRegistry* metrics);
  // Refreshes ps.shard.rows / ps.shard.imbalance gauges (no-op when
  // detached). The runtime calls this once per clock.
  void UpdateShardGauges();

  // Sequential iteration over materialized rows of a table (objective
  // computation). Not thread-safe against concurrent writers.
  void ForEachRow(int table,
                  const std::function<void(std::int64_t, std::span<const float>)>& fn) const;

  // Materialized row count across all tables (rows touched so far).
  std::size_t MaterializedRows() const;

 private:
  struct Slot {
    RowKey key = 0;
    std::size_t offset = 0;  // Into the partition's arenas, in floats.
    bool live = false;       // False while on a free list.
    bool in_backup = false;  // The backup arena holds a valid copy.
    bool dirty = false;      // Listed in Partition::dirty.
  };
  static constexpr std::uint32_t kNoSlot = 0;  // Index entries hold slot + 1.
  struct Partition {
    mutable std::mutex mu;
    std::unique_ptr<float[]> values;  // Arena, capacity fixed at construction.
    std::unique_ptr<float[]> backup;  // Parallel arena, same offsets.
    std::size_t capacity = 0;         // Floats per arena: every row it can hold.
    std::size_t used = 0;             // Floats handed out to slots so far.
    std::vector<std::vector<std::uint32_t>> index;       // [table][row / N].
    std::vector<Slot> slots;
    std::vector<std::vector<std::uint32_t>> free_slots;  // Per table.
    std::vector<std::uint32_t> dirty;  // Slots changed since the last sync.
    std::size_t live_rows = 0;
    std::atomic<std::uint64_t> version{0};
    Clock last_sync_clock = -1;
  };

  Partition& PartitionFor(int table, std::int64_t row) const;
  // The row's slot, materializing it with its lazy-init value if absent.
  // Caller must hold the partition mutex.
  std::uint32_t SlotLocked(Partition& part, int table, std::int64_t row) const;
  // Binds a fresh slot to an absent row and returns it; the row's values
  // are left for the caller to write. Caller must hold the mutex.
  std::uint32_t AllocSlotLocked(Partition& part, int table, std::int64_t row) const;
  void MarkDirtyLocked(Partition& part, std::uint32_t slot) const;
  // Adds `delta` (already checked to be `cols` wide) to the row and marks
  // it dirty. Caller must hold the mutex.
  void AddLocked(Partition& part, int table, std::int64_t row,
                 std::span<const float> delta) const;
  float InitValueFor(RowKey key, int component) const;
  // Wire bytes of shipping the given rows (any order): the one place the
  // shard count changes a number.
  std::uint64_t WireBytes(std::vector<RowKey> keys) const;
  // Keys of the given slots. Caller must hold the mutex.
  std::vector<RowKey> KeysLocked(const Partition& part,
                                 const std::vector<std::uint32_t>& slots) const;
  // Canonical per-partition row serialization (locks the partition).
  void AppendPartitionCheckpoint(PartitionId p, std::vector<std::uint8_t>& blob) const;
  // Upper bound on the shard's checkpoint size (every bound slot), so the
  // blob is allocated once instead of doubling.
  std::size_t ShardCheckpointBound(int shard) const;
  // Drops every row, backup copy and dirty mark of the shard's partitions.
  void ClearShard(int shard);
  // Loads canonical rows; `shard >= 0` requires every row to belong to it.
  void LoadRows(std::span<const std::uint8_t> blob, int shard);
  // Counts a whole-shard event (backup snapshot, restore) once in the
  // shard's version.
  void BumpShardVersion(int shard);

  std::vector<TableSpec> tables_;
  int num_partitions_;
  std::uint64_t seed_;
  ModelOptions options_;
  bool backups_enabled_ = false;
  std::vector<std::unique_ptr<Partition>> partitions_;

  // ps.* metrics; the per-shard series are bound in shard order.
  obs::Sinks sinks_{"ps"};
};

}  // namespace proteus

#endif  // SRC_PS_MODEL_H_
