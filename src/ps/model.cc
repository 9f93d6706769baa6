#include "src/ps/model.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "src/common/logging.h"
#include "src/rpc/serializer.h"

namespace proteus {

namespace {
// SplitMix64: cheap deterministic hash for per-row init jitter.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

ModelStore::ModelStore(std::vector<TableSpec> tables, int num_partitions, std::uint64_t seed,
                       ModelOptions options)
    : tables_(std::move(tables)), num_partitions_(num_partitions), seed_(seed),
      options_(options) {
  PROTEUS_CHECK_GT(num_partitions_, 0);
  PROTEUS_CHECK(!tables_.empty());
  PROTEUS_CHECK_GT(options_.shards, 0);
  options_.shards = std::min(options_.shards, num_partitions_);
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    PROTEUS_CHECK_EQ(tables_[i].table_id, static_cast<int>(i)) << "table ids must be 0..n-1";
    PROTEUS_CHECK_GT(tables_[i].rows, 0);
    PROTEUS_CHECK_GT(tables_[i].cols, 0);
  }
  const auto n = static_cast<std::int64_t>(num_partitions_);
  partitions_.reserve(static_cast<std::size_t>(num_partitions_));
  for (PartitionId p = 0; p < num_partitions_; ++p) {
    auto part = std::make_unique<Partition>();
    std::size_t capacity = 0;
    for (const TableSpec& t : tables_) {
      // Rows of table t in partition p are first, first + n, ... (see
      // PartitionOf), so row / n is a dense index.
      const std::int64_t first = ((p - t.table_id) % n + n) % n;
      const std::int64_t count = first < t.rows ? (t.rows - 1 - first) / n + 1 : 0;
      part->index.emplace_back(static_cast<std::size_t>(count), kNoSlot);
      capacity += static_cast<std::size_t>(count) * static_cast<std::size_t>(t.cols);
    }
    part->free_slots.resize(tables_.size());
    part->capacity = capacity;
    part->values = std::make_unique_for_overwrite<float[]>(capacity);
    part->backup = std::make_unique_for_overwrite<float[]>(capacity);
    partitions_.push_back(std::move(part));
  }
}

const TableSpec& ModelStore::table(int table_id) const {
  PROTEUS_CHECK_GE(table_id, 0);
  PROTEUS_CHECK_LT(static_cast<std::size_t>(table_id), tables_.size());
  return tables_[static_cast<std::size_t>(table_id)];
}

PartitionId ModelStore::PartitionOf(int table, std::int64_t row) const {
  PROTEUS_CHECK_GE(row, 0);
  PROTEUS_CHECK_LT(row, this->table(table).rows);
  // Round-robin keeps partitions balanced for both contiguous and
  // power-law access patterns.
  return static_cast<PartitionId>((static_cast<std::uint64_t>(row) +
                                   static_cast<std::uint64_t>(table)) %
                                  static_cast<std::uint64_t>(num_partitions_));
}

std::size_t ModelStore::RowBytes(int table) const {
  return static_cast<std::size_t>(this->table(table).cols) * sizeof(float) + kRowWireOverhead;
}

std::uint64_t ModelStore::ModelBytes() const {
  std::uint64_t total = 0;
  for (const auto& t : tables_) {
    total += static_cast<std::uint64_t>(t.rows) * RowBytes(t.table_id);
  }
  return total;
}

ModelStore::Partition& ModelStore::PartitionFor(int table, std::int64_t row) const {
  return *partitions_[static_cast<std::size_t>(PartitionOf(table, row))];
}

float ModelStore::InitValueFor(RowKey key, int component) const {
  const TableSpec& spec = table(TableOfKey(key));
  if (spec.init_jitter == 0.0F) {
    return spec.init_value;
  }
  const std::uint64_t h = Mix64(seed_ ^ Mix64(key ^ (static_cast<std::uint64_t>(component) << 1)));
  const double unit = static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53);  // [0,1)
  return spec.init_value + spec.init_jitter * static_cast<float>(2.0 * unit - 1.0);
}

std::uint32_t ModelStore::AllocSlotLocked(Partition& part, int table, std::int64_t row) const {
  const RowKey key = MakeRowKey(table, row);
  std::vector<std::uint32_t>& free = part.free_slots[static_cast<std::size_t>(table)];
  std::uint32_t slot = 0;
  if (!free.empty()) {
    slot = free.back();
    free.pop_back();
    part.slots[slot].key = key;
  } else {
    slot = static_cast<std::uint32_t>(part.slots.size());
    part.slots.push_back({key, part.used});
    part.used += static_cast<std::size_t>(this->table(table).cols);
    PROTEUS_DCHECK(part.used <= part.capacity) << "arena overflow";
  }
  part.slots[slot].live = true;
  part.index[static_cast<std::size_t>(table)]
            [static_cast<std::size_t>(row / num_partitions_)] = slot + 1;
  ++part.live_rows;
  return slot;
}

std::uint32_t ModelStore::SlotLocked(Partition& part, int table, std::int64_t row) const {
  const std::uint32_t entry =
      part.index[static_cast<std::size_t>(table)][static_cast<std::size_t>(row / num_partitions_)];
  if (entry != kNoSlot) {
    return entry - 1;
  }
  const std::uint32_t slot = AllocSlotLocked(part, table, row);
  const Slot& s = part.slots[slot];
  float* v = part.values.get() + s.offset;
  const int cols = this->table(table).cols;
  for (int c = 0; c < cols; ++c) {
    v[c] = InitValueFor(s.key, c);
  }
  return slot;
}

void ModelStore::MarkDirtyLocked(Partition& part, std::uint32_t slot) const {
  Slot& s = part.slots[slot];
  if (!s.dirty) {
    s.dirty = true;
    part.dirty.push_back(slot);
  }
}

void ModelStore::AddLocked(Partition& part, int table, std::int64_t row,
                           std::span<const float> delta) const {
  const std::uint32_t slot = SlotLocked(part, table, row);
  float* v = part.values.get() + part.slots[slot].offset;
  for (std::size_t c = 0; c < delta.size(); ++c) {
    v[c] += delta[c];
  }
  MarkDirtyLocked(part, slot);
}

void ModelStore::ReadRow(int table, std::int64_t row, std::vector<float>& out) const {
  Partition& part = PartitionFor(table, row);
  std::lock_guard<std::mutex> lock(part.mu);
  const float* v = part.values.get() + part.slots[SlotLocked(part, table, row)].offset;
  out.assign(v, v + this->table(table).cols);
}

void ModelStore::ApplyDelta(int table, std::int64_t row, std::span<const float> delta) {
  PROTEUS_CHECK_EQ(delta.size(), static_cast<std::size_t>(this->table(table).cols));
  Partition& part = PartitionFor(table, row);
  std::lock_guard<std::mutex> lock(part.mu);
  AddLocked(part, table, row, delta);
  part.version.fetch_add(1, std::memory_order_relaxed);
}

void ModelStore::ApplyUpdates(std::span<const RowDelta> deltas) {
  // Bucket rows by owning partition so each partition lock is taken
  // exactly once and rows land in input order within a partition.
  std::vector<std::vector<std::uint32_t>> by_part(static_cast<std::size_t>(num_partitions_));
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    PROTEUS_CHECK_EQ(deltas[i].values.size(),
                     static_cast<std::size_t>(table(deltas[i].table).cols));
    by_part[static_cast<std::size_t>(PartitionOf(deltas[i].table, deltas[i].row))].push_back(
        static_cast<std::uint32_t>(i));
  }
  for (PartitionId p = 0; p < num_partitions_; ++p) {
    const auto& idxs = by_part[static_cast<std::size_t>(p)];
    if (idxs.empty()) {
      continue;
    }
    const bool timed = sinks_.Wants(obs::Metric::kPsApplyNanos);
    const std::uint64_t t0 = timed ? NowNanos() : 0;
    Partition& part = *partitions_[static_cast<std::size_t>(p)];
    {
      std::lock_guard<std::mutex> lock(part.mu);
      for (const std::uint32_t i : idxs) {
        AddLocked(part, deltas[i].table, deltas[i].row, deltas[i].values);
      }
      part.version.fetch_add(idxs.size(), std::memory_order_relaxed);
    }
    if (timed) {
      const auto sh = static_cast<std::size_t>(ShardOfPartition(p));
      sinks_.Record(obs::Metric::kPsApplyNanos, NowNanos() - t0, sh);
      sinks_.Record(obs::Metric::kPsApplyRows, idxs.size(), sh);
    }
  }
}

void ModelStore::SetRow(int table, std::int64_t row, std::span<const float> value) {
  PROTEUS_CHECK_EQ(value.size(), static_cast<std::size_t>(this->table(table).cols));
  Partition& part = PartitionFor(table, row);
  std::lock_guard<std::mutex> lock(part.mu);
  const std::uint32_t slot = SlotLocked(part, table, row);
  std::copy(value.begin(), value.end(), part.values.get() + part.slots[slot].offset);
  MarkDirtyLocked(part, slot);
  part.version.fetch_add(1, std::memory_order_relaxed);
}

void ModelStore::BumpShardVersion(int shard) {
  // Partition `shard` is the shard's first partition.
  partitions_[static_cast<std::size_t>(shard)]->version.fetch_add(1, std::memory_order_relaxed);
}

void ModelStore::EnableBackups() {
  for (auto& part : partitions_) {
    std::lock_guard<std::mutex> lock(part->mu);
    std::copy_n(part->values.get(), part->used, part->backup.get());
    for (Slot& slot : part->slots) {
      slot.in_backup = slot.live;
      slot.dirty = false;
    }
    part->dirty.clear();
  }
  for (int s = 0; s < options_.shards; ++s) {
    BumpShardVersion(s);
  }
  backups_enabled_ = true;
}

std::vector<RowKey> ModelStore::KeysLocked(const Partition& part,
                                           const std::vector<std::uint32_t>& slots) const {
  std::vector<RowKey> keys;
  keys.reserve(slots.size());
  for (const std::uint32_t slot : slots) {
    keys.push_back(part.slots[slot].key);
  }
  return keys;
}

std::uint64_t ModelStore::WireBytes(std::vector<RowKey> keys) const {
  std::uint64_t bytes = 0;
  if (options_.shards == 1) {
    // Per-row UpdateParamMsg framing.
    for (const RowKey key : keys) {
      bytes += RowBytes(TableOfKey(key));
    }
    return bytes;
  }
  if (keys.empty()) {
    return 0;
  }
  // One coalesced delta batch.
  std::sort(keys.begin(), keys.end());
  std::vector<std::uint32_t> cols;
  cols.reserve(keys.size());
  for (const RowKey key : keys) {
    cols.push_back(static_cast<std::uint32_t>(table(TableOfKey(key)).cols));
  }
  return DeltaBatchEncodedBytes(keys, cols);
}

std::uint64_t ModelStore::DirtyBytes(PartitionId p) const {
  const Partition& part = *partitions_[static_cast<std::size_t>(p)];
  std::lock_guard<std::mutex> lock(part.mu);
  return WireBytes(KeysLocked(part, part.dirty));
}

std::uint64_t ModelStore::SyncPartitionToBackup(PartitionId p, Clock at_clock) {
  PROTEUS_CHECK(backups_enabled_);
  Partition& part = *partitions_[static_cast<std::size_t>(p)];
  std::lock_guard<std::mutex> lock(part.mu);
  for (const std::uint32_t slot : part.dirty) {
    Slot& s = part.slots[slot];
    std::copy_n(part.values.get() + s.offset, table(TableOfKey(s.key)).cols,
                part.backup.get() + s.offset);
    s.in_backup = true;
    s.dirty = false;
  }
  const std::uint64_t bytes = WireBytes(KeysLocked(part, part.dirty));
  part.dirty.clear();
  if (at_clock >= 0) {
    part.last_sync_clock = at_clock;
  }
  part.version.fetch_add(1, std::memory_order_relaxed);
  return bytes;
}

std::vector<std::uint8_t> ModelStore::EncodeDirtyRows(PartitionId p) const {
  const Partition& part = *partitions_[static_cast<std::size_t>(p)];
  std::lock_guard<std::mutex> lock(part.mu);
  std::vector<std::uint32_t> slots = part.dirty;
  std::sort(slots.begin(), slots.end(), [&part](std::uint32_t a, std::uint32_t b) {
    return part.slots[a].key < part.slots[b].key;
  });
  std::vector<DeltaRow> rows;
  rows.reserve(slots.size());
  for (const std::uint32_t slot : slots) {
    const Slot& s = part.slots[slot];
    rows.push_back({s.key, std::span<const float>(part.values.get() + s.offset,
                                                  table(TableOfKey(s.key)).cols)});
  }
  return EncodeDeltaBatch(rows);
}

void ModelStore::RollbackPartitionToBackup(PartitionId p) {
  PROTEUS_CHECK(backups_enabled_);
  Partition& part = *partitions_[static_cast<std::size_t>(p)];
  std::lock_guard<std::mutex> lock(part.mu);
  for (const std::uint32_t slot : part.dirty) {
    Slot& s = part.slots[slot];
    s.dirty = false;
    const int table = TableOfKey(s.key);
    if (s.in_backup) {
      std::copy_n(part.backup.get() + s.offset, this->table(table).cols,
                  part.values.get() + s.offset);
    } else {
      // Row materialized after the last sync; drop it — lazy init will
      // recreate the identical initial value on next read — and recycle
      // its slot for the next row of the same table.
      s.live = false;
      part.index[static_cast<std::size_t>(table)]
                [static_cast<std::size_t>(RowOfKey(s.key) / num_partitions_)] = kNoSlot;
      part.free_slots[static_cast<std::size_t>(table)].push_back(slot);
      --part.live_rows;
    }
  }
  part.dirty.clear();
  part.version.fetch_add(1, std::memory_order_relaxed);
}

void ModelStore::RollbackAllToBackup() {
  for (int i = 0; i < num_partitions_; ++i) {
    RollbackPartitionToBackup(i);
  }
}

std::uint64_t ModelStore::PartitionBytes(PartitionId p) const {
  const Partition& part = *partitions_[static_cast<std::size_t>(p)];
  std::lock_guard<std::mutex> lock(part.mu);
  std::vector<RowKey> keys;
  keys.reserve(part.live_rows);
  for (const Slot& s : part.slots) {
    if (s.live) {
      keys.push_back(s.key);
    }
  }
  return WireBytes(std::move(keys));
}

void ModelStore::AppendPartitionCheckpoint(PartitionId p,
                                           std::vector<std::uint8_t>& blob) const {
  auto append = [&blob](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    blob.insert(blob.end(), bytes, bytes + n);
  };
  const Partition& part = *partitions_[static_cast<std::size_t>(p)];
  std::lock_guard<std::mutex> lock(part.mu);
  // Tables ascending, then rows ascending: the dense index walks keys in
  // sorted order.
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const auto cols = static_cast<std::uint32_t>(tables_[t].cols);
    for (const std::uint32_t entry : part.index[t]) {
      if (entry == kNoSlot) {
        continue;
      }
      const Slot& s = part.slots[entry - 1];
      append(&s.key, sizeof(s.key));
      append(&cols, sizeof(cols));
      append(part.values.get() + s.offset, static_cast<std::size_t>(cols) * sizeof(float));
    }
  }
}

std::size_t ModelStore::ShardCheckpointBound(int shard) const {
  // A hint only: rows materialized after this count grow the blob the
  // usual way.
  std::size_t bytes = 0;
  for (PartitionId p = shard; p < num_partitions_; p += options_.shards) {
    const Partition& part = *partitions_[static_cast<std::size_t>(p)];
    std::lock_guard<std::mutex> lock(part.mu);
    bytes += part.slots.size() * (sizeof(RowKey) + sizeof(std::uint32_t)) +
             part.used * sizeof(float);
  }
  return bytes;
}

std::vector<std::uint8_t> ModelStore::SerializeCheckpoint() const {
  std::size_t bound = 0;
  for (int s = 0; s < options_.shards; ++s) {
    bound += ShardCheckpointBound(s);
  }
  std::vector<std::uint8_t> blob;
  blob.reserve(bound);
  for (PartitionId p = 0; p < num_partitions_; ++p) {
    AppendPartitionCheckpoint(p, blob);
  }
  return blob;
}

std::vector<std::uint8_t> ModelStore::SerializeShardCheckpoint(int shard) const {
  PROTEUS_CHECK_GE(shard, 0);
  PROTEUS_CHECK_LT(shard, options_.shards);
  std::vector<std::uint8_t> blob;
  blob.reserve(ShardCheckpointBound(shard));
  for (PartitionId p = shard; p < num_partitions_; p += options_.shards) {
    AppendPartitionCheckpoint(p, blob);
  }
  return blob;
}

void ModelStore::ClearShard(int shard) {
  for (PartitionId p = shard; p < num_partitions_; p += options_.shards) {
    Partition& part = *partitions_[static_cast<std::size_t>(p)];
    std::lock_guard<std::mutex> lock(part.mu);
    for (auto& table_index : part.index) {
      std::fill(table_index.begin(), table_index.end(), kNoSlot);
    }
    part.slots.clear();
    for (auto& free : part.free_slots) {
      free.clear();
    }
    part.dirty.clear();
    part.used = 0;
    part.live_rows = 0;
  }
  BumpShardVersion(shard);
  backups_enabled_ = false;  // Restore invalidates the backup copy.
}

void ModelStore::LoadRows(std::span<const std::uint8_t> blob, int shard) {
  std::size_t offset = 0;
  auto read = [&](void* out, std::size_t n) {
    PROTEUS_CHECK_LE(offset + n, blob.size());
    std::memcpy(out, blob.data() + offset, n);
    offset += n;
  };
  while (offset < blob.size()) {
    RowKey key = 0;
    std::uint32_t n = 0;
    read(&key, sizeof(key));
    read(&n, sizeof(n));
    const int tbl = TableOfKey(key);
    const std::int64_t row = RowOfKey(key);
    PROTEUS_CHECK_EQ(n, static_cast<std::uint32_t>(table(tbl).cols)) << "row " << key;
    const PartitionId p = PartitionOf(tbl, row);
    PROTEUS_CHECK(shard < 0 || ShardOfPartition(p) == shard)
        << "row " << key << " not owned by shard " << shard;
    Partition& part = *partitions_[static_cast<std::size_t>(p)];
    std::lock_guard<std::mutex> lock(part.mu);
    std::uint32_t entry =
        part.index[static_cast<std::size_t>(tbl)][static_cast<std::size_t>(row / num_partitions_)];
    const std::uint32_t slot = entry != kNoSlot ? entry - 1 : AllocSlotLocked(part, tbl, row);
    read(part.values.get() + part.slots[slot].offset, static_cast<std::size_t>(n) * sizeof(float));
  }
}

void ModelStore::RestoreCheckpoint(const std::vector<std::uint8_t>& blob) {
  for (int s = 0; s < options_.shards; ++s) {
    ClearShard(s);
  }
  LoadRows(blob, /*shard=*/-1);
}

void ModelStore::RestoreShardCheckpoint(int shard, std::span<const std::uint8_t> blob) {
  PROTEUS_CHECK_GE(shard, 0);
  PROTEUS_CHECK_LT(shard, options_.shards);
  ClearShard(shard);
  LoadRows(blob, shard);
}

std::uint64_t ModelStore::ShardVersion(int shard) const {
  PROTEUS_CHECK_GE(shard, 0);
  PROTEUS_CHECK_LT(shard, options_.shards);
  std::uint64_t version = 0;
  for (PartitionId p = shard; p < num_partitions_; p += options_.shards) {
    version += partitions_[static_cast<std::size_t>(p)]->version.load(std::memory_order_relaxed);
  }
  return version;
}

ShardState ModelStore::ShardStateOf(int shard) const {
  PROTEUS_CHECK_GE(shard, 0);
  PROTEUS_CHECK_LT(shard, options_.shards);
  ShardState state;
  for (PartitionId p = shard; p < num_partitions_; p += options_.shards) {
    const Partition& part = *partitions_[static_cast<std::size_t>(p)];
    std::lock_guard<std::mutex> lock(part.mu);
    state.version += part.version.load(std::memory_order_relaxed);
    state.last_sync_clock = std::max(state.last_sync_clock, part.last_sync_clock);
    state.live_rows += part.live_rows;
    state.arena_floats += part.used;
  }
  return state;
}

double ModelStore::ShardImbalance() const {
  std::size_t max_rows = 0;
  std::size_t total = 0;
  for (int s = 0; s < options_.shards; ++s) {
    const std::size_t rows = ShardStateOf(s).live_rows;
    max_rows = std::max(max_rows, rows);
    total += rows;
  }
  if (total == 0) {
    return 1.0;
  }
  const double mean = static_cast<double>(total) / static_cast<double>(options_.shards);
  return static_cast<double>(max_rows) / mean;
}

void ModelStore::SetObservability(obs::MetricsRegistry* metrics) {
  sinks_.Attach(nullptr, metrics);
  std::vector<obs::Labels> shards;
  for (int s = 0; s < options_.shards; ++s) {
    shards.push_back({{"shard", std::to_string(s)}});
  }
  sinks_.BindSeries(
      {obs::Metric::kPsApplyNanos, obs::Metric::kPsApplyRows, obs::Metric::kPsShardRows}, shards);
}

void ModelStore::UpdateShardGauges() {
  if (!sinks_.Wants(obs::Metric::kPsShardImbalance)) {
    return;
  }
  for (int s = 0; s < options_.shards; ++s) {
    sinks_.Record(obs::Metric::kPsShardRows, ShardStateOf(s).live_rows, s);
  }
  sinks_.Record(obs::Metric::kPsShardImbalance, ShardImbalance());
}

void ModelStore::ForEachRow(
    int table, const std::function<void(std::int64_t, std::span<const float>)>& fn) const {
  const auto cols = static_cast<std::size_t>(this->table(table).cols);
  for (const auto& part : partitions_) {
    std::lock_guard<std::mutex> lock(part->mu);
    for (const std::uint32_t entry : part->index[static_cast<std::size_t>(table)]) {
      if (entry != kNoSlot) {
        const Slot& s = part->slots[entry - 1];
        fn(RowOfKey(s.key), std::span<const float>(part->values.get() + s.offset, cols));
      }
    }
  }
}

std::size_t ModelStore::MaterializedRows() const {
  std::size_t total = 0;
  for (const auto& part : partitions_) {
    std::lock_guard<std::mutex> lock(part->mu);
    total += part->live_rows;
  }
  return total;
}

}  // namespace proteus
