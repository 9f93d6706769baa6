// A deliberately naive parameter store used as the differential oracle
// for ModelStore: ordered maps for state, backup and the dirty set, no
// locks, no arenas, no index. It models exactly the observable contract
// the differential battery compares: row values, the backup copy, the
// dirty set, canonical checkpoint bytes and EncodeDirtyRows payloads.
//
// Lazy initial values come from a never-mutated ModelStore with the same
// tables and seed (reading a row only materializes its initial value),
// so the oracle shares the init hash but none of the storage layout.
#ifndef TESTS_PS_REFERENCE_STORE_H_
#define TESTS_PS_REFERENCE_STORE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "src/ps/model.h"
#include "src/rpc/serializer.h"

namespace proteus {

class ReferenceStore {
 public:
  ReferenceStore(std::vector<TableSpec> tables, int num_partitions, std::uint64_t seed)
      : num_partitions_(num_partitions),
        pristine_(std::move(tables), num_partitions, seed) {}

  int num_partitions() const { return num_partitions_; }
  bool backups_enabled() const { return backups_enabled_; }

  PartitionId PartitionOf(int table, std::int64_t row) const {
    return static_cast<PartitionId>((row + table) % num_partitions_);
  }

  void ReadRow(int table, std::int64_t row, std::vector<float>& out) {
    out = Row(table, row);
  }
  void ApplyDelta(int table, std::int64_t row, std::span<const float> delta) {
    std::vector<float>& value = Row(table, row);
    ASSERT_EQ(value.size(), delta.size());
    for (std::size_t c = 0; c < value.size(); ++c) {
      value[c] += delta[c];
    }
    dirty_.insert(MakeRowKey(table, row));
  }
  void ApplyUpdates(std::span<const RowDelta> deltas) {
    for (const RowDelta& d : deltas) {
      ApplyDelta(d.table, d.row, d.values);
    }
  }
  void SetRow(int table, std::int64_t row, std::span<const float> value) {
    Row(table, row).assign(value.begin(), value.end());
    dirty_.insert(MakeRowKey(table, row));
  }

  void EnableBackups() {
    backup_ = state_;
    dirty_.clear();
    backups_enabled_ = true;
  }
  void SyncPartitionToBackup(PartitionId p, Clock /*at_clock*/ = -1) {
    ASSERT_TRUE(backups_enabled_);
    for (auto it = dirty_.begin(); it != dirty_.end();) {
      if (PartitionOfKey(*it) == p) {
        backup_[*it] = state_.at(*it);
        it = dirty_.erase(it);
      } else {
        ++it;
      }
    }
  }
  void RollbackPartitionToBackup(PartitionId p) {
    ASSERT_TRUE(backups_enabled_);
    for (auto it = dirty_.begin(); it != dirty_.end();) {
      if (PartitionOfKey(*it) != p) {
        ++it;
        continue;
      }
      const auto saved = backup_.find(*it);
      if (saved != backup_.end()) {
        state_[*it] = saved->second;
      } else {
        state_.erase(*it);  // Created after the last sync: lazy re-init.
      }
      it = dirty_.erase(it);
    }
  }
  void RollbackAllToBackup() {
    for (PartitionId p = 0; p < num_partitions_; ++p) {
      RollbackPartitionToBackup(p);
    }
  }

  std::size_t MaterializedRows() const { return state_.size(); }

  // Partitions ascending, keys ascending within a partition; each row is
  // key, column count, raw floats.
  std::vector<std::uint8_t> SerializeCheckpoint() const {
    std::vector<std::uint8_t> blob;
    auto append = [&blob](const void* data, std::size_t n) {
      const auto* bytes = static_cast<const std::uint8_t*>(data);
      blob.insert(blob.end(), bytes, bytes + n);
    };
    for (PartitionId p = 0; p < num_partitions_; ++p) {
      for (const auto& [key, value] : state_) {
        if (PartitionOfKey(key) != p) {
          continue;
        }
        const auto cols = static_cast<std::uint32_t>(value.size());
        append(&key, sizeof(key));
        append(&cols, sizeof(cols));
        append(value.data(), value.size() * sizeof(float));
      }
    }
    return blob;
  }
  void RestoreCheckpoint(const std::vector<std::uint8_t>& blob) {
    state_.clear();
    backup_.clear();
    dirty_.clear();
    backups_enabled_ = false;
    std::size_t offset = 0;
    while (offset < blob.size()) {
      RowKey key = 0;
      std::uint32_t cols = 0;
      std::memcpy(&key, blob.data() + offset, sizeof(key));
      std::memcpy(&cols, blob.data() + offset + sizeof(key), sizeof(cols));
      offset += sizeof(key) + sizeof(cols);
      std::vector<float> value(cols);
      std::memcpy(value.data(), blob.data() + offset, cols * sizeof(float));
      offset += cols * sizeof(float);
      state_[key] = std::move(value);
    }
  }

  // The dirty rows of partition p, key order, as one delta batch.
  std::vector<std::uint8_t> EncodeDirtyRows(PartitionId p) const {
    std::vector<DeltaRow> rows;
    for (const RowKey key : dirty_) {
      if (PartitionOfKey(key) == p) {
        rows.push_back({key, std::span<const float>(state_.at(key))});
      }
    }
    return EncodeDeltaBatch(rows);
  }

 private:
  PartitionId PartitionOfKey(RowKey key) const {
    return PartitionOf(TableOfKey(key), RowOfKey(key));
  }

  std::vector<float>& Row(int table, std::int64_t row) {
    const RowKey key = MakeRowKey(table, row);
    auto it = state_.find(key);
    if (it == state_.end()) {
      std::vector<float> init;
      pristine_.ReadRow(table, row, init);
      it = state_.emplace(key, std::move(init)).first;
    }
    return it->second;
  }

  int num_partitions_;
  ModelStore pristine_;  // Never mutated: the lazy-init value source.
  bool backups_enabled_ = false;
  std::map<RowKey, std::vector<float>> state_;
  std::map<RowKey, std::vector<float>> backup_;
  std::set<RowKey> dirty_;
};

}  // namespace proteus

#endif  // TESTS_PS_REFERENCE_STORE_H_
