#include "src/ps/access_tracker.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

namespace proteus {
namespace {

std::vector<RowKey> Keys(std::initializer_list<std::pair<int, std::int64_t>> rows) {
  std::vector<RowKey> keys;
  for (const auto& [table, row] : rows) {
    keys.push_back(MakeRowKey(table, row));
  }
  return keys;
}

TEST(AccessTrackerTest, FinalizeSortsAndDedupes) {
  AccessTracker tracker;
  tracker.RecordRead(1, 5);
  tracker.RecordRead(0, 9);
  tracker.RecordRead(1, 5);
  tracker.RecordRead(0, 9);
  tracker.RecordRead(0, 2);
  tracker.RecordUpdate(0, 9);
  tracker.RecordUpdate(0, 9);  // Repeat of the last key: not appended.
  tracker.RecordUpdate(1, 0);
  tracker.Finalize();
  EXPECT_EQ(tracker.reads(), Keys({{0, 2}, {0, 9}, {1, 5}}));
  EXPECT_EQ(tracker.updates(), Keys({{0, 9}, {1, 0}}));
}

TEST(AccessTrackerTest, ReadsAndUpdatesAreIndependent) {
  AccessTracker tracker;
  tracker.RecordRead(0, 1);
  tracker.Finalize();
  EXPECT_EQ(tracker.reads(), Keys({{0, 1}}));
  EXPECT_TRUE(tracker.updates().empty());
}

TEST(AccessTrackerTest, ClearForgetsRowsButKeepsCapacity) {
  AccessTracker tracker;
  for (std::int64_t r = 0; r < 1000; ++r) {
    tracker.RecordRead(0, r);
    tracker.RecordUpdate(1, r);
  }
  tracker.Finalize();
  const std::size_t read_capacity = tracker.reads().capacity();
  const std::size_t update_capacity = tracker.updates().capacity();
  ASSERT_GE(read_capacity, 1000u);
  tracker.Clear();
  EXPECT_TRUE(tracker.reads().empty());
  EXPECT_TRUE(tracker.updates().empty());
  EXPECT_EQ(tracker.reads().capacity(), read_capacity);
  EXPECT_EQ(tracker.updates().capacity(), update_capacity);
  // A second clock of the same size reuses the buffers.
  for (std::int64_t r = 0; r < 1000; ++r) {
    tracker.RecordRead(0, r);
    tracker.RecordUpdate(1, r);
  }
  tracker.Finalize();
  EXPECT_EQ(tracker.reads().capacity(), read_capacity);
  EXPECT_EQ(tracker.updates().capacity(), update_capacity);
  EXPECT_EQ(tracker.reads().size(), 1000u);
}

TEST(AccessTrackerTest, MatchesSetOracleOnRandomStreams) {
  std::mt19937_64 rng(17);
  AccessTracker tracker;
  for (int clock = 0; clock < 20; ++clock) {
    tracker.Clear();
    std::set<RowKey> reads;
    std::set<RowKey> updates;
    const int ops = 1 + static_cast<int>(rng() % 3000);
    for (int i = 0; i < ops; ++i) {
      const int table = static_cast<int>(rng() % 3);
      // A narrow row range forces plenty of repeats, adjacent and not.
      const auto row = static_cast<std::int64_t>(rng() % 200);
      if (rng() % 2 == 0) {
        tracker.RecordRead(table, row);
        reads.insert(MakeRowKey(table, row));
      } else {
        tracker.RecordUpdate(table, row);
        updates.insert(MakeRowKey(table, row));
      }
    }
    tracker.Finalize();
    EXPECT_EQ(tracker.reads(), std::vector<RowKey>(reads.begin(), reads.end()));
    EXPECT_EQ(tracker.updates(), std::vector<RowKey>(updates.begin(), updates.end()));
  }
}

}  // namespace
}  // namespace proteus
