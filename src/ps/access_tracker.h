// Per-node, per-iteration record of which parameter rows a node's workers
// read and updated. The AgileML runtime converts these sets into wire
// bytes: the worker-side library caches reads within a clock and
// write-back-coalesces updates (§2.1), so each distinct row costs one
// fetch and one flush per clock regardless of how many times workers on
// the node touch it.
//
// Recording is an append (skipping a repeat of the last key); Finalize()
// sorts and dedupes once at the end of the node's work. Clear() keeps the
// buffers' capacity, so a tracker reused across clocks stops allocating.
#ifndef SRC_PS_ACCESS_TRACKER_H_
#define SRC_PS_ACCESS_TRACKER_H_

#include <cstdint>
#include <vector>

#include "src/ps/model.h"

namespace proteus {

class AccessTracker {
 public:
  void Clear() {
    reads_.clear();
    updates_.clear();
  }

  void RecordRead(int table, std::int64_t row) { Append(reads_, MakeRowKey(table, row)); }
  void RecordUpdate(int table, std::int64_t row) { Append(updates_, MakeRowKey(table, row)); }

  // Sorts and dedupes the recorded keys. Call once, after the last record
  // of the clock.
  void Finalize();

  // Distinct rows touched this clock, ascending (after Finalize()).
  const std::vector<RowKey>& reads() const { return reads_; }
  const std::vector<RowKey>& updates() const { return updates_; }

 private:
  static void Append(std::vector<RowKey>& keys, RowKey key) {
    if (keys.empty() || keys.back() != key) {
      keys.push_back(key);
    }
  }

  std::vector<RowKey> reads_;
  std::vector<RowKey> updates_;
};

}  // namespace proteus

#endif  // SRC_PS_ACCESS_TRACKER_H_
