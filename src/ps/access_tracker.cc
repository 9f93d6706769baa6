#include "src/ps/access_tracker.h"

#include <algorithm>

namespace proteus {

namespace {
void SortUnique(std::vector<RowKey>& keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}
}  // namespace

void AccessTracker::Finalize() {
  SortUnique(reads_);
  SortUnique(updates_);
}

}  // namespace proteus
