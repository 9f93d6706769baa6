#include "src/agileml/data_assignment.h"

#include <algorithm>

#include "src/common/logging.h"

namespace proteus {

DataAssignment::DataAssignment(std::int64_t num_items, int num_blocks)
    : num_items_(num_items),
      num_blocks_(num_blocks),
      owner_(static_cast<std::size_t>(num_blocks), kInvalidNode),
      loaded_(static_cast<std::size_t>(num_blocks)) {
  PROTEUS_CHECK_GT(num_items, 0);
  PROTEUS_CHECK_GT(num_blocks, 0);
}

ItemRange DataAssignment::BlockRange(int block) const {
  PROTEUS_CHECK_GE(block, 0);
  PROTEUS_CHECK_LT(block, num_blocks_);
  const std::int64_t begin = num_items_ * block / num_blocks_;
  const std::int64_t end = num_items_ * (block + 1) / num_blocks_;
  return {begin, end};
}

std::int64_t DataAssignment::BlockBytes(int block, double bytes_per_item) const {
  return static_cast<std::int64_t>(static_cast<double>(BlockRange(block).size()) *
                                   bytes_per_item);
}

std::vector<BlockMove> DataAssignment::Rebalance(const std::vector<NodeId>& workers) {
  PROTEUS_CHECK(!workers.empty());
  std::vector<BlockMove> moves;
  const int n = static_cast<int>(workers.size());
  const int base = num_blocks_ / n;
  const int extra = num_blocks_ % n;
  // Target counts: first `extra` workers (by list order) get base+1.
  std::map<NodeId, int> target;
  for (int i = 0; i < n; ++i) {
    target[workers[i]] = base + (i < extra ? 1 : 0);
  }
  // Current counts among the new worker set; blocks owned by nodes
  // outside the set become orphans to reassign.
  std::map<NodeId, int> have;
  for (const NodeId w : workers) {
    have[w] = 0;
  }
  std::vector<int> orphans;
  for (int b = 0; b < num_blocks_; ++b) {
    const NodeId o = owner_[static_cast<std::size_t>(b)];
    auto it = have.find(o);
    if (o != kInvalidNode && it != have.end()) {
      ++it->second;
    } else {
      orphans.push_back(b);
    }
  }
  // Take excess blocks away from over-target nodes (preferring blocks the
  // under-target nodes already have loaded is handled at give-time).
  std::vector<int> pool = orphans;
  for (const NodeId w : workers) {
    while (have[w] > target[w]) {
      // Release this node's highest-index block.
      for (int b = num_blocks_ - 1; b >= 0; --b) {
        if (owner_[static_cast<std::size_t>(b)] == w) {
          pool.push_back(b);
          owner_[static_cast<std::size_t>(b)] = kInvalidNode;
          --have[w];
          break;
        }
      }
    }
  }
  // Hand pooled blocks to under-target nodes, preferring already-loaded
  // blocks for each recipient.
  for (const NodeId w : workers) {
    while (have[w] < target[w]) {
      PROTEUS_CHECK(!pool.empty());
      // Prefer a pooled block this node has loaded.
      auto pick = pool.end();
      for (auto it = pool.begin(); it != pool.end(); ++it) {
        if (IsLoaded(*it, w)) {
          pick = it;
          break;
        }
      }
      if (pick == pool.end()) {
        pick = pool.begin();
      }
      const int b = *pick;
      pool.erase(pick);
      const NodeId prev = owner_[static_cast<std::size_t>(b)];
      const bool needs_load = !IsLoaded(b, w);
      owner_[static_cast<std::size_t>(b)] = w;
      loaded_[static_cast<std::size_t>(b)].insert(w);
      ++have[w];
      moves.push_back({b, prev, w, needs_load});
    }
  }
  PROTEUS_CHECK(pool.empty());
  return moves;
}

bool DataAssignment::IsLoaded(int block, NodeId node) const {
  return loaded_[static_cast<std::size_t>(block)].count(node) > 0;
}

std::vector<int> DataAssignment::DropNode(NodeId node) {
  std::vector<int> owned;
  for (int b = 0; b < num_blocks_; ++b) {
    if (owner_[static_cast<std::size_t>(b)] == node) {
      owned.push_back(b);
      owner_[static_cast<std::size_t>(b)] = kInvalidNode;
    }
    loaded_[static_cast<std::size_t>(b)].erase(node);
  }
  return owned;
}

NodeId DataAssignment::OwnerOf(int block) const {
  PROTEUS_CHECK_GE(block, 0);
  PROTEUS_CHECK_LT(block, num_blocks_);
  return owner_[static_cast<std::size_t>(block)];
}

std::vector<int> DataAssignment::BlocksOf(NodeId node) const {
  std::vector<int> blocks;
  for (int b = 0; b < num_blocks_; ++b) {
    if (owner_[static_cast<std::size_t>(b)] == node) {
      blocks.push_back(b);
    }
  }
  return blocks;
}

std::vector<ItemRange> DataAssignment::RangesOf(NodeId node) const {
  std::vector<ItemRange> ranges;
  for (int b : BlocksOf(node)) {
    const ItemRange r = BlockRange(b);
    if (!ranges.empty() && ranges.back().end == r.begin) {
      ranges.back().end = r.end;  // Merge adjacent blocks.
    } else {
      ranges.push_back(r);
    }
  }
  return ranges;
}

std::int64_t DataAssignment::ItemCountOf(NodeId node) const {
  std::int64_t count = 0;
  for (const auto& r : RangesOf(node)) {
    count += r.size();
  }
  return count;
}

bool DataAssignment::OwnershipIsComplete() const {
  for (int b = 0; b < num_blocks_; ++b) {
    if (owner_[static_cast<std::size_t>(b)] == kInvalidNode) {
      return false;
    }
  }
  return true;
}

}  // namespace proteus
