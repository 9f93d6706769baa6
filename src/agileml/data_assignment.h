// Input-data ownership tracking with previous-owner preloading (Fig. 5).
//
// The input set [0, num_items) is divided into fixed-size blocks. Each
// block has exactly one *owner* (the worker node currently processing it)
// and a *loaded set* (nodes holding a copy in memory). When new nodes
// join, blocks move to them and the previous owner keeps its copy; when a
// node is evicted, its blocks return to a surviving node that already has
// them loaded — "the previous owner of the worker's input data takes
// ownership ... there will be no need to stop and load the input data
// from storage" (§3.3).
#ifndef SRC_AGILEML_DATA_ASSIGNMENT_H_
#define SRC_AGILEML_DATA_ASSIGNMENT_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/common/types.h"

namespace proteus {

struct ItemRange {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t size() const { return end - begin; }
};

// One block movement produced by a rebalance. `needs_load` is true when
// the destination did not have the block in memory and must fetch it from
// storage (S3) before taking over.
struct BlockMove {
  int block = 0;
  NodeId from = kInvalidNode;  // kInvalidNode for initial assignment.
  NodeId to = kInvalidNode;
  bool needs_load = false;
};

class DataAssignment {
 public:
  DataAssignment(std::int64_t num_items, int num_blocks);

  std::int64_t num_items() const { return num_items_; }
  int num_blocks() const { return num_blocks_; }
  ItemRange BlockRange(int block) const;
  std::int64_t BlockBytes(int block, double bytes_per_item) const;

  // Rebalances ownership across exactly the given worker set (±1 block
  // per node). Nodes keep blocks they already own where possible, and
  // incoming nodes are given blocks they have loaded if any. Returns the
  // moves performed.
  std::vector<BlockMove> Rebalance(const std::vector<NodeId>& workers);

  bool IsLoaded(int block, NodeId node) const;

  // Drops a node entirely (eviction/failure): its loaded copies vanish.
  // Ownership of its blocks must be reassigned by a following
  // Rebalance(). Returns the blocks it owned.
  std::vector<int> DropNode(NodeId node);

  NodeId OwnerOf(int block) const;
  std::vector<int> BlocksOf(NodeId node) const;
  std::vector<ItemRange> RangesOf(NodeId node) const;
  std::int64_t ItemCountOf(NodeId node) const;

  // Invariant check: every block has exactly one live owner.
  bool OwnershipIsComplete() const;

 private:
  std::int64_t num_items_;
  int num_blocks_;
  std::vector<NodeId> owner_;              // Per block; kInvalidNode if unassigned.
  std::vector<std::set<NodeId>> loaded_;   // Per block.
};

}  // namespace proteus

#endif  // SRC_AGILEML_DATA_ASSIGNMENT_H_
