#ifndef ODYSSEY_INDEX_TREE_H_
#define ODYSSEY_INDEX_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/index/buffers.h"
#include "src/index/node.h"

namespace odyssey {

/// The forest of root subtrees of an iSAX index: one subtree per non-empty
/// root key, ordered by key. The ordered array of roots is what RS-batches
/// partition, so its determinism across replicas matters. The roots' row
/// ranges tile the index's rows in key order.
class IndexTree {
 public:
  IndexTree() = default;
  IndexTree(IndexTree&&) = default;
  IndexTree& operator=(IndexTree&&) = default;

  /// Builds all subtrees from summarization buffers, which it consumes:
  /// each buffer's slice of ids is reordered in place as its subtree splits
  /// (TreeNode::BuildSubtree), so `*leaf_order` receives every id in leaf
  /// order — roots by key, left child before right — and each node's row
  /// range [begin, end) indexes that order. Each subtree is independent, so
  /// construction parallelizes over buffers (the paper's "tree time"
  /// phase). `sax_table` is a *view* of the chunk's full-cardinality
  /// summary rows (one row of config.segments() bytes per series, covering
  /// every id the buffers mention).
  static IndexTree Build(SummarizationBuffers buffers,
                         const uint8_t* sax_table, const IsaxConfig& config,
                         size_t leaf_capacity, ThreadPool* pool,
                         std::vector<uint32_t>* leaf_order);

  /// Deserialization support: adopts pre-built subtrees. `keys` must be
  /// sorted ascending and parallel to `roots`.
  static IndexTree FromRoots(std::vector<uint32_t> keys,
                             std::vector<std::unique_ptr<TreeNode>> roots);

  size_t root_count() const { return roots_.size(); }
  const TreeNode* root(size_t i) const { return roots_[i].get(); }
  uint32_t root_key(size_t i) const { return keys_[i]; }

  /// Index (into the root array) of the subtree for `key`, or -1 if no
  /// series maps to that key.
  int FindRoot(uint32_t key) const;

  /// Aggregate statistics across all subtrees.
  struct Stats {
    size_t roots = 0;
    size_t nodes = 0;
    size_t leaves = 0;
    size_t max_depth = 0;
    size_t series = 0;
  };
  Stats ComputeStats() const;

  /// Approximate heap bytes of all subtrees.
  size_t MemoryBytes() const;

 private:
  std::vector<uint32_t> keys_;                    // sorted ascending
  std::vector<std::unique_ptr<TreeNode>> roots_;  // parallel to keys_
};

}  // namespace odyssey

#endif  // ODYSSEY_INDEX_TREE_H_
