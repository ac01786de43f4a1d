#include "src/index/tree.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace odyssey {

IndexTree IndexTree::Build(SummarizationBuffers buffers,
                           const uint8_t* sax_table, const IsaxConfig& config,
                           size_t leaf_capacity, ThreadPool* pool,
                           std::vector<uint32_t>* leaf_order) {
  ODYSSEY_CHECK(leaf_capacity >= 1);
  ODYSSEY_CHECK(leaf_order != nullptr);
  IndexTree tree;
  tree.keys_ = std::move(buffers.keys);
  tree.roots_.resize(tree.keys_.size());
  uint32_t* ids = buffers.ids.data();

  auto build_range = [&](size_t begin, size_t end) {
    std::vector<uint32_t> scratch;
    for (size_t b = begin; b < end; ++b) {
      auto root = std::make_unique<TreeNode>(
          IsaxWord::Root(config, tree.keys_[b]));
      root->BuildSubtree(
          ids, static_cast<uint32_t>(buffers.starts[b]),
          static_cast<uint32_t>(buffers.starts[b + 1] - buffers.starts[b]),
          sax_table, config, leaf_capacity, &scratch);
      tree.roots_[b] = std::move(root);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(tree.roots_.size(), build_range);
  } else {
    build_range(0, tree.roots_.size());
  }
  *leaf_order = std::move(buffers.ids);
  return tree;
}

IndexTree IndexTree::FromRoots(std::vector<uint32_t> keys,
                               std::vector<std::unique_ptr<TreeNode>> roots) {
  ODYSSEY_CHECK(keys.size() == roots.size());
  ODYSSEY_CHECK(std::is_sorted(keys.begin(), keys.end()));
  IndexTree tree;
  tree.keys_ = std::move(keys);
  tree.roots_ = std::move(roots);
  return tree;
}

int IndexTree::FindRoot(uint32_t key) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return -1;
  return static_cast<int>(it - keys_.begin());
}

IndexTree::Stats IndexTree::ComputeStats() const {
  Stats stats;
  stats.roots = roots_.size();
  for (const auto& root : roots_) {
    stats.nodes += root->CountNodes();
    stats.leaves += root->CountLeaves();
    stats.max_depth = std::max(stats.max_depth, root->MaxDepth());
    stats.series += root->subtree_size();
  }
  return stats;
}

size_t IndexTree::MemoryBytes() const {
  size_t bytes = keys_.capacity() * sizeof(uint32_t) +
                 roots_.capacity() * sizeof(roots_[0]);
  for (const auto& root : roots_) bytes += root->MemoryBytes();
  return bytes;
}

}  // namespace odyssey
