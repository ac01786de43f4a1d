#include "src/index/node.h"

#include <algorithm>

#include "src/common/check.h"

namespace odyssey {

void TreeNode::BuildSubtree(uint32_t* ids, uint32_t begin, uint32_t count,
                            const uint8_t* sax_table, const IsaxConfig& config,
                            size_t leaf_capacity,
                            std::vector<uint32_t>* scratch) {
  begin_ = begin;
  subtree_size_ = count;
  if (count <= leaf_capacity) return;
  // Deterministic split choice: the segment with the fewest bits that can
  // still be refined; lowest index breaks ties.
  int seg = -1;
  int best_bits = config.max_bits;
  for (size_t i = 0; i < word_.bits.size(); ++i) {
    if (word_.bits[i] < best_bits) {
      best_bits = word_.bits[i];
      seg = static_cast<int>(i);
    }
  }
  if (seg < 0) return;  // fully refined: oversized leaf allowed

  IsaxWord left_word = word_;
  left_word.bits[seg] = static_cast<uint8_t>(word_.bits[seg] + 1);
  left_word.symbols[seg] = static_cast<uint8_t>(word_.symbols[seg] << 1);
  IsaxWord right_word = left_word;
  right_word.symbols[seg] = static_cast<uint8_t>(right_word.symbols[seg] | 1u);
  const int shift = config.max_bits - left_word.bits[seg];
  left_ = std::make_unique<TreeNode>(std::move(left_word));
  right_ = std::make_unique<TreeNode>(std::move(right_word));
  split_segment_ = seg;

  // Stable partition on the refined bit: bit-0 ids compact forward in
  // place, bit-1 ids wait in the scratch and follow them.
  const size_t w = static_cast<size_t>(config.segments());
  uint32_t* slice = ids + begin;
  uint32_t left_count = 0;
  scratch->clear();
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t id = slice[i];
    if (((sax_table[size_t{id} * w + static_cast<size_t>(seg)] >> shift) &
         1u) == 0) {
      slice[left_count++] = id;
    } else {
      scratch->push_back(id);
    }
  }
  std::copy(scratch->begin(), scratch->end(), slice + left_count);
  // A pathological split can leave one child oversized (all summaries
  // identical at the refined bit); the recursion splits it again until
  // balanced or fully refined.
  left_->BuildSubtree(ids, begin, left_count, sax_table, config, leaf_capacity,
                      scratch);
  right_->BuildSubtree(ids, begin + left_count, count - left_count, sax_table,
                       config, leaf_capacity, scratch);
}

void TreeNode::SetLeafRange(uint32_t begin, uint32_t count) {
  ODYSSEY_CHECK(is_leaf() && subtree_size_ == 0);
  begin_ = begin;
  subtree_size_ = count;
}

void TreeNode::AdoptChildren(int split_segment,
                             std::unique_ptr<TreeNode> left,
                             std::unique_ptr<TreeNode> right) {
  ODYSSEY_CHECK(is_leaf() && subtree_size_ == 0);
  ODYSSEY_CHECK(left != nullptr && right != nullptr);
  ODYSSEY_CHECK(right->begin_ == left->end());
  split_segment_ = split_segment;
  left_ = std::move(left);
  right_ = std::move(right);
  begin_ = left_->begin_;
  subtree_size_ = left_->subtree_size_ + right_->subtree_size_;
}

size_t TreeNode::CountNodes() const {
  if (is_leaf()) return 1;
  return 1 + left_->CountNodes() + right_->CountNodes();
}

size_t TreeNode::CountLeaves() const {
  if (is_leaf()) return 1;
  return left_->CountLeaves() + right_->CountLeaves();
}

size_t TreeNode::MaxDepth() const {
  if (is_leaf()) return 1;
  return 1 + std::max(left_->MaxDepth(), right_->MaxDepth());
}

size_t TreeNode::MemoryBytes() const {
  size_t bytes =
      sizeof(TreeNode) + word_.symbols.capacity() + word_.bits.capacity();
  if (!is_leaf()) bytes += left_->MemoryBytes() + right_->MemoryBytes();
  return bytes;
}

}  // namespace odyssey
