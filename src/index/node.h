#ifndef ODYSSEY_INDEX_NODE_H_
#define ODYSSEY_INDEX_NODE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/isax/isax_word.h"

namespace odyssey {

/// One node of an iSAX index tree. Nodes are labelled with an iSAX word;
/// splitting a full leaf refines one segment of the word by one bit,
/// producing a binary internal node (the classic iSAX2/MESSI scheme).
///
/// A node owns no series. The index keeps its bundle's rows in leaf order
/// (roots by key; within a subtree, the left child's rows before the
/// right's), so every subtree, and a leaf in particular, is the contiguous
/// row range [begin(), end()) of Index::data() and Index::sax(): a leaf
/// scan reads both as one sequential stream.
///
/// The shape is a pure function of the chunk's SAX rows: a node splits when
/// it holds more than leaf_capacity series and a segment can still be
/// refined, on the segment with the fewest bits (lowest index on ties). The
/// row order inside a leaf follows ascending ingest id. So two replicas
/// indexing the same chunk build bit-identical trees and row orders — the
/// property Odyssey's data-free work-stealing relies on (DESIGN.md §5).
class TreeNode {
 public:
  explicit TreeNode(IsaxWord word) : word_(std::move(word)) {}

  TreeNode(const TreeNode&) = delete;
  TreeNode& operator=(const TreeNode&) = delete;

  const IsaxWord& word() const { return word_; }
  bool is_leaf() const { return left_ == nullptr; }
  size_t subtree_size() const { return subtree_size_; }
  /// The subtree's rows: [begin(), end()) of the index's bundle.
  uint32_t begin() const { return begin_; }
  size_t end() const { return begin_ + subtree_size_; }

  /// Children (internal nodes only): left holds the refined bit 0, right
  /// the refined bit 1.
  const TreeNode* left() const { return left_.get(); }
  const TreeNode* right() const { return right_.get(); }
  int split_segment() const { return split_segment_; }

  /// Builds the subtree over ids[begin, begin + count) — the series under
  /// this node's word, ascending — and reorders that slice in place into
  /// leaf order: each split moves the ids whose refined bit is 0 ahead of
  /// those whose bit is 1, keeping the order within each side. `sax_table`
  /// holds one full-cardinality row (config.segments() bytes) per id;
  /// `scratch` is reusable working space.
  void BuildSubtree(uint32_t* ids, uint32_t begin, uint32_t count,
                    const uint8_t* sax_table, const IsaxConfig& config,
                    size_t leaf_capacity, std::vector<uint32_t>* scratch);

  /// Deserialization support (index persistence; see index/serialize.h):
  /// makes this fresh node a leaf over rows [begin, begin + count).
  void SetLeafRange(uint32_t begin, uint32_t count);
  /// Deserialization support: turns this fresh node into an internal node
  /// with the given children, whose ranges must be final and adjacent (the
  /// right child's rows start where the left child's end).
  void AdoptChildren(int split_segment, std::unique_ptr<TreeNode> left,
                     std::unique_ptr<TreeNode> right);

  /// Number of nodes in this subtree (for stats / memory accounting).
  size_t CountNodes() const;
  /// Number of leaves in this subtree.
  size_t CountLeaves() const;
  /// Maximum depth (a lone leaf has depth 1).
  size_t MaxDepth() const;
  /// Approximate heap bytes held by this subtree.
  size_t MemoryBytes() const;

 private:
  IsaxWord word_;
  size_t subtree_size_ = 0;

  std::unique_ptr<TreeNode> left_;
  std::unique_ptr<TreeNode> right_;
  int split_segment_ = -1;
  uint32_t begin_ = 0;
};

}  // namespace odyssey

#endif  // ODYSSEY_INDEX_NODE_H_
