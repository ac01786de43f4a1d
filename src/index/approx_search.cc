#include "src/index/approx_search.h"

#include <limits>

#include "src/common/check.h"
#include "src/distance/dtw.h"
#include "src/distance/simd.h"
#include "src/isax/mindist.h"

namespace odyssey {
namespace {

/// Descends to the best-matching non-empty leaf. If the query's own root
/// key has no subtree, falls back to the root with the smallest word-level
/// lower bound (the standard iSAX approximate-search fallback).
const TreeNode* DescendToLeaf(const Index& index, const double* query_paa,
                              const uint8_t* query_sax) {
  const IndexTree& tree = index.tree();
  ODYSSEY_CHECK(tree.root_count() > 0);
  const IsaxConfig& config = index.config();

  const uint32_t key = RootKey(query_sax, config);
  int root_idx = tree.FindRoot(key);
  if (root_idx < 0) {
    float best = std::numeric_limits<float>::infinity();
    for (size_t i = 0; i < tree.root_count(); ++i) {
      const float lb =
          MindistPaaToWord(query_paa, tree.root(i)->word(), config);
      if (lb < best) {
        best = lb;
        root_idx = static_cast<int>(i);
      }
    }
  }

  const TreeNode* node = tree.root(static_cast<size_t>(root_idx));
  while (!node->is_leaf()) {
    const int s = node->split_segment();
    const int child_bits = node->left()->word().bits[s];
    const uint8_t bit = static_cast<uint8_t>(
                            query_sax[s] >> (config.max_bits - child_bits)) &
                        1u;
    const TreeNode* preferred = (bit == 0) ? node->left() : node->right();
    const TreeNode* other = (bit == 0) ? node->right() : node->left();
    node = (preferred->subtree_size() > 0) ? preferred : other;
  }
  ODYSSEY_CHECK(node->subtree_size() > 0);
  return node;
}

template <typename DistanceFn>
float ScanLeaf(const Index& index, const TreeNode* leaf, const float* query,
               uint32_t* answer_id, const DistanceFn& distance) {
  float best = std::numeric_limits<float>::infinity();
  const uint32_t end = static_cast<uint32_t>(leaf->end());
  for (uint32_t row = leaf->begin(); row < end; ++row) {
    const float d = distance(query, index.data().data(row), best);
    if (d < best) {
      best = d;
      if (answer_id != nullptr) *answer_id = row;
    }
  }
  return best;
}

}  // namespace

const TreeNode* ApproximateSearchLeaf(const Index& index,
                                      const PreparedQuery& query) {
  return DescendToLeaf(index, query.paa(), query.sax());
}

float ApproximateSearchSquared(const Index& index, const PreparedQuery& query,
                               uint32_t* answer_id) {
  const TreeNode* leaf = DescendToLeaf(index, query.paa(), query.sax());
  const size_t n = index.config().series_length();
  const simd::KernelTable& kernels = simd::ActiveTable();
  return ScanLeaf(index, leaf, query.series(), answer_id,
                  [n, &kernels](const float* q, const float* s,
                                float threshold) {
                    return kernels.squared_euclidean_early_abandon(q, s, n,
                                                                   threshold);
                  });
}

float ApproximateSearchSquaredDtw(const Index& index,
                                  const PreparedQuery& query,
                                  uint32_t* answer_id) {
  ODYSSEY_CHECK_MSG(query.has_envelope(),
                    "DTW approximate search needs a DTW-prepared query");
  const TreeNode* leaf = DescendToLeaf(index, query.paa(), query.sax());
  const size_t n = index.config().series_length();
  const size_t window = query.dtw_window();
  return ScanLeaf(index, leaf, query.series(), answer_id,
                  [n, window](const float* q, const float* s, float threshold) {
                    return SquaredDtwEarlyAbandon(q, s, n, window, threshold);
                  });
}

}  // namespace odyssey
