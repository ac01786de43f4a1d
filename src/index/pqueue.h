#ifndef ODYSSEY_INDEX_PQUEUE_H_
#define ODYSSEY_INDEX_PQUEUE_H_

#include <cstddef>
#include <vector>

#include "src/index/node.h"

namespace odyssey {

/// One entry of a leaf priority queue: a leaf that could not be pruned at
/// tree-traversal time, keyed by its word-level lower bound.
struct PqItem {
  float lower_bound = 0.0f;
  const TreeNode* leaf = nullptr;
};

/// A size-bounded min-priority queue of index leaves. When a push makes the
/// queue reach its capacity (the paper's threshold TH), the owning thread
/// seals it and starts a new one for the same RS-batch (Section 3.2.1), so
/// every queue holds at most TH leaves of exactly one RS-batch — the unit
/// of work the work-stealing protocol hands out.
class BoundedPq {
 public:
  /// `capacity` is TH, at least 1 (QueryExecution checks its options).
  explicit BoundedPq(size_t capacity) : capacity_(capacity) {}

  /// Pushes an item. Returns true if the queue is now full (caller should
  /// seal it and open a new one).
  bool Push(PqItem item);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Smallest lower bound in the queue (the sort key of the PQueues array).
  float MinLowerBound() const { return heap_.front().lower_bound; }

  /// Removes and returns the item with the smallest lower bound.
  PqItem Pop();

 private:
  size_t capacity_;
  std::vector<PqItem> heap_;  // binary min-heap on lower_bound
};

}  // namespace odyssey

#endif  // ODYSSEY_INDEX_PQUEUE_H_
