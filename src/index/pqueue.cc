#include "src/index/pqueue.h"

#include <algorithm>

#include "src/common/check.h"

namespace odyssey {
namespace {

struct MinHeapCompare {
  bool operator()(const PqItem& a, const PqItem& b) const {
    return a.lower_bound > b.lower_bound;  // std::*_heap builds a max-heap
  }
};

}  // namespace

bool BoundedPq::Push(PqItem item) {
  heap_.push_back(item);
  std::push_heap(heap_.begin(), heap_.end(), MinHeapCompare());
  return heap_.size() >= capacity_;
}

PqItem BoundedPq::Pop() {
  ODYSSEY_CHECK(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), MinHeapCompare());
  const PqItem item = heap_.back();
  heap_.pop_back();
  return item;
}

}  // namespace odyssey
