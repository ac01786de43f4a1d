#ifndef ODYSSEY_INDEX_BUILDER_H_
#define ODYSSEY_INDEX_BUILDER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/common/thread_pool.h"
#include "src/core/shared_chunk.h"
#include "src/dataset/series_collection.h"
#include "src/index/tree.h"
#include "src/isax/isax_word.h"

namespace odyssey {

/// Index construction knobs.
struct IndexOptions {
  IsaxConfig config;
  /// Leaf split threshold in series.
  size_t leaf_capacity = 128;
};

/// Timing breakdown of index construction, matching the paper's evaluation
/// measures: "buffer time" (summaries + summarization buffers) and
/// "tree time" (building the subtrees, then copying the rows into the
/// bundle in leaf order). Their sum is the index time. A cluster builds one
/// index per replication group, so it keeps one BuildTimings per group.
/// Note the cluster caveat: a cluster summarizes every series before
/// partitioning and charges that to OdysseyCluster::ingest_seconds(), so a
/// group's buffer time covers only the grouping — compare cluster and
/// standalone builds on ingest + partition + index totals, not on
/// buffer_seconds alone.
struct BuildTimings {
  double buffer_seconds = 0.0;
  double tree_seconds = 0.0;

  double index_seconds() const { return buffer_seconds + tree_seconds; }
};

/// Copies the series whose source id is `id` into `dst` (series_length()
/// floats). The index build calls it from every pool worker at once, so it
/// must be thread-safe. A non-Ok Status fails the build.
using RowSource = std::function<Status(uint32_t id, float* dst)>;

/// The failure of the lowest row among any number of concurrent reports:
/// the row a sequential reader would have stopped at. Thread-safe.
class LowestRowFailure {
 public:
  void Record(size_t row, Status status) ODYSSEY_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (row < row_) {
      row_ = row;
      status_ = std::move(status);
    }
  }
  /// Ok until a failure is recorded.
  Status status() const ODYSSEY_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return status_;
  }

 private:
  mutable Mutex mu_;
  size_t row_ ODYSSEY_GUARDED_BY(mu_) = SIZE_MAX;
  Status status_ ODYSSEY_GUARDED_BY(mu_) = Status::Ok();
};

/// A complete single-node index over one data chunk: the chunk bundle (raw
/// series, global ids and full-cardinality SAX table, see
/// src/core/shared_chunk.h), which it owns, plus its iSAX tree. This is
/// what the QueryEngine executes against. A cluster builds one Index per
/// replication group, and every member of the group holds a shared_ptr to
/// that same object, so replica trees are identical by construction.
///
/// The bundle's rows are in the tree's leaf order, and every node names a
/// row range (src/index/node.h). An answer id is a row of data(), and
/// chunk()->global_ids() maps it to the caller's id.
class Index {
 public:
  /// Builds a private index over `chunk`: summarizes it (on `pool`, which
  /// may be null) and builds through BuildFromSource, so global_ids() maps
  /// each row to the series' position in `chunk`. The rows are copied into
  /// fresh leaf-ordered storage before `chunk` is freed, so the build's
  /// transient peak is two copies of them. `timings` (optional) receives
  /// the buffer/tree breakdown, summaries included.
  static Index Build(SeriesCollection chunk, const IndexOptions& options,
                     ThreadPool* pool = nullptr,
                     BuildTimings* timings = nullptr);

  /// The one build path, for standalone indexes and every replication
  /// group. `ids[i]` is the source id of the i-th series and `sax_rows`
  /// holds their SAX rows in that order (ids.size() * config.segments()
  /// bytes); the order decides how ties group, so the same ids in the same
  /// order always give the same index. It groups the SAX rows by root key
  /// and builds the tree from them alone, then fills the bundle in leaf
  /// order in one ParallelFor over `pool`: `copy_row` writes each series
  /// once, straight into its slot of storage that was never zero-filled,
  /// beside its SAX row and id. Every row is attempted even after a copy
  /// fails; the build then returns the Status of the lowest failing id.
  static StatusOr<Index> BuildFromSource(std::vector<uint32_t> ids,
                                         std::vector<uint8_t> sax_rows,
                                         const RowSource& copy_row,
                                         const IndexOptions& options,
                                         ThreadPool* pool = nullptr,
                                         BuildTimings* timings = nullptr);

  Index(Index&&) = default;
  Index& operator=(Index&&) = default;

  const IsaxConfig& config() const { return options_.config; }
  const IndexOptions& options() const { return options_; }
  /// The series rows, in leaf order.
  const SeriesCollection& data() const { return chunk_->data(); }
  const IndexTree& tree() const { return tree_; }
  /// The underlying chunk bundle (rows in leaf order, their global ids).
  const SharedChunk* chunk() const { return chunk_.get(); }

  /// Full-cardinality SAX summary of row `row` (config().segments() bytes).
  const uint8_t* sax(uint32_t row) const { return chunk_->sax(row); }

  /// Index-structure footprint (SAX table + tree), excluding the raw data —
  /// the quantity of the paper's Figure 14. The SAX table is counted here
  /// even when shared (each node of a real cluster would store it).
  size_t IndexMemoryBytes() const;
  /// Raw-data footprint this node serves (counted per node even when the
  /// simulation shares the bytes: a real deployment stores them per node).
  size_t DataMemoryBytes() const { return data().MemoryBytes(); }

 private:
  explicit Index(std::unique_ptr<const SharedChunk> chunk,
                 IndexOptions options)
      : chunk_(std::move(chunk)), options_(options) {}

  // Index persistence (index/serialize.h) reads/writes the private state.
  friend Status SaveIndexToFile(const Index& index, const std::string& path);
  friend StatusOr<Index> LoadIndexFromFile(const std::string& path);

  std::unique_ptr<const SharedChunk> chunk_;
  IndexOptions options_;
  IndexTree tree_;
};

}  // namespace odyssey

#endif  // ODYSSEY_INDEX_BUILDER_H_
