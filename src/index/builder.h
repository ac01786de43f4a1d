#ifndef ODYSSEY_INDEX_BUILDER_H_
#define ODYSSEY_INDEX_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
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
/// "tree time" (building the subtrees, then reordering the bundle's rows
/// into leaf order). Their sum is the index time. A cluster builds one
/// index per replication group, so it keeps one BuildTimings per group.
/// Note the streaming caveat: an Adopt-ed bundle's buffer time covers only
/// the buffer grouping — its SAX rows were computed on the ingest path and
/// are charged to OdysseyCluster::partition_seconds(), so compare streaming
/// and in-memory builds on partition + index totals, not on buffer_seconds
/// alone.
struct BuildTimings {
  double buffer_seconds = 0.0;
  double tree_seconds = 0.0;

  double index_seconds() const { return buffer_seconds + tree_seconds; }
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
  /// Builds a private index over `chunk` (taking ownership): the series are
  /// summarized into a bundle of this index's own. global_ids() then maps
  /// each row to the series' position in `chunk`. `pool` may be null for
  /// single-threaded construction; `timings` (optional) receives the
  /// buffer/tree breakdown.
  static Index Build(SeriesCollection chunk, const IndexOptions& options,
                     ThreadPool* pool = nullptr,
                     BuildTimings* timings = nullptr);

  /// Builds an index over an existing bundle without copying or
  /// re-summarizing anything: it groups the SAX rows by root key, builds
  /// the tree and reorders the bundle's rows in place into leaf order.
  /// This is the cluster path — each replication group calls this once on
  /// its one SharedChunk. The bundle's geometry must match
  /// `options.config`.
  static Index BuildFromShared(std::unique_ptr<SharedChunk> chunk,
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
