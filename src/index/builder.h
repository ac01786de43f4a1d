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
/// "tree time" (building the subtrees). Their sum is the index time.
/// For an index built from a SharedChunk, buffer time is the bundle's
/// summarize_seconds(). A cluster builds one index per replication group,
/// so it keeps one BuildTimings per group. Note the streaming caveat: an
/// Adopt-ed bundle's summarize_seconds() covers only the buffer grouping —
/// its SAX rows were computed on the ingest path and are charged to
/// OdysseyCluster::partition_seconds(), so compare streaming and in-memory
/// builds on partition + index totals, not on buffer_seconds alone.
struct BuildTimings {
  double buffer_seconds = 0.0;
  double tree_seconds = 0.0;

  double index_seconds() const { return buffer_seconds + tree_seconds; }
};

/// A complete single-node index over one data chunk: a refcounted view of
/// the chunk bundle (raw series + full-cardinality SAX table, see
/// src/core/shared_chunk.h) plus its iSAX tree. This is what the
/// QueryEngine executes against. A cluster builds one Index per
/// replication group, and every member of the group holds a shared_ptr to
/// that same object, so replica trees are identical by construction.
class Index {
 public:
  /// Builds a private index over `chunk` (taking ownership): the series are
  /// summarized here, into a bundle only this index references. `pool` may
  /// be null for single-threaded construction; `timings` (optional)
  /// receives the buffer/tree breakdown.
  static Index Build(SeriesCollection chunk, const IndexOptions& options,
                     ThreadPool* pool = nullptr,
                     BuildTimings* timings = nullptr);

  /// Builds an index over an existing bundle without copying or
  /// re-summarizing anything: only the tree is constructed. This is the
  /// cluster path — each replication group calls this once on its one
  /// SharedChunk. The bundle's geometry must match `options.config` and it
  /// must carry summarization buffers.
  static Index BuildFromShared(std::shared_ptr<const SharedChunk> chunk,
                               const IndexOptions& options,
                               ThreadPool* pool = nullptr,
                               BuildTimings* timings = nullptr);

  Index(Index&&) = default;
  Index& operator=(Index&&) = default;

  const IsaxConfig& config() const { return options_.config; }
  const IndexOptions& options() const { return options_; }
  const SeriesCollection& data() const { return chunk_->data(); }
  const IndexTree& tree() const { return tree_; }
  /// The underlying (possibly group-shared) chunk bundle.
  const std::shared_ptr<const SharedChunk>& chunk() const { return chunk_; }

  /// Full-cardinality SAX summary of series `id` (config().segments() bytes).
  const uint8_t* sax(uint32_t id) const { return chunk_->sax(id); }
  const std::vector<uint8_t>& sax_table() const { return chunk_->sax_table(); }

  /// Index-structure footprint (SAX table + tree), excluding the raw data —
  /// the quantity of the paper's Figure 14. The SAX table is counted here
  /// even when shared (each node of a real cluster would store it).
  size_t IndexMemoryBytes() const;
  /// Raw-data footprint this node serves (counted per node even when the
  /// simulation shares the bytes: a real deployment stores them per node).
  size_t DataMemoryBytes() const { return data().MemoryBytes(); }

 private:
  explicit Index(std::shared_ptr<const SharedChunk> chunk,
                 IndexOptions options)
      : chunk_(std::move(chunk)), options_(options) {}

  // Index persistence (index/serialize.h) reads/writes the private state.
  friend Status SaveIndexToFile(const Index& index, const std::string& path);
  friend StatusOr<Index> LoadIndexFromFile(const std::string& path);

  std::shared_ptr<const SharedChunk> chunk_;
  IndexOptions options_;
  IndexTree tree_;
};

}  // namespace odyssey

#endif  // ODYSSEY_INDEX_BUILDER_H_
