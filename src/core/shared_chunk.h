#ifndef ODYSSEY_CORE_SHARED_CHUNK_H_
#define ODYSSEY_CORE_SHARED_CHUNK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/dataset/series_collection.h"
#include "src/isax/isax_word.h"

namespace odyssey {

/// One replication group's data bundle (the build-time mirror of
/// PreparedQuery): the z-normalized series block, the series' global ids
/// and their full-cardinality SAX table. Built exactly once per group per
/// chunk and owned by the group's one Index (src/index/builder.h), which
/// every member of the group holds. This is how the paper's PARTIAL-k
/// replication (Section 3.3, Figure 7) avoids paying k× memory, k×
/// summarization and k× tree builds for bit-identical data (the same design
/// MESSI uses for its shared in-memory summary array).
///
/// The index build reorders the bundle once, in place, into its tree's
/// leaf order (PermuteRows): row i of data(), sax() and global_ids() then
/// belongs to the i-th series of that order, and every leaf is a
/// contiguous range of rows. The Index holds the bundle const from then on;
/// that immutability is the thread-safety contract that lets any number of
/// concurrent query executions read it without synchronization.
class SharedChunk {
 public:
  /// Summarizes `data` (one SAX row per series, quantized from a PAA that
  /// ComputePaa's dispatched kernel writes to a stack buffer). `global_ids`
  /// may be empty for standalone indexes; PermuteRows then fills it with
  /// each row's position in `data`. `pool` parallelizes summarization; may
  /// be null.
  static std::unique_ptr<SharedChunk> Build(SeriesCollection data,
                                            std::vector<uint32_t> global_ids,
                                            const IsaxConfig& config,
                                            ThreadPool* pool = nullptr);

  /// Wraps a pre-computed SAX table without re-summarizing — the streaming
  /// build scatters per-ingest-chunk rows into per-group tables and adopts
  /// them here. `sax_table` must hold data.size() * config.segments() bytes.
  static std::unique_ptr<SharedChunk> Adopt(SeriesCollection data,
                                            std::vector<uint32_t> global_ids,
                                            std::vector<uint8_t> sax_table,
                                            const IsaxConfig& config);

  SharedChunk(const SharedChunk&) = delete;
  SharedChunk& operator=(const SharedChunk&) = delete;

  const IsaxConfig& config() const { return config_; }
  const SeriesCollection& data() const { return data_; }
  /// The caller's id of row i: its global dataset id in a cluster, its
  /// position in the collection passed to Index::Build for a standalone
  /// index. Empty only before PermuteRows when no ids were given.
  const std::vector<uint32_t>& global_ids() const { return global_ids_; }
  size_t size() const { return data_.size(); }

  /// Full-cardinality SAX summary of row `row` (segments() bytes).
  const uint8_t* sax(uint32_t row) const {
    return sax_table_.data() +
           static_cast<size_t>(row) * static_cast<size_t>(config_.segments());
  }
  const std::vector<uint8_t>& sax_table() const { return sax_table_; }

  /// Reorders the bundle in place so that row i holds what row order[i]
  /// held: series, SAX row and global id move together. `order` must be a
  /// permutation of [0, size()). Follows each cycle of the permutation with
  /// one row of scratch, so the series block is never copied whole.
  void PermuteRows(const std::vector<uint32_t>& order);

  /// Wall seconds Build spent summarizing — the first half of the paper's
  /// "buffer time", paid once per group. 0 for Adopt: the adopted SAX rows
  /// were computed upstream (on the streaming ingest path) and are timed
  /// there.
  double summarize_seconds() const { return summarize_seconds_; }

  /// Heap bytes of the whole bundle (series + ids + SAX): what one group
  /// materializes once for all of its replicas.
  size_t MemoryBytes() const;

 private:
  SharedChunk(SeriesCollection data, std::vector<uint32_t> global_ids,
              const IsaxConfig& config)
      : config_(config),
        data_(std::move(data)),
        global_ids_(std::move(global_ids)) {}

  IsaxConfig config_;
  SeriesCollection data_;
  std::vector<uint32_t> global_ids_;
  std::vector<uint8_t> sax_table_;   // size() * segments
  double summarize_seconds_ = 0.0;
};

}  // namespace odyssey

#endif  // ODYSSEY_CORE_SHARED_CHUNK_H_
