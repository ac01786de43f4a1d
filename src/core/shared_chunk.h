#ifndef ODYSSEY_CORE_SHARED_CHUNK_H_
#define ODYSSEY_CORE_SHARED_CHUNK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/dataset/series_collection.h"
#include "src/index/buffers.h"
#include "src/isax/isax_word.h"

namespace odyssey {

/// One replication group's immutable data bundle (the build-time mirror of
/// PreparedQuery): the z-normalized series block, the series' global ids,
/// their full-cardinality SAX table and the summarization buffers the tree
/// build consumes. Built exactly once per group per chunk; the group's one
/// Index (src/index/builder.h) holds it by shared_ptr, and every member of
/// the group holds that Index. This is how the paper's PARTIAL-k
/// replication (Section 3.3, Figure 7) avoids paying k× memory, k×
/// summarization and k× tree builds for bit-identical data (the same design
/// MESSI uses for its shared in-memory summary array).
///
/// Immutability is the thread-safety contract: after Build/Adopt returns,
/// no member mutates, so the tree build and any number of concurrent query
/// executions may read the bundle without synchronization. The refcount is
/// the lifetime contract: the bundle lives until the last Index drops it.
class SharedChunk {
 public:
  /// Summarizes `data` (one SAX row per series, quantized from a PAA that
  /// ComputePaa's dispatched kernel writes to a stack buffer) and groups
  /// the rows into summarization buffers. `global_ids` may be empty for
  /// standalone indexes (local ids are then global). `pool` parallelizes
  /// summarization; may be null.
  static std::shared_ptr<const SharedChunk> Build(
      SeriesCollection data, std::vector<uint32_t> global_ids,
      const IsaxConfig& config, ThreadPool* pool = nullptr);

  /// Wraps a pre-computed SAX table without re-summarizing — the streaming
  /// build scatters per-ingest-chunk rows into per-group tables and adopts
  /// them here; index deserialization adopts its stored table.
  /// `sax_table` must hold data.size() * config.segments() bytes.
  /// `build_buffers` is false when no tree build will follow (the
  /// deserialization path, which already has its tree).
  static std::shared_ptr<const SharedChunk> Adopt(
      SeriesCollection data, std::vector<uint32_t> global_ids,
      std::vector<uint8_t> sax_table, const IsaxConfig& config,
      ThreadPool* pool = nullptr, bool build_buffers = true);

  SharedChunk(const SharedChunk&) = delete;
  SharedChunk& operator=(const SharedChunk&) = delete;

  const IsaxConfig& config() const { return config_; }
  const SeriesCollection& data() const { return data_; }
  /// Original dataset id of local series i; empty when local ids are global.
  const std::vector<uint32_t>& global_ids() const { return global_ids_; }
  size_t size() const { return data_.size(); }

  /// Full-cardinality SAX summary of local series `id` (segments() bytes).
  const uint8_t* sax(uint32_t id) const {
    return sax_table_.data() +
           static_cast<size_t>(id) * static_cast<size_t>(config_.segments());
  }
  const std::vector<uint8_t>& sax_table() const { return sax_table_; }
  const SummarizationBuffers& buffers() const { return buffers_; }

  /// Wall seconds spent producing this bundle's summaries *here* — the
  /// paper's "buffer time", paid once per group. For Build that is
  /// summarization + buffer grouping; for Adopt only the grouping (the
  /// adopted SAX rows were computed upstream, e.g. on the streaming ingest
  /// path, and are timed there).
  double summarize_seconds() const { return summarize_seconds_; }

  /// Heap bytes of the whole bundle (series + ids + SAX + buffers): what
  /// one group materializes once for all of its replicas.
  size_t MemoryBytes() const;

 private:
  SharedChunk(SeriesCollection data, std::vector<uint32_t> global_ids,
              const IsaxConfig& config)
      : config_(config),
        data_(std::move(data)),
        global_ids_(std::move(global_ids)) {}

  /// Shared tail of Build/Adopt: buffers, timing, counters.
  static std::shared_ptr<const SharedChunk> Finish(
      std::unique_ptr<SharedChunk> chunk, ThreadPool* pool,
      bool build_buffers, double summarize_seconds_so_far);

  IsaxConfig config_;
  SeriesCollection data_;
  std::vector<uint32_t> global_ids_;
  std::vector<uint8_t> sax_table_;   // size() * segments
  SummarizationBuffers buffers_;     // empty when !build_buffers
  double summarize_seconds_ = 0.0;
};

}  // namespace odyssey

#endif  // ODYSSEY_CORE_SHARED_CHUNK_H_
