#ifndef ODYSSEY_INDEX_BUFFERS_H_
#define ODYSSEY_INDEX_BUFFERS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/dataset/series_collection.h"
#include "src/isax/isax_word.h"

namespace odyssey {

/// The flat table of full-cardinality SAX summaries for a chunk: one row of
/// config.segments() bytes per series. Computed in parallel; this is the
/// first half of the paper's "buffer time".
std::vector<uint8_t> ComputeSaxTable(const SeriesCollection& data,
                                     const IsaxConfig& config,
                                     ThreadPool* pool);

/// Summarization buffers: series ids grouped by root key (the top bit of
/// each segment), i.e., by root subtree, stored flat — buffer b is
/// ids[starts[b], starts[b + 1]). Keys are sorted ascending and ids within
/// a buffer are ascending — both deterministic so replicas group
/// identically. This is the second half of "buffer time", and the structure
/// the DENSITY-AWARE partitioner operates on. The tree build consumes it:
/// it splits each buffer's slice of `ids` in place into leaf order.
struct SummarizationBuffers {
  std::vector<uint32_t> keys;    ///< sorted distinct root keys
  std::vector<size_t> starts;    ///< keys.size() + 1 offsets into ids
  std::vector<uint32_t> ids;     ///< every series id, grouped by key

  size_t buffer_count() const { return keys.size(); }
  /// The ids of buffer b.
  std::span<const uint32_t> series(size_t b) const {
    return {ids.data() + starts[b], starts[b + 1] - starts[b]};
  }
};

/// Groups all series of `sax_table` (a view of `series_count` rows of
/// config.segments() bytes — e.g. a SharedChunk's table) by root key.
SummarizationBuffers BuildBuffers(const uint8_t* sax_table,
                                  size_t series_count,
                                  const IsaxConfig& config, ThreadPool* pool);

}  // namespace odyssey

#endif  // ODYSSEY_INDEX_BUFFERS_H_
