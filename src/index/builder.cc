#include "src/index/builder.h"

#include <utility>

#include "src/common/stopwatch.h"
#include "src/common/summary_stats.h"

namespace odyssey {

Index Index::Build(SeriesCollection chunk, const IndexOptions& options,
                   ThreadPool* pool, BuildTimings* timings) {
  ODYSSEY_CHECK(chunk.length() == options.config.series_length());
  // The private path is the group path over a bundle built here.
  return BuildFromShared(
      SharedChunk::Build(std::move(chunk), {}, options.config, pool), options,
      pool, timings);
}

Index Index::BuildFromShared(std::unique_ptr<SharedChunk> chunk,
                             const IndexOptions& options, ThreadPool* pool,
                             BuildTimings* timings) {
  ODYSSEY_CHECK(chunk != nullptr);
  const IsaxConfig& config = options.config;
  ODYSSEY_CHECK(chunk->config().series_length() == config.series_length());
  ODYSSEY_CHECK(chunk->config().segments() == config.segments());
  ODYSSEY_CHECK(chunk->config().max_bits == config.max_bits);
  Stopwatch watch;
  SummarizationBuffers buffers =
      BuildBuffers(chunk->sax_table().data(), chunk->size(), config, pool);
  const double buffer_seconds = chunk->summarize_seconds() +
                                watch.ElapsedSeconds();

  watch.Restart();
  std::vector<uint32_t> leaf_order;
  IndexTree tree =
      IndexTree::Build(std::move(buffers), chunk->sax_table().data(), config,
                       options.leaf_capacity, pool, &leaf_order);
  chunk->PermuteRows(leaf_order);
  const double tree_seconds = watch.ElapsedSeconds();
  // The summaries counted here are the rows this bundle owns, whether it
  // computed them (Build) or inherited them from the streaming scatter
  // (Adopt) — either way they were built exactly once for this data.
  build_stats::CountChunk(chunk->MemoryBytes(), chunk->size());

  Index index(std::move(chunk), options);
  index.tree_ = std::move(tree);
  if (timings != nullptr) {
    timings->buffer_seconds = buffer_seconds;
    timings->tree_seconds = tree_seconds;
  }
  return index;
}

size_t Index::IndexMemoryBytes() const {
  return chunk_->sax_table().capacity() * sizeof(uint8_t) +
         tree_.MemoryBytes();
}

}  // namespace odyssey
