#include "src/core/shared_chunk.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/common/summary_stats.h"

namespace odyssey {

std::shared_ptr<const SharedChunk> SharedChunk::Build(
    SeriesCollection data, std::vector<uint32_t> global_ids,
    const IsaxConfig& config, ThreadPool* pool) {
  ODYSSEY_CHECK(data.length() == config.series_length());
  ODYSSEY_CHECK(global_ids.empty() || global_ids.size() == data.size());
  Stopwatch watch;
  std::unique_ptr<SharedChunk> chunk(
      new SharedChunk(std::move(data), std::move(global_ids), config));

  const size_t w = static_cast<size_t>(config.segments());
  const size_t n = chunk->data_.size();
  chunk->sax_table_.resize(n * w);
  auto summarize_range = [&](size_t begin, size_t end) {
    double paa[kMaxSegments];
    for (size_t i = begin; i < end; ++i) {
      ComputePaa(chunk->data_.data(i), config.paa, paa);
      ComputeSaxFromPaa(paa, config, chunk->sax_table_.data() + i * w);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, summarize_range);
  } else {
    summarize_range(0, n);
  }
  return Finish(std::move(chunk), pool, /*build_buffers=*/true,
                watch.ElapsedSeconds());
}

std::shared_ptr<const SharedChunk> SharedChunk::Adopt(
    SeriesCollection data, std::vector<uint32_t> global_ids,
    std::vector<uint8_t> sax_table, const IsaxConfig& config,
    ThreadPool* pool, bool build_buffers) {
  ODYSSEY_CHECK(data.length() == config.series_length());
  ODYSSEY_CHECK(global_ids.empty() || global_ids.size() == data.size());
  const size_t w = static_cast<size_t>(config.segments());
  ODYSSEY_CHECK(sax_table.size() == data.size() * w);
  std::unique_ptr<SharedChunk> chunk(
      new SharedChunk(std::move(data), std::move(global_ids), config));
  chunk->sax_table_ = std::move(sax_table);
  return Finish(std::move(chunk), pool, build_buffers, 0.0);
}

std::shared_ptr<const SharedChunk> SharedChunk::Finish(
    std::unique_ptr<SharedChunk> chunk, ThreadPool* pool, bool build_buffers,
    double summarize_seconds_so_far) {
  Stopwatch watch;
  if (build_buffers) {
    chunk->buffers_ = BuildBuffers(chunk->sax_table_.data(),
                                   chunk->data_.size(), chunk->config_, pool);
  }
  chunk->summarize_seconds_ = summarize_seconds_so_far + watch.ElapsedSeconds();
  // The summaries counted here are the rows this bundle *owns*, whether it
  // computed them (Build) or inherited them from the streaming scatter
  // (Adopt) — either way they were built exactly once for this data. The
  // deserialization path (no buffers, no build to follow) does not count.
  if (build_buffers) {
    build_stats::CountChunk(chunk->MemoryBytes(), chunk->data_.size());
  }
  return std::shared_ptr<const SharedChunk>(std::move(chunk));
}

size_t SharedChunk::MemoryBytes() const {
  size_t bytes = data_.MemoryBytes() +
                 global_ids_.capacity() * sizeof(uint32_t) +
                 sax_table_.capacity() * sizeof(uint8_t);
  bytes += buffers_.keys.capacity() * sizeof(uint32_t);
  for (const auto& ids : buffers_.series) {
    bytes += ids.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace odyssey
