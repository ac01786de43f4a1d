#include "src/core/shared_chunk.h"

#include <cstring>
#include <numeric>
#include <utility>

#include "src/common/check.h"
#include "src/common/stopwatch.h"

namespace odyssey {

std::unique_ptr<SharedChunk> SharedChunk::Build(
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
  chunk->summarize_seconds_ = watch.ElapsedSeconds();
  return chunk;
}

std::unique_ptr<SharedChunk> SharedChunk::Adopt(
    SeriesCollection data, std::vector<uint32_t> global_ids,
    std::vector<uint8_t> sax_table, const IsaxConfig& config) {
  ODYSSEY_CHECK(data.length() == config.series_length());
  ODYSSEY_CHECK(global_ids.empty() || global_ids.size() == data.size());
  const size_t w = static_cast<size_t>(config.segments());
  ODYSSEY_CHECK(sax_table.size() == data.size() * w);
  std::unique_ptr<SharedChunk> chunk(
      new SharedChunk(std::move(data), std::move(global_ids), config));
  chunk->sax_table_ = std::move(sax_table);
  return chunk;
}

void SharedChunk::PermuteRows(const std::vector<uint32_t>& order) {
  const size_t n = size();
  ODYSSEY_CHECK(order.size() == n);
  if (global_ids_.empty()) {
    global_ids_.resize(n);
    std::iota(global_ids_.begin(), global_ids_.end(), uint32_t{0});
  }
  const size_t length = data_.length();
  const size_t row_bytes = length * sizeof(float);
  const size_t w = static_cast<size_t>(config_.segments());
  std::vector<float> row(length);
  uint8_t sax[kMaxSegments];
  std::vector<bool> placed(n, false);
  auto move_row = [&](size_t dst, size_t src) {
    std::memcpy(data_.mutable_data(dst), data_.data(src), row_bytes);
    std::memcpy(sax_table_.data() + dst * w, sax_table_.data() + src * w, w);
    global_ids_[dst] = global_ids_[src];
  };
  for (size_t start = 0; start < n; ++start) {
    if (placed[start]) continue;
    placed[start] = true;
    if (order[start] == start) continue;
    // Walk the cycle through `start`: park its row, pull each row's source
    // into it, and drop the parked row into the slot that closes the cycle.
    std::memcpy(row.data(), data_.data(start), row_bytes);
    std::memcpy(sax, sax_table_.data() + start * w, w);
    const uint32_t id = global_ids_[start];
    size_t dst = start;
    for (;;) {
      const size_t src = order[dst];
      if (src == start) break;
      ODYSSEY_CHECK_MSG(src < n && !placed[src], "order is no permutation");
      move_row(dst, src);
      placed[src] = true;
      dst = src;
    }
    std::memcpy(data_.mutable_data(dst), row.data(), row_bytes);
    std::memcpy(sax_table_.data() + dst * w, sax, w);
    global_ids_[dst] = id;
  }
}

size_t SharedChunk::MemoryBytes() const {
  return data_.MemoryBytes() + global_ids_.capacity() * sizeof(uint32_t) +
         sax_table_.capacity() * sizeof(uint8_t);
}

}  // namespace odyssey
