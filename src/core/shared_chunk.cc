#include "src/core/shared_chunk.h"

#include <utility>

#include "src/common/check.h"
#include "src/index/buffers.h"

namespace odyssey {

std::unique_ptr<SharedChunk> SharedChunk::Build(
    SeriesCollection data, std::vector<uint32_t> global_ids,
    const IsaxConfig& config, ThreadPool* pool) {
  ODYSSEY_CHECK(data.length() == config.series_length());
  ODYSSEY_CHECK(global_ids.empty() || global_ids.size() == data.size());
  std::unique_ptr<SharedChunk> chunk(
      new SharedChunk(std::move(data), std::move(global_ids), config));

  chunk->sax_table_ = ComputeSaxTable(chunk->data_, config, pool);
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

size_t SharedChunk::MemoryBytes() const {
  return data_.MemoryBytes() + global_ids_.capacity() * sizeof(uint32_t) +
         sax_table_.capacity() * sizeof(uint8_t);
}

}  // namespace odyssey
