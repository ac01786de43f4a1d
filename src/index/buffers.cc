#include "src/index/buffers.h"

#include <algorithm>

#include "src/common/check.h"

namespace odyssey {

std::vector<uint8_t> ComputeSaxTable(const SeriesCollection& data,
                                     const IsaxConfig& config,
                                     ThreadPool* pool) {
  ODYSSEY_CHECK(data.length() == config.series_length());
  const size_t w = static_cast<size_t>(config.segments());
  std::vector<uint8_t> table(data.size() * w);
  auto compute_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ComputeSax(data.data(i), config, table.data() + i * w);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(data.size(), compute_range);
  } else {
    compute_range(0, data.size());
  }
  return table;
}

SummarizationBuffers BuildBuffers(const uint8_t* sax_table,
                                  size_t series_count,
                                  const IsaxConfig& config, ThreadPool* pool) {
  const size_t w = static_cast<size_t>(config.segments());
  ODYSSEY_CHECK(series_count == 0 || sax_table != nullptr);

  // Per-series root keys, computed in parallel.
  std::vector<uint32_t> keys(series_count);
  auto key_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      keys[i] = RootKey(sax_table + i * w, config);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(series_count, key_range);
  } else {
    key_range(0, series_count);
  }

  // Group ids by key. A stable sort keeps ids in ascending order within
  // each buffer (determinism for replicas).
  SummarizationBuffers buffers;
  buffers.ids.resize(series_count);
  for (size_t i = 0; i < series_count; ++i) {
    buffers.ids[i] = static_cast<uint32_t>(i);
  }
  std::stable_sort(buffers.ids.begin(), buffers.ids.end(),
                   [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
  for (size_t i = 0; i < series_count; ++i) {
    const uint32_t key = keys[buffers.ids[i]];
    if (buffers.keys.empty() || buffers.keys.back() != key) {
      buffers.keys.push_back(key);
      buffers.starts.push_back(i);
    }
  }
  buffers.starts.push_back(series_count);
  return buffers;
}

}  // namespace odyssey
