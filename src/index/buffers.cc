#include "src/index/buffers.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/common/check.h"

namespace odyssey {

std::vector<uint8_t> ComputeSaxTable(const SeriesCollection& data,
                                     const IsaxConfig& config,
                                     ThreadPool* pool) {
  ODYSSEY_CHECK(data.length() == config.series_length());
  const size_t w = static_cast<size_t>(config.segments());
  std::vector<uint8_t> table(data.size() * w);
  auto compute_range = [&](size_t begin, size_t end) {
    double paa[kMaxSegments];
    for (size_t i = begin; i < end; ++i) {
      ComputePaa(data.data(i), config.paa, paa);
      ComputeSaxFromPaa(paa, config, table.data() + i * w);
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

  // Group ids by key with a stable LSD radix sort on 16-bit digits (one
  // pass up to 16 segments, two up to 32), so ids stay ascending within
  // each buffer (determinism for replicas) at O(n) instead of a comparison
  // sort's indirect key lookups.
  std::vector<uint32_t> ids(series_count);
  std::iota(ids.begin(), ids.end(), uint32_t{0});
  std::vector<uint32_t> next_keys(series_count);
  std::vector<uint32_t> next_ids(series_count);
  for (int shift = 0; shift < config.segments(); shift += 16) {
    const int bits = std::min(16, config.segments() - shift);
    const uint32_t mask = (uint32_t{1} << bits) - 1;
    std::vector<size_t> slot((size_t{1} << bits) + 1, 0);
    for (size_t i = 0; i < series_count; ++i) {
      ++slot[((keys[i] >> shift) & mask) + 1];
    }
    for (size_t d = 1; d < slot.size(); ++d) slot[d] += slot[d - 1];
    for (size_t i = 0; i < series_count; ++i) {
      const size_t to = slot[(keys[i] >> shift) & mask]++;
      next_keys[to] = keys[i];
      next_ids[to] = ids[i];
    }
    keys.swap(next_keys);
    ids.swap(next_ids);
  }

  SummarizationBuffers buffers;
  for (size_t i = 0; i < series_count; ++i) {
    if (buffers.keys.empty() || buffers.keys.back() != keys[i]) {
      buffers.keys.push_back(keys[i]);
      buffers.starts.push_back(i);
    }
  }
  buffers.starts.push_back(series_count);
  buffers.ids = std::move(ids);
  return buffers;
}

}  // namespace odyssey
