#include "src/core/partitioning.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "src/common/check.h"
#include "src/common/gray_code.h"
#include "src/common/rng.h"
#include "src/index/buffers.h"

namespace odyssey {
namespace {

std::vector<std::vector<uint32_t>> SplitContiguous(
    const std::vector<uint32_t>& ids, int num_chunks) {
  std::vector<std::vector<uint32_t>> chunks(num_chunks);
  const size_t n = ids.size();
  for (int c = 0; c < num_chunks; ++c) {
    const size_t begin = static_cast<size_t>(c) * n / num_chunks;
    const size_t end = static_cast<size_t>(c + 1) * n / num_chunks;
    chunks[c].assign(ids.begin() + begin, ids.begin() + end);
  }
  return chunks;
}

size_t LargestChunk(const std::vector<std::vector<uint32_t>>& chunks) {
  size_t best = 0;
  for (size_t c = 1; c < chunks.size(); ++c) {
    if (chunks[c].size() > chunks[best].size()) best = c;
  }
  return best;
}

size_t SmallestChunk(const std::vector<std::vector<uint32_t>>& chunks) {
  size_t best = 0;
  for (size_t c = 1; c < chunks.size(); ++c) {
    if (chunks[c].size() < chunks[best].size()) best = c;
  }
  return best;
}

/// DENSITY-AWARE (Figure 9): order summarization buffers by Gray-code rank
/// so that similar buffers are adjacent, then spread them — and the series
/// inside the largest ones — across chunks round-robin, so that similar
/// series land on *different* nodes and no node becomes the sole owner of a
/// query's neighborhood.
std::vector<std::vector<uint32_t>> DensityAwarePartition(
    const SeriesCollection& data, int num_chunks, const IsaxConfig& config,
    ThreadPool* pool, const DensityAwareOptions& options,
    const std::vector<uint8_t>* precomputed_sax) {
  // Steps 1-2: compute iSAX summaries (unless the caller already has them),
  // group into summarization buffers.
  std::vector<uint8_t> owned_table;
  if (precomputed_sax == nullptr) {
    owned_table = ComputeSaxTable(data, config, pool);
    precomputed_sax = &owned_table;
  }
  SummarizationBuffers buffers = BuildBuffers(
      precomputed_sax->data(), data.size(), config, pool);

  // Step 3: order buffers by Gray-code rank of their root key.
  std::vector<size_t> order(buffers.buffer_count());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return GrayRank(buffers.keys[a]) < GrayRank(buffers.keys[b]);
  });

  // Step 4: split the series of the lambda largest buffers individually.
  std::vector<size_t> by_size = order;
  std::sort(by_size.begin(), by_size.end(), [&](size_t a, size_t b) {
    return buffers.series(a).size() > buffers.series(b).size();
  });
  const size_t lambda = std::min(options.lambda, by_size.size());
  std::vector<bool> presplit(buffers.buffer_count(), false);
  std::vector<std::vector<uint32_t>> chunks(num_chunks);
  int rr = 0;  // round-robin cursor shared by steps 4 and 5
  for (size_t i = 0; i < lambda; ++i) {
    const size_t b = by_size[i];
    presplit[b] = true;
    for (uint32_t id : buffers.series(b)) {
      chunks[rr].push_back(id);
      rr = (rr + 1) % num_chunks;
    }
  }

  // Step 5: assign the remaining buffers, whole, in Gray order round-robin.
  for (size_t b : order) {
    if (presplit[b]) continue;
    std::vector<uint32_t>& chunk = chunks[rr];
    rr = (rr + 1) % num_chunks;
    const std::span<const uint32_t> ids = buffers.series(b);
    chunk.insert(chunk.end(), ids.begin(), ids.end());
  }

  // Step 6: while unbalanced, split the largest buffer of the largest chunk
  // across all chunks.
  for (int round = 0; round < options.max_rebalance_rounds; ++round) {
    const size_t largest = LargestChunk(chunks);
    const size_t smallest = SmallestChunk(chunks);
    // An empty chunk is the worst possible imbalance (it would leave a node
    // with nothing to index), so it always triggers rebalancing.
    if (!chunks[smallest].empty() &&
        static_cast<double>(chunks[largest].size()) <=
            options.balance_tolerance *
                static_cast<double>(chunks[smallest].size())) {
      break;
    }
    // Move the tail of the largest chunk (a whole-buffer insertion suffix,
    // i.e., its most recently assigned similar series) onto other chunks,
    // one series at a time, until it reaches the mean.
    size_t total = 0;
    for (const auto& c : chunks) total += c.size();
    const size_t target = total / chunks.size();
    std::vector<uint32_t>& big = chunks[largest];
    int spread = 0;
    while (big.size() > target) {
      if (static_cast<size_t>(spread) == chunks.size() - 1) {
        spread = 0;
      }
      size_t dest = (largest + 1 + spread) % chunks.size();
      ++spread;
      chunks[dest].push_back(big.back());
      big.pop_back();
    }
  }

  for (auto& chunk : chunks) std::sort(chunk.begin(), chunk.end());
  return chunks;
}

}  // namespace

const char* PartitioningSchemeToString(PartitioningScheme scheme) {
  switch (scheme) {
    case PartitioningScheme::kEquallySplit:
      return "EQUALLY-SPLIT";
    case PartitioningScheme::kRandomShuffle:
      return "RANDOM-SHUFFLE";
    case PartitioningScheme::kDensityAware:
      return "DENSITY-AWARE";
  }
  return "Unknown";
}

std::vector<std::vector<uint32_t>> PartitionSeries(
    const SeriesCollection& data, int num_chunks, PartitioningScheme scheme,
    const IsaxConfig& config, uint64_t seed, ThreadPool* pool,
    const DensityAwareOptions& density_options,
    const std::vector<uint8_t>* precomputed_sax) {
  ODYSSEY_CHECK(num_chunks >= 1);
  ODYSSEY_CHECK_MSG(data.size() >= static_cast<size_t>(num_chunks),
                    "fewer series than chunks");
  // A table sized for a different collection or iSAX geometry must fail
  // here, not read out of bounds inside the buffer grouping.
  ODYSSEY_CHECK(precomputed_sax == nullptr ||
                precomputed_sax->size() ==
                    data.size() * static_cast<size_t>(config.segments()));
  std::vector<uint32_t> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0u);

  std::vector<std::vector<uint32_t>> chunks;
  switch (scheme) {
    case PartitioningScheme::kEquallySplit:
      chunks = SplitContiguous(ids, num_chunks);
      break;
    case PartitioningScheme::kRandomShuffle: {
      Rng rng(seed);
      // Fisher-Yates with the library Rng (deterministic across platforms).
      for (size_t i = ids.size() - 1; i > 0; --i) {
        std::swap(ids[i], ids[rng.NextBounded(i + 1)]);
      }
      chunks = SplitContiguous(ids, num_chunks);
      for (auto& chunk : chunks) std::sort(chunk.begin(), chunk.end());
      break;
    }
    case PartitioningScheme::kDensityAware:
      chunks = DensityAwarePartition(data, num_chunks, config, pool,
                                     density_options, precomputed_sax);
      break;
  }
  return chunks;
}

}  // namespace odyssey
