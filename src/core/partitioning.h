#ifndef ODYSSEY_CORE_PARTITIONING_H_
#define ODYSSEY_CORE_PARTITIONING_H_

/// Stage-1 partitioning (paper Section 3.4): how the coordinator cuts the
/// raw collection into one chunk per replication group before any index
/// exists — equal contiguous ranges, the RS random-shuffle preprocessing,
/// or the DENSITY-AWARE scheme of Section 3.4.1 (Figures 8-9) that spreads
/// Gray-code-adjacent summarization buffers across chunks so no node ends
/// up the sole owner of a query's neighborhood. Deterministic output is
/// part of the contract: replicas that load the same chunk must build
/// bit-identical indexes (see src/core/shared_chunk.h, which makes that
/// sharing literal).

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/dataset/series_collection.h"
#include "src/isax/isax_word.h"

namespace odyssey {

/// How the coordinator cuts the raw collection into chunks (Section 3.4).
enum class PartitioningScheme {
  /// Contiguous equal-size ranges.
  kEquallySplit,
  /// Random shuffle, then equal-size ranges (the paper's RS preprocessing).
  kRandomShuffle,
  /// Gray-code ordering of iSAX summarization buffers + round-robin
  /// assignment, with large-buffer pre-splitting and rebalancing
  /// (Section 3.4.1, Figures 8-9).
  kDensityAware,
};

const char* PartitioningSchemeToString(PartitioningScheme scheme);

/// DENSITY-AWARE knobs.
struct DensityAwareOptions {
  /// Number of largest buffers whose series are split individually before
  /// whole-buffer assignment (the paper's lambda; it uses 400).
  size_t lambda = 400;
  /// Rebalancing stops when max/min chunk sizes are within this factor.
  double balance_tolerance = 1.02;
  /// Safety cap on rebalancing rounds.
  int max_rebalance_rounds = 64;
};

/// Cuts series [0, series_count) into `num_chunks` disjoint, exhaustive
/// chunks of series ids. Every returned chunk is sorted ascending
/// (determinism: replicas loading the same chunk must build identical
/// indexes). `sax_table` holds the series' full-cardinality SAX rows
/// (series_count rows of config.segments() bytes, e.g. from
/// ComputeSaxTable); only kDensityAware reads it, and the other schemes
/// accept null. `pool` parallelizes the buffer grouping and may be null.
/// The cluster builds summarize every series once and pass that table
/// here, so partitioning never recomputes a summary the index build reuses.
std::vector<std::vector<uint32_t>> PartitionSeries(
    size_t series_count, const uint8_t* sax_table, int num_chunks,
    PartitioningScheme scheme, const IsaxConfig& config, uint64_t seed,
    ThreadPool* pool = nullptr,
    const DensityAwareOptions& density_options = {});

/// The same cut of a collection: kDensityAware summarizes `data` first
/// (on `pool`), then the call forwards to the form above.
std::vector<std::vector<uint32_t>> PartitionSeries(
    const SeriesCollection& data, int num_chunks, PartitioningScheme scheme,
    const IsaxConfig& config, uint64_t seed, ThreadPool* pool = nullptr,
    const DensityAwareOptions& density_options = {});

}  // namespace odyssey

#endif  // ODYSSEY_CORE_PARTITIONING_H_
