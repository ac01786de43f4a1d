// Microbenchmarks of the runtime-dispatched distance-kernel layer
// (src/distance/simd.h): squared Euclidean, early-abandoning Euclidean,
// LB_Keogh and PAA at each available ISA level on 256-point series (the
// paper's standard series length), plus banded DTW through its public
// entry point, the leaf scan's per-series SAX bound and the traversal's node
// bound (src/isax/mindist.h).
// The scalar/vector ratio here is the acceptance number for SIMD-touching
// PRs.
//
//   $ ./bench_distance_kernels

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/distance/dtw.h"
#include "src/distance/lb_keogh.h"
#include "src/distance/simd.h"
#include "src/index/builder.h"
#include "src/isax/isax_word.h"
#include "src/isax/mindist.h"
#include "src/isax/paa.h"

namespace odyssey {
namespace {

constexpr size_t kLength = 256;
constexpr size_t kSeries = 4096;

/// A flat pool of random series reused by every case (cache-warm, like the
/// leaf scans of a real query).
const std::vector<float>& Pool() {
  static const std::vector<float>& pool = *new std::vector<float>([] {
    std::vector<float> p(kSeries * kLength);
    Rng rng(97);
    for (auto& x : p) x = static_cast<float>(rng.NextGaussian());
    return p;
  }());
  return pool;
}

const simd::KernelTable* TableForArg(int64_t arg) {
  switch (arg) {
    case 2:
      return simd::Avx2Table();
    case 1:
      return simd::SseTable();
    default:
      return &simd::ScalarTable();
  }
}

void ApplyIsaArgs(benchmark::internal::Benchmark* b) {
  b->Arg(0);
  if (simd::SseTable() != nullptr) b->Arg(1);
  if (simd::Avx2Table() != nullptr) b->Arg(2);
}

void BM_SquaredEuclidean256(benchmark::State& state) {
  const simd::KernelTable* table = TableForArg(state.range(0));
  const std::vector<float>& pool = Pool();
  const float* query = pool.data();
  float checksum = 0.0f;
  for (auto _ : state) {
    for (size_t i = 1; i < kSeries; ++i) {
      checksum +=
          table->squared_euclidean(query, pool.data() + i * kLength, kLength);
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSeries - 1));
  state.SetLabel(simd::IsaName(table->isa));
}
BENCHMARK(BM_SquaredEuclidean256)->Apply(ApplyIsaArgs)
    ->Unit(benchmark::kMicrosecond);

void BM_SquaredEuclideanEarlyAbandon256(benchmark::State& state) {
  const simd::KernelTable* table = TableForArg(state.range(0));
  const std::vector<float>& pool = Pool();
  const float* query = pool.data();
  // A realistic pruning threshold: most candidates abandon part-way, like a
  // leaf scan once a good BSF is known.
  const float threshold =
      table->squared_euclidean(query, pool.data() + kLength, kLength);
  float checksum = 0.0f;
  for (auto _ : state) {
    for (size_t i = 1; i < kSeries; ++i) {
      checksum += table->squared_euclidean_early_abandon(
          query, pool.data() + i * kLength, kLength, threshold);
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSeries - 1));
  state.SetLabel(simd::IsaName(table->isa));
}
BENCHMARK(BM_SquaredEuclideanEarlyAbandon256)->Apply(ApplyIsaArgs)
    ->Unit(benchmark::kMicrosecond);

void BM_LbKeogh256(benchmark::State& state) {
  const simd::KernelTable* table = TableForArg(state.range(0));
  const std::vector<float>& pool = Pool();
  const Envelope env = BuildEnvelope(pool.data(), kLength, 13);  // 5% warping
  float checksum = 0.0f;
  for (auto _ : state) {
    for (size_t i = 1; i < kSeries; ++i) {
      checksum += table->lb_keogh(env.upper.data(), env.lower.data(),
                                  pool.data() + i * kLength, kLength);
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSeries - 1));
  state.SetLabel(simd::IsaName(table->isa));
}
BENCHMARK(BM_LbKeogh256)->Apply(ApplyIsaArgs)->Unit(benchmark::kMicrosecond);

void BM_Paa256(benchmark::State& state) {
  // The PAA summarization kernel (16 segments, as in MESSI/Odyssey): what
  // PreparedBatch pays once per query. The scalar/vector ratio here is the
  // acceptance number for the summarization kernel.
  const simd::KernelTable* table = TableForArg(state.range(0));
  const std::vector<float>& pool = Pool();
  constexpr int kSegments = 16;
  double out[kSegments];
  double checksum = 0.0;
  for (auto _ : state) {
    for (size_t i = 0; i < kSeries; ++i) {
      table->paa(pool.data() + i * kLength, kLength, kSegments, out);
      checksum += out[0];
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kSeries));
  state.SetLabel(simd::IsaName(table->isa));
}
BENCHMARK(BM_Paa256)->Apply(ApplyIsaArgs)->Unit(benchmark::kMicrosecond);

void BM_SquaredDtw256(benchmark::State& state) {
  // End-to-end banded DTW through the public API. The DP row is scalar at
  // every ISA level (its cur[j-1] chain is serial), so ODYSSEY_SIMD does
  // not change this panel.
  const std::vector<float>& pool = Pool();
  const size_t window = WarpingWindowFromFraction(kLength, 0.05);
  float checksum = 0.0f;
  for (auto _ : state) {
    for (size_t i = 1; i < 64; ++i) {
      checksum += SquaredDtw(pool.data(), pool.data() + i * kLength, kLength,
                             window);
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() * 63);
}
BENCHMARK(BM_SquaredDtw256)->Unit(benchmark::kMillisecond);

// ------------------------------------------- batched multi-query kernel
//
// Score every pool candidate against Q prepared queries, either as Q
// independent per-query early-abandon scans — query-major, each query
// sweeping the whole pool on its own, exactly like Q separate
// QueryExecutions scanning the same leaves — or as one batched-kernel call
// per candidate (one candidate load serving all Q). Same ISA table, same
// thresholds, bit-identical outputs. CI gates Batched against PerQuery at
// Q >= 4 on a fresh run.

// The multi-query cases run on z-normalized random walks, the paper's data
// model, instead of the i.i.d. pool above. This matters: i.i.d. Gaussian
// series concentrate all pairwise distances around one value, so no
// BSF-style threshold can trigger early abandoning and every scan runs to
// full length — a regime the leaf-scan path never sees. Random walks keep
// the heavy distance spread of real series, where most candidates freeze
// within their first blocks.
const std::vector<float>& WalkPool() {
  static const std::vector<float>& pool = *new std::vector<float>([] {
    std::vector<float> p(kSeries * kLength);
    Rng rng(131);
    for (size_t s = 0; s < kSeries; ++s) {
      float* series = p.data() + s * kLength;
      double level = 0.0, sum = 0.0, sum_sq = 0.0;
      for (size_t i = 0; i < kLength; ++i) {
        level += rng.NextGaussian();
        series[i] = static_cast<float>(level);
        sum += level;
        sum_sq += level * level;
      }
      const double mean = sum / kLength;
      const double var = sum_sq / kLength - mean * mean;
      const double inv_std = var > 1e-12 ? 1.0 / std::sqrt(var) : 1.0;
      for (size_t i = 0; i < kLength; ++i) {
        series[i] = static_cast<float>((series[i] - mean) * inv_std);
      }
    }
    return p;
  }());
  return pool;
}

constexpr int64_t kBatchQ[] = {1, 4, 8, 16};

void ApplyIsaAndQArgs(benchmark::internal::Benchmark* b) {
  std::vector<int64_t> isas{0};
  if (simd::SseTable() != nullptr) isas.push_back(1);
  if (simd::Avx2Table() != nullptr) isas.push_back(2);
  for (int64_t isa : isas) {
    for (int64_t q : kBatchQ) b->Args({isa, q});
  }
}

std::string BatchLabel(const simd::KernelTable* table, size_t q_count) {
  return std::string(simd::IsaName(table->isa)) + "/Q=" +
         std::to_string(q_count);
}

// BSF-tight per-query thresholds: each query's nearest-neighbor distance over
// a sampled eighth of the pool. Exact leaf scans only run after the
// approximate phase has seeded a near-optimal BSF, so this — not a loose
// random-pair distance — is the abandonment regime the leaf-scan kernels
// actually see.
std::vector<float> BatchThresholds(const simd::KernelTable* table,
                                   size_t q_count) {
  const std::vector<float>& pool = WalkPool();
  std::vector<float> thresholds(q_count);
  for (size_t q = 0; q < q_count; ++q) {
    float best = std::numeric_limits<float>::infinity();
    for (size_t i = q_count + 1; i < kSeries; i += 8) {
      best = std::min(best, table->squared_euclidean(
                                pool.data() + q * kLength,
                                pool.data() + i * kLength, kLength));
    }
    thresholds[q] = best;
  }
  return thresholds;
}

void BM_MultiQueryEuclideanPerQuery256(benchmark::State& state) {
  const simd::KernelTable* table = TableForArg(state.range(0));
  const size_t q_count = static_cast<size_t>(state.range(1));
  const std::vector<float>& pool = WalkPool();
  const std::vector<float> thresholds = BatchThresholds(table, q_count);
  float checksum = 0.0f;
  for (auto _ : state) {
    for (size_t q = 0; q < q_count; ++q) {
      const float* query = pool.data() + q * kLength;
      for (size_t i = q_count + 1; i < kSeries; ++i) {
        checksum += table->squared_euclidean_early_abandon(
            query, pool.data() + i * kLength, kLength, thresholds[q]);
      }
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSeries - q_count - 1) *
                          static_cast<int64_t>(q_count));
  state.SetLabel(BatchLabel(table, q_count));
}
BENCHMARK(BM_MultiQueryEuclideanPerQuery256)
    ->Apply(ApplyIsaAndQArgs)
    ->Unit(benchmark::kMicrosecond);

void BM_MultiQueryEuclideanBatched256(benchmark::State& state) {
  const simd::KernelTable* table = TableForArg(state.range(0));
  const size_t q_count = static_cast<size_t>(state.range(1));
  const size_t stride = simd::BatchStride(q_count);
  const std::vector<float>& pool = WalkPool();
  const std::vector<float> thresholds = BatchThresholds(table, q_count);
  std::vector<float> block(kLength * stride, 0.0f);
  for (size_t q = 0; q < q_count; ++q) {
    for (size_t i = 0; i < kLength; ++i) {
      block[i * stride + q] = pool[q * kLength + i];
    }
  }
  std::vector<float> out(q_count);
  float checksum = 0.0f;
  for (auto _ : state) {
    for (size_t i = q_count + 1; i < kSeries; ++i) {
      table->batched_squared_euclidean_early_abandon(
          pool.data() + i * kLength, block.data(), kLength, stride, q_count,
          thresholds.data(), out.data());
      checksum += out[0];
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSeries - q_count - 1) *
                          static_cast<int64_t>(q_count));
  state.SetLabel(BatchLabel(table, q_count));
}
BENCHMARK(BM_MultiQueryEuclideanBatched256)
    ->Apply(ApplyIsaAndQArgs)
    ->Unit(benchmark::kMicrosecond);

// ------------------------------------------------ per-series SAX bound
//
// The leaf scan's first filter: the full-cardinality SAX bound of every
// series in a popped leaf. Both panels score the SAX rows of the walk pool
// (16 segments, 8 bits) against one query: the reference MindistPaaToSax,
// and the per-query SaxBoundTable the query engine reads instead (built
// once per query outside the timed loop, as a QueryExecution does). CI
// gates Table against Mindist on a fresh run.

const IsaxConfig& BoundConfig() {
  static const IsaxConfig config(kLength, 16);
  return config;
}

const std::vector<uint8_t>& WalkPoolSax() {
  static const std::vector<uint8_t>& sax = *new std::vector<uint8_t>([] {
    const IsaxConfig& config = BoundConfig();
    const size_t w = static_cast<size_t>(config.segments());
    std::vector<uint8_t> rows(kSeries * w);
    for (size_t i = 0; i < kSeries; ++i) {
      ComputeSax(WalkPool().data() + i * kLength, config, rows.data() + i * w);
    }
    return rows;
  }());
  return sax;
}

void BM_SeriesBoundMindist256(benchmark::State& state) {
  const IsaxConfig& config = BoundConfig();
  const size_t w = static_cast<size_t>(config.segments());
  const std::vector<uint8_t>& sax = WalkPoolSax();
  const std::vector<double> paa = ComputePaa(WalkPool().data(), config.paa);
  float checksum = 0.0f;
  for (auto _ : state) {
    for (size_t i = 0; i < kSeries; ++i) {
      checksum += MindistPaaToSax(paa.data(), sax.data() + i * w, config);
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kSeries));
}
BENCHMARK(BM_SeriesBoundMindist256)->Unit(benchmark::kMicrosecond);

void BM_SeriesBoundTable256(benchmark::State& state) {
  const IsaxConfig& config = BoundConfig();
  const size_t w = static_cast<size_t>(config.segments());
  const std::vector<uint8_t>& sax = WalkPoolSax();
  const std::vector<double> paa = ComputePaa(WalkPool().data(), config.paa);
  const SaxBoundTable table = SaxBoundTable::ForPaa(paa.data(), config);
  float checksum = 0.0f;
  for (auto _ : state) {
    for (size_t i = 0; i < kSeries; ++i) {
      checksum += table.Bound(sax.data() + i * w);
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kSeries));
}
BENCHMARK(BM_SeriesBoundTable256)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------- node word bound
//
// The traversal's bound for every node it reaches: both panels score every
// node word of one index built over the walk pool (16 segments, leaf
// capacity 16, so words reach several bit depths) against one query: the
// reference MindistPaaToWord, and SaxBoundTable::WordBound, which the
// query engine reads instead. CI gates Table against Mindist on a fresh
// run, together with the per-series pair above.

const std::vector<IsaxWord>& WalkPoolNodeWords() {
  static const std::vector<IsaxWord>& words = *new std::vector<IsaxWord>([] {
    SeriesCollection pool(kLength);
    for (size_t i = 0; i < kSeries; ++i) {
      pool.Append(WalkPool().data() + i * kLength);
    }
    IndexOptions options;
    options.config = BoundConfig();
    options.leaf_capacity = 16;
    const Index index = Index::Build(std::move(pool), options);
    std::vector<IsaxWord> out;
    std::function<void(const TreeNode*)> visit = [&](const TreeNode* node) {
      out.push_back(node->word());
      if (node->is_leaf()) return;
      visit(node->left());
      visit(node->right());
    };
    for (size_t r = 0; r < index.tree().root_count(); ++r) {
      visit(index.tree().root(r));
    }
    return out;
  }());
  return words;
}

void BM_WordBoundMindist(benchmark::State& state) {
  const IsaxConfig& config = BoundConfig();
  const std::vector<IsaxWord>& words = WalkPoolNodeWords();
  const std::vector<double> paa = ComputePaa(WalkPool().data(), config.paa);
  float checksum = 0.0f;
  for (auto _ : state) {
    for (const IsaxWord& word : words) {
      checksum += MindistPaaToWord(paa.data(), word, config);
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(words.size()));
}
BENCHMARK(BM_WordBoundMindist)->Unit(benchmark::kMicrosecond);

void BM_WordBoundTable(benchmark::State& state) {
  const IsaxConfig& config = BoundConfig();
  const std::vector<IsaxWord>& words = WalkPoolNodeWords();
  const std::vector<double> paa = ComputePaa(WalkPool().data(), config.paa);
  const SaxBoundTable table = SaxBoundTable::ForPaa(paa.data(), config);
  float checksum = 0.0f;
  for (auto _ : state) {
    for (const IsaxWord& word : words) checksum += table.WordBound(word);
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(words.size()));
}
BENCHMARK(BM_WordBoundTable)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace odyssey

ODYSSEY_BENCH_MAIN();
