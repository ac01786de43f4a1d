// Ablations of the design choices the paper fixes after internal
// experiments (see DESIGN.md §4):
//   - Nsend, the RS-batches given away per steal (paper fixes 4, §3.2.2)
//   - Nsb, the number of RS-batches (paper: best at #worker-threads, §3.2.1)
//   - HelpTH, the helper-thread cap per batch (§3.2.1)
//   - BSF sharing on/off (paper §3.4: "critical for performance")
//   - SIMD vs scalar distance kernels (the MESSI heritage)
//   - leaf capacity of the index tree

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/distance/euclidean.h"

namespace odyssey {
namespace {

const SeriesCollection& Data() {
  return bench::CachedDataset("Seismic", bench::Scaled(24000), 256, 61);
}

// A skewed batch (a few very hard queries at the end) — the regime where
// stealing and sharing decisions matter.
SeriesCollection SkewedQueries(const SeriesCollection& data, size_t count,
                               uint64_t seed) {
  WorkloadOptions wl;
  wl.count = count;
  wl.min_noise = 0.05;
  wl.max_noise = 0.5;
  wl.unrelated_fraction = 0.15;
  wl.seed = seed;
  return GenerateQueries(data, wl);
}

void BM_Ablation_Nsend(benchmark::State& state) {
  const SeriesCollection& data = Data();
  const SeriesCollection queries = SkewedQueries(data, 24, 63);
  OdysseyOptions options = bench::ClusterOptions(
      256, 8, 1, SchedulingPolicy::kDynamic, true, /*threads=*/1);
  options.worksteal.nsend = static_cast<int>(state.range(0));
  options.query_options.num_batches = 16;
  OdysseyCluster cluster(data, options);
  for (auto _ : state) {
    const BatchReport report = cluster.AnswerBatch(queries);
    state.counters["steals"] = report.total_steals();
  }
  state.counters["nsend"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Ablation_Nsend)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

void BM_Ablation_NumBatches(benchmark::State& state) {
  const SeriesCollection& data = Data();
  const SeriesCollection queries = bench::MixedQueries(data, 16, 65);
  const Index index =
      Index::Build(SeriesCollection(data), bench::DefaultIndexOptions(256));
  const size_t batches = static_cast<size_t>(state.range(0));
  ThreadPool pool(4);
  for (auto _ : state) {
    for (size_t q = 0; q < queries.size(); ++q) {
      QueryOptions qo;
      qo.num_threads = 4;
      qo.num_batches = batches;
      const PreparedQuery prepared =
          PrepareQuery(queries.data(q), index.config(), qo);
      QueryExecution exec(&index, prepared, qo);
      exec.SeedInitialBsf();
      exec.Run(&pool);
      benchmark::DoNotOptimize(exec.results().Threshold());
    }
  }
  state.counters["Nsb"] = static_cast<double>(batches);
}
BENCHMARK(BM_Ablation_NumBatches)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

void BM_Ablation_HelpThreshold(benchmark::State& state) {
  const SeriesCollection& data = Data();
  const SeriesCollection queries = bench::MixedQueries(data, 16, 67);
  const Index index =
      Index::Build(SeriesCollection(data), bench::DefaultIndexOptions(256));
  ThreadPool pool(4);
  for (auto _ : state) {
    for (size_t q = 0; q < queries.size(); ++q) {
      QueryOptions qo;
      qo.num_threads = 4;
      qo.help_threshold = static_cast<int>(state.range(0));
      const PreparedQuery prepared =
          PrepareQuery(queries.data(q), index.config(), qo);
      QueryExecution exec(&index, prepared, qo);
      exec.SeedInitialBsf();
      exec.Run(&pool);
      benchmark::DoNotOptimize(exec.results().Threshold());
    }
  }
  state.counters["HelpTH"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Ablation_HelpThreshold)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

void BM_Ablation_BsfSharing(benchmark::State& state) {
  const bool share = state.range(0) != 0;
  const SeriesCollection& data = Data();
  const SeriesCollection queries = bench::MixedQueries(data, 24, 69);
  // EQUALLY-SPLIT is where sharing matters most: without it, nodes whose
  // chunk lacks the neighborhood prune poorly (Section 3.4).
  OdysseyOptions options = bench::ClusterOptions(
      256, 8, 8, SchedulingPolicy::kStatic, false);
  options.share_bsf = share;
  OdysseyCluster cluster(data, options);
  for (auto _ : state) {
    const BatchReport report = cluster.AnswerBatch(queries);
    state.counters["bsf_updates"] = static_cast<double>(report.bsf_updates);
  }
  state.counters["sharing"] = share ? 1.0 : 0.0;
}
BENCHMARK(BM_Ablation_BsfSharing)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

void BM_Ablation_LeafCapacity(benchmark::State& state) {
  const SeriesCollection& data = Data();
  const SeriesCollection queries = bench::MixedQueries(data, 16, 71);
  IndexOptions index_options = bench::DefaultIndexOptions(256);
  index_options.leaf_capacity = static_cast<size_t>(state.range(0));
  BuildTimings timings;
  ThreadPool pool(4);
  const Index index = Index::Build(SeriesCollection(data), index_options,
                                   &pool, &timings);
  for (auto _ : state) {
    for (size_t q = 0; q < queries.size(); ++q) {
      QueryOptions qo;
      qo.num_threads = 4;
      const PreparedQuery prepared =
          PrepareQuery(queries.data(q), index.config(), qo);
      QueryExecution exec(&index, prepared, qo);
      exec.SeedInitialBsf();
      exec.Run(&pool);
      benchmark::DoNotOptimize(exec.results().Threshold());
    }
  }
  state.counters["leaf_capacity"] = static_cast<double>(state.range(0));
  state.counters["build_s"] = timings.index_seconds();
  state.counters["leaves"] =
      static_cast<double>(index.tree().ComputeStats().leaves);
}
BENCHMARK(BM_Ablation_LeafCapacity)
    ->Arg(32)->Arg(128)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

void BM_Ablation_DistanceKernel(benchmark::State& state) {
  const bool simd = state.range(0) != 0;
  const SeriesCollection& data = Data();
  const SeriesCollection queries = bench::MixedQueries(data, 4, 73);
  double checksum = 0.0;
  for (auto _ : state) {
    for (size_t q = 0; q < queries.size(); ++q) {
      for (size_t i = 0; i < data.size(); ++i) {
        checksum += simd ? SquaredEuclidean(queries.data(q), data.data(i), 256)
                         : SquaredEuclideanScalar(queries.data(q),
                                                  data.data(i), 256);
      }
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.counters["simd"] = simd ? 1.0 : 0.0;
  state.counters["avx2_active"] = HasAvx2Kernels() ? 1.0 : 0.0;
}
BENCHMARK(BM_Ablation_DistanceKernel)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

}  // namespace
}  // namespace odyssey

ODYSSEY_BENCH_MAIN();
