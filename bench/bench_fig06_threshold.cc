// Figure 6: configuring the single-node query-answering algorithm.
//  (a) sigmoid fit of median priority-queue size vs initial BSF — printed.
//  (b) query-answering time as the threshold division factor varies
//      (1..64); the paper finds 16 best for Seismic.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"

namespace odyssey {
namespace {

struct Fig06State {
  std::unique_ptr<Index> index;
  SeriesCollection queries{1};
  ThresholdModel model;
};

Fig06State& State() {
  static Fig06State& state = *new Fig06State();
  if (state.index == nullptr) {
    const SeriesCollection& data =
        bench::CachedDataset("Seismic", bench::Scaled(30000), 256, 1);
    state.index = std::make_unique<Index>(Index::Build(
        SeriesCollection(data), bench::DefaultIndexOptions(256)));
    state.queries = bench::MixedQueries(data, 32, 5);
    QueryOptions qo;
    qo.num_threads = 2;
    const auto samples =
        CollectCalibrationSamples(*state.index, state.queries, qo);
    std::vector<double> bsf, sizes;
    for (const auto& s : samples) {
      bsf.push_back(s.initial_bsf);
      sizes.push_back(s.median_pq_size);
    }
    if (state.model.Calibrate(bsf, sizes).ok()) {
      const SigmoidParams& p = state.model.sigmoid();
      std::printf(
          "=== Figure 6a: sigmoid fit of median PQ size vs initial BSF ===\n"
          "f(Z) = %.2f + (%.2f - %.2f) / (1 + %.3f * exp(-%.3f (Z - %.3f)))\n"
          "rmse = %.2f leaves over %zu calibration queries\n\n",
          p.m, p.M, p.m, p.b, p.c, p.d, state.model.rmse(), samples.size());
    }
  }
  return state;
}

// Figure 6b: per-query TH = sigmoid prediction / factor.
void BM_Fig06_DivisionFactor(benchmark::State& bench_state) {
  Fig06State& st = State();
  const double factor = static_cast<double>(bench_state.range(0));
  ThreadPool pool(4);
  for (auto _ : bench_state) {
    for (size_t q = 0; q < st.queries.size(); ++q) {
      QueryOptions qo;
      qo.num_threads = 4;
      const PreparedQuery prepared =
          PrepareQuery(st.queries.data(q), st.index->config(), qo);
      QueryExecution exec(st.index.get(), prepared, qo);
      const float initial = exec.SeedInitialBsf();
      if (st.model.calibrated()) {
        ThresholdModel scaled = st.model;
        scaled.set_division_factor(factor);
        exec.set_queue_threshold(scaled.PredictThreshold(initial));
      }
      exec.Run(&pool);
      benchmark::DoNotOptimize(exec.results().Threshold());
    }
  }
  bench_state.counters["factor"] = factor;
  bench_state.counters["queries"] = static_cast<double>(st.queries.size());
}

BENCHMARK(BM_Fig06_DivisionFactor)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

}  // namespace
}  // namespace odyssey

ODYSSEY_BENCH_MAIN();
