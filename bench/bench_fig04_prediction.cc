// Figure 4: linear regression between a query's initial BSF and its
// execution time (Seismic). Prints the fitted regression and benchmarks
// query execution by initial-BSF quartile — the paper's correlation shows
// up as monotonically increasing per-quartile times.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace odyssey {
namespace {

struct Fig04State {
  const SeriesCollection* data = nullptr;
  std::unique_ptr<Index> index;
  SeriesCollection queries{1};
  std::vector<CalibrationSample> samples;
  CostModel model;
};

Fig04State& State() {
  static Fig04State& state = *new Fig04State();
  if (state.index == nullptr) {
    state.data = &bench::CachedDataset("Seismic", bench::Scaled(30000), 256, 1);
    state.index = std::make_unique<Index>(Index::Build(
        SeriesCollection(*state.data), bench::DefaultIndexOptions(256)));
    state.queries = bench::MixedQueries(*state.data, 48, 3);
    QueryOptions qo;
    qo.num_threads = 2;
    state.samples =
        CollectCalibrationSamples(*state.index, state.queries, qo);
    std::vector<double> bsf, secs;
    for (const auto& s : state.samples) {
      bsf.push_back(s.initial_bsf);
      secs.push_back(s.exec_seconds);
    }
    if (state.model.Fit(bsf, secs).ok()) {
      std::printf(
          "=== Figure 4: execution-time regression (Seismic stand-in) ===\n"
          "time[s] ~ %.6f * initialBSF %+.6f   R^2 = %.3f over %zu queries\n\n",
          state.model.regression().slope(),
          state.model.regression().intercept(),
          state.model.regression().r_squared(), state.samples.size());
    }
  }
  return state;
}

// Re-runs the queries of one initial-BSF quartile; per-quartile mean time
// must increase with the quartile (the figure's upward-sloping cloud).
void BM_Fig04_QuartileTime(benchmark::State& bench_state) {
  Fig04State& st = State();
  const int quartile = static_cast<int>(bench_state.range(0));
  std::vector<size_t> order(st.samples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return st.samples[a].initial_bsf < st.samples[b].initial_bsf;
  });
  const size_t per = order.size() / 4;
  const size_t begin = quartile * per;
  const size_t end = (quartile == 3) ? order.size() : begin + per;
  double mean_bsf = 0.0;
  ThreadPool pool(2);
  for (auto _ : bench_state) {
    for (size_t i = begin; i < end; ++i) {
      QueryOptions qo;
      qo.num_threads = 2;
      const PreparedQuery prepared =
          PrepareQuery(st.queries.data(order[i]), st.index->config(), qo);
      QueryExecution exec(st.index.get(), prepared, qo);
      mean_bsf += exec.SeedInitialBsf();
      exec.Run(&pool);
      benchmark::DoNotOptimize(exec.results().Threshold());
    }
  }
  bench_state.counters["queries"] = static_cast<double>(end - begin);
  bench_state.counters["mean_initial_bsf"] =
      mean_bsf / static_cast<double>(end - begin);
  bench_state.counters["predicted_s"] = st.model.fitted()
      ? st.model.PredictSeconds(mean_bsf / static_cast<double>(end - begin))
      : 0.0;
}

BENCHMARK(BM_Fig04_QuartileTime)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

}  // namespace
}  // namespace odyssey

ODYSSEY_BENCH_MAIN();
