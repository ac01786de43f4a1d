// Figure 13: query throughput (queries/second) as the number of nodes
// grows (Random, FULL replication, WORK-STEAL). Expected shape: throughput
// increases close to linearly with nodes for all batch sizes.
//
// Executor panels:
//   BM_Fig13c_StreamOverlap/inflight:{1,2,4} — AnswerStream online
//     admission: each query summarized at its arrival time, dispatched
//     immediately, nodes running up to `inflight` queries concurrently on
//     their pools; counters record throughput, prep-overlap seconds and
//     the in-flight high-water mark.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace odyssey {
namespace {

void RunThroughput(benchmark::State& state, int nodes, int queries) {
  const SeriesCollection& data =
      bench::CachedDataset("Random", bench::Scaled(24000), 256, 21);
  const SeriesCollection batch = bench::MixedQueries(data, queries, 23);
  OdysseyOptions options = bench::ClusterOptions(
      256, nodes, /*groups=*/1, SchedulingPolicy::kDynamic, true);
  OdysseyCluster cluster(data, options);
  double seconds = 0.0;
  for (auto _ : state) {
    const BatchReport report = cluster.AnswerBatch(batch);
    seconds = report.query_seconds;
  }
  state.counters["nodes"] = nodes;
  state.counters["throughput_qps"] =
      seconds > 0.0 ? static_cast<double>(queries) / seconds : 0.0;
}

void RunStreamOverlap(benchmark::State& state, int inflight) {
  const int queries = 100;
  const SeriesCollection& data =
      bench::CachedDataset("Random", bench::Scaled(12000), 256, 21);
  const SeriesCollection batch = bench::MixedQueries(data, queries, 27);
  OdysseyOptions options = bench::ClusterOptions(
      256, /*nodes=*/4, /*groups=*/1, SchedulingPolicy::kDynamic, true,
      /*threads_per_node=*/4);
  options.stream_max_inflight = inflight;
  OdysseyCluster cluster(data, options);
  // A steady trickle: arrivals spaced so preparation genuinely interleaves
  // with execution instead of bursting at t=0.
  std::vector<double> arrivals(batch.size());
  for (size_t q = 0; q < batch.size(); ++q) {
    arrivals[q] = 2e-4 * static_cast<double>(q);
  }
  double seconds = 0.0, overlap = 0.0;
  int hwm = 0;
  for (auto _ : state) {
    const BatchReport report = cluster.AnswerStream(batch, arrivals);
    seconds = report.query_seconds;
    overlap = report.prep_overlap_seconds;
    hwm = report.queries_in_flight_hwm;
  }
  state.counters["throughput_qps"] =
      seconds > 0.0 ? static_cast<double>(queries) / seconds : 0.0;
  state.counters["prep_overlap_s"] = overlap;
  state.counters["inflight_hwm"] = hwm;
}

void RegisterAll() {
  for (int queries : {25, 50, 100, 200}) {
    for (int nodes : {1, 2, 4, 8}) {
      benchmark::RegisterBenchmark(
          ("BM_Fig13_Throughput/queries:" + std::to_string(queries) +
           "/nodes:" + std::to_string(nodes))
              .c_str(),
          [nodes, queries](benchmark::State& s) {
            RunThroughput(s, nodes, queries);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1)
          ->UseRealTime();
    }
  }
  for (int inflight : {1, 2, 4}) {
    benchmark::RegisterBenchmark(
        ("BM_Fig13c_StreamOverlap/inflight:" + std::to_string(inflight))
            .c_str(),
        [inflight](benchmark::State& s) { RunStreamOverlap(s, inflight); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1)
        ->UseRealTime();
  }
}

}  // namespace
}  // namespace odyssey

int main(int argc, char** argv) {
  odyssey::RegisterAll();
  odyssey::bench::WireJsonOutput(&argc, &argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
