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
//   BM_Fig13d_BatchedScoring/{batched,perquery} — grouped multi-query leaf
//     scans (ODYSSEY_BATCHED_SCORING path) against the per-query scans of
//     the same batch on the same cluster; counters record throughput plus
//     the batched-kernel call count and the candidate reloads the grouped
//     scan avoided (scan_stats). The gated win condition lives in the
//     kernel bench (BM_MultiQuery*); this panel shows the end-to-end
//     effect with real index leaves. CI aligns each batched panel with its
//     perquery twin and gates both workloads (correlated and mixed) at
//     ratio 1.00 — the mixed-batch gate this PR closes.
//   BM_Fig13d_Donation/mixed/{on,off} — the batched/work-steal cluster
//     with grouped-scan steal donation toggled; counters record the
//     donated-slice traffic (scan_stats::BatchesDonated and the series
//     mass behind it) so a recorded run proves donation actually moved
//     work, not just that the toggle parses.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/common/summary_stats.h"

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

// A monitoring-style workload: a few query templates, each issued several
// times with small jitter (the same event matched against the archive by
// many stations / repeated alert rules). Co-resident variants of one
// template walk the same hot leaves, which is exactly the sharing the
// grouped leaf scan amortizes; the `mixed` variant keeps the diverse
// Seismic-style batch where sharing is incidental.
SeriesCollection CorrelatedQueries(const SeriesCollection& data, int templates,
                                   int repeats, uint64_t seed) {
  const SeriesCollection base =
      bench::MixedQueries(data, static_cast<size_t>(templates), seed);
  SeriesCollection out(data.length());
  Rng rng(seed + 1);
  for (int t = 0; t < templates; ++t) {
    for (int r = 0; r < repeats; ++r) {
      float* q = out.AppendUninitialized(1);
      const float* src = base.data(static_cast<size_t>(t));
      for (size_t i = 0; i < data.length(); ++i) {
        q[i] = src[i] + 0.05f * static_cast<float>(rng.NextGaussian());
      }
    }
  }
  return out;
}

void RunBatchedScoringPanel(benchmark::State& state, bool batched,
                            bool correlated, bool donation) {
  const int queries = 64;
  const SeriesCollection& data =
      bench::CachedDataset("Random", bench::Scaled(12000), 256, 21);
  const SeriesCollection batch =
      correlated ? CorrelatedQueries(data, /*templates=*/8, /*repeats=*/8, 29)
                 : bench::MixedQueries(data, queries, 29);
  // Static scheduling delivers each node's whole share up front, so the
  // grouped mode can admit up to num_threads co-resident queries per node
  // and scan shared leaves once per group.
  OdysseyOptions options = bench::ClusterOptions(
      256, /*nodes=*/2, /*groups=*/1, SchedulingPolicy::kStatic, true,
      /*threads_per_node=*/4);
  options.batched_scoring = batched;
  options.steal_donation = donation;
  OdysseyCluster cluster(data, options);
  cluster.AnswerBatch(batch);  // Warm-up: persistent executors, page cache.
  double seconds = 0.0;
  uint64_t calls = 0, saved = 0, donated = 0, donated_series = 0;
  uint64_t multi_calls = 0, multi_lanes = 0;
  for (auto _ : state) {
    const uint64_t calls_before = scan_stats::BatchedScoreCalls();
    const uint64_t saved_before = scan_stats::SeriesLoadsSaved();
    const uint64_t donated_before = scan_stats::BatchesDonated();
    const uint64_t donated_series_before = scan_stats::DonatedSeriesScanned();
    const uint64_t multi_calls_before = scan_stats::MultiScoreCalls();
    const uint64_t multi_lanes_before = scan_stats::MultiScoreLanes();
    const BatchReport report = cluster.AnswerBatch(batch);
    seconds = report.query_seconds;
    calls = scan_stats::BatchedScoreCalls() - calls_before;
    saved = scan_stats::SeriesLoadsSaved() - saved_before;
    donated = scan_stats::BatchesDonated() - donated_before;
    donated_series = scan_stats::DonatedSeriesScanned() - donated_series_before;
    multi_calls = scan_stats::MultiScoreCalls() - multi_calls_before;
    multi_lanes = scan_stats::MultiScoreLanes() - multi_lanes_before;
  }
  state.counters["throughput_qps"] =
      seconds > 0.0 ? static_cast<double>(queries) / seconds : 0.0;
  state.counters["batched_calls"] = static_cast<double>(calls);
  state.counters["loads_saved"] = static_cast<double>(saved);
  state.counters["batches_donated"] = static_cast<double>(donated);
  state.counters["donated_series"] = static_cast<double>(donated_series);
  // Mixed batches route most leaves through the lone-survivor deferral
  // queue rather than the interleaved batched kernel; these two counters
  // make that visible (lanes/call is the achieved packing density).
  state.counters["multi_calls"] = static_cast<double>(multi_calls);
  state.counters["multi_lanes"] = static_cast<double>(multi_lanes);
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
  for (bool correlated : {true, false}) {
    for (bool batched : {true, false}) {
      benchmark::RegisterBenchmark(
          (std::string("BM_Fig13d_BatchedScoring/") +
           (correlated ? "correlated/" : "mixed/") +
           (batched ? "batched" : "perquery"))
              .c_str(),
          [batched, correlated](benchmark::State& s) {
            RunBatchedScoringPanel(s, batched, correlated,
                                   /*donation=*/true);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1)
          ->UseRealTime();
    }
  }
  // Donation on/off, same batched work-steal cluster on the mixed batch:
  // the ratio shows what the slice handoff buys end-to-end, the counters
  // prove slices actually moved in the recorded run.
  for (bool donation : {true, false}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Fig13d_Donation/mixed/") + (donation ? "on" : "off"))
            .c_str(),
        [donation](benchmark::State& s) {
          RunBatchedScoringPanel(s, /*batched=*/true, /*correlated=*/false,
                                 donation);
        })
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
