// Figure 15: Odyssey's replication strategies with WORK-STEAL-PREDICT on
// Seismic, for a small (a, c) and a large (b, d) query workload.
//  (a)/(b) query-answering time vs nodes: more replication => faster.
//  (c)/(d) total time (index build + queries): for few queries the build
//          cost of FULL dominates (EQUALLY-SPLIT wins); for many queries
//          it is amortized (FULL wins) — the paper's central trade-off.
//  (e)     build time + transient bundle bytes of the shared-chunk build:
//          FULL/PARTIAL-k replicas share one immutable bundle and one
//          index per group, so both stay flat as replication_degree()
//          grows.
//  (f)     streaming build from disk through the double-buffered overlap
//          pipeline: pull of chunk i+1 hidden behind the
//          summarize+partition of chunk i (overlap_s counter). The win
//          tracks how IO-bound the pulls are — on a page-cache-warm
//          archive (CI), the pull is mostly z-normalization CPU and the
//          overlap_s counter is the interesting output; on cold spinning
//          storage the hidden seconds come off the wall clock.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>

#include "bench/bench_common.h"
#include "src/common/summary_stats.h"
#include "src/dataset/file_io.h"

namespace odyssey {
namespace {

const SeriesCollection& Data() {
  return bench::CachedDataset("Seismic", bench::Scaled(24000), 256, 27);
}

CostModel& SharedCostModel() {
  static CostModel& model = *new CostModel();
  static bool initialized = false;
  if (!initialized) {
    bench::CalibrateModels(Data(), bench::DefaultIndexOptions(256), 12, 29,
                           &model, nullptr);
    initialized = true;
  }
  return model;
}

void RunReplication(benchmark::State& state, int nodes, int groups,
                    int queries, bool include_index_time) {
  const SeriesCollection& data = Data();
  const SeriesCollection batch = bench::MixedQueries(data, queries, 31);
  OdysseyOptions options = bench::ClusterOptions(
      256, nodes, groups, SchedulingPolicy::kPredictDynamic, true);
  options.cost_model = &SharedCostModel();
  for (auto _ : state) {
    // Total time includes stage 1-2 (partition + build), so the cluster is
    // constructed inside the timed region for (c)/(d).
    if (include_index_time) {
      OdysseyCluster cluster(data, options);
      const BatchReport report = cluster.AnswerBatch(batch);
      state.counters["index_s"] = cluster.index_seconds();
      state.counters["query_s"] = report.query_seconds;
    } else {
      state.PauseTiming();
      OdysseyCluster cluster(data, options);
      state.ResumeTiming();
      const BatchReport report = cluster.AnswerBatch(batch);
      state.counters["query_s"] = report.query_seconds;
    }
  }
  state.counters["nodes"] = nodes;
}

// (e): stage 1+2 only (no queries) — wall build time plus the transient
// bundle bytes and summary count the build materialized, from the
// build_stats counters (the same ones the shared_chunk_test suite asserts
// once-per-group on).
void RunBuild(benchmark::State& state, int nodes, int groups) {
  const SeriesCollection& data = Data();
  const OdysseyOptions options = bench::ClusterOptions(
      256, nodes, groups, SchedulingPolicy::kPredictDynamic, true);
  for (auto _ : state) {
    build_stats::Reset();
    OdysseyCluster cluster(data, options);
    state.counters["build_s"] =
        cluster.partition_seconds() + cluster.index_seconds();
    state.counters["transient_chunk_bytes"] =
        static_cast<double>(build_stats::ChunkBytes());
    state.counters["summaries"] =
        static_cast<double>(build_stats::SummariesBuilt());
    state.counters["bundles"] = static_cast<double>(build_stats::ChunksBuilt());
  }
  state.counters["nodes"] = nodes;
}

// (f): streaming IngestAndBuild from an on-disk archive through the
// double-buffered ingest overlap. The archive is the bench dataset dumped
// once to a temp file, so the pulls are real disk reads.
void RunStreamingBuild(benchmark::State& state, int nodes, int groups) {
  // Per-process name (two users / concurrent runners must not collide on a
  // shared /tmp), written once and removed at exit.
  static const std::string path = [] {
    std::string p = (std::filesystem::temp_directory_path() /
                     ("odyssey_bench_fig15_stream." +
                      std::to_string(::getpid()) + ".raw"))
                        .string();
    const Status written = WriteRawFloats(Data(), p);
    if (!written.ok()) {
      std::fprintf(stderr, "bench: %s\n", written.ToString().c_str());
      p.clear();
      return p;
    }
    std::atexit([] {
      std::error_code ec;
      std::filesystem::remove(
          std::filesystem::temp_directory_path() /
              ("odyssey_bench_fig15_stream." + std::to_string(::getpid()) +
               ".raw"),
          ec);
    });
    return p;
  }();
  if (path.empty()) {
    state.SkipWithError("cannot write streaming archive");
    return;
  }
  const OdysseyOptions options = bench::ClusterOptions(
      256, nodes, groups, SchedulingPolicy::kPredictDynamic, true);
  IngestOptions ingest;
  ingest.length = 256;
  ingest.chunk_size = 4096;
  for (auto _ : state) {
    StatusOr<SeriesIngestor> source = SeriesIngestor::Open(path, ingest);
    if (!source.ok()) {
      state.SkipWithError(source.status().ToString().c_str());
      return;
    }
    auto cluster = OdysseyCluster::IngestAndBuild(*source, options);
    if (!cluster.ok()) {
      state.SkipWithError(cluster.status().ToString().c_str());
      return;
    }
    state.counters["ingest_s"] = (*cluster)->ingest_seconds();
    state.counters["overlap_s"] = (*cluster)->overlap_seconds();
    state.counters["build_s"] =
        (*cluster)->partition_seconds() + (*cluster)->index_seconds();
  }
  state.counters["nodes"] = nodes;
}

void RegisterAll() {
  const struct {
    const char* name;
    int min_nodes;
    int groups;  // -1 = equally split (groups == nodes)
  } kStrategies[] = {
      {"EQUALLY-SPLIT", 1, -1}, {"PARTIAL-4", 4, 4}, {"PARTIAL-2", 2, 2},
      {"FULL", 1, 1}};
  const struct {
    const char* figure;
    int queries;
    bool total;
  } kPanels[] = {{"BM_Fig15a_QueryTime_smallQ", 16, false},
                 {"BM_Fig15b_QueryTime_largeQ", 96, false},
                 {"BM_Fig15c_TotalTime_smallQ", 16, true},
                 {"BM_Fig15d_TotalTime_largeQ", 96, true}};
  for (const auto& panel : kPanels) {
    for (const auto& strategy : kStrategies) {
      for (int nodes : {1, 2, 4, 8}) {
        const int groups = strategy.groups < 0 ? nodes : strategy.groups;
        if (!bench::ValidLayout(nodes, groups) || nodes < strategy.min_nodes) {
          continue;
        }
        benchmark::RegisterBenchmark(
            (std::string(panel.figure) + "/" + strategy.name +
             "/nodes:" + std::to_string(nodes))
                .c_str(),
            [=](benchmark::State& s) {
              RunReplication(s, nodes, groups, panel.queries, panel.total);
            })
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1)
            ->UseRealTime();
      }
    }
  }
  // (e) build-only series of the shared-bundle build.
  for (const auto& strategy : kStrategies) {
    for (int nodes : {2, 4, 8}) {
      const int groups = strategy.groups < 0 ? nodes : strategy.groups;
      if (!bench::ValidLayout(nodes, groups) || nodes < strategy.min_nodes) {
        continue;
      }
      benchmark::RegisterBenchmark(
          (std::string("BM_Fig15e_Build/") + strategy.name + "/nodes:" +
           std::to_string(nodes) + "/shared")
              .c_str(),
          [=](benchmark::State& s) { RunBuild(s, nodes, groups); })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1)
          ->UseRealTime();
    }
  }
  // (f) streaming build with the double-buffered ingest overlap (FULL over
  // 4 nodes — the shape whose build the sharing helps most).
  benchmark::RegisterBenchmark(
      "BM_Fig15f_StreamingBuild/FULL/nodes:4/overlap:on",
      [](benchmark::State& s) { RunStreamingBuild(s, 4, 1); })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1)
      ->UseRealTime();
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
