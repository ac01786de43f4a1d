// Tests for the PreparedQuery pipeline: the batch-level summaries must be
// (a) exactly what the standalone summarization routines produce, (b)
// bit-identical in effect whether an execution uses the batch-shared
// artifact or a freshly prepared one — across ED / DTW / k-NN /
// approximate modes and under work-stealing — and (c) built at most once
// per query per batch across scheduling, replicas and stolen work
// (asserted through the summary_stats counters).

// Installs the counting global operator new from testing_utils.h so the
// hot-path purity tests below can assert zero steady-state allocations.
// Must be defined before any include (one TU per binary may define it).
#define ODYSSEY_TESTING_COUNT_ALLOCATIONS 1

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/hotpath.h"
#include "src/common/summary_stats.h"
#include "src/common/thread_pool.h"
#include "src/core/driver.h"
#include "src/dataset/generators.h"
#include "src/dataset/workload.h"
#include "src/distance/dtw.h"
#include "src/index/query_engine.h"
#include "tests/testing_utils.h"

namespace odyssey {
namespace {

IndexOptions TestIndexOptions(size_t length = 64) {
  IndexOptions options;
  options.config = IsaxConfig(length, 8);
  options.leaf_capacity = 32;
  return options;
}

// ------------------------------------------------- PreparedQuery contents

TEST(PreparedQueryTest, SummariesMatchStandaloneRoutines) {
  const SeriesCollection queries = GenerateRandomWalk(10, 64, 201);
  const IsaxConfig config(64, 8);
  const size_t window = WarpingWindowFromFraction(64, 0.1);
  for (size_t q = 0; q < queries.size(); ++q) {
    const float* series = queries.data(q);
    const PreparedQuery prepared =
        PreparedQuery::Prepare(series, config, /*build_dtw_envelope=*/true,
                               window);
    EXPECT_EQ(prepared.series(), series);
    EXPECT_EQ(prepared.length(), 64u);
    EXPECT_EQ(prepared.segments(), 8);

    const std::vector<double> paa = ComputePaa(series, config.paa);
    std::vector<uint8_t> sax(config.segments());
    ComputeSax(series, config, sax.data());
    for (int i = 0; i < config.segments(); ++i) {
      EXPECT_EQ(prepared.paa()[i], paa[i]) << "segment " << i;
      EXPECT_EQ(prepared.sax()[i], sax[i]) << "segment " << i;
    }

    ASSERT_TRUE(prepared.has_envelope());
    EXPECT_EQ(prepared.dtw_window(), window);
    const Envelope envelope = BuildEnvelope(series, 64, window);
    ASSERT_EQ(prepared.envelope().length(), envelope.length());
    for (size_t t = 0; t < envelope.length(); ++t) {
      EXPECT_EQ(prepared.envelope().upper[t], envelope.upper[t]);
      EXPECT_EQ(prepared.envelope().lower[t], envelope.lower[t]);
    }
    const EnvelopePaa env_paa = ComputeEnvelopePaa(envelope, config);
    for (int i = 0; i < config.segments(); ++i) {
      EXPECT_EQ(prepared.envelope_paa().upper[i], env_paa.upper[i]);
      EXPECT_EQ(prepared.envelope_paa().lower[i], env_paa.lower[i]);
    }
  }
}

TEST(PreparedQueryTest, EnvelopeAccessorsGatedOnPreparation) {
  const SeriesCollection queries = GenerateRandomWalk(1, 64, 203);
  const PreparedQuery prepared =
      PreparedQuery::Prepare(queries.data(0), IsaxConfig(64, 8));
  EXPECT_FALSE(prepared.has_envelope());
  EXPECT_EQ(prepared.dtw_window(), 0u);
}

TEST(PreparedBatchTest, PooledBuildIsBitIdenticalToSerial) {
  const SeriesCollection queries = GenerateSeismicLike(37, 64, 205);
  const IsaxConfig config(64, 8);
  const size_t window = WarpingWindowFromFraction(64, 0.05);
  ThreadPool pool(4);
  const PreparedBatch pooled =
      PreparedBatch::Prepare(queries, config, true, window, &pool);
  const PreparedBatch serial =
      PreparedBatch::Prepare(queries, config, true, window);
  ASSERT_EQ(pooled.size(), queries.size());
  ASSERT_EQ(serial.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (int i = 0; i < config.segments(); ++i) {
      EXPECT_EQ(pooled.query(q).paa()[i], serial.query(q).paa()[i]);
      EXPECT_EQ(pooled.query(q).sax()[i], serial.query(q).sax()[i]);
    }
    for (size_t t = 0; t < 64; ++t) {
      EXPECT_EQ(pooled.query(q).envelope().upper[t],
                serial.query(q).envelope().upper[t]);
      EXPECT_EQ(pooled.query(q).envelope().lower[t],
                serial.query(q).envelope().lower[t]);
    }
  }
}

// ------------------------------------- shared-vs-fresh execution identity

struct ModeCase {
  const char* name;
  bool use_dtw;
  int k;
  bool approximate;
};

class SharedSummaryEquivalenceTest : public ::testing::TestWithParam<ModeCase> {
};

TEST_P(SharedSummaryEquivalenceTest, BatchSharedArtifactIsBitIdentical) {
  const ModeCase mode = GetParam();
  const SeriesCollection data = GenerateSeismicLike(1500, 64, 207);
  const Index index = Index::Build(SeriesCollection(data), TestIndexOptions());
  const SeriesCollection queries = GenerateUniformQueries(data, 8, 1.0, 209);

  QueryOptions qo;
  qo.num_threads = 2;
  qo.k = mode.k;
  qo.use_dtw = mode.use_dtw;
  qo.dtw_window =
      mode.use_dtw ? WarpingWindowFromFraction(64, 0.05) : 0;
  qo.approximate = mode.approximate;

  // The batch-shared artifacts, built once for all queries...
  const PreparedBatch batch = PrepareBatch(queries, index.config(), qo);
  ThreadPool pool(static_cast<size_t>(qo.num_threads));
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryExecution shared_exec(&index, batch.query(q), qo);
    shared_exec.SeedInitialBsf();
    shared_exec.Run(&pool);
    // ... against a per-execution summarization, as the pre-refactor code
    // performed inside every Initialize().
    const PreparedQuery fresh =
        PrepareQuery(queries.data(q), index.config(), qo);
    QueryExecution fresh_exec(&index, fresh, qo);
    fresh_exec.SeedInitialBsf();
    fresh_exec.Run(&pool);

    const auto got = shared_exec.results().SortedResults();
    const auto want = fresh_exec.results().SortedResults();
    ASSERT_EQ(got.size(), want.size()) << mode.name << " query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].squared_distance, want[i].squared_distance)
          << mode.name << " query " << q << " rank " << i;
      EXPECT_EQ(got[i].id, want[i].id)
          << mode.name << " query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SharedSummaryEquivalenceTest,
    ::testing::Values(ModeCase{"ed_k1", false, 1, false},
                      ModeCase{"ed_k5", false, 5, false},
                      ModeCase{"dtw_k1", true, 1, false},
                      ModeCase{"dtw_k3", true, 3, false},
                      ModeCase{"approx_k1", false, 1, true},
                      ModeCase{"approx_k10", false, 10, true}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(SharedSummaryEquivalenceTest, StolenWorkReusesVictimArtifact) {
  // Victim and thief split the RS-batches of one query. Sharing the
  // victim's prepared artifact must give bit-identical merged answers to
  // both sides preparing their own (the pre-refactor behavior).
  const SeriesCollection data = GenerateSeismicLike(2000, 64, 211);
  const Index index = Index::Build(SeriesCollection(data), TestIndexOptions());
  const SeriesCollection queries = GenerateUniformQueries(data, 5, 2.0, 213);
  QueryOptions qo;
  qo.num_threads = 2;
  qo.num_batches = 8;
  ThreadPool pool(static_cast<size_t>(qo.num_threads));

  auto run_split = [&](const PreparedQuery& for_victim,
                       const PreparedQuery& for_thief) {
    QueryExecution victim(&index, for_victim, qo);
    QueryExecution thief(&index, for_thief, qo);
    victim.SeedInitialBsf();
    thief.SeedInitialBsf();
    std::vector<int> victim_ids, thief_ids;
    for (int b = 0; b < 8; ++b) {
      (b % 2 == 0 ? victim_ids : thief_ids).push_back(b);
    }
    victim.RunBatchSubset(victim_ids, &pool);
    thief.RunBatchSubset(thief_ids, &pool);
    std::vector<Neighbor> merged;
    for (const auto& n : victim.results().SortedResults()) merged.push_back(n);
    for (const auto& n : thief.results().SortedResults()) merged.push_back(n);
    return MergeAnswers(merged, qo.k);
  };

  const PreparedBatch batch = PrepareBatch(queries, index.config(), qo);
  for (size_t q = 0; q < queries.size(); ++q) {
    const PreparedQuery fresh_victim =
        PrepareQuery(queries.data(q), index.config(), qo);
    const PreparedQuery fresh_thief =
        PrepareQuery(queries.data(q), index.config(), qo);
    const auto shared = run_split(batch.query(q), batch.query(q));
    const auto fresh = run_split(fresh_victim, fresh_thief);
    ASSERT_EQ(shared.size(), fresh.size()) << "query " << q;
    for (size_t i = 0; i < shared.size(); ++i) {
      EXPECT_EQ(shared[i].squared_distance, fresh[i].squared_distance);
      EXPECT_EQ(shared[i].id, fresh[i].id);
    }
  }
}

// -------------------------------------------- once-per-query-per-batch

TEST(SummarizationCountTest, EdBatchSummarizesOncePerQuery) {
  const SeriesCollection data = GenerateSeismicLike(1200, 64, 215);
  const SeriesCollection queries = GenerateUniformQueries(data, 12, 1.0, 217);
  OdysseyOptions options;
  // FULL replication with stealing and prediction-based dynamic
  // scheduling: the configuration with the most summary consumers — the
  // scheduler's estimation, four replicas, and stolen-work runs.
  options.num_nodes = 4;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.scheduling = SchedulingPolicy::kPredictDynamic;
  options.worksteal.enabled = true;
  options.query_options.num_threads = 2;
  OdysseyCluster cluster(data, options);

  summary_stats::Reset();
  const BatchReport report = cluster.AnswerBatch(queries);
  ASSERT_EQ(report.answers.size(), queries.size());
  EXPECT_EQ(summary_stats::PaaCalls(), queries.size());
  EXPECT_EQ(summary_stats::SaxCalls(), queries.size());
  EXPECT_EQ(summary_stats::EnvelopeCalls(), 0u);

  // A second batch prepares again (once per query per batch).
  cluster.AnswerBatch(queries);
  EXPECT_EQ(summary_stats::PaaCalls(), 2 * queries.size());
  EXPECT_EQ(summary_stats::SaxCalls(), 2 * queries.size());
}

TEST(SummarizationCountTest, DtwBatchBuildsOneEnvelopePerQuery) {
  const SeriesCollection data = GenerateSeismicLike(800, 64, 219);
  const SeriesCollection queries = GenerateUniformQueries(data, 6, 1.0, 221);
  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 2;
  options.index_options = TestIndexOptions();
  options.scheduling = SchedulingPolicy::kPredictDynamic;
  options.worksteal.enabled = true;
  options.query_options.num_threads = 2;
  options.query_options.k = 3;
  options.query_options.use_dtw = true;
  options.query_options.dtw_window = WarpingWindowFromFraction(64, 0.05);
  OdysseyCluster cluster(data, options);

  summary_stats::Reset();
  cluster.AnswerBatch(queries);
  EXPECT_EQ(summary_stats::EnvelopeCalls(), queries.size());
  // One PAA for the query itself plus one per envelope band.
  EXPECT_EQ(summary_stats::PaaCalls(), 3 * queries.size());
  EXPECT_EQ(summary_stats::SaxCalls(), queries.size());
}

TEST(SummarizationCountTest, StreamPreparesOncePerQuery) {
  const SeriesCollection data = GenerateRandomWalk(600, 64, 223);
  const SeriesCollection queries = GenerateUniformQueries(data, 5, 1.0, 225);
  OdysseyOptions options;
  options.num_nodes = 2;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.worksteal.enabled = true;
  options.query_options.num_threads = 2;
  OdysseyCluster cluster(data, options);

  summary_stats::Reset();
  cluster.AnswerStream(queries, std::vector<double>(queries.size(), 0.0));
  EXPECT_EQ(summary_stats::PaaCalls(), queries.size());
  EXPECT_EQ(summary_stats::SaxCalls(), queries.size());
}

// ------------------------------------------------ distributed equivalence

TEST(DistributedEquivalenceTest, ClusterAnswersMatchSingleIndexPipeline) {
  // The cluster path (prepared batch shared across nodes) must agree with
  // brute force, under the configuration that exercises estimation,
  // replicas and steals at once.
  const SeriesCollection data = GenerateSeismicLike(1500, 64, 227);
  const SeriesCollection queries = GenerateUniformQueries(data, 6, 1.5, 229);
  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.scheduling = SchedulingPolicy::kPredictDynamic;
  options.worksteal.enabled = true;
  options.query_options.num_threads = 2;
  options.query_options.k = 3;
  OdysseyCluster cluster(data, options);
  const BatchReport report = cluster.AnswerBatch(queries);
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto exact = testing_utils::BruteForceKnn(data, queries.data(q), 3);
    ASSERT_EQ(report.answers[q].size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_TRUE(testing_utils::NearlyEqual(
          report.answers[q][i].squared_distance, exact[i].squared_distance))
          << "query " << q << " rank " << i;
    }
  }
}

// ------------------------------------------------- hot-path purity

// FixedIdSet (the open-addressing set that replaced KnnSet's allocating
// std::unordered_set) must agree with a reference set under a KnnSet-like
// workload: capacity-bounded membership with evictions, dense ids so probe
// chains collide and backward-shift deletion is exercised hard.
TEST(FixedIdSetTest, MatchesReferenceSetUnderEvictionWorkload) {
  std::mt19937 rng(12345);
  for (const size_t capacity : {size_t{1}, size_t{3}, size_t{16}, size_t{100}}) {
    FixedIdSet set(capacity);
    std::unordered_set<uint32_t> ref;
    std::vector<uint32_t> resident;  // for picking random eviction victims
    for (int step = 0; step < 20000; ++step) {
      const uint32_t id = rng() % 512;
      ASSERT_EQ(set.Contains(id), ref.count(id) > 0) << "step " << step;
      if (ref.count(id) == 0) {
        if (ref.size() == capacity) {
          // Full: evict a random resident first, as KnnSet evicts its
          // current worst before admitting a better candidate.
          const size_t v = rng() % resident.size();
          const uint32_t victim = resident[v];
          set.Remove(victim);
          ref.erase(victim);
          resident[v] = resident.back();
          resident.pop_back();
          ASSERT_FALSE(set.Contains(victim)) << "step " << step;
        }
        set.Add(id);
        ref.insert(id);
        resident.push_back(id);
      }
      const uint32_t probe = rng() % 512;
      ASSERT_EQ(set.Contains(probe), ref.count(probe) > 0) << "step " << step;
      ASSERT_EQ(set.size(), ref.size()) << "step " << step;
    }
  }
}

// The counting allocator itself must be live — allocations inside a hot
// region are observed, allocations outside (or under an allowance) are
// not. Without this, the steady-state assertions below could pass
// trivially with a broken counter. Direct operator-new calls are used
// because new-expressions may legally be elided.
TEST(HotPathPurityTest, CountingAllocatorObservesHotRegionAllocations) {
  testing_utils::ResetHotAllocations();
  ::operator delete(::operator new(64));
  EXPECT_EQ(testing_utils::HotAllocations(), 0u) << "counted outside region";
  {
    hotpath::ScopedHotRegion region;
    ::operator delete(::operator new(64));
  }
  EXPECT_EQ(testing_utils::HotAllocations(), 1u) << "missed in-region alloc";
  {
    hotpath::ScopedHotRegion region;
    hotpath::ScopedAllowance allowance;
    ::operator delete(::operator new(64));
  }
  EXPECT_EQ(testing_utils::HotAllocations(), 1u)
      << "allowance did not suppress counting";
  testing_utils::ResetHotAllocations();
}

// The dynamic backstop behind tools/check_hot_paths.py: once the
// thread-local scratch (DTW DP rows, claim snapshots, FixedIdSet heaps)
// has warmed up on the first query, every later query's scoring phases
// must perform zero heap allocations. Without a pool, Run executes all
// three phases inline on the calling thread, so the warm-up
// deterministically heats exactly the thread-locals the steady-state
// queries use. The grouped arm holds GroupedQueryExecution's merged leaf
// scan to the same contract, one warm-up group ahead of the measured ones.
TEST(HotPathPurityTest, SteadyStateSingleThreadedRunIsAllocationFree) {
  const SeriesCollection data = GenerateSeismicLike(2000, 64, 401);
  const Index index = Index::Build(SeriesCollection(data), TestIndexOptions());
  const SeriesCollection queries = GenerateUniformQueries(data, 6, 1.0, 403);
  // Grouped arm: a warm-up group of 4, then steady-state groups of 3 and 4.
  const SeriesCollection group_queries =
      GenerateUniformQueries(data, 11, 1.0, 407);
  const std::vector<std::pair<size_t, size_t>> groups = {
      {0, 4}, {4, 7}, {7, 11}};

  struct Mode {
    const char* name;
    bool use_dtw;
    int k;
  };
  for (const Mode& mode :
       {Mode{"ed_k1", false, 1}, Mode{"ed_k5", false, 5},
        Mode{"dtw_k3", true, 3}}) {
    QueryOptions qo;
    qo.num_threads = 1;
    qo.k = mode.k;
    qo.use_dtw = mode.use_dtw;
    qo.dtw_window = mode.use_dtw ? WarpingWindowFromFraction(64, 0.05) : 0;
    const PreparedBatch batch = PrepareBatch(queries, index.config(), qo);

    // Warm-up: grows this thread's QueryScratch / DtwScratch high-water
    // marks. Construction of QueryExecution (queues, KnnSet heap) happens
    // outside the hot regions and is allowed to allocate every run.
    {
      QueryExecution warm(&index, batch.query(0), qo);
      warm.SeedInitialBsf();
      warm.Run();
    }

    testing_utils::ResetHotAllocations();
    for (size_t q = 1; q < queries.size(); ++q) {
      QueryExecution exec(&index, batch.query(q), qo);
      exec.SeedInitialBsf();
      exec.Run();
      ASSERT_EQ(exec.results().SortedResults().size(),
                static_cast<size_t>(mode.k))
          << mode.name << " query " << q;
    }
    EXPECT_EQ(testing_utils::HotAllocations(), 0u) << mode.name;

    const PreparedBatch group_batch =
        PrepareBatch(group_queries, index.config(), qo);
    for (size_t g = 0; g < groups.size(); ++g) {
      std::vector<std::unique_ptr<QueryExecution>> execs;
      std::vector<QueryExecution*> members;
      for (size_t q = groups[g].first; q < groups[g].second; ++q) {
        execs.push_back(
            std::make_unique<QueryExecution>(&index, group_batch.query(q), qo));
        execs.back()->SeedInitialBsf();
        members.push_back(execs.back().get());
      }
      GroupedQueryExecution group(std::move(members));
      // Group 0 is the warm-up: it grows this thread's lane buffers.
      if (g == 1) testing_utils::ResetHotAllocations();
      group.Run();
      for (const auto& exec : execs) {
        ASSERT_EQ(exec->results().SortedResults().size(),
                  static_cast<size_t>(mode.k))
            << mode.name << " group " << g;
      }
    }
    EXPECT_EQ(testing_utils::HotAllocations(), 0u) << mode.name << " grouped";
  }
}

}  // namespace
}  // namespace odyssey
