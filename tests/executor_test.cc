// Tests for the persistent per-node executor (ISSUE 5): the
// ThreadPool/TaskGroup barrier-phase primitive (concurrent submits, reuse
// across epochs, nested-group helping, no thread leaks via the
// executor_stats::ThreadsSpawned counter), the zero-threads-per-query
// promise of the pooled query path, exact answers against brute force
// across ED / DTW / k-NN / work-stealing, and the AnswerStream online
// admission path (arrival-time preparation equivalence, overlap and
// in-flight observability).

// Installs the counting global operator new from testing_utils.h so the
// hot-path purity tests below can assert zero steady-state allocations.
// Must be defined before any include (one TU per binary may define it).
#define ODYSSEY_TESTING_COUNT_ALLOCATIONS 1

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

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

// ----------------------------------------------------- TaskGroup primitive

TEST(TaskGroupTest, ConcurrentSubmitsAllRun) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  std::atomic<int> counter{0};
  // Several submitter threads race Submit against running tasks.
  std::vector<std::thread> submitters;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 250; ++i) {
        group.Submit([&counter] {
          counter.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  group.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(TaskGroupTest, ReusableAcrossEpochsWithoutSpawningThreads) {
  executor_stats::Reset();
  ThreadPool pool(3);
  EXPECT_EQ(executor_stats::ThreadsSpawned(), 3u);
  TaskGroup group(&pool);
  std::atomic<int> counter{0};
  for (int epoch = 0; epoch < 50; ++epoch) {
    group.RunTasks(3, [&counter](int) {
      counter.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(counter.load(), 3 * (epoch + 1)) << "epoch " << epoch;
  }
  // Fifty epochs of barrier-phase work reused the same three workers.
  EXPECT_EQ(executor_stats::ThreadsSpawned(), 3u);
}

TEST(TaskGroupTest, GrowSpawnsOnlyTheMissingWorkers) {
  executor_stats::Reset();
  ThreadPool pool(2);
  EXPECT_EQ(executor_stats::ThreadsSpawned(), 2u);
  pool.Grow(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  EXPECT_EQ(executor_stats::ThreadsSpawned(), 4u);  // delta of 2, not 4+2
  pool.Grow(3);  // never shrinks, never respawns
  EXPECT_EQ(pool.num_threads(), 4u);
  EXPECT_EQ(executor_stats::ThreadsSpawned(), 4u);
  std::atomic<int> counter{0};
  pool.ParallelFor(100, [&counter](size_t begin, size_t end) {
    counter.fetch_add(static_cast<int>(end - begin),
                      std::memory_order_relaxed);
  });
  EXPECT_EQ(counter.load(), 100);
}

TEST(TaskGroupTest, ParallelForInsidePoolTaskDoesNotDeadlock) {
  // ParallelFor is one TaskGroup epoch, so a pool task that calls it helps
  // run its own ranges instead of blocking a worker forever.
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> counter{0};
  for (int o = 0; o < 2; ++o) {
    group.Submit([&pool, &counter] {
      pool.ParallelFor(10, [&counter](size_t begin, size_t end) {
        counter.fetch_add(static_cast<int>(end - begin),
                          std::memory_order_relaxed);
      });
    });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 20);
}

TEST(TaskGroupTest, GroupsOnSharedPoolWaitOnlyForTheirOwnTasks) {
  ThreadPool pool(2);
  TaskGroup slow(&pool);
  TaskGroup fast(&pool);
  std::atomic<bool> release{false};
  std::atomic<int> fast_done{0};
  slow.Submit([&release] {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  fast.Submit([&fast_done] { fast_done.store(1, std::memory_order_release); });
  fast.Wait();  // must not wait for the slow group's parked task
  EXPECT_EQ(fast_done.load(), 1);
  release.store(true, std::memory_order_release);
  slow.Wait();
}

TEST(TaskGroupTest, NestedGroupsOnFullPoolDoNotDeadlock) {
  // Two orchestrator tasks occupy both pool workers, and each waits on its
  // own sub-tasks submitted to the same pool: without help-while-wait this
  // deadlocks (the sub-tasks would never get a worker).
  ThreadPool pool(2);
  TaskGroup orchestrators(&pool);
  std::atomic<int> sub_done{0};
  for (int o = 0; o < 2; ++o) {
    orchestrators.Submit([&pool, &sub_done] {
      TaskGroup subtasks(&pool);
      for (int i = 0; i < 4; ++i) {
        subtasks.Submit([&sub_done] {
          sub_done.fetch_add(1, std::memory_order_relaxed);
        });
      }
      subtasks.Wait();
    });
  }
  orchestrators.Wait();
  EXPECT_EQ(sub_done.load(), 8);
}

// ------------------------------------------------- pooled answers are exact

struct ExecutorModeCase {
  const char* name;
  bool use_dtw;
  int k;
  bool worksteal;
};

class PooledExactnessTest
    : public ::testing::TestWithParam<ExecutorModeCase> {};

TEST_P(PooledExactnessTest, AnswersMatchBruteForce) {
  const ExecutorModeCase mode = GetParam();
  const SeriesCollection data = GenerateSeismicLike(1500, 64, 301);
  const SeriesCollection queries = GenerateUniformQueries(data, 8, 1.5, 303);

  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 1;  // FULL replication: stealing has peers
  options.index_options = TestIndexOptions();
  options.scheduling = SchedulingPolicy::kPredictDynamic;
  options.worksteal.enabled = mode.worksteal;
  options.query_options.num_threads = 2;
  options.query_options.k = mode.k;
  options.query_options.use_dtw = mode.use_dtw;
  options.query_options.dtw_window =
      mode.use_dtw ? WarpingWindowFromFraction(64, 0.05) : 0;

  OdysseyCluster cluster(data, options);
  const BatchReport report = cluster.AnswerBatch(queries);

  ASSERT_EQ(report.answers.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<Neighbor> want =
        mode.use_dtw
            ? testing_utils::BruteForceKnnDtw(data, queries.data(q), mode.k,
                                              options.query_options.dtw_window)
            : testing_utils::BruteForceKnn(data, queries.data(q), mode.k);
    const QueryAnswer& got = report.answers[q];
    ASSERT_EQ(got.size(), want.size()) << mode.name << " query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(testing_utils::NearlyEqual(got[i].squared_distance,
                                             want[i].squared_distance))
          << mode.name << " query " << q << " rank " << i << ": "
          << got[i].squared_distance << " vs " << want[i].squared_distance;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PooledExactnessTest,
    ::testing::Values(ExecutorModeCase{"ed_k1", false, 1, false},
                      ExecutorModeCase{"ed_k5", false, 5, false},
                      ExecutorModeCase{"dtw_k1", true, 1, false},
                      ExecutorModeCase{"ed_k1_steal", false, 1, true},
                      ExecutorModeCase{"dtw_k3_steal", true, 3, true}),
    [](const auto& info) { return std::string(info.param.name); });

// --------------------------------------------------- zero threads per query

TEST(ExecutorThreadAccountingTest, QueryHotPathSpawnsZeroThreads) {
  const SeriesCollection data = GenerateSeismicLike(1200, 64, 305);
  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.scheduling = SchedulingPolicy::kPredictDynamic;
  options.worksteal.enabled = true;
  options.query_options.num_threads = 2;
  OdysseyCluster cluster(data, options);

  // Warm-up batch: the first StartBatch creates each node's persistent
  // executor (pool + comms/main threads) once.
  const SeriesCollection warmup = GenerateUniformQueries(data, 3, 1.0, 307);
  cluster.AnswerBatch(warmup);

  // From here on, thread creation must be zero — independent of how many
  // queries a batch carries.
  const uint64_t after_warmup = executor_stats::ThreadsSpawned();
  const SeriesCollection small = GenerateUniformQueries(data, 4, 1.0, 309);
  cluster.AnswerBatch(small);
  EXPECT_EQ(executor_stats::ThreadsSpawned(), after_warmup);
  const SeriesCollection large = GenerateUniformQueries(data, 16, 1.0, 311);
  cluster.AnswerBatch(large);
  EXPECT_EQ(executor_stats::ThreadsSpawned(), after_warmup);
}

// ------------------------------------------------- AnswerStream online path

TEST(AnswerStreamExecutorTest, OnlineAdmissionMatchesBatchAnswers) {
  const SeriesCollection data = GenerateSeismicLike(1500, 64, 313);
  const SeriesCollection queries = GenerateUniformQueries(data, 10, 1.5, 315);
  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 2;
  options.index_options = TestIndexOptions();
  options.worksteal.enabled = true;
  options.query_options.num_threads = 2;
  options.query_options.k = 3;
  options.stream_max_inflight = 2;
  OdysseyCluster cluster(data, options);

  // Spread arrivals so later queries are genuinely prepared while earlier
  // ones execute.
  std::vector<double> arrivals(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    arrivals[q] = 1e-4 * static_cast<double>(q);
  }
  // The overlap gauge samples `executing_queries` around each admission,
  // so on a heavily loaded machine every admission can legitimately land
  // in a gap where nothing is mid-execution and the gauge reads zero. The
  // invariant checks run on every attempt; only the timing-sensitive
  // overlap expectation gets a bounded retry.
  BatchReport stream;
  for (int attempt = 0; attempt < 5; ++attempt) {
    summary_stats::Reset();
    stream = cluster.AnswerStream(queries, arrivals);
    // Arrival-time preparation still summarizes each query exactly once.
    EXPECT_EQ(summary_stats::PaaCalls(), queries.size());
    EXPECT_EQ(summary_stats::SaxCalls(), queries.size());
    EXPECT_GE(stream.queries_in_flight_hwm, 1);
    EXPECT_LE(stream.queries_in_flight_hwm, options.stream_max_inflight);
    if (stream.prep_overlap_seconds > 0.0) break;
  }
  // Admissions after the first overlapped with execution in at least one
  // attempt.
  EXPECT_GT(stream.prep_overlap_seconds, 0.0);

  const BatchReport batch = cluster.AnswerBatch(queries);
  ASSERT_EQ(stream.answers.size(), batch.answers.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(stream.answers[q].size(), batch.answers[q].size())
        << "query " << q;
    for (size_t i = 0; i < stream.answers[q].size(); ++i) {
      EXPECT_EQ(stream.answers[q][i].squared_distance,
                batch.answers[q][i].squared_distance)
          << "query " << q << " rank " << i;
      EXPECT_EQ(stream.answers[q][i].id, batch.answers[q][i].id)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(AnswerStreamExecutorTest, ConcurrentInFlightMatchesSerialInFlight) {
  const SeriesCollection data = GenerateRandomWalk(1000, 64, 317);
  const SeriesCollection queries = GenerateUniformQueries(data, 8, 1.0, 319);
  OdysseyOptions options;
  options.num_nodes = 2;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.query_options.num_threads = 4;
  options.query_options.k = 2;
  OdysseyCluster cluster(data, options);
  const std::vector<double> arrivals(queries.size(), 0.0);

  options.stream_max_inflight = 1;
  OdysseyCluster serial_cluster(data, options);
  const BatchReport serial = serial_cluster.AnswerStream(queries, arrivals);
  const BatchReport concurrent = cluster.AnswerStream(queries, arrivals);
  ASSERT_EQ(concurrent.answers.size(), serial.answers.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(concurrent.answers[q].size(), serial.answers[q].size());
    for (size_t i = 0; i < concurrent.answers[q].size(); ++i) {
      EXPECT_EQ(concurrent.answers[q][i].squared_distance,
                serial.answers[q][i].squared_distance)
          << "query " << q << " rank " << i;
      EXPECT_EQ(concurrent.answers[q][i].id, serial.answers[q][i].id)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(AnswerStreamExecutorTest, StreamAnswersAreExact) {
  const SeriesCollection data = GenerateSeismicLike(1200, 64, 321);
  const SeriesCollection queries = GenerateUniformQueries(data, 6, 1.5, 323);
  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.worksteal.enabled = true;
  options.query_options.num_threads = 2;
  options.query_options.k = 3;
  options.stream_max_inflight = 3;
  OdysseyCluster cluster(data, options);
  std::vector<double> arrivals(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    arrivals[q] = 5e-5 * static_cast<double>(q);
  }
  const BatchReport report = cluster.AnswerStream(queries, arrivals);
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto exact = testing_utils::BruteForceKnn(data, queries.data(q), 3);
    ASSERT_EQ(report.answers[q].size(), exact.size()) << "query " << q;
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_TRUE(testing_utils::NearlyEqual(
          report.answers[q][i].squared_distance, exact[i].squared_distance))
          << "query " << q << " rank " << i;
    }
  }
}

// ----------------------------------------------- epoch reuse across batches

TEST(ExecutorEpochTest, RepeatedBatchesAndStreamsReuseTheExecutor) {
  const SeriesCollection data = GenerateRandomWalk(800, 64, 325);
  const SeriesCollection queries = GenerateUniformQueries(data, 5, 1.0, 327);
  OdysseyOptions options;
  options.num_nodes = 2;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.worksteal.enabled = true;
  options.query_options.num_threads = 2;
  OdysseyCluster cluster(data, options);

  const BatchReport first = cluster.AnswerBatch(queries);
  const uint64_t after_first = executor_stats::ThreadsSpawned();
  // Batches and streams alternate on the same persistent executor; answers
  // stay identical run over run and no further threads appear.
  for (int round = 0; round < 3; ++round) {
    const BatchReport again = cluster.AnswerBatch(queries);
    ASSERT_EQ(again.answers.size(), first.answers.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(again.answers[q].size(), first.answers[q].size());
      for (size_t i = 0; i < again.answers[q].size(); ++i) {
        EXPECT_EQ(again.answers[q][i].squared_distance,
                  first.answers[q][i].squared_distance);
        EXPECT_EQ(again.answers[q][i].id, first.answers[q][i].id);
      }
    }
    const BatchReport stream = cluster.AnswerStream(
        queries, std::vector<double>(queries.size(), 0.0));
    ASSERT_EQ(stream.answers.size(), first.answers.size());
  }
  // The stream prep thread is the only per-call spawn left (one per
  // AnswerStream; batches add zero).
  EXPECT_EQ(executor_stats::ThreadsSpawned(), after_first + 3);
}

// ----------------------------------------------------- hot-path purity

// Steady-state purity on the real executor: NodeRuntime::WarmExecutorScratch
// pins one sizing task per pool worker when the executor is created, so the
// first AnswerBatch runs with every worker's QueryScratch / DtwScratch
// already at its high-water mark and the second batch's scoring phases must
// allocate nothing. Work stealing stays off so each node's hot work is
// exactly its static share.
TEST(HotPathPurityTest, SteadyStateExecutorBatchIsAllocationFree) {
  const SeriesCollection data = GenerateSeismicLike(1500, 64, 411);
  const SeriesCollection warm_queries = GenerateUniformQueries(data, 8, 1.0, 413);
  const SeriesCollection queries = GenerateUniformQueries(data, 8, 1.0, 417);

  OdysseyOptions options;
  options.num_nodes = 2;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.scheduling = SchedulingPolicy::kStatic;
  options.worksteal.enabled = false;
  options.query_options.num_threads = 2;
  options.query_options.k = 3;
  OdysseyCluster cluster(data, options);

  // Warm-up epoch: heats the (already pre-sized) worker scratch and any
  // lazy one-shot initialization the allowlist documents (kernel-table
  // resolution, breakpoint singleton).
  const BatchReport warm = cluster.AnswerBatch(warm_queries);
  ASSERT_EQ(warm.answers.size(), warm_queries.size());

  testing_utils::ResetHotAllocations();
  const BatchReport report = cluster.AnswerBatch(queries);
  ASSERT_EQ(report.answers.size(), queries.size());
  EXPECT_EQ(testing_utils::HotAllocations(), 0u);

  // The purity assertion must not come at the cost of correctness:
  // answers still match the exhaustive scan.
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto exact = testing_utils::BruteForceKnn(data, queries.data(q), 3);
    ASSERT_EQ(report.answers[q].size(), exact.size()) << "query " << q;
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_TRUE(testing_utils::NearlyEqual(
          report.answers[q][i].squared_distance, exact[i].squared_distance))
          << "query " << q << " rank " << i;
    }
  }
}

}  // namespace
}  // namespace odyssey
