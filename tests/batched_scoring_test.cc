// Tests for the batched multi-query scoring path: the batched kernel
// family's bit-identity contract (out[q] == the per-query *scalar*
// early-abandon kernel, bit for bit, on every available ISA tier, across
// lengths, group sizes, subnormals and misaligned inputs), the scan_stats
// amortization counters, GroupedQueryExecution answer equivalence against
// independent per-query executions (ED, DTW, k-NN), and a cluster-level
// check that nodes never run the grouped scan.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "src/common/summary_stats.h"
#include "src/common/thread_pool.h"
#include "src/core/driver.h"
#include "src/dataset/generators.h"
#include "src/dataset/workload.h"
#include "src/distance/dtw.h"
#include "src/distance/simd.h"
#include "src/index/builder.h"
#include "src/index/query_engine.h"
#include "tests/testing_utils.h"

namespace odyssey {
namespace {

using simd::BatchStride;
using simd::KernelTable;
using testing_utils::NearlyEqual;

std::vector<const KernelTable*> AllTables() {
  std::vector<const KernelTable*> tables{&simd::ScalarTable()};
  if (simd::SseTable() != nullptr) tables.push_back(simd::SseTable());
  if (simd::Avx2Table() != nullptr) tables.push_back(simd::Avx2Table());
  return tables;
}

uint32_t BitsOf(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

// Random points salted with the values FP kernels get wrong first: zeros of
// both signs and subnormals.
std::vector<float> RandomSeries(size_t n, std::mt19937* rng) {
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::uniform_int_distribution<int> pick(0, 19);
  std::vector<float> out(n);
  for (size_t i = 0; i < n; ++i) {
    switch (pick(*rng)) {
      case 0: out[i] = 0.0f; break;
      case 1: out[i] = -0.0f; break;
      case 2: out[i] = 1e-42f; break;   // subnormal
      case 3: out[i] = -1e-42f; break;  // subnormal
      default: out[i] = dist(*rng);
    }
  }
  return out;
}

// Shifts `v` into a buffer whose payload starts one float past an
// allocation boundary, so any kernel silently assuming 16/32/64-byte
// alignment faults or misreads.
std::vector<float> MisalignedShadow(const std::vector<float>& v) {
  std::vector<float> shadow(v.size() + 1, 0.0f);
  std::memcpy(shadow.data() + 1, v.data(), v.size() * sizeof(float));
  return shadow;
}

constexpr size_t kLengths[] = {1,  2,  3,  5,   8,   15,  16,  17,  31, 32,
                               33, 48, 63, 64,  65,  100, 127, 128, 129,
                               192, 255, 256};
constexpr size_t kGroupSizes[] = {1, 2, 3, 7, 16};

// Threshold mix per lane: never abandon, abandon partway (half the exact
// distance), and the 0.0 "skip" sentinel the grouped scan uses for members
// filtered out by their summary bound (freezes after the first block).
float MixedThreshold(size_t q, float exact) {
  switch (q % 3) {
    case 0: return 1e30f;
    case 1: return 0.5f * exact;
    default: return 0.0f;
  }
}

TEST(BatchedKernelTest, EuclideanBitIdenticalToScalarPerQueryOnEveryTier) {
  std::mt19937 rng(20230701);
  const KernelTable& scalar = simd::ScalarTable();
  for (size_t n : kLengths) {
    for (size_t q_count : kGroupSizes) {
      const size_t stride = BatchStride(q_count);
      const std::vector<float> candidate = RandomSeries(n, &rng);
      std::vector<std::vector<float>> queries;
      std::vector<float> block(n * stride, 0.0f);
      std::vector<float> thresholds(q_count);
      std::vector<float> want(q_count);
      for (size_t q = 0; q < q_count; ++q) {
        queries.push_back(RandomSeries(n, &rng));
        for (size_t i = 0; i < n; ++i) block[i * stride + q] = queries[q][i];
        const float exact =
            scalar.squared_euclidean(queries[q].data(), candidate.data(), n);
        thresholds[q] = MixedThreshold(q, exact);
        want[q] = scalar.squared_euclidean_early_abandon(
            queries[q].data(), candidate.data(), n, thresholds[q]);
      }
      const std::vector<float> cand_shadow = MisalignedShadow(candidate);
      const std::vector<float> block_shadow = MisalignedShadow(block);
      for (const KernelTable* table : AllTables()) {
        std::vector<float> out(q_count, -1.0f);
        table->batched_squared_euclidean_early_abandon(
            candidate.data(), block.data(), n, stride, q_count,
            thresholds.data(), out.data());
        for (size_t q = 0; q < q_count; ++q) {
          ASSERT_EQ(BitsOf(out[q]), BitsOf(want[q]))
              << simd::IsaName(table->isa) << " n=" << n << " Q=" << q_count
              << " q=" << q;
        }
        std::vector<float> out_shifted(q_count, -1.0f);
        table->batched_squared_euclidean_early_abandon(
            cand_shadow.data() + 1, block_shadow.data() + 1, n, stride,
            q_count, thresholds.data(), out_shifted.data());
        for (size_t q = 0; q < q_count; ++q) {
          ASSERT_EQ(BitsOf(out_shifted[q]), BitsOf(want[q]))
              << simd::IsaName(table->isa) << " misaligned n=" << n
              << " Q=" << q_count << " q=" << q;
        }
      }
    }
  }
}

TEST(BatchedKernelTest, LbKeoghBitIdenticalToScalarPerQueryOnEveryTier) {
  std::mt19937 rng(20230702);
  const KernelTable& scalar = simd::ScalarTable();
  for (size_t n : kLengths) {
    for (size_t q_count : kGroupSizes) {
      const size_t stride = BatchStride(q_count);
      const std::vector<float> candidate = RandomSeries(n, &rng);
      std::vector<std::vector<float>> uppers;
      std::vector<std::vector<float>> lowers;
      std::vector<float> upper_block(n * stride, 0.0f);
      std::vector<float> lower_block(n * stride, 0.0f);
      std::vector<float> thresholds(q_count);
      std::vector<float> want(q_count);
      for (size_t q = 0; q < q_count; ++q) {
        const std::vector<float> a = RandomSeries(n, &rng);
        const std::vector<float> b = RandomSeries(n, &rng);
        std::vector<float> upper(n);
        std::vector<float> lower(n);
        for (size_t i = 0; i < n; ++i) {
          upper[i] = std::max(a[i], b[i]);
          lower[i] = std::min(a[i], b[i]);
          upper_block[i * stride + q] = upper[i];
          lower_block[i * stride + q] = lower[i];
        }
        const float exact =
            scalar.lb_keogh(upper.data(), lower.data(), candidate.data(), n);
        thresholds[q] = MixedThreshold(q, exact);
        want[q] = scalar.lb_keogh_early_abandon(
            upper.data(), lower.data(), candidate.data(), n, thresholds[q]);
        uppers.push_back(std::move(upper));
        lowers.push_back(std::move(lower));
      }
      const std::vector<float> cand_shadow = MisalignedShadow(candidate);
      const std::vector<float> upper_shadow = MisalignedShadow(upper_block);
      const std::vector<float> lower_shadow = MisalignedShadow(lower_block);
      for (const KernelTable* table : AllTables()) {
        std::vector<float> out(q_count, -1.0f);
        table->batched_lb_keogh_early_abandon(
            candidate.data(), upper_block.data(), lower_block.data(), n,
            stride, q_count, thresholds.data(), out.data());
        for (size_t q = 0; q < q_count; ++q) {
          ASSERT_EQ(BitsOf(out[q]), BitsOf(want[q]))
              << simd::IsaName(table->isa) << " n=" << n << " Q=" << q_count
              << " q=" << q;
        }
        std::vector<float> out_shifted(q_count, -1.0f);
        table->batched_lb_keogh_early_abandon(
            cand_shadow.data() + 1, upper_shadow.data() + 1,
            lower_shadow.data() + 1, n, stride, q_count, thresholds.data(),
            out_shifted.data());
        for (size_t q = 0; q < q_count; ++q) {
          ASSERT_EQ(BitsOf(out_shifted[q]), BitsOf(want[q]))
              << simd::IsaName(table->isa) << " misaligned n=" << n
              << " Q=" << q_count << " q=" << q;
        }
      }
    }
  }
}

TEST(BatchedKernelTest, EveryTableCarriesBatchedKernels) {
  for (const KernelTable* table : AllTables()) {
    EXPECT_NE(table->batched_squared_euclidean_early_abandon, nullptr)
        << simd::IsaName(table->isa);
    EXPECT_NE(table->batched_lb_keogh_early_abandon, nullptr)
        << simd::IsaName(table->isa);
  }
  EXPECT_NE(simd::ActiveTable().batched_squared_euclidean_early_abandon,
            nullptr);
  EXPECT_NE(simd::ActiveTable().batched_lb_keogh_early_abandon, nullptr);
}

TEST(ScanStatsTest, CountBatchedScoreTracksCallsAndSavedLoads) {
  scan_stats::Reset();
  EXPECT_EQ(scan_stats::BatchedScoreCalls(), 0u);
  EXPECT_EQ(scan_stats::SeriesLoadsSaved(), 0u);
  scan_stats::CountBatchedScore(5);
  EXPECT_EQ(scan_stats::BatchedScoreCalls(), 1u);
  EXPECT_EQ(scan_stats::SeriesLoadsSaved(), 4u);
  scan_stats::CountBatchedScore(1);  // a group of one saves nothing
  EXPECT_EQ(scan_stats::BatchedScoreCalls(), 2u);
  EXPECT_EQ(scan_stats::SeriesLoadsSaved(), 4u);
  EXPECT_EQ(scan_stats::MultiScoreCalls(), 0u);
  scan_stats::CountMultiScore(3);
  scan_stats::CountMultiScore(4);
  EXPECT_EQ(scan_stats::MultiScoreCalls(), 2u);
  EXPECT_EQ(scan_stats::MultiScoreLanes(), 7u);
  scan_stats::Reset();
  EXPECT_EQ(scan_stats::BatchedScoreCalls(), 0u);
  EXPECT_EQ(scan_stats::MultiScoreCalls(), 0u);
  EXPECT_EQ(scan_stats::MultiScoreLanes(), 0u);
}

// ------------------------------------------- GroupedQueryExecution (direct)

IndexOptions TestIndexOptions(size_t length = 64) {
  IndexOptions options;
  options.config = IsaxConfig(length, 8);
  options.leaf_capacity = 32;
  return options;
}

struct GroupedCase {
  const char* name;
  bool use_dtw;
  int k;
  int num_threads;
};

class GroupedExecutionTest : public ::testing::TestWithParam<GroupedCase> {};

TEST_P(GroupedExecutionTest, MatchesIndependentPerQueryRuns) {
  const GroupedCase mode = GetParam();
  const SeriesCollection data = GenerateSeismicLike(1200, 64, 71);
  const SeriesCollection queries = GenerateUniformQueries(data, 5, 1.5, 72);
  const IndexOptions iopts = TestIndexOptions();
  ThreadPool pool(2);
  const Index index = Index::Build(data, iopts, &pool);

  QueryOptions qopts;
  qopts.num_threads = mode.num_threads;
  qopts.k = mode.k;
  qopts.use_dtw = mode.use_dtw;
  qopts.dtw_window = mode.use_dtw ? WarpingWindowFromFraction(64, 0.05) : 0;
  const PreparedBatch prepared = PrepareBatch(queries, iopts.config, qopts);

  std::vector<std::vector<Neighbor>> want;
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryExecution exec(&index, prepared.query(q), qopts);
    exec.SeedInitialBsf();
    exec.Run(&pool);
    want.push_back(exec.results().SortedResults());
  }

  scan_stats::Reset();
  std::vector<std::unique_ptr<QueryExecution>> execs;
  std::vector<QueryExecution*> members;
  for (size_t q = 0; q < queries.size(); ++q) {
    execs.push_back(std::make_unique<QueryExecution>(
        &index, prepared.query(q), qopts));
    execs.back()->SeedInitialBsf();
    members.push_back(execs.back().get());
  }
  GroupedQueryExecution group(std::move(members));
  group.Run(mode.num_threads > 1 ? &pool : nullptr);
  // Grouped scoring engaged: high-occupancy series go through the
  // interleaved batched kernel (counted with the loads it amortized),
  // low-occupancy ones through the multi-candidate deferral queues. Which
  // side dominates depends on how often the five queries' filters overlap;
  // the run must have exercised at least one of them.
  EXPECT_GT(scan_stats::BatchedScoreCalls() + scan_stats::MultiScoreCalls(),
            0u);
  EXPECT_GT(scan_stats::SeriesLoadsSaved() + scan_stats::MultiScoreLanes(),
            0u);

  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<Neighbor> got = execs[q]->results().SortedResults();
    ASSERT_EQ(got.size(), want[q].size()) << mode.name << " query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[q][i].id)
          << mode.name << " query " << q << " rank " << i;
      EXPECT_TRUE(
          NearlyEqual(got[i].squared_distance, want[q][i].squared_distance))
          << mode.name << " query " << q << " rank " << i << ": "
          << got[i].squared_distance << " vs " << want[q][i].squared_distance;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, GroupedExecutionTest,
    ::testing::Values(GroupedCase{"ed_1nn", false, 1, 2},
                      GroupedCase{"ed_5nn", false, 5, 2},
                      GroupedCase{"ed_single_thread", false, 1, 1},
                      GroupedCase{"dtw_1nn", true, 1, 2},
                      GroupedCase{"dtw_3nn", true, 3, 2}));

// --------------------------------------------------- cluster-level wiring

// A cluster answers every query with the per-query engine: neither the
// interleaved batched kernel nor the multi-candidate deferral queues ever
// run, so every grouped-scan counter stays idle.
TEST(BatchedScoringClusterTest, AnswerBatchPerQueryPathLeavesCountersIdle) {
  const SeriesCollection data = GenerateSeismicLike(800, 64, 311);
  const SeriesCollection queries = GenerateUniformQueries(data, 4, 1.5, 313);
  OdysseyOptions options;
  options.num_nodes = 2;
  options.num_groups = 2;
  options.index_options = TestIndexOptions();
  options.query_options.num_threads = 2;
  OdysseyCluster cluster(data, options);
  scan_stats::Reset();
  cluster.AnswerBatch(queries);
  EXPECT_EQ(scan_stats::BatchedScoreCalls(), 0u);
  EXPECT_EQ(scan_stats::SeriesLoadsSaved(), 0u);
  EXPECT_EQ(scan_stats::MultiScoreCalls(), 0u);
}

}  // namespace
}  // namespace odyssey
