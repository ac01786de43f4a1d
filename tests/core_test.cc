#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "src/common/summary_stats.h"
#include "src/core/cost_model.h"
#include "src/core/partitioning.h"
#include "src/core/replication.h"
#include "src/core/scheduler.h"
#include "src/core/worksteal.h"
#include "src/dataset/generators.h"
#include "src/dataset/workload.h"

namespace odyssey {
namespace {

// ------------------------------------------------------------ Replication

TEST(ReplicationTest, FullAndEquallySplitExtremes) {
  const auto full = ReplicationLayout::Make(8, 1);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->is_full());
  EXPECT_EQ(full->replication_degree(), 8);
  EXPECT_EQ(full->ToString(), "FULL");
  EXPECT_EQ(full->GroupMembers(0).size(), 8u);

  const auto split = ReplicationLayout::Make(8, 8);
  ASSERT_TRUE(split.ok());
  EXPECT_TRUE(split->is_equally_split());
  EXPECT_EQ(split->replication_degree(), 1);
  EXPECT_EQ(split->ToString(), "EQUALLY-SPLIT");
}

TEST(ReplicationTest, Partial4Of8MatchesPaperFigure7) {
  // Nsn = 8, PARTIAL-4: 4 groups, 2 clusters, replication degree 2.
  const auto layout = ReplicationLayout::Make(8, 4);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->replication_degree(), 2);
  EXPECT_EQ(layout->ToString(), "PARTIAL-4");
  EXPECT_EQ(layout->GroupMembers(0), (std::vector<int>{0, 4}));
  EXPECT_EQ(layout->GroupMembers(3), (std::vector<int>{3, 7}));
  EXPECT_EQ(layout->ClusterMembers(0), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(layout->ClusterMembers(1), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_TRUE(layout->SameGroup(0, 4));
  EXPECT_FALSE(layout->SameGroup(0, 1));
  EXPECT_EQ(layout->GroupCoordinator(2), 2);
}

TEST(ReplicationTest, EveryNodeInExactlyOneGroupAndCluster) {
  const auto layout = ReplicationLayout::Make(12, 4);
  ASSERT_TRUE(layout.ok());
  std::set<int> seen;
  for (int g = 0; g < 4; ++g) {
    for (int n : layout->GroupMembers(g)) {
      EXPECT_EQ(layout->GroupOf(n), g);
      EXPECT_TRUE(seen.insert(n).second);
    }
  }
  EXPECT_EQ(seen.size(), 12u);
  seen.clear();
  for (int c = 0; c < layout->replication_degree(); ++c) {
    for (int n : layout->ClusterMembers(c)) {
      EXPECT_EQ(layout->ClusterOf(n), c);
      EXPECT_TRUE(seen.insert(n).second);
    }
  }
  EXPECT_EQ(seen.size(), 12u);
}

TEST(ReplicationTest, RejectsInvalidShapes) {
  EXPECT_FALSE(ReplicationLayout::Make(0, 1).ok());
  EXPECT_FALSE(ReplicationLayout::Make(4, 0).ok());
  EXPECT_FALSE(ReplicationLayout::Make(4, 5).ok());
  EXPECT_FALSE(ReplicationLayout::Make(6, 4).ok());  // 4 does not divide 6
}

TEST(ReplicationTest, InvalidShapeErrorsNameTheRightInvariant) {
  // Divisibility runs group -> nodes: PARTIAL-k needs k (= num_groups) to
  // divide Nsn (= num_nodes), never the other way around. The message must
  // state that direction with both operands, so a caller who mixed up the
  // two arguments can see which is which.
  const auto indivisible = ReplicationLayout::Make(6, 4);
  ASSERT_FALSE(indivisible.ok());
  EXPECT_NE(indivisible.status().message().find(
                "num_groups (4) must divide num_nodes (6)"),
            std::string::npos)
      << indivisible.status().ToString();

  // num_groups <= 0 and num_groups > num_nodes are range errors, reported
  // before any divisibility talk.
  for (int bad_groups : {0, -3}) {
    const auto low = ReplicationLayout::Make(4, bad_groups);
    ASSERT_FALSE(low.ok());
    EXPECT_NE(low.status().message().find("must be in [1, num_nodes]"),
              std::string::npos)
        << low.status().ToString();
  }
  const auto high = ReplicationLayout::Make(4, 9);
  ASSERT_FALSE(high.ok());
  EXPECT_NE(high.status().message().find("[1, 4], got 9"), std::string::npos)
      << high.status().ToString();

  // Every valid divisor shape is accepted, including both extremes.
  for (int groups : {1, 2, 3, 6}) {
    EXPECT_TRUE(ReplicationLayout::Make(6, groups).ok()) << groups;
  }
}

TEST(ReplicationTest, SurvivingMembersDegradesGracefully) {
  // PARTIAL-4 over 8 nodes: group 1 = {1, 5}.
  const auto layout = ReplicationLayout::Make(8, 4);
  ASSERT_TRUE(layout.ok());

  // No deaths: the full membership, ascending.
  const auto intact = layout->SurvivingMembers(1, {});
  ASSERT_TRUE(intact.ok());
  EXPECT_EQ(*intact, (std::vector<int>{1, 5}));

  // One death: the group degrades to a single survivor but stays covered.
  const auto degraded = layout->SurvivingMembers(1, {5});
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(*degraded, (std::vector<int>{1}));

  // Deaths in other groups do not affect this one.
  const auto elsewhere = layout->SurvivingMembers(1, {0, 4, 2});
  ASSERT_TRUE(elsewhere.ok());
  EXPECT_EQ(*elsewhere, (std::vector<int>{1, 5}));
}

TEST(ReplicationTest, AllReplicasDeadIsAnError) {
  // Both replicas of group 0's chunk gone: the dataset is no longer fully
  // covered and the error must say so (no silent empty-vector success).
  const auto layout = ReplicationLayout::Make(8, 4);
  ASSERT_TRUE(layout.ok());
  const auto lost = layout->SurvivingMembers(0, {0, 4});
  ASSERT_FALSE(lost.ok());
  EXPECT_NE(lost.status().message().find("no longer fully covered"),
            std::string::npos)
      << lost.status().ToString();

  // EQUALLY-SPLIT is the degenerate case: a single death loses a chunk.
  const auto split = ReplicationLayout::Make(4, 4);
  ASSERT_TRUE(split.ok());
  EXPECT_FALSE(split->SurvivingMembers(2, {2}).ok());
  EXPECT_TRUE(split->SurvivingMembers(2, {0, 1, 3}).ok());
}

TEST(ReplicationTest, SurvivorsOfFullLayoutShrinkToOne) {
  // FULL over 4 nodes tolerates the death of all but one member.
  const auto full = ReplicationLayout::Make(4, 1);
  ASSERT_TRUE(full.ok());
  const auto last = full->SurvivingMembers(0, {0, 1, 3});
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, (std::vector<int>{2}));
  EXPECT_FALSE(full->SurvivingMembers(0, {0, 1, 2, 3}).ok());
}

// ----------------------------------------------------------- Partitioning

class PartitioningTest : public ::testing::TestWithParam<PartitioningScheme> {
};

TEST_P(PartitioningTest, ChunksAreDisjointExhaustiveAndSorted) {
  const SeriesCollection data = GenerateSeismicLike(2000, 64, 1);
  const IsaxConfig config(64, 8);
  for (int num_chunks : {1, 2, 4, 7}) {
    const auto chunks =
        PartitionSeries(data, num_chunks, GetParam(), config, 5);
    ASSERT_EQ(chunks.size(), static_cast<size_t>(num_chunks));
    std::set<uint32_t> seen;
    for (const auto& chunk : chunks) {
      EXPECT_TRUE(std::is_sorted(chunk.begin(), chunk.end()));
      for (uint32_t id : chunk) {
        EXPECT_LT(id, data.size());
        EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
      }
    }
    EXPECT_EQ(seen.size(), data.size());
  }
}

TEST_P(PartitioningTest, Deterministic) {
  const SeriesCollection data = GenerateAstroLike(800, 64, 2);
  const IsaxConfig config(64, 8);
  const auto a = PartitionSeries(data, 4, GetParam(), config, 9);
  const auto b = PartitionSeries(data, 4, GetParam(), config, 9);
  EXPECT_EQ(a, b);
}

TEST_P(PartitioningTest, RoughlyBalanced) {
  const SeriesCollection data = GenerateRandomWalk(4000, 64, 3);
  const IsaxConfig config(64, 8);
  const auto chunks = PartitionSeries(data, 8, GetParam(), config, 11);
  size_t min_size = data.size(), max_size = 0;
  for (const auto& chunk : chunks) {
    min_size = std::min(min_size, chunk.size());
    max_size = std::max(max_size, chunk.size());
  }
  EXPECT_GT(min_size, 0u);
  EXPECT_LE(max_size, static_cast<size_t>(1.25 * 4000 / 8));
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, PartitioningTest,
    ::testing::Values(PartitioningScheme::kEquallySplit,
                      PartitioningScheme::kRandomShuffle,
                      PartitioningScheme::kDensityAware),
    [](const auto& info) {
      std::string name = PartitioningSchemeToString(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(PartitioningTest, DensityAwareSpreadsSimilarSeries) {
  // A dataset dominated by a few dense regions: DENSITY-AWARE should spread
  // every root-key buffer across chunks more evenly than EQUALLY-SPLIT.
  const SeriesCollection data = GenerateEmbeddingLike(3000, 64, 4, 7);
  const IsaxConfig config(64, 8);
  ThreadPool pool(4);

  auto buffer_spread = [&](const std::vector<std::vector<uint32_t>>& chunks) {
    // For each series' root key, count in how many distinct chunks that key
    // appears; average over keys weighted by size.
    const std::vector<uint8_t> sax = ComputeSaxTable(data, config, &pool);
    std::map<uint32_t, std::set<size_t>> key_chunks;
    std::map<uint32_t, size_t> key_count;
    for (size_t c = 0; c < chunks.size(); ++c) {
      for (uint32_t id : chunks[c]) {
        const uint32_t key = RootKey(sax.data() + id * 8, config);
        key_chunks[key].insert(c);
        key_count[key]++;
      }
    }
    double weighted = 0.0;
    size_t total = 0;
    for (const auto& [key, chunk_set] : key_chunks) {
      weighted += static_cast<double>(chunk_set.size()) * key_count[key];
      total += key_count[key];
    }
    return weighted / static_cast<double>(total);
  };

  const auto density = PartitionSeries(
      data, 8, PartitioningScheme::kDensityAware, config, 13, &pool);
  const auto equally = PartitionSeries(
      data, 8, PartitioningScheme::kEquallySplit, config, 13, &pool);
  EXPECT_GT(buffer_spread(density), buffer_spread(equally) * 0.99);
}

TEST(PartitioningTest, DensityAwareLambdaControlsPresplit) {
  const SeriesCollection data = GenerateEmbeddingLike(1000, 64, 2, 9);
  const IsaxConfig config(64, 8);
  DensityAwareOptions options;
  options.lambda = 0;  // no pre-splitting: whole buffers only
  const auto coarse = PartitionSeries(
      data, 4, PartitioningScheme::kDensityAware, config, 15, nullptr, options);
  options.lambda = 400;
  const auto fine = PartitionSeries(
      data, 4, PartitioningScheme::kDensityAware, config, 15, nullptr, options);
  // Both are valid partitions.
  size_t total_coarse = 0, total_fine = 0;
  for (const auto& c : coarse) total_coarse += c.size();
  for (const auto& c : fine) total_fine += c.size();
  EXPECT_EQ(total_coarse, data.size());
  EXPECT_EQ(total_fine, data.size());
}

// -------------------------------------------------------------- Scheduler

TEST(SchedulerTest, PolicyPropertiesAndNames) {
  EXPECT_FALSE(PolicyIsDynamic(SchedulingPolicy::kStatic));
  EXPECT_TRUE(PolicyIsDynamic(SchedulingPolicy::kDynamic));
  EXPECT_TRUE(PolicyIsDynamic(SchedulingPolicy::kPredictDynamic));
  EXPECT_FALSE(PolicyNeedsPredictions(SchedulingPolicy::kStatic));
  EXPECT_FALSE(PolicyNeedsPredictions(SchedulingPolicy::kDynamic));
  EXPECT_TRUE(PolicyNeedsPredictions(SchedulingPolicy::kPredictStatic));
  EXPECT_STREQ(SchedulingPolicyToString(SchedulingPolicy::kPredictDynamic),
               "PREDICT-DN");
}

TEST(SchedulerTest, StaticSplitIsContiguousAndEqual) {
  const auto assignment = StaticSplit(10, 3);
  ASSERT_EQ(assignment.size(), 3u);
  std::vector<int> all;
  for (const auto& part : assignment) {
    EXPECT_TRUE(std::is_sorted(part.begin(), part.end()));
    all.insert(all.end(), part.begin(), part.end());
    EXPECT_GE(part.size(), 3u);
    EXPECT_LE(part.size(), 4u);
  }
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(all, expected);
}

TEST(SchedulerTest, GreedyBalancesSkewedLoads) {
  // One huge query plus many small ones: LPT must not pair the huge one
  // with anything while a worker sits empty.
  std::vector<double> estimates = {100.0, 1, 1, 1, 1, 1, 1, 1};
  const auto sorted = PredictionGreedySplit(estimates, 2, /*sorted=*/true);
  double load0 = 0, load1 = 0;
  for (int q : sorted[0]) load0 += estimates[q];
  for (int q : sorted[1]) load1 += estimates[q];
  EXPECT_EQ(std::max(load0, load1), 100.0);  // big query isolated
  EXPECT_EQ(std::min(load0, load1), 7.0);

  // STATIC on the same input is far worse.
  const auto naive = StaticSplit(8, 2);
  double naive0 = 0;
  for (int q : naive[0]) naive0 += estimates[q];
  EXPECT_GT(naive0, 100.0);  // the big query shares a node with small ones
}

TEST(SchedulerTest, UnsortedGreedyKeepsArrivalOrderSensitivity) {
  // The paper's worked example (Section 3.1): ES = {100, 50, 200, 250, 80}
  // on two nodes.
  std::vector<double> estimates = {100, 50, 200, 250, 80};
  const auto unsorted = PredictionGreedySplit(estimates, 2, /*sorted=*/false);
  EXPECT_EQ(unsorted[0], (std::vector<int>{0, 3}));        // {q1, q4}
  EXPECT_EQ(unsorted[1], (std::vector<int>{1, 2, 4}));     // {q2, q3, q5}
  const auto sorted = PredictionGreedySplit(estimates, 2, /*sorted=*/true);
  EXPECT_EQ(sorted[0], (std::vector<int>{3, 4}));          // {q4, q5}
  EXPECT_EQ(sorted[1], (std::vector<int>{2, 0, 1}));       // {q3, q1, q2}
}

TEST(SchedulerTest, DynamicDispatchOrder) {
  const auto plain = DynamicDispatchOrder({}, 5, /*sorted=*/false);
  EXPECT_EQ(plain, (std::vector<int>{0, 1, 2, 3, 4}));
  const auto sorted =
      DynamicDispatchOrder({100, 50, 200, 250, 80}, 5, /*sorted=*/true);
  EXPECT_EQ(sorted, (std::vector<int>{3, 2, 0, 4, 1}));
}

TEST(SchedulerTest, StaticSplitHandlesDegradedWorkerCounts) {
  // After a group member dies, the scheduler re-plans over the survivors:
  // any worker count down to 1 must stay exhaustive and disjoint.
  for (int workers : {3, 2, 1}) {
    const auto assignment = StaticSplit(10, workers);
    ASSERT_EQ(assignment.size(), static_cast<size_t>(workers));
    std::vector<int> all;
    for (const auto& part : assignment) {
      EXPECT_FALSE(part.empty());
      all.insert(all.end(), part.begin(), part.end());
    }
    std::sort(all.begin(), all.end());
    std::vector<int> expected(10);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(all, expected) << workers << " workers";
  }
}

TEST(SchedulerTest, GreedySplitHandlesDegradedWorkerCounts) {
  const std::vector<double> estimates = {100.0, 1, 7, 42, 3, 9, 2, 55};
  for (int workers : {4, 2, 1}) {
    for (bool sorted : {false, true}) {
      const auto assignment = PredictionGreedySplit(estimates, workers,
                                                    sorted);
      ASSERT_EQ(assignment.size(), static_cast<size_t>(workers));
      std::vector<int> all;
      for (const auto& part : assignment) {
        all.insert(all.end(), part.begin(), part.end());
      }
      std::sort(all.begin(), all.end());
      std::vector<int> expected(estimates.size());
      std::iota(expected.begin(), expected.end(), 0);
      EXPECT_EQ(all, expected) << workers << " workers, sorted=" << sorted;
    }
  }
  // The single-survivor extreme: everything lands on the lone worker.
  const auto lone = PredictionGreedySplit(estimates, 1, /*sorted=*/true);
  EXPECT_EQ(lone[0].size(), estimates.size());
}

// -------------------------------------------------------------- CostModel

TEST(CostModelTest, FitAndPredict) {
  CostModel model;
  EXPECT_FALSE(model.fitted());
  std::vector<double> bsf = {1, 2, 3, 4, 5, 6};
  std::vector<double> secs = {0.1, 0.22, 0.29, 0.41, 0.50, 0.61};
  ASSERT_TRUE(model.Fit(bsf, secs).ok());
  EXPECT_TRUE(model.fitted());
  EXPECT_GT(model.regression().r_squared(), 0.98);
  EXPECT_GT(model.PredictSeconds(7.0), model.PredictSeconds(1.0));
  EXPECT_GE(model.PredictSeconds(-100.0), 0.0);  // clamped
}

TEST(CostModelTest, CalibrationSamplesCorrelateWithDifficulty) {
  const SeriesCollection data = GenerateSeismicLike(3000, 64, 11);
  IndexOptions index_options;
  index_options.config = IsaxConfig(64, 8);
  index_options.leaf_capacity = 32;
  const Index index = Index::Build(SeriesCollection(data), index_options);
  WorkloadOptions wl;
  wl.count = 20;
  wl.min_noise = 0.05;
  wl.max_noise = 3.0;
  wl.seed = 13;
  const SeriesCollection queries = GenerateQueries(data, wl);
  QueryOptions qo;
  qo.num_threads = 2;
  const uint64_t spawned_before = executor_stats::ThreadsSpawned();
  const auto samples = CollectCalibrationSamples(index, queries, qo);
  // One pool of num_threads workers serves the whole sample set; no
  // threads are created per query.
  EXPECT_LE(executor_stats::ThreadsSpawned() - spawned_before,
            static_cast<uint64_t>(qo.num_threads));
  ASSERT_EQ(samples.size(), 20u);
  for (const auto& s : samples) {
    EXPECT_GE(s.initial_bsf, 0.0);
    EXPECT_GT(s.exec_seconds, 0.0);
  }
  // The model must fit on these samples.
  std::vector<double> bsf, secs;
  for (const auto& s : samples) {
    bsf.push_back(s.initial_bsf);
    secs.push_back(s.exec_seconds);
  }
  CostModel model;
  EXPECT_TRUE(model.Fit(bsf, secs).ok());
}

// -------------------------------------------------------------- Worksteal

TEST(WorkstealTest, VictimChoiceStaysInPeerSet) {
  uint64_t state = 42;
  const std::vector<int> peers = {3, 5, 9};
  for (int i = 0; i < 100; ++i) {
    const int victim = ChooseStealVictim(peers, &state);
    EXPECT_TRUE(victim == 3 || victim == 5 || victim == 9);
  }
}

TEST(WorkstealTest, EmptyPeerSetGivesNoVictim) {
  uint64_t state = 1;
  EXPECT_EQ(ChooseStealVictim({}, &state), -1);
}

TEST(WorkstealTest, ChoiceIsEventuallyUniformIsh) {
  uint64_t state = 7;
  const std::vector<int> peers = {0, 1, 2, 3};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) ++counts[ChooseStealVictim(peers, &state)];
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

}  // namespace
}  // namespace odyssey
