#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/dataset/generators.h"
#include "src/dataset/workload.h"
#include "src/distance/dtw.h"
#include "src/index/approx_search.h"
#include "src/index/buffers.h"
#include "src/index/builder.h"
#include "src/index/pqueue.h"
#include "src/index/query_engine.h"
#include "src/index/rs_batch.h"
#include "src/index/threshold_model.h"
#include "src/isax/mindist.h"
#include "tests/testing_utils.h"

namespace odyssey {
namespace {

using testing_utils::BruteForceKnn;
using testing_utils::BruteForceKnnDtw;
using testing_utils::NearlyEqual;

IndexOptions SmallOptions(size_t length, int segments = 8,
                          size_t leaf_capacity = 32) {
  IndexOptions options;
  options.config = IsaxConfig(length, segments);
  options.leaf_capacity = leaf_capacity;
  return options;
}

// ---------------------------------------------------------------- Buffers

TEST(BuffersTest, SaxTableHasOneRowPerSeries) {
  const IsaxConfig config(64, 8);
  const SeriesCollection data = GenerateRandomWalk(100, 64, 1);
  ThreadPool pool(4);
  const std::vector<uint8_t> table = ComputeSaxTable(data, config, &pool);
  EXPECT_EQ(table.size(), 100u * 8u);
  // Parallel result matches serial.
  const std::vector<uint8_t> serial = ComputeSaxTable(data, config, nullptr);
  EXPECT_EQ(table, serial);
}

// The grouping equals a std::stable_sort of the ids by root key, with the
// keys and buffer starts that sort implies, for every digit layout of the
// radix sort (one and two 16-bit passes, partial digits) and for empty,
// single-row and all-equal inputs.
TEST(BuffersTest, GroupsCoverAllSeriesByKey) {
  for (const int segments : {1, 3, 8, 16, 17, 32}) {
    const IsaxConfig config(64, segments);
    const size_t w = static_cast<size_t>(segments);
    Rng rng(static_cast<uint64_t>(segments));
    std::vector<uint8_t> random_rows(700 * w);
    for (uint8_t& symbol : random_rows) {
      symbol = static_cast<uint8_t>(rng.NextBounded(256));
    }
    std::vector<uint8_t> equal_rows(90 * w);
    for (size_t i = 0; i < equal_rows.size(); ++i) {
      equal_rows[i] = static_cast<uint8_t>(i % w * 37);
    }
    const std::vector<uint8_t> one_row(random_rows.begin(),
                                       random_rows.begin() + w);
    const std::vector<uint8_t> no_rows;
    using Input = std::pair<const char*, const std::vector<uint8_t>*>;
    for (const auto& [what, table] :
         {Input{"random", &random_rows}, Input{"all-equal", &equal_rows},
          Input{"one row", &one_row}, Input{"no rows", &no_rows}}) {
      SCOPED_TRACE(std::string(what) + ", segments=" +
                   std::to_string(segments));
      const size_t count = table->size() / w;
      std::vector<uint32_t> keys(count);
      for (size_t i = 0; i < count; ++i) {
        keys[i] = RootKey(table->data() + i * w, config);
      }
      std::vector<uint32_t> want_ids(count);
      for (size_t i = 0; i < count; ++i) {
        want_ids[i] = static_cast<uint32_t>(i);
      }
      std::stable_sort(
          want_ids.begin(), want_ids.end(),
          [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
      std::vector<uint32_t> want_keys;
      std::vector<size_t> want_starts;
      for (size_t i = 0; i < count; ++i) {
        if (want_keys.empty() || want_keys.back() != keys[want_ids[i]]) {
          want_keys.push_back(keys[want_ids[i]]);
          want_starts.push_back(i);
        }
      }
      want_starts.push_back(count);

      ThreadPool pool(3);
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const SummarizationBuffers buffers =
            BuildBuffers(table->data(), count, config, p);
        EXPECT_EQ(buffers.keys, want_keys);
        EXPECT_EQ(buffers.starts, want_starts);
        EXPECT_EQ(buffers.ids, want_ids);
      }
    }
  }
}

// ----------------------------------------------------------------- Tree

TEST(TreeTest, BuildConservesSeries) {
  const SeriesCollection data = GenerateRandomWalk(2000, 64, 3);
  BuildTimings timings;
  ThreadPool pool(4);
  const Index index =
      Index::Build(SeriesCollection(data), SmallOptions(64), &pool, &timings);
  const IndexTree::Stats stats = index.tree().ComputeStats();
  EXPECT_EQ(stats.series, 2000u);
  EXPECT_GT(stats.roots, 0u);
  EXPECT_GE(stats.nodes, stats.leaves);
  EXPECT_GE(timings.buffer_seconds, 0.0);
  EXPECT_GE(timings.tree_seconds, 0.0);
}

TEST(TreeTest, LeavesRespectCapacityUnlessFullyRefined) {
  const SeriesCollection data = GenerateRandomWalk(3000, 64, 5);
  const IndexOptions options = SmallOptions(64, 8, 16);
  const Index index = Index::Build(SeriesCollection(data), options);
  std::function<void(const TreeNode*)> visit = [&](const TreeNode* node) {
    if (node->is_leaf()) {
      bool fully_refined = true;
      for (uint8_t bits : node->word().bits) {
        fully_refined &= (bits == kMaxSaxBits);
      }
      if (!fully_refined) {
        EXPECT_LE(node->subtree_size(), options.leaf_capacity);
      }
      return;
    }
    visit(node->left());
    visit(node->right());
  };
  for (size_t r = 0; r < index.tree().root_count(); ++r) {
    visit(index.tree().root(r));
  }
}

// The leaf layout: leaves visited in pre-order (roots by key, left child
// before right) hold consecutive row ranges that tile [0, n), and every
// internal node's range is the union of its children's.
TEST(TreeTest, LeafRangesTileTheRowsInPreOrder) {
  const SeriesCollection data = GenerateRandomWalk(800, 64, 7);
  const Index index = Index::Build(SeriesCollection(data), SmallOptions(64));
  size_t next = 0;
  std::function<void(const TreeNode*)> visit = [&](const TreeNode* node) {
    EXPECT_EQ(node->begin(), next);
    if (node->is_leaf()) {
      next += node->subtree_size();
      return;
    }
    EXPECT_EQ(node->left()->begin(), node->begin());
    EXPECT_EQ(node->right()->begin(), node->left()->end());
    EXPECT_EQ(node->right()->end(), node->end());
    visit(node->left());
    visit(node->right());
  };
  for (size_t r = 0; r < index.tree().root_count(); ++r) {
    visit(index.tree().root(r));
  }
  EXPECT_EQ(next, data.size());
}

// Every row's SAX row summarizes that row's series, and the leaf holding
// the row covers it: the two facts exact search rests on.
TEST(TreeTest, EveryRowMatchesItsLeafAndSummarizesItsSeries) {
  const SeriesCollection data = GenerateRandomWalk(800, 64, 7);
  const Index index = Index::Build(SeriesCollection(data), SmallOptions(64));
  const size_t w = static_cast<size_t>(index.config().segments());
  std::function<void(const TreeNode*)> visit = [&](const TreeNode* node) {
    if (node->is_leaf()) {
      for (size_t row = node->begin(); row < node->end(); ++row) {
        const uint8_t* sax = index.sax(static_cast<uint32_t>(row));
        EXPECT_TRUE(node->word().Matches(sax, index.config())) << row;
        std::vector<uint8_t> expected(w);
        ComputeSax(index.data().data(row), index.config(), expected.data());
        EXPECT_TRUE(std::equal(expected.begin(), expected.end(), sax)) << row;
      }
      return;
    }
    visit(node->left());
    visit(node->right());
  };
  for (size_t r = 0; r < index.tree().root_count(); ++r) {
    visit(index.tree().root(r));
  }
}

// A standalone index maps each row back to the caller's collection: the
// map is a permutation of [0, n) and row i holds series global_ids()[i].
TEST(TreeTest, GlobalIdsOfAStandaloneIndexArePositionsInTheCollection) {
  const SeriesCollection data = GenerateRandomWalk(800, 64, 7);
  const Index index = Index::Build(SeriesCollection(data), SmallOptions(64));
  const std::vector<uint32_t>& ids = index.chunk()->global_ids();
  ASSERT_EQ(ids.size(), data.size());
  std::vector<bool> seen(data.size(), false);
  for (size_t row = 0; row < ids.size(); ++row) {
    ASSERT_LT(ids[row], data.size());
    EXPECT_FALSE(seen[ids[row]]);
    seen[ids[row]] = true;
    EXPECT_TRUE(std::equal(data.data(ids[row]), data.data(ids[row]) + 64,
                           index.data().data(row)))
        << row;
  }
}

TEST(TreeTest, ReplicaDeterminism) {
  // Two indexes built from the same chunk — even with different thread
  // counts — must be bit-identical. Work-stealing correctness rests on this.
  const SeriesCollection data = GenerateSeismicLike(1500, 64, 9);
  ThreadPool pool_a(1), pool_b(8);
  const Index a = Index::Build(SeriesCollection(data), SmallOptions(64), &pool_a);
  const Index b = Index::Build(SeriesCollection(data), SmallOptions(64), &pool_b);
  // Same tree, and the same rows in the same leaf order.
  EXPECT_TRUE(testing_utils::IndexesIdentical(a, b));
}

TEST(TreeTest, FindRoot) {
  const SeriesCollection data = GenerateRandomWalk(300, 64, 11);
  const Index index = Index::Build(SeriesCollection(data), SmallOptions(64));
  const IndexTree& tree = index.tree();
  for (size_t r = 0; r < tree.root_count(); ++r) {
    EXPECT_EQ(tree.FindRoot(tree.root_key(r)), static_cast<int>(r));
  }
  // A key of no series (if any exists in the 8-bit space) returns -1.
  for (uint32_t key = 0; key < 256; ++key) {
    if (tree.FindRoot(key) < 0) {
      SUCCEED();
      return;
    }
  }
}

TEST(TreeTest, MemoryAccountingIsPositive) {
  const SeriesCollection data = GenerateRandomWalk(500, 64, 13);
  const Index index = Index::Build(SeriesCollection(data), SmallOptions(64));
  EXPECT_GT(index.IndexMemoryBytes(), 500u * 8u);  // at least the SAX table
  EXPECT_GE(index.DataMemoryBytes(), 500u * 64u * sizeof(float));
}

// --------------------------------------------------------- ApproxSearch

TEST(ApproxSearchTest, ReturnsARealDistanceAboveExact) {
  const SeriesCollection data = GenerateRandomWalk(1000, 64, 15);
  const Index index = Index::Build(SeriesCollection(data), SmallOptions(64));
  const SeriesCollection queries = GenerateUniformQueries(data, 20, 1.0, 17);
  for (size_t q = 0; q < queries.size(); ++q) {
    const PreparedQuery prepared =
        PreparedQuery::Prepare(queries.data(q), index.config());
    uint32_t row = 0;
    const float approx = ApproximateSearchSquared(index, prepared, &row);
    // The answer is a row of the index; its global id names the series.
    const float actual = SquaredEuclidean(
        queries.data(q), data.data(index.chunk()->global_ids()[row]), 64);
    EXPECT_TRUE(NearlyEqual(approx, actual));
    const float exact = BruteForceKnn(data, queries.data(q), 1)[0]
                            .squared_distance;
    EXPECT_GE(approx * (1 + 1e-5f), exact);
  }
}

TEST(ApproxSearchTest, FindsExactMatchForDatasetMember) {
  const SeriesCollection data = GenerateRandomWalk(500, 64, 19);
  const Index index = Index::Build(SeriesCollection(data), SmallOptions(64));
  // Querying with a member itself must return distance 0 (its own leaf).
  for (uint32_t probe : {0u, 100u, 499u}) {
    const PreparedQuery prepared =
        PreparedQuery::Prepare(data.data(probe), index.config());
    EXPECT_EQ(ApproximateSearchSquared(index, prepared), 0.0f);
  }
}

// --------------------------------------------------------------- PQueue

TEST(PqueueTest, PopsInAscendingOrder) {
  BoundedPq pq(0);
  for (float lb : {5.0f, 1.0f, 3.0f, 2.0f, 4.0f}) pq.Push({lb, nullptr});
  EXPECT_EQ(pq.MinLowerBound(), 1.0f);
  float prev = -1.0f;
  while (!pq.empty()) {
    const PqItem item = pq.Pop();
    EXPECT_GE(item.lower_bound, prev);
    prev = item.lower_bound;
  }
}

TEST(PqueueTest, ReportsFullAtCapacity) {
  BoundedPq pq(3);
  EXPECT_FALSE(pq.Push({1.0f, nullptr}));
  EXPECT_FALSE(pq.Push({2.0f, nullptr}));
  EXPECT_TRUE(pq.Push({3.0f, nullptr}));  // reached TH
  EXPECT_EQ(pq.size(), 3u);
}

TEST(PqueueTest, UnboundedNeverReportsFull) {
  BoundedPq pq(0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(pq.Push({static_cast<float>(i), nullptr}));
  }
}

// -------------------------------------------------------------- RsBatch

TEST(RsBatchTest, PartitionCoversAllRootsContiguously) {
  for (size_t roots : {1u, 7u, 64u, 100u}) {
    for (size_t batches : {1u, 4u, 8u, 128u}) {
      const auto ranges = PartitionRsBatches(roots, batches);
      ASSERT_EQ(ranges.size(), batches);
      size_t covered = 0;
      for (const auto& [begin, end] : ranges) {
        EXPECT_EQ(begin, covered);
        covered = end;
      }
      EXPECT_EQ(covered, roots);
    }
  }
}

// ------------------------------------------------------- ThresholdModel

TEST(ThresholdModelTest, CalibrateAndPredict) {
  ThresholdModel model;
  EXPECT_FALSE(model.calibrated());
  // Synthetic monotone relation between initial BSF and median queue size.
  std::vector<double> bsf, sizes;
  for (double z = 1.0; z <= 10.0; z += 0.5) {
    bsf.push_back(z);
    sizes.push_back(20.0 + 400.0 / (1.0 + std::exp(-(z - 5.0))));
  }
  ASSERT_TRUE(model.Calibrate(bsf, sizes).ok());
  EXPECT_TRUE(model.calibrated());
  model.set_division_factor(16.0);
  const size_t lo = model.PredictThreshold(1.0);
  const size_t hi = model.PredictThreshold(10.0);
  EXPECT_GE(lo, 1u);
  EXPECT_GE(hi, lo);
  // Division factor scales the prediction down.
  model.set_division_factor(1.0);
  EXPECT_GT(model.PredictThreshold(10.0), hi);
}

TEST(ThresholdModelTest, RejectsTooFewSamples) {
  ThresholdModel model;
  EXPECT_FALSE(model.Calibrate({1, 2}, {1, 2}).ok());
}

// --------------------------------------------------------- QueryEngine

TEST(KnnSetTest, SingleBestBehavesLikeBsf) {
  KnnSet set(1);
  EXPECT_EQ(set.Threshold(), std::numeric_limits<float>::infinity());
  EXPECT_TRUE(set.Offer(10.0f, 1));
  EXPECT_EQ(set.Threshold(), 10.0f);
  EXPECT_FALSE(set.Offer(20.0f, 2));
  EXPECT_TRUE(set.Offer(5.0f, 3));
  EXPECT_EQ(set.Threshold(), 5.0f);
  const auto results = set.SortedResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 3u);
}

TEST(KnnSetTest, KeepsKSmallest) {
  KnnSet set(3);
  for (uint32_t i = 0; i < 10; ++i) {
    set.Offer(static_cast<float>(10 - i), i);
  }
  const auto results = set.SortedResults();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].squared_distance, 1.0f);
  EXPECT_EQ(results[1].squared_distance, 2.0f);
  EXPECT_EQ(results[2].squared_distance, 3.0f);
  EXPECT_EQ(set.Threshold(), 3.0f);
}

TEST(KnnSetTest, DuplicateIdNeverConsumesTwoSlots) {
  KnnSet set(3);
  EXPECT_TRUE(set.Offer(5.0f, 7));
  EXPECT_FALSE(set.Offer(5.0f, 7));  // exact duplicate
  EXPECT_FALSE(set.Offer(2.0f, 7));  // same id, better distance: still a dup
  EXPECT_TRUE(set.Offer(1.0f, 1));
  EXPECT_TRUE(set.Offer(2.0f, 2));
  EXPECT_EQ(set.Threshold(), 5.0f);
  // Evicting id 7 must free its membership slot for a later re-offer.
  EXPECT_TRUE(set.Offer(3.0f, 3));
  EXPECT_EQ(set.Threshold(), 3.0f);
  EXPECT_TRUE(set.Offer(0.5f, 7));
  const auto results = set.SortedResults();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].id, 7u);
  EXPECT_EQ(results[0].squared_distance, 0.5f);
}

// A non-positive k must fail its check before any member is sized from
// it: a negative k cast to size_t once sent the id set's bucket sizing into
// an endless doubling loop instead of aborting.
TEST(KnnSetDeathTest, ZeroKAborts) { EXPECT_DEATH(KnnSet set(0), "k >= 1"); }

TEST(KnnSetDeathTest, NegativeKAbortsInsteadOfHanging) {
  EXPECT_DEATH(KnnSet set(-1), "k >= 1");
}

TEST(KnnSetTest, ThresholdInfiniteUntilFull) {
  KnnSet set(4);
  set.Offer(1.0f, 0);
  set.Offer(2.0f, 1);
  set.Offer(3.0f, 2);
  EXPECT_EQ(set.Threshold(), std::numeric_limits<float>::infinity());
  set.Offer(4.0f, 3);
  EXPECT_EQ(set.Threshold(), 4.0f);
}

TEST(AtomicFetchMinFloatTest, LowersOnlyWhenSmaller) {
  std::atomic<float> cell{10.0f};
  EXPECT_FALSE(AtomicFetchMinFloat(&cell, 12.0f));
  EXPECT_EQ(cell.load(), 10.0f);
  EXPECT_TRUE(AtomicFetchMinFloat(&cell, 7.0f));
  EXPECT_EQ(cell.load(), 7.0f);
  EXPECT_FALSE(AtomicFetchMinFloat(&cell, 7.0f));
}

struct ExactCase {
  const char* name;
  int threads;
  int k;
  size_t queue_threshold;
  size_t num_batches;
};

class ExactSearchTest : public ::testing::TestWithParam<ExactCase> {};

TEST_P(ExactSearchTest, MatchesBruteForce) {
  const ExactCase param = GetParam();
  const SeriesCollection data = GenerateSeismicLike(3000, 64, 21);
  const Index index = Index::Build(SeriesCollection(data), SmallOptions(64));
  WorkloadOptions wl;
  wl.count = 12;
  wl.min_noise = 0.1;
  wl.max_noise = 2.5;
  wl.seed = 23;
  const SeriesCollection queries = GenerateQueries(data, wl);

  // The thread-count axis is the width of the pool the phases run on.
  ThreadPool pool(static_cast<size_t>(param.threads));
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryOptions options;
    options.num_threads = param.threads;
    options.k = param.k;
    options.queue_threshold = param.queue_threshold;
    options.num_batches = param.num_batches;
    const PreparedQuery prepared =
        PrepareQuery(queries.data(q), index.config(), options);
    QueryExecution exec(&index, prepared, options);
    const float initial = exec.SeedInitialBsf();
    EXPECT_GE(initial, 0.0f);
    exec.Run(&pool);
    const auto got = exec.results().SortedResults();
    const auto expected = BruteForceKnn(data, queries.data(q), param.k);
    ASSERT_EQ(got.size(), expected.size()) << "query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(NearlyEqual(got[i].squared_distance,
                              expected[i].squared_distance))
          << "query " << q << " rank " << i << ": got "
          << got[i].squared_distance << " want "
          << expected[i].squared_distance;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExactSearchTest,
    ::testing::Values(ExactCase{"t1_k1", 1, 1, 0, 0},
                      ExactCase{"t2_k1", 2, 1, 0, 0},
                      ExactCase{"t4_k1", 4, 1, 0, 0},
                      ExactCase{"t4_k5", 4, 5, 0, 0},
                      ExactCase{"t4_k1_th8", 4, 1, 8, 0},
                      ExactCase{"t2_k5_th4", 2, 5, 4, 0},
                      ExactCase{"t4_k1_b16", 4, 1, 0, 16},
                      ExactCase{"t1_k5_b2", 1, 5, 0, 2}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(ExactSearchTest, DtwMatchesBruteForce) {
  const SeriesCollection data = GenerateSeismicLike(800, 64, 25);
  const Index index = Index::Build(SeriesCollection(data), SmallOptions(64));
  const SeriesCollection queries = GenerateUniformQueries(data, 6, 1.0, 27);
  const size_t window = WarpingWindowFromFraction(64, 0.05);
  ThreadPool pool(4);
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryOptions options;
    options.num_threads = 4;
    options.use_dtw = true;
    options.dtw_window = window;
    const PreparedQuery prepared =
        PrepareQuery(queries.data(q), index.config(), options);
    QueryExecution exec(&index, prepared, options);
    exec.SeedInitialBsf();
    exec.Run(&pool);
    const auto got = exec.results().SortedResults();
    const auto expected = BruteForceKnnDtw(data, queries.data(q), 1, window);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_TRUE(
        NearlyEqual(got[0].squared_distance, expected[0].squared_distance))
        << got[0].squared_distance << " vs " << expected[0].squared_distance;
  }
}

TEST(ExactSearchTest, DtwKnnMatchesBruteForce) {
  const SeriesCollection data = GenerateRandomWalk(600, 64, 29);
  const Index index = Index::Build(SeriesCollection(data), SmallOptions(64));
  const SeriesCollection queries = GenerateUniformQueries(data, 4, 1.5, 31);
  const size_t window = WarpingWindowFromFraction(64, 0.1);
  ThreadPool pool(2);
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryOptions options;
    options.num_threads = 2;
    options.k = 5;
    options.use_dtw = true;
    options.dtw_window = window;
    const PreparedQuery prepared =
        PrepareQuery(queries.data(q), index.config(), options);
    QueryExecution exec(&index, prepared, options);
    exec.SeedInitialBsf();
    exec.Run(&pool);
    const auto got = exec.results().SortedResults();
    const auto expected = BruteForceKnnDtw(data, queries.data(q), 5, window);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(NearlyEqual(got[i].squared_distance,
                              expected[i].squared_distance));
    }
  }
}

// An answer id is a row of Index::data(), and chunk()->global_ids() maps it
// to the caller's collection: the series it names sits at the reported
// distance, and exact answers match brute force over the caller's series.
struct AnswerIdCase {
  const char* name;
  bool use_dtw;
  int k;
  bool approximate;
};

class AnswerIdTest : public ::testing::TestWithParam<AnswerIdCase> {};

TEST_P(AnswerIdTest, GlobalIdNamesTheSeriesAtTheReportedDistance) {
  const AnswerIdCase param = GetParam();
  const SeriesCollection data = GenerateSeismicLike(1500, 64, 49);
  const Index index = Index::Build(SeriesCollection(data), SmallOptions(64));
  const SeriesCollection queries = GenerateUniformQueries(data, 6, 1.0, 51);
  const size_t window = WarpingWindowFromFraction(64, 0.05);
  const std::vector<uint32_t>& ids = index.chunk()->global_ids();
  ThreadPool pool(2);
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryOptions options;
    options.num_threads = 2;
    options.k = param.k;
    options.use_dtw = param.use_dtw;
    options.dtw_window = param.use_dtw ? window : 0;
    options.approximate = param.approximate;
    const PreparedQuery prepared =
        PrepareQuery(queries.data(q), index.config(), options);
    QueryExecution exec(&index, prepared, options);
    exec.SeedInitialBsf();
    exec.Run(&pool);
    const auto got = exec.results().SortedResults();
    ASSERT_FALSE(got.empty()) << "query " << q;
    for (const Neighbor& n : got) {
      ASSERT_LT(n.id, index.data().size());
      const uint32_t id = ids[n.id];
      ASSERT_LT(id, data.size());
      const float want =
          param.use_dtw
              ? SquaredDtw(queries.data(q), data.data(id), 64, window)
              : SquaredEuclidean(queries.data(q), data.data(id), 64);
      EXPECT_TRUE(NearlyEqual(n.squared_distance, want))
          << "query " << q << " row " << n.id << " id " << id << ": "
          << n.squared_distance << " vs " << want;
    }
    if (param.approximate) continue;
    const auto expected =
        param.use_dtw
            ? BruteForceKnnDtw(data, queries.data(q), param.k, window)
            : BruteForceKnn(data, queries.data(q), param.k);
    ASSERT_EQ(got.size(), expected.size()) << "query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(NearlyEqual(got[i].squared_distance,
                              expected[i].squared_distance))
          << "query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, AnswerIdTest,
    ::testing::Values(AnswerIdCase{"ed_k1", false, 1, false},
                      AnswerIdCase{"ed_k5", false, 5, false},
                      AnswerIdCase{"dtw_k1", true, 1, false},
                      AnswerIdCase{"dtw_k5", true, 5, false},
                      AnswerIdCase{"ed_k1_approx", false, 1, true},
                      AnswerIdCase{"ed_k5_approx", false, 5, true},
                      AnswerIdCase{"dtw_k1_approx", true, 1, true},
                      AnswerIdCase{"dtw_k5_approx", true, 5, true}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(ExactSearchTest, SharedBsfCellAcceleratesAndStaysExact) {
  const SeriesCollection data = GenerateRandomWalk(1500, 64, 33);
  const Index index = Index::Build(SeriesCollection(data), SmallOptions(64));
  const SeriesCollection queries = GenerateUniformQueries(data, 5, 1.0, 35);
  ThreadPool pool(2);
  for (size_t q = 0; q < queries.size(); ++q) {
    const float exact = BruteForceKnn(data, queries.data(q), 1)[0]
                            .squared_distance;
    // Seed the shared cell with a tight-but-valid external bound, as BSF
    // sharing would.
    std::atomic<float> cell{exact * 1.01f + 1e-3f};
    std::atomic<int> improvements{0};
    QueryOptions options;
    options.num_threads = 2;
    const PreparedQuery prepared =
        PrepareQuery(queries.data(q), index.config(), options);
    QueryExecution exec(&index, prepared, options, &cell,
                        [&](float) { improvements.fetch_add(1); });
    exec.SeedInitialBsf();
    exec.Run(&pool);
    const auto got = exec.results().SortedResults();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_TRUE(NearlyEqual(got[0].squared_distance, exact));
  }
}

TEST(ExactSearchTest, StatsArePopulated) {
  const SeriesCollection data = GenerateRandomWalk(1000, 64, 37);
  const Index index = Index::Build(SeriesCollection(data), SmallOptions(64));
  const SeriesCollection queries = GenerateUniformQueries(data, 1, 2.0, 39);
  QueryOptions options;
  options.num_threads = 2;
  const PreparedQuery prepared =
      PrepareQuery(queries.data(0), index.config(), options);
  QueryExecution exec(&index, prepared, options);
  exec.SeedInitialBsf();
  ThreadPool pool(2);
  exec.Run(&pool);
  const QueryStats stats = exec.stats();
  EXPECT_GT(stats.initial_bsf, 0.0);
  EXPECT_GT(stats.real_distances, 0u);
  EXPECT_GE(stats.leaves_inserted, stats.leaves_processed > 0 ? 1u : 0u);
  EXPECT_GT(stats.elapsed_seconds, 0.0);
}

// A leaf is scanned in blocks of 64 rows. Leaves of up to 300 rows, plus
// one fully refined leaf of 500 near-copies of a series (7 blocks and 52
// rows), are not whole blocks; the near-copy queries make that leaf hold
// their 5 nearest neighbours, so the scan must cross its block edges.
TEST(ScanBlockTest, LeavesThatAreNotWholeBlocksMatchBruteForce) {
  const size_t kLength = 64;
  SeriesCollection data = GenerateRandomWalk(6000, kLength, 71);
  const IsaxConfig config(kLength, 8);
  std::vector<float> base(data.data(0), data.data(0) + kLength);
  std::vector<uint8_t> base_sax(8);
  std::vector<uint8_t> sax(8);
  ComputeSax(base.data(), config, base_sax.data());
  Rng rng(73);
  std::vector<float> copy(kLength);
  for (size_t copies = 0; copies < 500;) {
    for (size_t t = 0; t < kLength; ++t) {
      copy[t] = base[t] + static_cast<float>(1e-4 * rng.NextGaussian());
    }
    ComputeSax(copy.data(), config, sax.data());
    if (sax != base_sax) continue;  // keep the copies in one leaf
    data.Append(copy.data());
    ++copies;
  }
  IndexOptions options;
  options.config = config;
  options.leaf_capacity = 300;
  const Index index = Index::Build(SeriesCollection(data), options);
  size_t largest = 0;
  std::function<void(const TreeNode*)> visit = [&](const TreeNode* node) {
    if (node->is_leaf()) {
      largest = std::max(largest, node->subtree_size());
      return;
    }
    visit(node->left());
    visit(node->right());
  };
  for (size_t r = 0; r < index.tree().root_count(); ++r) {
    visit(index.tree().root(r));
  }
  ASSERT_GE(largest, 501u);

  SeriesCollection queries = GenerateUniformQueries(data, 3, 1.0, 75);
  for (int q = 0; q < 3; ++q) {
    for (size_t t = 0; t < kLength; ++t) {
      copy[t] = base[t] + static_cast<float>(0.01 * rng.NextGaussian());
    }
    queries.Append(copy.data());
  }
  const size_t window = WarpingWindowFromFraction(kLength, 0.05);
  ThreadPool pool(4);
  for (bool use_dtw : {false, true}) {
    for (int k : {1, 5}) {
      for (ThreadPool* run_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
        for (size_t q = 0; q < queries.size(); ++q) {
          QueryOptions qo;
          qo.num_threads = 4;
          qo.k = k;
          qo.use_dtw = use_dtw;
          qo.dtw_window = use_dtw ? window : 0;
          const PreparedQuery prepared =
              PrepareQuery(queries.data(q), index.config(), qo);
          QueryExecution exec(&index, prepared, qo);
          exec.SeedInitialBsf();
          exec.Run(run_pool);
          const auto got = exec.results().SortedResults();
          const auto want =
              use_dtw ? BruteForceKnnDtw(data, queries.data(q), k, window)
                      : BruteForceKnn(data, queries.data(q), k);
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_TRUE(NearlyEqual(got[i].squared_distance,
                                    want[i].squared_distance))
                << (use_dtw ? "DTW" : "ED") << " k=" << k
                << (run_pool != nullptr ? " pool" : " no pool") << " query "
                << q << " rank " << i << ": got " << got[i].squared_distance
                << " want " << want[i].squared_distance;
          }
        }
      }
    }
  }
}

// With the node's BSF cell preset below the true 1-NN distance, no
// candidate can lower the pruning threshold, so which nodes the traversal
// keeps and which rows the scan scores no longer depend on timing. The
// counters must then equal a recount from the reference bounds: the leaves
// a walk reaches when it skips every node whose word bound is not below
// the (one-ulp padded) threshold, all of them scanned, and the rows of
// those leaves whose SAX bound is below it.
TEST(QueryStatsTest, CountsAreExactUnderAFixedThreshold) {
  const SeriesCollection data = GenerateRandomWalk(4000, 64, 81);
  const Index index = Index::Build(SeriesCollection(data), SmallOptions(64));
  const IsaxConfig& config = index.config();
  const SeriesCollection queries = GenerateUniformQueries(data, 4, 0.5, 83);
  const size_t window = WarpingWindowFromFraction(64, 0.05);
  ThreadPool pool(4);
  for (bool use_dtw : {false, true}) {
    for (size_t q = 0; q < queries.size(); ++q) {
      QueryOptions options;
      options.num_threads = 4;
      options.use_dtw = use_dtw;
      options.dtw_window = use_dtw ? window : 0;
      const PreparedQuery prepared =
          PrepareQuery(queries.data(q), config, options);
      const float nearest =
          use_dtw ? BruteForceKnnDtw(data, queries.data(q), 1, window)[0]
                        .squared_distance
                  : BruteForceKnn(data, queries.data(q), 1)[0]
                        .squared_distance;
      const float preset = 0.9f * nearest;
      const float threshold =
          std::nextafter(preset, std::numeric_limits<float>::infinity());
      size_t leaves = 0;
      size_t distances = 0;
      std::function<void(const TreeNode*)> walk = [&](const TreeNode* node) {
        if (node->subtree_size() == 0) return;
        const float node_bound =
            use_dtw ? MindistEnvelopeToWord(prepared.envelope_paa(),
                                            node->word(), config)
                    : MindistPaaToWord(prepared.paa(), node->word(), config);
        if (node_bound >= threshold) return;
        if (!node->is_leaf()) {
          walk(node->left());
          walk(node->right());
          return;
        }
        ++leaves;
        for (uint32_t row = node->begin(); row < node->end(); ++row) {
          const float row_bound =
              use_dtw ? MindistEnvelopeToSax(prepared.envelope_paa(),
                                             index.sax(row), config)
                      : MindistPaaToSax(prepared.paa(), index.sax(row),
                                        config);
          if (row_bound < threshold) ++distances;
        }
      };
      for (size_t r = 0; r < index.tree().root_count(); ++r) {
        walk(index.tree().root(r));
      }
      ASSERT_GT(leaves, 0u);
      ASSERT_GT(distances, 0u);
      for (ThreadPool* run_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
        std::atomic<float> cell{preset};
        QueryExecution exec(&index, prepared, options, &cell);
        exec.SeedInitialBsf();
        exec.Run(run_pool);
        const QueryStats stats = exec.stats();
        const std::string where =
            std::string(use_dtw ? "DTW" : "ED") + " query " +
            std::to_string(q) + (run_pool != nullptr ? " pool" : " no pool");
        EXPECT_EQ(stats.leaves_inserted, leaves) << where;
        EXPECT_EQ(stats.leaves_processed, leaves) << where;
        EXPECT_EQ(stats.real_distances, distances) << where;
        EXPECT_EQ(cell.load(), preset) << where;
      }
    }
  }
}

TEST(ExactSearchTest, StealBatchesOutsideProcessingIsEmpty) {
  const SeriesCollection data = GenerateRandomWalk(500, 64, 41);
  const Index index = Index::Build(SeriesCollection(data), SmallOptions(64));
  const SeriesCollection queries = GenerateUniformQueries(data, 1, 1.0, 43);
  QueryOptions options;
  options.num_threads = 1;
  const PreparedQuery prepared =
      PrepareQuery(queries.data(0), index.config(), options);
  QueryExecution exec(&index, prepared, options);
  exec.SeedInitialBsf();
  EXPECT_TRUE(exec.StealBatches(4).empty());  // not running yet
  exec.Run();
  EXPECT_TRUE(exec.StealBatches(4).empty());  // already done
}

TEST(ExactSearchTest, RunBatchSubsetCoversStolenWork) {
  // Simulate a steal: run only a subset of batches on a "thief" execution
  // and the complement on the "victim"; merged results must equal brute
  // force.
  const SeriesCollection data = GenerateSeismicLike(2000, 64, 45);
  const Index index = Index::Build(SeriesCollection(data), SmallOptions(64));
  const SeriesCollection queries = GenerateUniformQueries(data, 5, 2.0, 47);
  ThreadPool pool(2);
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryOptions options;
    options.num_threads = 2;
    options.num_batches = 8;
    // One prepared artifact for both sides, as in the real steal protocol.
    const PreparedQuery prepared =
        PrepareQuery(queries.data(q), index.config(), options);
    QueryExecution victim(&index, prepared, options);
    QueryExecution thief(&index, prepared, options);
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
    float best = std::numeric_limits<float>::infinity();
    for (const auto& n : merged) best = std::min(best, n.squared_distance);
    const float exact = BruteForceKnn(data, queries.data(q), 1)[0]
                            .squared_distance;
    EXPECT_TRUE(NearlyEqual(best, exact)) << "query " << q;
  }
}

}  // namespace
}  // namespace odyssey
