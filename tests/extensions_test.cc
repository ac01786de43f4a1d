// Tests for the extension features (approximate mode, k-NN + DTW combined
// with stealing) and boundary conditions (k > chunk, fewer queries than
// nodes, tiny chunks), plus a randomized exactness fuzz sweep.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/driver.h"
#include "src/index/serialize.h"
#include "src/dataset/generators.h"
#include "src/dataset/workload.h"
#include "src/distance/dtw.h"
#include "src/index/query_engine.h"
#include "tests/testing_utils.h"

namespace odyssey {
namespace {

using testing_utils::BruteForceKnn;
using testing_utils::BruteForceKnnDtw;
using testing_utils::NearlyEqual;
using testing_utils::TempPath;

IndexOptions TestIndexOptions(size_t length = 64) {
  IndexOptions options;
  options.config = IsaxConfig(length, 8);
  options.leaf_capacity = 32;
  return options;
}

// ------------------------------------------------------ Approximate mode

TEST(ApproximateModeTest, NeverBeatsExactAndOftenMatches) {
  const SeriesCollection data = GenerateSeismicLike(2000, 64, 103);
  const Index index = Index::Build(SeriesCollection(data), TestIndexOptions());
  const SeriesCollection queries = GenerateUniformQueries(data, 20, 0.05, 105);
  int exact_hits = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryOptions qo;
    qo.approximate = true;
    const PreparedQuery prepared =
        PrepareQuery(queries.data(q), index.config(), qo);
    QueryExecution exec(&index, prepared, qo);
    exec.SeedInitialBsf();
    exec.Run();
    const auto got = exec.results().SortedResults();
    ASSERT_EQ(got.size(), 1u);
    const float exact =
        BruteForceKnn(data, queries.data(q), 1)[0].squared_distance;
    EXPECT_GE(got[0].squared_distance * (1 + 1e-5f), exact);
    exact_hits += NearlyEqual(got[0].squared_distance, exact);
  }
  // iSAX approximate search is known to be accurate for low-noise queries:
  // a majority of answers should already be exact.
  EXPECT_GE(exact_hits, 10);
}

TEST(ApproximateModeTest, MemberQueryIsFoundExactly) {
  const SeriesCollection data = GenerateRandomWalk(1000, 64, 107);
  const Index index = Index::Build(SeriesCollection(data), TestIndexOptions());
  for (uint32_t probe : {3u, 500u, 999u}) {
    QueryOptions qo;
    qo.approximate = true;
    const PreparedQuery prepared =
        PrepareQuery(data.data(probe), index.config(), qo);
    QueryExecution exec(&index, prepared, qo);
    exec.SeedInitialBsf();
    exec.Run();
    EXPECT_EQ(exec.results().SortedResults()[0].squared_distance, 0.0f);
  }
}

TEST(ApproximateModeTest, KnnFillsFromBestLeaf) {
  const SeriesCollection data = GenerateRandomWalk(3000, 64, 109);
  IndexOptions options = TestIndexOptions();
  options.leaf_capacity = 64;
  const Index index = Index::Build(SeriesCollection(data), options);
  const SeriesCollection queries = GenerateUniformQueries(data, 5, 0.5, 111);
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryOptions qo;
    qo.approximate = true;
    qo.k = 10;
    const PreparedQuery prepared =
        PrepareQuery(queries.data(q), index.config(), qo);
    QueryExecution exec(&index, prepared, qo);
    exec.SeedInitialBsf();
    exec.Run();
    const auto got = exec.results().SortedResults();
    EXPECT_GE(got.size(), 1u);
    EXPECT_LE(got.size(), 10u);
    // Candidates are sorted and every one lower-bounds nothing (they are
    // real distances, so each must be >= the true i-th neighbor distance).
    const auto exact = BruteForceKnn(data, queries.data(q), 10);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_GE(got[i].squared_distance * (1 + 1e-5f),
                exact[i].squared_distance);
      if (i > 0) {
        EXPECT_GE(got[i].squared_distance, got[i - 1].squared_distance);
      }
    }
  }
}

TEST(ApproximateModeTest, DistributedApproximateIsValidUpperBound) {
  const SeriesCollection data = GenerateSeismicLike(2000, 64, 113);
  const SeriesCollection queries = GenerateUniformQueries(data, 10, 0.5, 115);
  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 2;
  options.index_options = TestIndexOptions();
  options.query_options.approximate = true;
  OdysseyCluster cluster(data, options);
  const BatchReport report = cluster.AnswerBatch(queries);
  ASSERT_EQ(report.answers.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const float exact =
        BruteForceKnn(data, queries.data(q), 1)[0].squared_distance;
    ASSERT_FALSE(report.answers[q].empty());
    EXPECT_GE(report.answers[q][0].squared_distance * (1 + 1e-5f), exact);
  }
}

// -------------------------------------------------------- Boundary cases

TEST(BoundaryTest, KLargerThanCollectionReturnsEverything) {
  const SeriesCollection data = GenerateRandomWalk(40, 64, 117);
  const Index index = Index::Build(SeriesCollection(data), TestIndexOptions());
  const SeriesCollection queries = GenerateUniformQueries(data, 2, 1.0, 119);
  QueryOptions qo;
  qo.k = 100;  // more than the 40 series available
  const PreparedQuery prepared =
      PrepareQuery(queries.data(0), index.config(), qo);
  QueryExecution exec(&index, prepared, qo);
  exec.SeedInitialBsf();
  ThreadPool pool(static_cast<size_t>(qo.num_threads));
  exec.Run(&pool);
  const auto got = exec.results().SortedResults();
  EXPECT_EQ(got.size(), 40u);
  const auto exact = BruteForceKnn(data, queries.data(0), 40);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(
        NearlyEqual(got[i].squared_distance, exact[i].squared_distance));
  }
}

TEST(BoundaryTest, FewerQueriesThanNodes) {
  const SeriesCollection data = GenerateRandomWalk(800, 64, 121);
  const SeriesCollection queries = GenerateUniformQueries(data, 2, 1.0, 123);
  for (SchedulingPolicy policy :
       {SchedulingPolicy::kStatic, SchedulingPolicy::kDynamic,
        SchedulingPolicy::kPredictDynamic}) {
    OdysseyOptions options;
    options.num_nodes = 6;
    options.num_groups = 1;
    options.index_options = TestIndexOptions();
    options.scheduling = policy;
    OdysseyCluster cluster(data, options);
    const BatchReport report = cluster.AnswerBatch(queries);
    ASSERT_EQ(report.answers.size(), 2u);
    for (size_t q = 0; q < queries.size(); ++q) {
      const float exact =
          BruteForceKnn(data, queries.data(q), 1)[0].squared_distance;
      EXPECT_TRUE(
          NearlyEqual(report.answers[q][0].squared_distance, exact))
          << SchedulingPolicyToString(policy);
    }
  }
}

TEST(BoundaryTest, SingleQuerySingleNode) {
  const SeriesCollection data = GenerateRandomWalk(300, 64, 125);
  const SeriesCollection queries = GenerateUniformQueries(data, 1, 1.0, 127);
  OdysseyOptions options;
  options.num_nodes = 1;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  OdysseyCluster cluster(data, options);
  const BatchReport report = cluster.AnswerBatch(queries);
  const float exact =
      BruteForceKnn(data, queries.data(0), 1)[0].squared_distance;
  EXPECT_TRUE(NearlyEqual(report.answers[0][0].squared_distance, exact));
}

TEST(BoundaryTest, ChunkSmallerThanLeafCapacity) {
  const SeriesCollection data = GenerateRandomWalk(64, 64, 129);
  IndexOptions options = TestIndexOptions();
  options.leaf_capacity = 1024;  // the whole chunk fits in root leaves
  const Index index = Index::Build(SeriesCollection(data), options);
  const SeriesCollection queries = GenerateUniformQueries(data, 5, 2.0, 131);
  ThreadPool pool(2);
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryOptions qo;
    qo.num_threads = 2;
    const PreparedQuery prepared =
        PrepareQuery(queries.data(q), index.config(), qo);
    QueryExecution exec(&index, prepared, qo);
    exec.SeedInitialBsf();
    exec.Run(&pool);
    const float exact =
        BruteForceKnn(data, queries.data(q), 1)[0].squared_distance;
    EXPECT_TRUE(NearlyEqual(
        exec.results().SortedResults()[0].squared_distance, exact));
  }
}

TEST(BoundaryTest, LeafCapacityOneStillExact) {
  const SeriesCollection data = GenerateRandomWalk(300, 64, 133);
  IndexOptions options = TestIndexOptions();
  options.leaf_capacity = 1;  // maximally deep tree, oversized leaves at
                              // full refinement
  const Index index = Index::Build(SeriesCollection(data), options);
  const SeriesCollection queries = GenerateUniformQueries(data, 5, 1.5, 135);
  ThreadPool pool(2);
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryOptions qo;
    qo.num_threads = 2;
    const PreparedQuery prepared =
        PrepareQuery(queries.data(q), index.config(), qo);
    QueryExecution exec(&index, prepared, qo);
    exec.SeedInitialBsf();
    exec.Run(&pool);
    const float exact =
        BruteForceKnn(data, queries.data(q), 1)[0].squared_distance;
    EXPECT_TRUE(NearlyEqual(
        exec.results().SortedResults()[0].squared_distance, exact));
  }
}

// ----------------------------------------- Combined extensions + stealing

TEST(CombinedTest, KnnDtwDistributedWithStealing) {
  const SeriesCollection data = GenerateSeismicLike(700, 64, 137);
  const SeriesCollection queries = GenerateUniformQueries(data, 4, 1.0, 139);
  const size_t window = WarpingWindowFromFraction(64, 0.05);
  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.scheduling = SchedulingPolicy::kDynamic;
  options.worksteal.enabled = true;
  options.query_options.num_threads = 2;
  options.query_options.k = 3;
  options.query_options.use_dtw = true;
  options.query_options.dtw_window = window;
  OdysseyCluster cluster(data, options);
  const BatchReport report = cluster.AnswerBatch(queries);
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto exact = BruteForceKnnDtw(data, queries.data(q), 3, window);
    ASSERT_EQ(report.answers[q].size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_TRUE(NearlyEqual(report.answers[q][i].squared_distance,
                              exact[i].squared_distance))
          << "query " << q << " rank " << i;
    }
  }
}

// --------------------------------------------------------- Fuzz sweeps

class FuzzExactnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzExactnessTest, RandomConfigurationIsExact) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const size_t length = 32 + 16 * rng.NextBounded(6);        // 32..112
  const size_t count = 400 + rng.NextBounded(1200);          // 400..1600
  const int segments = 4 + static_cast<int>(rng.NextBounded(8));  // 4..11
  const int nodes_pool[] = {1, 2, 3, 4, 6};
  const int nodes = nodes_pool[rng.NextBounded(5)];
  std::vector<int> divisors;
  for (int g = 1; g <= nodes; ++g) {
    if (nodes % g == 0) divisors.push_back(g);
  }
  const int groups = divisors[rng.NextBounded(divisors.size())];

  SeriesCollection data = (seed % 2 == 0)
                              ? GenerateRandomWalk(count, length, seed)
                              : GenerateSeismicLike(count, length, seed);
  const SeriesCollection queries =
      GenerateUniformQueries(data, 4, 0.2 + 2.0 * rng.NextDouble(), seed + 1);

  OdysseyOptions options;
  options.num_nodes = nodes;
  options.num_groups = groups;
  options.index_options.config = IsaxConfig(length, segments);
  options.index_options.leaf_capacity = 8 + rng.NextBounded(120);
  options.partitioning = static_cast<PartitioningScheme>(rng.NextBounded(3));
  options.scheduling = static_cast<SchedulingPolicy>(rng.NextBounded(5));
  options.worksteal.enabled = rng.NextBounded(2) == 1;
  options.query_options.num_threads = 1 + static_cast<int>(rng.NextBounded(3));
  options.query_options.k = 1 + static_cast<int>(rng.NextBounded(4));
  options.query_options.queue_threshold = rng.NextBounded(2) ? 16 : SIZE_MAX;
  options.seed = seed;
  OdysseyCluster cluster(data, options);
  const BatchReport report = cluster.AnswerBatch(queries);
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto exact =
        BruteForceKnn(data, queries.data(q), options.query_options.k);
    ASSERT_EQ(report.answers[q].size(), exact.size()) << "seed " << seed;
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_TRUE(NearlyEqual(report.answers[q][i].squared_distance,
                              exact[i].squared_distance))
          << "seed " << seed << " query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzExactnessTest,
                         ::testing::Range<uint64_t>(1000, 1016));

// --------------------------------------------------------- Serialization

TEST(SerializeTest, RoundTripIsBitIdentical) {
  const SeriesCollection data = GenerateSeismicLike(1500, 64, 141);
  const Index built = Index::Build(SeriesCollection(data), TestIndexOptions());
  const std::string path = TempPath("index.odix");
  ASSERT_TRUE(SaveIndexToFile(built, path).ok());
  StatusOr<Index> loaded = LoadIndexFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Same tree, same rows in the same order, same id map, and the same SAX
  // rows recomputed from the series.
  EXPECT_TRUE(testing_utils::IndexesIdentical(built, *loaded));
  // The loaded index answers queries exactly.
  const SeriesCollection queries = GenerateUniformQueries(data, 5, 1.5, 143);
  ThreadPool pool(2);
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryOptions qo;
    qo.num_threads = 2;
    const PreparedQuery prepared =
        PrepareQuery(queries.data(q), loaded->config(), qo);
    QueryExecution exec(&*loaded, prepared, qo);
    exec.SeedInitialBsf();
    exec.Run(&pool);
    const float exact =
        BruteForceKnn(data, queries.data(q), 1)[0].squared_distance;
    EXPECT_TRUE(NearlyEqual(
        exec.results().SortedResults()[0].squared_distance, exact));
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadedIndexIsAValidStealReplica) {
  // A node that loads a snapshot must be able to run RS-batches stolen from
  // a node that built the same chunk from scratch.
  const SeriesCollection data = GenerateSeismicLike(1200, 64, 145);
  const Index built = Index::Build(SeriesCollection(data), TestIndexOptions());
  const std::string path = TempPath("replica.odix");
  ASSERT_TRUE(SaveIndexToFile(built, path).ok());
  StatusOr<Index> loaded = LoadIndexFromFile(path);
  ASSERT_TRUE(loaded.ok());
  const SeriesCollection queries = GenerateUniformQueries(data, 3, 2.0, 147);
  ThreadPool pool(2);
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryOptions qo;
    qo.num_threads = 2;
    qo.num_batches = 8;
    // Thief and victim share the prepared artifact, as on a real steal.
    const PreparedQuery prepared =
        PrepareQuery(queries.data(q), built.config(), qo);
    QueryExecution victim(&built, prepared, qo);
    QueryExecution thief(&*loaded, prepared, qo);
    victim.SeedInitialBsf();
    thief.SeedInitialBsf();
    std::vector<int> va, th;
    for (int b = 0; b < 8; ++b) (b < 4 ? va : th).push_back(b);
    victim.RunBatchSubset(va, &pool);
    thief.RunBatchSubset(th, &pool);
    float best = std::numeric_limits<float>::infinity();
    for (const auto& n : victim.results().SortedResults()) {
      best = std::min(best, n.squared_distance);
    }
    for (const auto& n : thief.results().SortedResults()) {
      best = std::min(best, n.squared_distance);
    }
    const float exact =
        BruteForceKnn(data, queries.data(q), 1)[0].squared_distance;
    EXPECT_TRUE(NearlyEqual(best, exact)) << "query " << q;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsMissingAndCorruptFiles) {
  EXPECT_FALSE(LoadIndexFromFile("/nonexistent/index.odix").ok());
  const std::string path = TempPath("corrupt.odix");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char garbage[32] = {'X'};
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);
  const StatusOr<Index> result = LoadIndexFromFile(path);
  EXPECT_FALSE(result.ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, TruncatedFileFailsCleanly) {
  const SeriesCollection data = GenerateRandomWalk(400, 64, 149);
  const Index built = Index::Build(SeriesCollection(data), TestIndexOptions());
  const std::string path = TempPath("trunc.odix");
  ASSERT_TRUE(SaveIndexToFile(built, path).ok());
  // Truncate to 60% and expect a clean error (no crash, no partial index).
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long full = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), full * 6 / 10), 0);
  const StatusOr<Index> result = LoadIndexFromFile(path);
  EXPECT_FALSE(result.ok());
  std::remove(path.c_str());
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  ASSERT_TRUE(out.good()) << path;
}

/// Overwrites the little-endian u32 at `offset` (appends when at the end).
void PutU32(std::vector<uint8_t>* bytes, size_t offset, uint32_t v) {
  if (bytes->size() < offset + 4) bytes->resize(offset + 4);
  for (int i = 0; i < 4; ++i) {
    (*bytes)[offset + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// Mirrors FileIoHardeningTest.CorruptCountHeaderNeverSizesAnAllocation for
// the index format: every count the loader reads is checked against the
// bytes the file has left before anything is sized from it, so a corrupt
// count is a Status — never a std::bad_alloc or a multi-gigabyte zero-fill.
TEST(SerializeTest, CorruptCountsNeverSizeAnAllocation) {
  const std::string path = TempPath("counts.odix");
  // A valid 28-byte header (magic, version, length 256, 16 segments, 8
  // bits, leaf capacity 32) declaring 2^32-1 series: ~4 TB of rows.
  std::vector<uint8_t> bytes = {'O', 'D', 'I', 'X'};
  for (uint32_t v : {2u, 256u, 16u, 8u, 32u, 0xFFFFFFFFu}) {
    PutU32(&bytes, bytes.size(), v);
  }
  WriteFileBytes(path, bytes);
  StatusOr<Index> loaded = LoadIndexFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  // A real index whose series count is inflated a thousandfold: plausible,
  // but rejected by the size check, not by a short read after the rows
  // were allocated.
  constexpr uint32_t kCount = 400;
  const IndexOptions iopts = TestIndexOptions();
  const Index built = Index::Build(
      GenerateRandomWalk(kCount, iopts.config.series_length(), 151), iopts);
  ASSERT_TRUE(SaveIndexToFile(built, path).ok());
  const std::vector<uint8_t> saved = ReadFileBytes(path);
  bytes = saved;
  PutU32(&bytes, 24, kCount * 1000);
  WriteFileBytes(path, bytes);
  loaded = LoadIndexFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  // An inflated row count on the first leaf in pre-order: follow internal
  // nodes (tag 1 + split byte) from the first root down its left spine.
  size_t pos = 28 + kCount * iopts.config.series_length() * sizeof(float) +
               kCount * sizeof(uint32_t) +  // the id map
               2 * sizeof(uint32_t);        // root count, first root key
  while (pos < saved.size() && saved[pos] == 1) pos += 2;
  ASSERT_LT(pos + 4, saved.size());
  ASSERT_EQ(saved[pos], 0) << "expected a leaf tag";
  bytes = saved;
  PutU32(&bytes, pos + 1, 0x10000000u);  // 2^28 rows, far more than stored
  WriteFileBytes(path, bytes);
  loaded = LoadIndexFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// The header's geometry is bounded before any IsaxConfig is built from it:
// a segment count that turns negative as an int, or one past the 32 bits a
// root key holds, is a Status, not an abort or an index with wrapped keys.
TEST(SerializeTest, CorruptGeometryIsInvalidArgument) {
  const std::string path = TempPath("geometry.odix");
  struct Header {
    uint32_t length;
    uint32_t segments;
  };
  for (const Header& header : {Header{0xFFFFFFFFu, 0x80000000u},
                               Header{256u, 33u}}) {
    // Magic, version, length, segments, 8 bits, leaf capacity 32, no
    // series, then a tree of zero roots.
    std::vector<uint8_t> bytes = {'O', 'D', 'I', 'X'};
    for (uint32_t v : {2u, header.length, header.segments, 8u, 32u, 0u, 0u}) {
      PutU32(&bytes, bytes.size(), v);
    }
    WriteFileBytes(path, bytes);
    const StatusOr<Index> loaded = LoadIndexFromFile(path);
    ASSERT_FALSE(loaded.ok()) << "segments=" << header.segments;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "segments=" << header.segments;
  }
  std::remove(path.c_str());
}

uint32_t GetU32(const std::vector<uint8_t>& bytes, size_t offset) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(bytes[offset + i]) << (8 * i);
  }
  return v;
}

/// Offset of the id map in a saved index: it follows the 28-byte header
/// and the series rows.
size_t IdMapOffset(uint32_t count, const IsaxConfig& config) {
  return 28 + size_t{count} * config.series_length() * sizeof(float);
}

/// Where a saved index's tree section keeps its records: the root count,
/// each root record (its u32 key) and each leaf record (its tag byte), in
/// pre-order. An internal record is its tag and split byte; a leaf record
/// is its tag and a u32 row count.
struct TreeLayout {
  size_t root_count_at = 0;
  std::vector<size_t> roots;
  std::vector<size_t> leaves;
};

TreeLayout ParseTree(const std::vector<uint8_t>& bytes, uint32_t count,
                     const IsaxConfig& config) {
  TreeLayout layout;
  size_t pos = IdMapOffset(count, config) + size_t{count} * sizeof(uint32_t);
  layout.root_count_at = pos;
  const uint32_t roots = GetU32(bytes, pos);
  pos += sizeof(uint32_t);
  std::function<void()> read_node = [&] {
    if (bytes[pos] == 1) {
      pos += 2;
      read_node();
      read_node();
      return;
    }
    layout.leaves.push_back(pos);
    pos += 1 + sizeof(uint32_t);
  };
  for (uint32_t r = 0; r < roots; ++r) {
    layout.roots.push_back(pos);
    pos += sizeof(uint32_t);
    read_node();
  }
  EXPECT_EQ(pos, bytes.size());
  return layout;
}

IndexOptions SmallLeafOptions() {
  IndexOptions options = TestIndexOptions();
  options.leaf_capacity = 16;
  return options;
}

/// Saves a `count`-series index (length 64, 8 segments, leaf 16) and returns
/// its bytes.
std::vector<uint8_t> SavedIndexBytes(uint32_t count, uint64_t seed,
                                     const std::string& path) {
  const Index built =
      Index::Build(GenerateRandomWalk(count, 64, seed), SmallLeafOptions());
  EXPECT_TRUE(SaveIndexToFile(built, path).ok());
  return ReadFileBytes(path);
}

void ExpectInvalidArgument(const std::string& path) {
  const StatusOr<Index> loaded = LoadIndexFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();
}

// Version 1 stored leaf id lists and a SAX table, and trusted the table's
// rows to summarize their series. A genuine version-1 file — one series of
// length 4, 2 segments, one root leaf — is refused, not misread.
TEST(SerializeTest, Version1FileIsInvalidArgument) {
  const std::string path = TempPath("v1.odix");
  std::vector<uint8_t> bytes = {'O', 'D', 'I', 'X'};
  for (uint32_t v : {1u, 4u, 2u, 8u, 32u, 1u}) PutU32(&bytes, bytes.size(), v);
  for (float value : {1.0f, 1.0f, -1.0f, -1.0f}) {
    uint32_t word = 0;
    std::memcpy(&word, &value, sizeof(word));
    PutU32(&bytes, bytes.size(), word);
  }
  bytes.insert(bytes.end(), {200, 50});   // the series' SAX row
  PutU32(&bytes, bytes.size(), 1);        // one root...
  PutU32(&bytes, bytes.size(), 2);        // ...of key 0b10
  bytes.push_back(0);                     // a leaf
  PutU32(&bytes, bytes.size(), 1);        // of one id:
  PutU32(&bytes, bytes.size(), 0);        // series 0
  WriteFileBytes(path, bytes);
  const StatusOr<Index> loaded = LoadIndexFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().ToString().find("version 1"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

// A series row whose summary the leaf's word does not cover breaks the
// invariant exact search rests on: the leaf's bound no longer bounds the
// series. The loader recomputes every SAX row from its series, so
// rewriting one row to a constant on the other side of segment 0's first
// breakpoint moves its root bit out of its leaf's word.
TEST(SerializeTest, RowOutsideItsLeafWordIsInvalidArgument) {
  const std::string path = TempPath("rows.odix");
  constexpr uint32_t kCount = 2000;
  const IndexOptions options = SmallLeafOptions();
  const Index built =
      Index::Build(GenerateRandomWalk(kCount, 64, 165), options);
  ASSERT_TRUE(SaveIndexToFile(built, path).ok());
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  constexpr uint32_t kRow = 777;
  const bool top_bit = (built.sax(kRow)[0] >> (options.config.max_bits - 1)) != 0;
  const float value = top_bit ? -10.0f : 10.0f;
  uint32_t word = 0;
  std::memcpy(&word, &value, sizeof(word));
  for (size_t t = 0; t < 64; ++t) {
    PutU32(&bytes, 28 + (size_t{kRow} * 64 + t) * sizeof(float), word);
  }
  WriteFileBytes(path, bytes);
  ExpectInvalidArgument(path);
  std::remove(path.c_str());
}

// Every row sits in exactly one leaf, and the id map names each series
// once. A leaf claiming one row fewer (that row is then in no leaf), one
// claiming a row more (the last leaf then runs past the rows) and an id
// map repeating an id are all rejected.
TEST(SerializeTest, SeriesInNoLeafOrTwoIsInvalidArgument) {
  const std::string path = TempPath("ids.odix");
  constexpr uint32_t kCount = 500;
  const IsaxConfig config = TestIndexOptions().config;
  const std::vector<uint8_t> saved = SavedIndexBytes(kCount, 167, path);
  const std::vector<size_t> leaves = ParseTree(saved, kCount, config).leaves;
  const auto leaf = std::find_if(leaves.begin(), leaves.end(), [&](size_t at) {
    return GetU32(saved, at + 1) >= 2;
  });
  ASSERT_NE(leaf, leaves.end());
  for (int delta : {-1, +1}) {
    std::vector<uint8_t> bytes = saved;
    PutU32(&bytes, *leaf + 1, GetU32(saved, *leaf + 1) + delta);
    WriteFileBytes(path, bytes);
    ExpectInvalidArgument(path);
  }
  std::vector<uint8_t> bytes = saved;
  const size_t ids = IdMapOffset(kCount, config);
  PutU32(&bytes, ids + sizeof(uint32_t), GetU32(saved, ids));
  WriteFileBytes(path, bytes);
  ExpectInvalidArgument(path);
  std::remove(path.c_str());
}

// A build creates a root only for a series it holds. A root that is an
// empty leaf would send approximate search to a leaf with no series.
TEST(SerializeTest, EmptyRootIsInvalidArgument) {
  const std::string path = TempPath("empty_root.odix");
  constexpr uint32_t kCount = 500;
  const IsaxConfig config = TestIndexOptions().config;
  std::vector<uint8_t> bytes = SavedIndexBytes(kCount, 169, path);
  const TreeLayout layout = ParseTree(bytes, kCount, config);
  // The smallest key no root has, inserted where the keys stay ascending.
  uint32_t key = 0;
  size_t at = bytes.size();
  for (size_t root : layout.roots) {
    if (GetU32(bytes, root) != key) {
      at = root;
      break;
    }
    ++key;
  }
  ASSERT_LT(key, 1u << config.segments());
  std::vector<uint8_t> empty_root;
  PutU32(&empty_root, 0, key);
  empty_root.insert(empty_root.end(), {0, 0, 0, 0, 0});  // leaf of no rows
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
               empty_root.begin(), empty_root.end());
  PutU32(&bytes, layout.root_count_at,
         static_cast<uint32_t>(layout.roots.size() + 1));
  WriteFileBytes(path, bytes);
  ExpectInvalidArgument(path);
  std::remove(path.c_str());
}

// Seeded mutations of a valid index file (flipped bytes, truncations,
// overwritten 32-bit words, several of which land in the header, the rows,
// the id map and the tree's counts, tags and keys): every load is Ok or a
// Status, never an abort, a throw or a bad_alloc, and every index that
// loads answers an exact 1-NN query with the distance an exhaustive scan of
// its own rows finds — a row whose summary did not bound it would break
// that. Both outcomes must occur, or the mutations missed the parser.
TEST(SerializeTest, SeededMutationsLoadOrFailCleanly) {
  const std::string path = TempPath("mutated.odix");
  IndexOptions options = TestIndexOptions();
  options.config = IsaxConfig(64, 8, 4);
  const Index built = Index::Build(GenerateRandomWalk(48, 64, 161), options);
  ASSERT_TRUE(SaveIndexToFile(built, path).ok());
  const testing_utils::MutationOutcome outcome =
      testing_utils::RunSeededMutations(
          path, /*seed=*/0x0D1A, /*iterations=*/2000,
          [](const std::string& file) {
            StatusOr<Index> loaded = LoadIndexFromFile(file);
            if (!loaded.ok() || loaded->data().empty()) {
              return loaded.status();
            }
            // A smooth query of the loaded length, whatever the header now
            // says; finite, so only mutated rows can score NaN or inf, and
            // neither side ever counts those.
            const SeriesCollection& rows = loaded->data();
            const size_t n = loaded->config().series_length();
            std::vector<float> query(n);
            for (size_t i = 0; i < n; ++i) {
              query[i] = std::sin(0.3f * static_cast<float>(i));
            }
            float best = std::numeric_limits<float>::infinity();
            for (size_t i = 0; i < rows.size(); ++i) {
              const float d = SquaredEuclidean(query.data(), rows.data(i), n);
              if (d < best) best = d;
            }
            QueryOptions qo;
            qo.num_threads = 1;
            const PreparedQuery prepared =
                PrepareQuery(query.data(), loaded->config(), qo);
            QueryExecution exec(&*loaded, prepared, qo);
            exec.SeedInitialBsf();
            exec.Run();
            const std::vector<Neighbor> got = exec.results().SortedResults();
            EXPECT_EQ(got.size(), 1u);
            if (!got.empty()) {
              EXPECT_TRUE(NearlyEqual(got[0].squared_distance, best))
                  << got[0].squared_distance << " vs " << best;
            }
            return loaded.status();
          });
  EXPECT_GT(outcome.ok, 0);
  EXPECT_GT(outcome.failed, 0);
}

// ------------------------------------------------------------- Streaming

TEST(StreamingTest, DynamicallyArrivingQueriesStayExact) {
  const SeriesCollection data = GenerateSeismicLike(1500, 64, 151);
  const SeriesCollection queries = GenerateUniformQueries(data, 10, 1.5, 153);
  std::vector<double> arrivals;
  for (size_t q = 0; q < queries.size(); ++q) {
    arrivals.push_back(0.004 * static_cast<double>(q));  // 4 ms apart
  }
  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 2;
  options.index_options = TestIndexOptions();
  options.worksteal.enabled = true;
  options.query_options.num_threads = 2;
  OdysseyCluster cluster(data, options);
  const BatchReport report = cluster.AnswerStream(queries, arrivals);
  ASSERT_EQ(report.answers.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const float exact =
        BruteForceKnn(data, queries.data(q), 1)[0].squared_distance;
    EXPECT_TRUE(NearlyEqual(report.answers[q][0].squared_distance, exact))
        << "query " << q;
  }
  // The stream cannot finish before its last arrival.
  EXPECT_GE(report.query_seconds, arrivals.back());
}

TEST(StreamingTest, AllAtOnceStreamEqualsBatch) {
  const SeriesCollection data = GenerateRandomWalk(800, 64, 155);
  const SeriesCollection queries = GenerateUniformQueries(data, 6, 1.0, 157);
  OdysseyOptions options;
  options.num_nodes = 2;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.scheduling = SchedulingPolicy::kDynamic;
  OdysseyCluster cluster(data, options);
  const BatchReport stream =
      cluster.AnswerStream(queries, std::vector<double>(queries.size(), 0.0));
  const BatchReport batch = cluster.AnswerBatch(queries);
  ASSERT_EQ(stream.answers.size(), batch.answers.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_TRUE(NearlyEqual(stream.answers[q][0].squared_distance,
                            batch.answers[q][0].squared_distance));
    EXPECT_EQ(stream.answers[q][0].id, batch.answers[q][0].id);
  }
}

}  // namespace
}  // namespace odyssey
