// The build-path sharing contract (mirror of query_test's query-time
// contract): one {series, ids, SAX} bundle and one Index per replication
// group per chunk — never per node — with the group's index bit-identical
// to a private build, rows in the same leaf order, across FULL / PARTIAL-k
// / EQUALLY-SPLIT, for both the in-memory and the streaming
// (double-buffered overlap) build.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/summary_stats.h"
#include "src/core/driver.h"
#include "src/core/shared_chunk.h"
#include "src/dataset/file_io.h"
#include "src/dataset/generators.h"
#include "src/dataset/ingest.h"
#include "src/dataset/workload.h"
#include "src/index/node.h"
#include "tests/testing_utils.h"

namespace odyssey {
namespace {

IndexOptions TestIndexOptions(size_t length = 64) {
  IndexOptions options;
  options.config = IsaxConfig(length, 16);
  options.leaf_capacity = 32;
  return options;
}

OdysseyOptions ClusterOptions(int nodes, int groups) {
  OdysseyOptions options;
  options.num_nodes = nodes;
  options.num_groups = groups;
  options.index_options = TestIndexOptions();
  options.build_threads_per_node = 2;
  options.query_options.num_threads = 2;
  return options;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("odyssey_shared_chunk_" + name))
      .string();
}

// ---------------------------------------------------- SharedChunk bundle

TEST(SharedChunkTest, BuildMatchesPerSeriesSummaries) {
  const IsaxConfig config(64, 16);
  const SeriesCollection data = GenerateRandomWalk(300, 64, 11);
  ThreadPool pool(4);
  const auto chunk = SharedChunk::Build(SeriesCollection(data), {}, config,
                                        &pool);
  ASSERT_EQ(chunk->size(), 300u);
  ASSERT_EQ(chunk->sax_table().size(), 300u * 16u);
  for (uint32_t i = 0; i < 300; ++i) {
    uint8_t expected_sax[16];
    ComputeSax(data.data(i), config, expected_sax);
    for (int s = 0; s < 16; ++s) {
      EXPECT_EQ(chunk->sax(i)[s], expected_sax[s]) << i << " seg " << s;
    }
  }
  EXPECT_GT(chunk->MemoryBytes(), data.MemoryBytes());
}

TEST(SharedChunkTest, AdoptReusesTablesWithoutResummarizing) {
  const IsaxConfig config(64, 16);
  const SeriesCollection data = GenerateRandomWalk(200, 64, 12);
  const auto built = SharedChunk::Build(SeriesCollection(data), {}, config);

  summary_stats::Reset();
  const auto adopted = SharedChunk::Adopt(
      SeriesCollection(data), {}, std::vector<uint8_t>(built->sax_table()),
      config);
  EXPECT_EQ(summary_stats::PaaCalls(), 0u);
  EXPECT_EQ(summary_stats::SaxCalls(), 0u);
  EXPECT_EQ(adopted->sax_table(), built->sax_table());
}

// PermuteRows moves each row's series, SAX row and global id together, so
// row i afterwards holds exactly what row order[i] held.
TEST(SharedChunkTest, PermuteRowsMovesSeriesSaxAndIdsTogether) {
  const IsaxConfig config(64, 16);
  const SeriesCollection data = GenerateRandomWalk(257, 64, 14);
  std::vector<uint32_t> ids(data.size());
  for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = 1000 + 3 * i;
  const auto original = SharedChunk::Build(SeriesCollection(data), ids, config);
  auto chunk = SharedChunk::Build(SeriesCollection(data), ids, config);
  // A permutation with cycles of many lengths, fixed points included.
  std::vector<uint32_t> order(data.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(15);
  for (size_t i = order.size() - 1; i > 0; i -= 2) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  chunk->PermuteRows(order);
  for (size_t row = 0; row < order.size(); ++row) {
    const uint32_t from = order[row];
    EXPECT_EQ(chunk->global_ids()[row], original->global_ids()[from]) << row;
    EXPECT_TRUE(std::equal(chunk->sax(row), chunk->sax(row) + 16,
                           original->sax(from)))
        << row;
    EXPECT_TRUE(std::equal(chunk->data().data(row),
                           chunk->data().data(row) + 64,
                           original->data().data(from)))
        << row;
  }
}

TEST(SharedChunkDeathTest, PermuteRowsRefusesANonPermutation) {
  const IsaxConfig config(64, 16);
  auto chunk =
      SharedChunk::Build(GenerateRandomWalk(4, 64, 16), {}, config);
  EXPECT_DEATH(chunk->PermuteRows({1, 1, 2, 3}), "no permutation");
}

// The group path (a bundle built first, the index built over it) and the
// private path give the same index: same tree, and the same rows, SAX rows
// and id map in the same leaf order.
TEST(SharedChunkTest, BundleBuildEqualsPrivateBuild) {
  const SeriesCollection data = GenerateSeismicLike(400, 64, 13);
  const IndexOptions options = TestIndexOptions();
  const Index private_index =
      Index::Build(SeriesCollection(data), options);
  const Index from_bundle = Index::BuildFromShared(
      SharedChunk::Build(SeriesCollection(data), {}, options.config),
      options);
  EXPECT_TRUE(
      testing_utils::IndexesIdentical(private_index, from_bundle));
}

// -------------------------------------------------- once-per-group counters

TEST(BuildStatsTest, SharedBuildSummarizesOncePerGroupNotPerNode) {
  const SeriesCollection data = GenerateRandomWalk(480, 64, 21);
  const struct {
    int nodes, groups;
  } kLayouts[] = {{4, 1}, {4, 2}, {4, 4}};  // FULL, PARTIAL-2, EQUALLY-SPLIT
  for (const auto& layout : kLayouts) {
    summary_stats::Reset();
    build_stats::Reset();
    OdysseyCluster cluster(data, ClusterOptions(layout.nodes, layout.groups));
    // Exactly one bundle per group, each series summarized exactly once in
    // the whole cluster — independent of the replication degree.
    EXPECT_EQ(build_stats::ChunksBuilt(),
              static_cast<uint64_t>(layout.groups))
        << cluster.layout().ToString();
    EXPECT_EQ(build_stats::SummariesBuilt(), data.size())
        << cluster.layout().ToString();
    EXPECT_EQ(summary_stats::SaxCalls(), data.size())
        << cluster.layout().ToString();
    EXPECT_EQ(summary_stats::PaaCalls(), data.size())
        << cluster.layout().ToString();
    EXPECT_GT(build_stats::ChunkBytes(), 0u);
  }
}

TEST(BuildStatsTest, SharedFullReplicationStoresOneBundle) {
  const SeriesCollection data = GenerateRandomWalk(300, 64, 23);
  build_stats::Reset();
  OdysseyCluster cluster(data, ClusterOptions(4, 1));
  const Index& replica = cluster.node(0).index();
  // FULL over 4 nodes materializes exactly one bundle's bytes.
  EXPECT_EQ(build_stats::ChunkBytes(), replica.chunk()->MemoryBytes());
  // The *reported* per-node footprint still counts the chunk on every node
  // (a real deployment stores it on each): Figure-14 accounting must not
  // shrink just because the simulation shares the bytes.
  EXPECT_EQ(cluster.total_data_bytes(), 4 * replica.DataMemoryBytes());
  EXPECT_EQ(cluster.total_index_bytes(), 4 * replica.IndexMemoryBytes());
}

/// Members of one replication group serve the very same Index object
/// (pointer-equal), so their trees are identical by construction; members
/// of different groups never share one.
void ExpectOneIndexPerGroup(const OdysseyCluster& cluster) {
  const ReplicationLayout& layout = cluster.layout();
  for (int a = 0; a < cluster.num_nodes(); ++a) {
    for (int b = 0; b < cluster.num_nodes(); ++b) {
      EXPECT_EQ(&cluster.node(a).index() == &cluster.node(b).index(),
                layout.GroupOf(a) == layout.GroupOf(b))
          << layout.ToString() << ": nodes " << a << " and " << b;
    }
  }
}

TEST(SharedChunkTest, ReplicasOfAGroupShareOneIndex) {
  const SeriesCollection data = GenerateSeismicLike(600, 64, 31);
  const std::string path = TempPath("one_index.raw");
  ASSERT_TRUE(WriteRawFloats(data, path).ok());
  // FULL, PARTIAL-2 and EQUALLY-SPLIT, in memory and streamed.
  for (const auto& [nodes, groups] :
       std::vector<std::pair<int, int>>{{4, 1}, {4, 2}, {4, 4}}) {
    const OdysseyOptions options = ClusterOptions(nodes, groups);
    OdysseyCluster in_memory(data, options);
    ExpectOneIndexPerGroup(in_memory);

    IngestOptions ingest;
    ingest.length = 64;
    ingest.chunk_size = 128;
    StatusOr<SeriesIngestor> source = SeriesIngestor::Open(path, ingest);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    auto streamed = OdysseyCluster::IngestAndBuild(*source, options);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    ExpectOneIndexPerGroup(**streamed);
  }
  std::remove(path.c_str());
}

// ----------------------------------------------- streaming + overlap build

class StreamingSharedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("stream.raw");
    const SeriesCollection base = GenerateSeismicLike(600, 64, 41);
    SeriesCollection raw(64);
    for (size_t i = 0; i < base.size(); ++i) {
      float row[64];
      for (size_t t = 0; t < 64; ++t) row[t] = 3.0f + 2.0f * base.data(i)[t];
      raw.Append(row);
    }
    ASSERT_TRUE(WriteRawFloats(raw, path_).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  StatusOr<std::unique_ptr<OdysseyCluster>> Stream(
      const OdysseyOptions& cluster_options) {
    IngestOptions options;
    options.length = 64;
    options.chunk_size = 128;  // 600 series stream in as 5 chunks
    StatusOr<SeriesIngestor> source = SeriesIngestor::Open(path_, options);
    if (!source.ok()) return source.status();
    return OdysseyCluster::IngestAndBuild(*source, cluster_options);
  }

  std::string path_;
};

TEST_F(StreamingSharedTest, SummarizesEachSeriesOnceAcrossChunks) {
  OdysseyOptions options = ClusterOptions(4, 2);
  summary_stats::Reset();
  build_stats::Reset();
  auto cluster = Stream(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  // 600 series in 5 chunks over 2 groups: one adopted bundle per group,
  // every series summarized exactly once — by the ingest pipeline, with the
  // partitioner and both replicas of each group reusing the same rows.
  EXPECT_EQ(build_stats::ChunksBuilt(), 2u);
  EXPECT_EQ(build_stats::SummariesBuilt(), 600u);
  EXPECT_EQ(summary_stats::SaxCalls(), 600u);
  EXPECT_EQ(summary_stats::PaaCalls(), 600u);
}

TEST_F(StreamingSharedTest, DensityAwarePartitioningReusesIngestSummaries) {
  OdysseyOptions options = ClusterOptions(4, 2);
  options.partitioning = PartitioningScheme::kDensityAware;
  summary_stats::Reset();
  auto cluster = Stream(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  // DENSITY-AWARE consumes the precomputed per-chunk table instead of
  // re-summarizing: still exactly one SAX word per series process-wide.
  EXPECT_EQ(summary_stats::SaxCalls(), 600u);
}

// The streaming build sizes a group's storage once from the archive's
// series count: with one group the rows, ids and SAX rows fill their
// allocations exactly, where growth by doubling left up to half unused.
TEST_F(StreamingSharedTest, OneGroupStorageIsSizedExactly) {
  auto cluster = Stream(ClusterOptions(2, 1));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  const Index& index = (*cluster)->node(0).index();
  ASSERT_EQ(index.data().size(), 600u);
  EXPECT_EQ(index.data().MemoryBytes(), 600u * 64u * sizeof(float));
  EXPECT_EQ(index.chunk()->MemoryBytes(),
            600u * (64u * sizeof(float) + sizeof(uint32_t) + 16u));
}

TEST_F(StreamingSharedTest, ReportsIngestTimeAndItsOverlappedPart) {
  auto cluster = Stream(ClusterOptions(4, 2));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  EXPECT_GT((*cluster)->ingest_seconds(), 0.0);
  EXPECT_GE((*cluster)->overlap_seconds(), 0.0);
  EXPECT_LE((*cluster)->overlap_seconds(),
            (*cluster)->ingest_seconds() + 1e-9);
}

// ------------------------------------------------------- ChunkPrefetcher

TEST(ChunkPrefetcherTest, YieldsIdenticalChunksInOrder) {
  const std::string path = TempPath("prefetch.raw");
  const SeriesCollection data = GenerateRandomWalk(333, 32, 51);
  ASSERT_TRUE(WriteRawFloats(data, path).ok());
  IngestOptions options;
  options.length = 32;
  options.chunk_size = 100;  // 4 chunks: 100+100+100+33

  StatusOr<SeriesIngestor> direct = SeriesIngestor::Open(path, options);
  ASSERT_TRUE(direct.ok());
  StatusOr<SeriesIngestor> prefetched = SeriesIngestor::Open(path, options);
  ASSERT_TRUE(prefetched.ok());
  ChunkPrefetcher prefetcher(&*prefetched);

  for (;;) {
    StatusOr<SeriesCollection> want = direct->NextChunk();
    StatusOr<SeriesCollection> got = prefetcher.Next();
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(want->size(), got->size());
    for (size_t i = 0; i < want->size(); ++i) {
      for (size_t t = 0; t < 32; ++t) {
        ASSERT_EQ(want->data(i)[t], got->data(i)[t]);
      }
    }
    if (want->empty()) break;
  }
  // Mirrors SeriesIngestor: pulls after the end keep reporting end.
  StatusOr<SeriesCollection> again = prefetcher.Next();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->empty());
  EXPECT_GT(prefetcher.pull_seconds(), 0.0);
  std::remove(path.c_str());
}

TEST(ChunkPrefetcherTest, ReReportsAnErrorInsteadOfFakingEof) {
  // 12 fvecs vectors; vector 9's per-record dimension header is corrupted
  // after writing, so the third pull (chunk_size 4) fails mid-archive.
  const std::string path = TempPath("prefetch_err.fvecs");
  const SeriesCollection data = GenerateRandomWalk(12, 16, 53);
  ASSERT_TRUE(WriteFvecs(data, path).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long record = 4 + 16 * 4;
    ASSERT_EQ(std::fseek(f, 9 * record, SEEK_SET), 0);
    const int32_t bad_dim = 17;
    ASSERT_EQ(std::fwrite(&bad_dim, sizeof(bad_dim), 1, f), 1u);
    ASSERT_EQ(std::fclose(f), 0);
  }
  IngestOptions options;
  options.format = DataFormat::kFvecs;
  options.chunk_size = 4;
  StatusOr<SeriesIngestor> source = SeriesIngestor::Open(path, options);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ChunkPrefetcher prefetcher(&*source);
  ASSERT_TRUE(prefetcher.Next().ok());
  ASSERT_TRUE(prefetcher.Next().ok());
  const StatusOr<SeriesCollection> failed = prefetcher.Next();
  ASSERT_FALSE(failed.ok());
  // The error is sticky, exactly like NextChunk re-reporting it — a
  // partially read archive must never look like a cleanly finished one.
  const StatusOr<SeriesCollection> again = prefetcher.Next();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().ToString(), failed.status().ToString());
  std::remove(path.c_str());
}

TEST(ChunkPrefetcherTest, DestructorDrainsUnconsumedChunks) {
  const std::string path = TempPath("prefetch_drop.raw");
  const SeriesCollection data = GenerateRandomWalk(400, 32, 52);
  ASSERT_TRUE(WriteRawFloats(data, path).ok());
  IngestOptions options;
  options.length = 32;
  options.chunk_size = 64;
  StatusOr<SeriesIngestor> source = SeriesIngestor::Open(path, options);
  ASSERT_TRUE(source.ok());
  {
    ChunkPrefetcher prefetcher(&*source);
    StatusOr<SeriesCollection> first = prefetcher.Next();
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->size(), 64u);
    // Destroyed with pulls still in flight: must not hang or leak.
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace odyssey
