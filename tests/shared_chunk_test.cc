// The build-path sharing contract (mirror of query_test's query-time
// contract): one immutable {series, SAX, buffers} bundle and one Index per
// replication group per chunk — never per node — with the shared tree
// bit-identical to a private build, across FULL / PARTIAL-k /
// EQUALLY-SPLIT, for both the in-memory and the streaming (double-buffered
// overlap) build.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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
  // The buffers cover every series exactly once.
  size_t total = 0;
  for (size_t b = 0; b < chunk->buffers().buffer_count(); ++b) {
    total += chunk->buffers().series[b].size();
  }
  EXPECT_EQ(total, 300u);
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
  ASSERT_EQ(adopted->buffers().buffer_count(),
            built->buffers().buffer_count());
  EXPECT_EQ(adopted->buffers().keys, built->buffers().keys);
  EXPECT_EQ(adopted->buffers().series, built->buffers().series);
}

TEST(SharedChunkTest, IndexBuiltFromSharedEqualsPrivateBuild) {
  const SeriesCollection data = GenerateSeismicLike(400, 64, 13);
  const IndexOptions options = TestIndexOptions();
  const Index private_index =
      Index::Build(SeriesCollection(data), options);
  const auto bundle =
      SharedChunk::Build(SeriesCollection(data), {}, options.config);
  const Index shared_a = Index::BuildFromShared(bundle, options);
  const Index shared_b = Index::BuildFromShared(bundle, options);
  // Both replicas reference the very same bundle...
  EXPECT_EQ(shared_a.chunk().get(), shared_b.chunk().get());
  EXPECT_EQ(shared_a.sax_table().data(), shared_b.sax_table().data());
  // ...and all three trees agree node for node.
  EXPECT_TRUE(testing_utils::TreesIdentical(private_index.tree(),
                                            shared_a.tree()));
  EXPECT_TRUE(testing_utils::TreesIdentical(shared_a.tree(),
                                            shared_b.tree()));
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
