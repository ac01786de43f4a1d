// The build-path sharing contract (mirror of query_test's query-time
// contract): one {series, ids, SAX} bundle and one Index per replication
// group per chunk — never per node — with every group's index equal to a
// private build over the group's rows, in the same leaf order, across FULL
// / PARTIAL-k / EQUALLY-SPLIT, for both the in-memory and the streaming
// build.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
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
  return testing_utils::TempPath("shared_chunk_" + name);
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

// The in-memory constructor summarizes the collection once and hands the
// table to both the partitioner and the group builds, so DENSITY-AWARE
// costs no second summary of any series.
TEST(BuildStatsTest, InMemoryDensityAwareBuildSummarizesEachSeriesOnce) {
  const SeriesCollection data = GenerateRandomWalk(480, 64, 22);
  OdysseyOptions options = ClusterOptions(4, 2);
  options.partitioning = PartitioningScheme::kDensityAware;
  summary_stats::Reset();
  build_stats::Reset();
  OdysseyCluster cluster(data, options);
  EXPECT_EQ(summary_stats::PaaCalls(), data.size());
  EXPECT_EQ(summary_stats::SaxCalls(), data.size());
  EXPECT_EQ(build_stats::SummariesBuilt(), data.size());
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

/// Checks that every group's index equals Index::Build over the group's rows
/// of `data`, taken in the order `chunks[g]` lists them, with each row's id
/// mapped through chunks[g]: same tree, rows, SAX rows and ids in the same
/// leaf order. Its rows, ids and SAX rows must also fill their allocations
/// exactly.
void ExpectGroupsEqualPrivateBuilds(
    const OdysseyCluster& cluster, const SeriesCollection& data,
    const std::vector<std::vector<uint32_t>>& chunks) {
  const ReplicationLayout& layout = cluster.layout();
  const IndexOptions& options = cluster.options().index_options;
  ASSERT_EQ(chunks.size(), static_cast<size_t>(layout.num_groups()));
  for (int g = 0; g < layout.num_groups(); ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    const Index& index =
        cluster.node(layout.GroupCoordinator(g)).index();
    const Index reference =
        Index::Build(data.Subset(chunks[g]), options);
    const size_t n = chunks[g].size();
    ASSERT_EQ(index.data().size(), n);
    EXPECT_TRUE(testing_utils::TreesIdentical(index.tree(), reference.tree()));
    EXPECT_EQ(index.chunk()->sax_table(), reference.chunk()->sax_table());
    std::vector<uint32_t> mapped(n);
    for (size_t row = 0; row < n; ++row) {
      mapped[row] = chunks[g][reference.chunk()->global_ids()[row]];
      ASSERT_TRUE(std::equal(index.data().data(row),
                             index.data().data(row) + data.length(),
                             reference.data().data(row)))
          << "row " << row;
    }
    EXPECT_EQ(index.chunk()->global_ids(), mapped);
    EXPECT_EQ(index.data().MemoryBytes(), n * data.length() * sizeof(float));
    EXPECT_EQ(index.chunk()->MemoryBytes(),
              n * (data.length() * sizeof(float) + sizeof(uint32_t) +
                   static_cast<size_t>(options.config.segments())));
  }
}

// Both constructors build each group's index straight in leaf order, equal
// to a private build of the group's rows, for every layout and partitioning
// scheme. The streaming build is also run on the pread fallback, and with a
// chunk_size whose last block (one series) is smaller than the group count.
TEST(SharedChunkTest, GroupIndexesEqualPrivateBuildsInEveryLayout) {
  constexpr size_t kSeries = 601;
  const std::string path = TempPath("identity.raw");
  {
    const SeriesCollection base = GenerateSeismicLike(kSeries, 64, 61);
    SeriesCollection raw(64);
    for (size_t i = 0; i < base.size(); ++i) {
      float row[64];
      for (size_t t = 0; t < 64; ++t) row[t] = 5.0f - 3.0f * base.data(i)[t];
      raw.Append(row);
    }
    ASSERT_TRUE(WriteRawFloats(raw, path).ok());
  }
  IngestOptions ingest;
  ingest.length = 64;
  // What both constructors index: the archive's z-normalized rows.
  const StatusOr<SeriesCollection> data = IngestFile(path, ingest);
  ASSERT_TRUE(data.ok()) << data.status().ToString();

  const struct {
    MappedFile::Mode io_mode;
    size_t chunk_size;
  } kStreams[] = {{MappedFile::Mode::kAuto, 128},
                  {MappedFile::Mode::kBuffered, 128},
                  {MappedFile::Mode::kAuto, 200}};
  for (const auto& [nodes, groups] :
       std::vector<std::pair<int, int>>{{4, 1}, {4, 2}, {4, 4}}) {
    for (const PartitioningScheme scheme :
         {PartitioningScheme::kEquallySplit, PartitioningScheme::kRandomShuffle,
          PartitioningScheme::kDensityAware}) {
      OdysseyOptions options = ClusterOptions(nodes, groups);
      options.partitioning = scheme;
      const IsaxConfig& config = options.index_options.config;
      SCOPED_TRACE(std::to_string(nodes) + "x" + std::to_string(groups) +
                   " " + PartitioningSchemeToString(scheme));
      {
        SCOPED_TRACE("in memory");
        const OdysseyCluster cluster(*data, options);
        ExpectGroupsEqualPrivateBuilds(
            cluster, *data,
            PartitionSeries(*data, groups, scheme, config, options.seed,
                            nullptr, options.density_options));
      }
      for (const auto& stream : kStreams) {
        SCOPED_TRACE("streamed, chunk_size " +
                     std::to_string(stream.chunk_size) +
                     (stream.io_mode == MappedFile::Mode::kBuffered
                          ? ", buffered"
                          : ""));
        ingest.io_mode = stream.io_mode;
        ingest.chunk_size = stream.chunk_size;
        StatusOr<SeriesIngestor> source = SeriesIngestor::Open(path, ingest);
        ASSERT_TRUE(source.ok()) << source.status().ToString();
        auto cluster = OdysseyCluster::IngestAndBuild(*source, options);
        ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
        // Each chunk_size block is cut on its own, with seed + its index; a
        // block with fewer series than groups feeds the first groups only.
        std::vector<std::vector<uint32_t>> chunks(groups);
        for (size_t base = 0, block = 0; base < kSeries;
             base += stream.chunk_size, ++block) {
          const size_t count = std::min(stream.chunk_size, kSeries - base);
          std::vector<uint32_t> rows(count);
          for (size_t i = 0; i < count; ++i) {
            rows[i] = static_cast<uint32_t>(base + i);
          }
          const auto local = PartitionSeries(
              data->Subset(rows), static_cast<int>(std::min<size_t>(
                                      static_cast<size_t>(groups), count)),
              scheme, config, options.seed + block, nullptr,
              options.density_options);
          for (size_t g = 0; g < local.size(); ++g) {
            for (uint32_t id : local[g]) chunks[g].push_back(rows[id]);
          }
        }
        ExpectGroupsEqualPrivateBuilds(**cluster, *data, chunks);
      }
    }
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------- streaming build

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

TEST_F(StreamingSharedTest, ReportsIngestTime) {
  auto cluster = Stream(ClusterOptions(4, 2));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  EXPECT_GT((*cluster)->ingest_seconds(), 0.0);
}

}  // namespace
}  // namespace odyssey
