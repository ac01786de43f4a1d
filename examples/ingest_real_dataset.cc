// Ingesting a real on-disk archive into an Odyssey cluster, end to end:
//
//   1. open the archive through the memory-mapped ingestion layer
//      (MappedFile + SeriesIngestor: format detection, header validation,
//      z-normalization on ingest),
//   2. build a cluster from it with OdysseyCluster::IngestAndBuild — two
//      parallel passes over the archive; between them the coordinator
//      holds only each series' SAX row and group, never the whole archive,
//   3. answer a query batch against the built index.
//
// Usage:
//   ingest_real_dataset                        self-contained demo: writes a
//                                              small raw-float archive to
//                                              /tmp and ingests it
//   ingest_real_dataset <path> [length]        ingest your own archive
//                                              (.fvecs/.bvecs/.bin by
//                                              extension; raw floats need
//                                              the series length argument)
//   ingest_real_dataset --make-fixtures <dir>  write the small fixture set
//                                              (seismic.raw, astro.bin,
//                                              deep.fvecs, sift.bvecs,
//                                              yan-tti.raw) used by CI's
//                                              ODYSSEY_DATA_DIR sanitizer
//                                              run, then exit

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "src/common/stopwatch.h"
#include "src/core/driver.h"
#include "src/dataset/file_io.h"
#include "src/dataset/generators.h"
#include "src/dataset/ingest.h"
#include "src/dataset/workload.h"

namespace {

using namespace odyssey;

/// Un-normalizes a generated collection (scale + shift) so the fixture
/// exercises z-normalize-on-ingest the way a real archive would.
SeriesCollection Denormalize(const SeriesCollection& data, float scale,
                             float shift) {
  SeriesCollection out(data.length());
  out.Reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    std::vector<float> row(data.length());
    for (size_t t = 0; t < data.length(); ++t) {
      row[t] = shift + scale * data.data(i)[t];
    }
    out.Append(row.data());
  }
  return out;
}

int MakeFixtures(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const std::string base = dir + "/";
  ODYSSEY_CHECK_OK(WriteRawFloats(
      Denormalize(GenerateSeismicLike(512, 256, 1), 12.0f, 300.0f),
      base + "seismic.raw"));
  ODYSSEY_CHECK_OK(WriteCollection(
      Denormalize(GenerateAstroLike(512, 256, 2), 50.0f, -10.0f),
      base + "astro.bin"));
  ODYSSEY_CHECK_OK(WriteFvecs(
      Denormalize(GenerateEmbeddingLike(512, 96, 16, 3), 4.0f, 0.0f),
      base + "deep.fvecs"));
  // SIFT descriptors really are bytes in [0, 255].
  ODYSSEY_CHECK_OK(WriteBvecs(
      Denormalize(GenerateEmbeddingLike(512, 128, 16, 4), 40.0f, 128.0f),
      base + "sift.bvecs"));
  ODYSSEY_CHECK_OK(WriteRawFloats(
      Denormalize(GenerateCrossModalLike(512, 200, 5), 2.0f, 1.0f),
      base + "yan-tti.raw"));
  std::printf("wrote fixtures: seismic.raw astro.bin deep.fvecs sift.bvecs "
              "yan-tti.raw under %s\n", dir.c_str());
  std::printf("try: ODYSSEY_DATA_DIR=%s ./bench_table1_datasets\n",
              dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  size_t length = 0;
  if (argc >= 3 && std::string(argv[1]) == "--make-fixtures") {
    return MakeFixtures(argv[2]);
  }
  if (argc >= 2) {
    path = argv[1];
    if (argc >= 3) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(argv[2], &end, 10);
      if (end == argv[2] || *end != '\0' || parsed == 0 ||
          argv[2][0] == '-') {
        std::fprintf(stderr,
                     "invalid series length '%s' (expected a positive "
                     "integer)\n",
                     argv[2]);
        return 1;
      }
      length = static_cast<size_t>(parsed);
    }
  } else {
    // Self-contained demo: fabricate a small un-normalized seismic archive.
    path = "/tmp/odyssey_example_seismic.raw";
    length = 256;
    ODYSSEY_CHECK_OK(WriteRawFloats(
        Denormalize(GenerateSeismicLike(8000, length, 7), 15.0f, 120.0f),
        path));
    std::printf("no archive given; wrote a demo archive to %s\n",
                path.c_str());
  }

  IngestOptions options;
  options.length = length;       // required for raw floats, validated else
  options.chunk_size = 2048;     // the block IngestAndBuild partitions
  options.znormalize = true;     // iSAX assumes N(0,1) input

  StatusOr<SeriesIngestor> probe = SeriesIngestor::Open(path, options);
  ODYSSEY_CHECK_MSG(probe.ok(), probe.status().ToString().c_str());
  std::printf(
      "archive: %s\n  format=%s length=%zu series=%zu io=%s chunk=%zu "
      "(the block stage 1 partitions at a time)\n",
      path.c_str(), DataFormatToString(probe->format()), probe->length(),
      probe->total_series(), probe->using_mmap() ? "mmap" : "buffered",
      options.chunk_size);

  OdysseyOptions cluster_options;
  cluster_options.num_nodes = 4;
  cluster_options.num_groups = 2;  // PARTIAL-2 replication
  cluster_options.index_options.config =
      IsaxConfig(probe->length(), 16);
  cluster_options.build_threads_per_node = 4;
  cluster_options.query_options.num_threads = 4;

  Stopwatch watch;
  StatusOr<std::unique_ptr<OdysseyCluster>> cluster =
      OdysseyCluster::IngestAndBuild(*probe, cluster_options);
  ODYSSEY_CHECK_MSG(cluster.ok(), cluster.status().ToString().c_str());
  // Pass 1 reads, z-normalizes and summarizes every row; stage 1 cuts the
  // series into groups; each group then builds its buffers and tree, and
  // pass 2 copies its rows from the archive straight into leaf order.
  std::printf(
      "built a %d-node cluster in %.3f s (pass 1 %.3f s, partition %.3f s, "
      "buffers %.3f s, tree + pass 2 %.3f s)\n",
      (*cluster)->num_nodes(), watch.ElapsedSeconds(),
      (*cluster)->ingest_seconds(), (*cluster)->partition_seconds(),
      (*cluster)->max_buffer_seconds(), (*cluster)->max_tree_seconds());

  // Queries come from a fresh (bit-identical) pass over the same archive:
  // on a real deployment the query series arrive from clients, but reusing
  // the ingest path shows the reader is re-entrant.
  options.max_series = 10;
  StatusOr<SeriesCollection> query_seed = IngestFile(path, options);
  ODYSSEY_CHECK_MSG(query_seed.ok(), query_seed.status().ToString().c_str());
  const SeriesCollection queries =
      GenerateUniformQueries(*query_seed, 10, 0.25, 99);

  const BatchReport report = (*cluster)->AnswerBatch(queries);
  std::printf("answered %zu queries in %.3f s:\n", report.answers.size(),
              report.query_seconds);
  for (size_t q = 0; q < report.answers.size(); ++q) {
    const Neighbor& nn = report.answers[q][0];
    std::printf("  query %zu -> series %u at distance %.4f\n", q, nn.id,
                std::sqrt(nn.squared_distance));
  }
  if (argc < 2) std::remove(path.c_str());
  return 0;
}
