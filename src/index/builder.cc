#include "src/index/builder.h"

#include <cstring>
#include <numeric>
#include <utility>

#include "src/common/stopwatch.h"
#include "src/common/summary_stats.h"
#include "src/index/buffers.h"

namespace odyssey {

Index Index::Build(SeriesCollection chunk, const IndexOptions& options,
                   ThreadPool* pool, BuildTimings* timings) {
  ODYSSEY_CHECK(chunk.length() == options.config.series_length());
  Stopwatch watch;
  std::vector<uint8_t> sax = ComputeSaxTable(chunk, options.config, pool);
  const double summarize_seconds = watch.ElapsedSeconds();
  std::vector<uint32_t> ids(chunk.size());
  std::iota(ids.begin(), ids.end(), uint32_t{0});
  const size_t row_bytes = chunk.length() * sizeof(float);
  StatusOr<Index> index = BuildFromSource(
      std::move(ids), std::move(sax),
      [&chunk, row_bytes](uint32_t id, float* dst) {
        std::memcpy(dst, chunk.data(id), row_bytes);
        return Status::Ok();
      },
      options, pool, timings);
  ODYSSEY_CHECK(index.ok());  // a copy out of memory cannot fail
  if (timings != nullptr) timings->buffer_seconds += summarize_seconds;
  return std::move(index).value();
}

StatusOr<Index> Index::BuildFromSource(std::vector<uint32_t> ids,
                                       std::vector<uint8_t> sax_rows,
                                       const RowSource& copy_row,
                                       const IndexOptions& options,
                                       ThreadPool* pool,
                                       BuildTimings* timings) {
  const IsaxConfig& config = options.config;
  const size_t n = ids.size();
  const size_t w = static_cast<size_t>(config.segments());
  ODYSSEY_CHECK(sax_rows.size() == n * w);
  Stopwatch watch;
  SummarizationBuffers buffers =
      BuildBuffers(sax_rows.data(), n, config, pool);
  const double buffer_seconds = watch.ElapsedSeconds();

  watch.Restart();
  std::vector<uint32_t> leaf_order;
  IndexTree tree = IndexTree::Build(std::move(buffers), sax_rows.data(),
                                    config, options.leaf_capacity, pool,
                                    &leaf_order);
  // Each worker writes a contiguous run of leaf-ordered rows, so it also
  // faults in its own pages of the fresh storage.
  const size_t length = config.series_length();
  SeriesCollection data(length);
  data.Reserve(n);
  float* rows = data.AppendUninitialized(n);
  std::vector<uint8_t> sax(n * w);
  std::vector<uint32_t> row_ids(n);
  LowestRowFailure failure;
  auto fill_range = [&](size_t begin, size_t end) {
    for (size_t row = begin; row < end; ++row) {
      const size_t from = leaf_order[row];
      Status copied = copy_row(ids[from], rows + row * length);
      if (!copied.ok()) failure.Record(ids[from], std::move(copied));
      std::memcpy(sax.data() + row * w, sax_rows.data() + from * w, w);
      row_ids[row] = ids[from];
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, fill_range);
  } else {
    fill_range(0, n);
  }
  Status filled = failure.status();
  if (!filled.ok()) return filled;
  const double tree_seconds = watch.ElapsedSeconds();

  std::unique_ptr<SharedChunk> chunk = SharedChunk::Adopt(
      std::move(data), std::move(row_ids), std::move(sax), config);
  build_stats::CountChunk(chunk->MemoryBytes(), n);
  Index index(std::move(chunk), options);
  index.tree_ = std::move(tree);
  if (timings != nullptr) {
    timings->buffer_seconds = buffer_seconds;
    timings->tree_seconds = tree_seconds;
  }
  return index;
}

size_t Index::IndexMemoryBytes() const {
  return chunk_->sax_table().capacity() * sizeof(uint8_t) +
         tree_.MemoryBytes();
}

}  // namespace odyssey
