#ifndef ODYSSEY_DATASET_INGEST_H_
#define ODYSSEY_DATASET_INGEST_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/dataset/mapped_file.h"
#include "src/dataset/series_collection.h"

namespace odyssey {

/// On-disk formats of the paper's public archives (Table 1). All multi-byte
/// fields are little-endian (the archives are produced on x86).
enum class DataFormat {
  /// Pick by file extension: .fvecs, .bvecs, .bin (Odyssey-headered),
  /// anything else raw floats.
  kAuto,
  /// Headerless float32 series, back to back (Seismic/Astro archives). The
  /// series length cannot be derived from the file and must be supplied.
  kRawFloat,
  /// TEXMEX fvecs (SIFT/Deep1B slices): per vector, an int32 dimension
  /// header followed by that many float32 components.
  kFvecs,
  /// TEXMEX bvecs (SIFT1B): per vector, an int32 dimension header followed
  /// by that many uint8 components (widened to float on ingest).
  kBvecs,
  /// This library's own headered format ("ODSY" magic; see file_io.h).
  kOdyssey,
};

const char* DataFormatToString(DataFormat format);

/// Guesses the format from the file extension (see DataFormat::kAuto).
DataFormat FormatFromPath(const std::string& path);

/// How one archive is pulled into SeriesCollections.
struct IngestOptions {
  DataFormat format = DataFormat::kAuto;
  /// Series length in points. Required for kRawFloat; for the
  /// self-describing formats it is optional and, when non-zero, validated
  /// against the file's own headers.
  size_t length = 0;
  /// Z-normalize every series on ingest. The iSAX breakpoints are N(0,1)
  /// quantiles, so indexes assume z-normalized input; raw archives
  /// (especially SIFT/Deep embeddings) are not stored normalized.
  bool znormalize = true;
  /// Series per NextChunk() pull. Bounds the ingestion pipeline's heap:
  /// a chunk never allocates more than chunk_size * length * sizeof(float)
  /// bytes of series storage. It is also the block
  /// OdysseyCluster::IngestAndBuild partitions at a time (DENSITY-AWARE
  /// groups each block's summaries on their own).
  size_t chunk_size = 1 << 16;
  /// kBuffered forces the pread fallback (tests cover both paths with it).
  MappedFile::Mode io_mode = MappedFile::Mode::kAuto;
  /// Skip this many series from the front of the archive before reading.
  size_t skip_series = 0;
  /// Stop after this many series (0 = the whole archive). Slicing knob for
  /// the billion-scale archives the paper subsamples.
  size_t max_series = 0;
};

/// Bounded-memory reader over one on-disk archive. Validates the file
/// geometry at Open — header counts are checked against the actual fstat
/// size before any allocation, so a corrupt header can never trigger an
/// unbounded allocation; per-vector dimension headers are re-validated as
/// each row is read. Every read goes through ReadRange, which any number of
/// threads may call at once; NextChunk and ReadAll are cursor-driven
/// wrappers over it.
class SeriesIngestor {
 public:
  /// Opens and validates `path`. Errors: IoError for missing/unreadable
  /// files, InvalidArgument for geometry that contradicts the file size.
  static StatusOr<SeriesIngestor> Open(const std::string& path,
                                       const IngestOptions& options);

  SeriesIngestor(SeriesIngestor&&) = default;
  SeriesIngestor& operator=(SeriesIngestor&&) = default;

  /// Series length in points (from the options or the file's headers).
  size_t length() const { return length_; }
  /// Series this ingestor will yield in total (after skip/max slicing).
  size_t total_series() const { return total_; }
  /// Series yielded so far.
  size_t series_read() const { return next_; }
  bool exhausted() const { return next_ >= total_; }
  /// True when reads go through the memory map (false = pread fallback).
  bool using_mmap() const { return file_.mapped(); }
  DataFormat format() const { return format_; }
  const std::string& path() const { return file_.path(); }
  const IngestOptions& options() const { return options_; }

  /// Copies series [begin, begin + count) — numbered from the first
  /// post-skip series, like series_read() — into `dst` (count * length()
  /// floats), z-normalized when the options say so. Leaves the cursor where
  /// it is and shares no state between calls, so concurrent calls are safe,
  /// on the memory map and on the pread fallback alike. Errors: OutOfRange
  /// past total_series(), InvalidArgument naming the first record in the
  /// range whose dimension header is wrong, IoError from the fallback.
  Status ReadRange(size_t begin, size_t count, float* dst) const;

  /// Pulls the next at-most-chunk_size series. An empty collection signals
  /// end of archive. The returned chunk owns exactly
  /// min(chunk_size, remaining) * length floats of series heap. After an
  /// error the cursor stays put, so the next pull re-reports it.
  StatusOr<SeriesCollection> NextChunk();

  /// Convenience for archives that fit in RAM: every remaining series in
  /// one collection.
  StatusOr<SeriesCollection> ReadAll();

  /// Rewinds to the first (post-skip) series.
  void Reset() { next_ = 0; }

 private:
  SeriesIngestor(MappedFile file, const IngestOptions& options);

  Status Validate();
  /// Reads the next `count` series at the cursor and advances past them.
  StatusOr<SeriesCollection> Pull(size_t count);

  MappedFile file_;
  IngestOptions options_;
  DataFormat format_ = DataFormat::kRawFloat;
  size_t length_ = 0;
  size_t total_ = 0;       ///< series to yield (after skip/max)
  size_t first_ = 0;       ///< absolute index of the first yielded series
  size_t next_ = 0;        ///< relative cursor in [0, total_]
  uint64_t data_offset_ = 0;   ///< bytes before series 0 (ODSY header)
  uint64_t record_bytes_ = 0;  ///< on-disk stride of one series
};

/// One-call ingest of a whole archive (Open + ReadAll).
StatusOr<SeriesCollection> IngestFile(const std::string& path,
                                      const IngestOptions& options);

}  // namespace odyssey

#endif  // ODYSSEY_DATASET_INGEST_H_
