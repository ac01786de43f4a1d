// The dataset ingestion subsystem: MappedFile (mmap + buffered fallback),
// the fvecs/bvecs/raw/ODSY format readers, z-normalize-on-ingest, the
// bounded-memory chunked pull API and the thread-safe ranged read under
// it, ODYSSEY_DATA_DIR file-backed registry specs, and the driver's
// streaming IngestAndBuild path.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/math_utils.h"
#include "src/core/driver.h"
#include "src/dataset/file_io.h"
#include "src/dataset/generators.h"
#include "src/dataset/ingest.h"
#include "src/dataset/mapped_file.h"
#include "src/dataset/registry.h"
#include "src/dataset/workload.h"
#include "tests/testing_utils.h"

namespace odyssey {
namespace {

using testing_utils::TempPath;

/// Mode::kAuto is expected to map the file — unless the environment turned
/// mapping off (ODYSSEY_NO_MMAP=1 exercises the buffered fallback
/// everywhere; the bit-identity assertions below still apply). Mirrors
/// MmapDisabledByEnv in mapped_file.cc: empty and "0" mean enabled.
bool MmapExpected() {
  const char* env = std::getenv("ODYSSEY_NO_MMAP");
  return env == nullptr || *env == '\0' || *env == '0';
}

/// Writes raw bytes (fixtures are built byte-by-byte on purpose, so a
/// writer bug cannot mask a reader bug).
void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

void AppendU32(std::vector<uint8_t>* bytes, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendF32(std::vector<uint8_t>* bytes, float v) {
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU32(bytes, bits);
}

void ExpectBitIdentical(const SeriesCollection& a, const SeriesCollection& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.length(), b.length());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t t = 0; t < a.length(); ++t) {
      ASSERT_EQ(a.data(i)[t], b.data(i)[t]) << "series " << i << " point " << t;
    }
  }
}

// ------------------------------------------------------------- MappedFile

TEST(MappedFileTest, MissingFileIsIoError) {
  StatusOr<MappedFile> file = MappedFile::Open("/nonexistent/odyssey.dat");
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kIoError);
}

TEST(MappedFileTest, MappedAndBufferedReadsAgree) {
  const std::string path = TempPath("mapped_vs_buffered.dat");
  std::vector<uint8_t> bytes(1000);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 37);
  }
  WriteBytes(path, bytes);

  StatusOr<MappedFile> mapped = MappedFile::Open(path);
  StatusOr<MappedFile> buffered =
      MappedFile::Open(path, MappedFile::Mode::kBuffered);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(buffered.ok());
  EXPECT_EQ(mapped->mapped(), MmapExpected());
  EXPECT_FALSE(buffered->mapped());
  EXPECT_EQ(mapped->size(), bytes.size());
  EXPECT_EQ(buffered->size(), bytes.size());

  uint8_t a[100], b[100];
  for (uint64_t offset : {0ull, 1ull, 899ull, 900ull}) {
    ASSERT_TRUE(mapped->ReadAt(offset, a, sizeof(a)).ok());
    ASSERT_TRUE(buffered->ReadAt(offset, b, sizeof(b)).ok());
    for (size_t i = 0; i < sizeof(a); ++i) {
      ASSERT_EQ(a[i], b[i]) << "offset " << offset << " byte " << i;
      ASSERT_EQ(a[i], bytes[offset + i]);
    }
  }
  std::remove(path.c_str());
}

TEST(MappedFileTest, ReadPastEofIsIoErrorNeverShort) {
  const std::string path = TempPath("eof.dat");
  WriteBytes(path, std::vector<uint8_t>(64, 7));
  for (MappedFile::Mode mode :
       {MappedFile::Mode::kAuto, MappedFile::Mode::kBuffered}) {
    StatusOr<MappedFile> file = MappedFile::Open(path, mode);
    ASSERT_TRUE(file.ok());
    uint8_t buf[32];
    EXPECT_TRUE(file->ReadAt(32, buf, 32).ok());
    EXPECT_EQ(file->ReadAt(33, buf, 32).code(), StatusCode::kIoError);
    EXPECT_EQ(file->ReadAt(65, buf, 1).code(), StatusCode::kIoError);
    EXPECT_TRUE(file->ReadAt(64, buf, 0).ok());  // empty read at EOF is fine
  }
  std::remove(path.c_str());
}

// ------------------------------------------- Hardened ODSY header reading

TEST(FileIoHardeningTest, RoundTripSurvivesHardening) {
  const SeriesCollection data = GenerateRandomWalk(20, 32, 5);
  const std::string path = TempPath("roundtrip.bin");
  ASSERT_TRUE(WriteCollection(data, path).ok());
  StatusOr<SeriesCollection> loaded = ReadCollection(path);
  ASSERT_TRUE(loaded.ok());
  ExpectBitIdentical(*loaded, data);
  std::remove(path.c_str());
}

TEST(FileIoHardeningTest, TruncatedFileIsRejected) {
  const SeriesCollection data = GenerateRandomWalk(10, 16, 5);
  const std::string path = TempPath("truncated.bin");
  ASSERT_TRUE(WriteCollection(data, path).ok());
  ASSERT_EQ(::truncate(path.c_str(), 16 + 9 * 16 * 4 + 7), 0);
  StatusOr<SeriesCollection> loaded = ReadCollection(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(FileIoHardeningTest, CorruptCountHeaderNeverSizesAnAllocation) {
  // A header claiming 2^32-1 series of length 2^31 would demand a ~2^64
  // byte allocation if trusted. The reader must reject it against the
  // actual file size (and guard the byte-size multiplication) before
  // allocating anything.
  std::vector<uint8_t> bytes;
  bytes.insert(bytes.end(), {'O', 'D', 'S', 'Y'});
  AppendU32(&bytes, 1);            // version
  AppendU32(&bytes, 0xFFFFFFFFu);  // count: absurd
  AppendU32(&bytes, 0x80000000u);  // length: absurd
  for (int i = 0; i < 8; ++i) AppendF32(&bytes, 1.0f);
  const std::string path = TempPath("corrupt_count.bin");
  WriteBytes(path, bytes);
  StatusOr<SeriesCollection> loaded = ReadCollection(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  // A plausible length but inflated count is also caught by the size check.
  bytes.clear();
  bytes.insert(bytes.end(), {'O', 'D', 'S', 'Y'});
  AppendU32(&bytes, 1);
  AppendU32(&bytes, 1000000);  // count: claims a million series
  AppendU32(&bytes, 4);        // length 4
  for (int i = 0; i < 8; ++i) AppendF32(&bytes, 1.0f);  // only 2 are present
  WriteBytes(path, bytes);
  loaded = ReadCollection(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(FileIoHardeningTest, BadMagicIsInvalidArgument) {
  const std::string path = TempPath("badmagic.bin");
  WriteBytes(path, std::vector<uint8_t>(16, 'x'));
  StatusOr<SeriesCollection> loaded = ReadCollection(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ------------------------------------------------------- fvecs and bvecs

TEST(VecsFormatTest, FvecsRoundTrip) {
  std::vector<uint8_t> bytes;
  constexpr uint32_t kDim = 8;
  constexpr size_t kCount = 5;
  for (size_t i = 0; i < kCount; ++i) {
    AppendU32(&bytes, kDim);
    for (uint32_t t = 0; t < kDim; ++t) {
      AppendF32(&bytes, static_cast<float>(i * 100 + t));
    }
  }
  const std::string path = TempPath("fixture.fvecs");
  WriteBytes(path, bytes);

  IngestOptions options;
  options.znormalize = false;
  StatusOr<SeriesIngestor> ingestor = SeriesIngestor::Open(path, options);
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  EXPECT_EQ(ingestor->format(), DataFormat::kFvecs);  // from the extension
  EXPECT_EQ(ingestor->length(), kDim);
  EXPECT_EQ(ingestor->total_series(), kCount);
  StatusOr<SeriesCollection> data = ingestor->ReadAll();
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->size(), kCount);
  for (size_t i = 0; i < kCount; ++i) {
    for (uint32_t t = 0; t < kDim; ++t) {
      ASSERT_EQ(data->data(i)[t], static_cast<float>(i * 100 + t));
    }
  }
  std::remove(path.c_str());
}

TEST(VecsFormatTest, FvecsRejectsMismatchedDimensionHeaderMidFile) {
  std::vector<uint8_t> bytes;
  AppendU32(&bytes, 4);
  for (int t = 0; t < 4; ++t) AppendF32(&bytes, 1.0f);
  // Second vector claims dimension 3 but occupies a 4-float record (total
  // size stays a multiple of the record size, so only the per-vector check
  // can catch it).
  AppendU32(&bytes, 3);
  for (int t = 0; t < 4; ++t) AppendF32(&bytes, 2.0f);
  const std::string path = TempPath("mismatch.fvecs");
  WriteBytes(path, bytes);
  IngestOptions options;
  options.znormalize = false;
  StatusOr<SeriesCollection> data = IngestFile(path, options);
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(VecsFormatTest, FvecsRejectsTrailingGarbageAndAbsurdDim) {
  const std::string path = TempPath("garbage.fvecs");
  std::vector<uint8_t> bytes;
  AppendU32(&bytes, 4);
  for (int t = 0; t < 4; ++t) AppendF32(&bytes, 1.0f);
  bytes.push_back(0xEE);  // size no longer a multiple of the record size
  WriteBytes(path, bytes);
  IngestOptions options;
  EXPECT_FALSE(IngestFile(path, options).ok());

  bytes.clear();
  AppendU32(&bytes, 0x7FFFFFFFu);  // absurd dimension header
  WriteBytes(path, bytes);
  EXPECT_FALSE(IngestFile(path, options).ok());
  std::remove(path.c_str());
}

TEST(VecsFormatTest, BvecsWidensBytesToFloats) {
  std::vector<uint8_t> bytes;
  constexpr uint32_t kDim = 6;
  for (size_t i = 0; i < 3; ++i) {
    AppendU32(&bytes, kDim);
    for (uint32_t t = 0; t < kDim; ++t) {
      bytes.push_back(static_cast<uint8_t>(10 * i + t));
    }
  }
  const std::string path = TempPath("fixture.bvecs");
  WriteBytes(path, bytes);
  IngestOptions options;
  options.znormalize = false;
  StatusOr<SeriesCollection> data = IngestFile(path, options);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ASSERT_EQ(data->size(), 3u);
  ASSERT_EQ(data->length(), kDim);
  for (size_t i = 0; i < 3; ++i) {
    for (uint32_t t = 0; t < kDim; ++t) {
      ASSERT_EQ(data->data(i)[t], static_cast<float>(10 * i + t));
    }
  }
  std::remove(path.c_str());
}

TEST(VecsFormatTest, WritersProduceIngestibleFiles) {
  SeriesCollection data(16);
  for (int i = 0; i < 12; ++i) {
    float row[16];
    for (int t = 0; t < 16; ++t) row[t] = static_cast<float>((i * 16 + t) % 251);
    data.Append(row);
  }
  const std::string fpath = TempPath("writer.fvecs");
  const std::string bpath = TempPath("writer.bvecs");
  ASSERT_TRUE(WriteFvecs(data, fpath).ok());
  ASSERT_TRUE(WriteBvecs(data, bpath).ok());
  IngestOptions options;
  options.znormalize = false;
  StatusOr<SeriesCollection> fdata = IngestFile(fpath, options);
  StatusOr<SeriesCollection> bdata = IngestFile(bpath, options);
  ASSERT_TRUE(fdata.ok());
  ASSERT_TRUE(bdata.ok());
  ExpectBitIdentical(*fdata, data);
  // The bvecs writer quantizes to bytes; these values are integral in
  // [0, 255], so the round trip is exact too.
  ExpectBitIdentical(*bdata, data);
  std::remove(fpath.c_str());
  std::remove(bpath.c_str());
}

// ----------------------------------- mmap vs. buffered, z-normalization

class IngestPathTest : public ::testing::TestWithParam<DataFormat> {};

/// Writes `data` as a `format` archive named `stem` plus the format's
/// extension (which DataFormat::kAuto detects) and sets the options the
/// format needs: raw floats carry no length. Returns the path, or an
/// empty string after a failed write.
std::string WriteFixture(DataFormat format, const SeriesCollection& data,
                         const std::string& stem, IngestOptions* options) {
  std::string path;
  Status written = Status::InvalidArgument("no writer for this format");
  switch (format) {
    case DataFormat::kRawFloat:
      path = TempPath(stem + ".raw");
      written = WriteRawFloats(data, path);
      options->length = data.length();
      break;
    case DataFormat::kFvecs:
      path = TempPath(stem + ".fvecs");
      written = WriteFvecs(data, path);
      break;
    case DataFormat::kBvecs:
      path = TempPath(stem + ".bvecs");
      written = WriteBvecs(data, path);
      break;
    case DataFormat::kOdyssey:
      path = TempPath(stem + ".bin");
      written = WriteCollection(data, path);
      break;
    case DataFormat::kAuto:
      break;
  }
  EXPECT_TRUE(written.ok()) << written.ToString();
  return written.ok() ? path : std::string();
}

TEST_P(IngestPathTest, MmapAndBufferedIngestAreBitIdentical) {
  const DataFormat format = GetParam();
  const SeriesCollection data = GenerateAstroLike(40, 64, 11);
  // Write the fixture un-normalized so z-normalize-on-ingest has work to do:
  // scale and shift every series.
  SeriesCollection raw(64);
  for (size_t i = 0; i < data.size(); ++i) {
    float row[64];
    for (size_t t = 0; t < 64; ++t) {
      row[t] = 100.0f + 20.0f * data.data(i)[t];
    }
    raw.Append(row);
  }
  IngestOptions options;
  options.znormalize = true;
  const std::string path = WriteFixture(format, raw, "paths", &options);
  ASSERT_FALSE(path.empty());

  StatusOr<SeriesIngestor> via_mmap = SeriesIngestor::Open(path, options);
  options.io_mode = MappedFile::Mode::kBuffered;
  StatusOr<SeriesIngestor> via_pread = SeriesIngestor::Open(path, options);
  ASSERT_TRUE(via_mmap.ok()) << via_mmap.status().ToString();
  ASSERT_TRUE(via_pread.ok()) << via_pread.status().ToString();
  EXPECT_EQ(via_mmap->using_mmap(), MmapExpected());
  EXPECT_FALSE(via_pread->using_mmap());

  StatusOr<SeriesCollection> a = via_mmap->ReadAll();
  StatusOr<SeriesCollection> b = via_pread->ReadAll();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectBitIdentical(*a, *b);

  // Z-normalize-on-ingest: every ingested series has mean ~0, stddev ~1.
  ASSERT_EQ(a->size(), raw.size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_NEAR(Mean(a->data(i), 64), 0.0, 1e-4) << i;
    EXPECT_NEAR(StdDev(a->data(i), 64), 1.0, 1e-3) << i;
  }
  std::remove(path.c_str());
}

// Seeded mutations of a valid archive (flipped bytes, truncations and
// overwritten 32-bit words, which also hit the fvecs/bvecs dimension
// headers and the ODSY header): every chunked read is Ok or a Status,
// never an abort, a throw or a bad_alloc. Both outcomes must occur, or the
// mutations missed the reader.
TEST_P(IngestPathTest, SeededMutationsReadOrFailCleanly) {
  IngestOptions options;
  options.chunk_size = 5;
  const std::string path = WriteFixture(
      GetParam(), GenerateAstroLike(24, 16, 13), "mutated", &options);
  ASSERT_FALSE(path.empty());
  const testing_utils::MutationOutcome outcome =
      testing_utils::RunSeededMutations(
          path, /*seed=*/0x1D5 + static_cast<uint64_t>(GetParam()),
          /*iterations=*/2000, [&options](const std::string& file) {
            StatusOr<SeriesIngestor> source =
                SeriesIngestor::Open(file, options);
            if (!source.ok()) return source.status();
            return source->ReadAll().status();
          });
  EXPECT_GT(outcome.ok, 0);
  EXPECT_GT(outcome.failed, 0);
}

// The ranged read is the one read path: any range of it equals the same
// rows of ReadAll, for every format, io mode and skip/max slice, also while
// four threads read interleaved ranges of one ingestor at once — and it
// never moves the cursor.
TEST_P(IngestPathTest, RangedReadEqualsReadAllAlsoConcurrently) {
  const SeriesCollection data = GenerateAstroLike(40, 64, 17);
  SeriesCollection raw(64);
  for (size_t i = 0; i < data.size(); ++i) {
    float row[64];
    for (size_t t = 0; t < 64; ++t) row[t] = 50.0f - 9.0f * data.data(i)[t];
    raw.Append(row);
  }
  IngestOptions options;
  const std::string path = WriteFixture(GetParam(), raw, "ranged", &options);
  ASSERT_FALSE(path.empty());
  const struct {
    size_t skip, max;
  } kSlices[] = {{0, 0}, {7, 0}, {3, 20}, {0, 11}};
  for (const MappedFile::Mode mode :
       {MappedFile::Mode::kAuto, MappedFile::Mode::kBuffered}) {
    for (const auto& slice : kSlices) {
      SCOPED_TRACE("skip=" + std::to_string(slice.skip) +
                   " max=" + std::to_string(slice.max) +
                   (mode == MappedFile::Mode::kBuffered ? " buffered" : ""));
      options.io_mode = mode;
      options.skip_series = slice.skip;
      options.max_series = slice.max;
      StatusOr<SeriesIngestor> whole = SeriesIngestor::Open(path, options);
      ASSERT_TRUE(whole.ok()) << whole.status().ToString();
      const StatusOr<SeriesCollection> want = whole->ReadAll();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      const size_t total = want->size();

      const StatusOr<SeriesIngestor> ranged =
          SeriesIngestor::Open(path, options);
      ASSERT_TRUE(ranged.ok()) << ranged.status().ToString();
      ASSERT_EQ(ranged->total_series(), total);
      SeriesCollection got(64);
      float* dst = got.AppendUninitialized(total);
      // Thread t reads ranges t, t + 4, ...; range r covers 1 + r % 3 rows.
      std::vector<std::pair<size_t, size_t>> ranges;
      for (size_t begin = 0; begin < total;) {
        const size_t count = std::min<size_t>(1 + ranges.size() % 3,
                                              total - begin);
        ranges.emplace_back(begin, count);
        begin += count;
      }
      std::vector<Status> failures(4, Status::Ok());
      std::vector<std::thread> readers;
      for (size_t t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
          for (size_t r = t; r < ranges.size(); r += 4) {
            const auto [begin, count] = ranges[r];
            Status read = ranged->ReadRange(begin, count, dst + begin * 64);
            if (!read.ok()) failures[t] = read;
          }
        });
      }
      for (std::thread& reader : readers) reader.join();
      for (const Status& failure : failures) {
        EXPECT_TRUE(failure.ok()) << failure.ToString();
      }
      ExpectBitIdentical(got, *want);
      EXPECT_EQ(ranged->series_read(), 0u);
      // Past the end is a Status, not a read out of bounds.
      float row[64];
      EXPECT_EQ(ranged->ReadRange(total, 1, row).code(),
                StatusCode::kOutOfRange);
      EXPECT_TRUE(ranged->ReadRange(total, 0, row).ok());
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllFormats, IngestPathTest,
                         ::testing::Values(DataFormat::kRawFloat,
                                           DataFormat::kFvecs,
                                           DataFormat::kBvecs,
                                           DataFormat::kOdyssey),
                         [](const auto& info) {
                           switch (info.param) {
                             case DataFormat::kRawFloat:
                               return std::string("RawFloat");
                             case DataFormat::kFvecs:
                               return std::string("Fvecs");
                             case DataFormat::kBvecs:
                               return std::string("Bvecs");
                             default:
                               return std::string("Odyssey");
                           }
                         });

// --------------------------------------------------------- chunked pulls

TEST(ChunkedIngestTest, ChunksConcatenateToReadAllAndBoundHeap) {
  const SeriesCollection data = GenerateSeismicLike(103, 32, 3);
  const std::string path = TempPath("chunked.raw");
  ASSERT_TRUE(WriteRawFloats(data, path).ok());

  IngestOptions options;
  options.length = 32;
  options.chunk_size = 16;
  StatusOr<SeriesIngestor> whole = SeriesIngestor::Open(path, options);
  ASSERT_TRUE(whole.ok());
  StatusOr<SeriesCollection> all = whole->ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 103u);

  StatusOr<SeriesIngestor> chunked = SeriesIngestor::Open(path, options);
  ASSERT_TRUE(chunked.ok());
  SeriesCollection joined(32);
  size_t chunks = 0;
  while (true) {
    StatusOr<SeriesCollection> chunk = chunked->NextChunk();
    ASSERT_TRUE(chunk.ok());
    if (chunk->empty()) break;
    ++chunks;
    EXPECT_LE(chunk->size(), options.chunk_size);
    // The acceptance bound: a chunk never owns more series heap than
    // chunk_size * length * sizeof(float).
    EXPECT_LE(chunk->MemoryBytes(),
              options.chunk_size * 32 * sizeof(float));
    for (size_t i = 0; i < chunk->size(); ++i) joined.Append(chunk->data(i));
  }
  EXPECT_EQ(chunks, (103 + 15) / 16u);
  EXPECT_TRUE(chunked->exhausted());
  ExpectBitIdentical(joined, *all);
  std::remove(path.c_str());
}

TEST(ChunkedIngestTest, SkipAndMaxSliceTheArchive) {
  const SeriesCollection data = GenerateRandomWalk(50, 16, 9);
  const std::string path = TempPath("slice.raw");
  ASSERT_TRUE(WriteRawFloats(data, path).ok());

  IngestOptions options;
  options.length = 16;
  options.znormalize = false;
  options.skip_series = 10;
  options.max_series = 20;
  StatusOr<SeriesCollection> slice = IngestFile(path, options);
  ASSERT_TRUE(slice.ok());
  ASSERT_EQ(slice->size(), 20u);
  for (size_t i = 0; i < 20; ++i) {
    for (size_t t = 0; t < 16; ++t) {
      ASSERT_EQ(slice->data(i)[t], data.data(10 + i)[t]);
    }
  }

  // Skipping past the end yields an empty (but valid) ingest.
  options.skip_series = 1000;
  StatusOr<SeriesIngestor> past = SeriesIngestor::Open(path, options);
  ASSERT_TRUE(past.ok());
  EXPECT_EQ(past->total_series(), 0u);
  std::remove(path.c_str());
}

// --------------------------------------------- registry ODYSSEY_DATA_DIR

// Runs only when the environment already provides ODYSSEY_DATA_DIR (CI
// generates a fixture set with `ingest_real_dataset --make-fixtures` and
// points the variable at it before invoking this suite): every archive the
// registry discovers must ingest cleanly, z-normalized, in every format
// the fixture set covers.
TEST(FileBackedRegistryTest, InheritedDataDirArchivesAllIngest) {
  if (std::getenv("ODYSSEY_DATA_DIR") == nullptr) {
    GTEST_SKIP() << "ODYSSEY_DATA_DIR not set; nothing to ingest";
  }
  size_t file_backed = 0;
  for (const DatasetSpec& spec : Table1Datasets(/*scale=*/0.001)) {
    if (!spec.file_backed()) continue;
    ++file_backed;
    SCOPED_TRACE(spec.name + " <- " + spec.source_path);
    StatusOr<SeriesCollection> data = spec.Load(/*seed=*/1);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    ASSERT_GT(data->size(), 0u);
    EXPECT_LE(data->size(), spec.count);
    EXPECT_EQ(data->length(), spec.length);
    for (size_t i = 0; i < data->size(); i += 17) {
      EXPECT_NEAR(Mean(data->data(i), data->length()), 0.0, 1e-4) << i;
      EXPECT_NEAR(StdDev(data->data(i), data->length()), 1.0, 1e-3) << i;
    }
    // The chunked pull path must agree with the one-shot load.
    StatusOr<SeriesIngestor> ingestor = spec.OpenIngestor(/*chunk_size=*/100);
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    SeriesCollection joined(spec.length);
    while (true) {
      StatusOr<SeriesCollection> chunk = ingestor->NextChunk();
      ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
      if (chunk->empty()) break;
      for (size_t i = 0; i < chunk->size(); ++i) joined.Append(chunk->data(i));
    }
    ExpectBitIdentical(joined, *data);
  }
  EXPECT_GT(file_backed, 0u)
      << "ODYSSEY_DATA_DIR is set but holds no recognizable archive";
}

TEST(FileBackedRegistryTest, DataDirSelectsRealFilesOverGenerators) {
  // Preserve any externally-provided data dir (the CI fixture run): this
  // test repoints the variable at its own directory and must restore it.
  const char* outer_env = std::getenv("ODYSSEY_DATA_DIR");
  const std::string outer = outer_env != nullptr ? outer_env : "";
  const std::string dir = TempPath("data_dir");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST, true);
  // 300 un-normalized series: enough to cover the minimum repro count at
  // the smallest scale (128), so Load caps at spec.count.
  SeriesCollection raw(256);
  {
    const SeriesCollection base = GenerateSeismicLike(300, 256, 21);
    for (size_t i = 0; i < base.size(); ++i) {
      float row[256];
      for (size_t t = 0; t < 256; ++t) row[t] = 5.0f + 3.0f * base.data(i)[t];
      raw.Append(row);
    }
  }
  const std::string file = dir + "/seismic.raw";
  ASSERT_TRUE(WriteRawFloats(raw, file).ok());
  ASSERT_EQ(::setenv("ODYSSEY_DATA_DIR", dir.c_str(), 1), 0);

  const StatusOr<DatasetSpec> spec = Table1Dataset("Seismic", 0.0001);
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec->file_backed());
  EXPECT_EQ(spec->source_path, file);
  EXPECT_EQ(spec->source_format, DataFormat::kRawFloat);
  EXPECT_EQ(FindDatasetFile("Seismic"), file);

  StatusOr<SeriesCollection> loaded = spec->Load(/*seed=*/1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), spec->count);  // sliced to the repro count
  EXPECT_EQ(loaded->length(), 256u);
  for (size_t i = 0; i < loaded->size(); ++i) {
    EXPECT_NEAR(Mean(loaded->data(i), 256), 0.0, 1e-4) << i;
    EXPECT_NEAR(StdDev(loaded->data(i), 256), 1.0, 1e-3) << i;
  }

  // Chunked access for streaming builds comes from the same spec.
  StatusOr<SeriesIngestor> ingestor = spec->OpenIngestor(/*chunk_size=*/64);
  ASSERT_TRUE(ingestor.ok());
  EXPECT_EQ(ingestor->total_series(), spec->count);

  ASSERT_EQ(::unsetenv("ODYSSEY_DATA_DIR"), 0);
  EXPECT_FALSE(Table1Dataset("Seismic", 0.0001)->file_backed());
  EXPECT_EQ(Table1Dataset("Seismic", 0.0001)
                ->OpenIngestor(64)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  std::remove(file.c_str());
  ::rmdir(dir.c_str());
  if (!outer.empty()) {
    ASSERT_EQ(::setenv("ODYSSEY_DATA_DIR", outer.c_str(), 1), 0);
  }
}

// -------------------------------------------- driver streaming build path

TEST(IngestAndBuildTest, StreamingBuildAnswersMatchInMemoryBuild) {
  // 600 series stream in as 5 chunks of at most 128. 513 series leave a
  // last chunk of one series, fewer than the two groups it is dealt to.
  for (const size_t count : {size_t{600}, size_t{513}}) {
    SCOPED_TRACE("series=" + std::to_string(count));
    const std::string path = TempPath("cluster.raw");
    {
      const SeriesCollection base = GenerateSeismicLike(count, 64, 17);
      SeriesCollection raw(64);
      for (size_t i = 0; i < base.size(); ++i) {
        float row[64];
        for (size_t t = 0; t < 64; ++t) {
          row[t] = 42.0f + 7.0f * base.data(i)[t];
        }
        raw.Append(row);
      }
      ASSERT_TRUE(WriteRawFloats(raw, path).ok());
    }

    IngestOptions options;
    options.length = 64;
    options.chunk_size = 128;

    OdysseyOptions cluster_options;
    cluster_options.num_nodes = 4;
    cluster_options.num_groups = 2;
    cluster_options.index_options.config = IsaxConfig(64, 16);
    cluster_options.build_threads_per_node = 2;
    cluster_options.query_options.num_threads = 2;

    // Reference: whole-archive ingest, in-memory constructor.
    StatusOr<SeriesCollection> all = IngestFile(path, options);
    ASSERT_TRUE(all.ok());
    OdysseyCluster reference(*all, cluster_options);

    const SeriesCollection queries = GenerateUniformQueries(*all, 8, 0.5, 23);
    const BatchReport a = reference.AnswerBatch(queries);

    // Streaming: the driver pulls bounded chunks and partitions on arrival.
    // Non-positive build widths clamp to one thread, as in the in-memory
    // constructor, instead of sizing a pool from a negative count.
    for (const int build_threads : {2, 0, -1}) {
      SCOPED_TRACE("build_threads_per_node=" + std::to_string(build_threads));
      cluster_options.build_threads_per_node = build_threads;
      StatusOr<SeriesIngestor> source = SeriesIngestor::Open(path, options);
      ASSERT_TRUE(source.ok());
      StatusOr<std::unique_ptr<OdysseyCluster>> streamed =
          OdysseyCluster::IngestAndBuild(*source, cluster_options);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      EXPECT_EQ((*streamed)->num_nodes(), 4);

      const BatchReport b = (*streamed)->AnswerBatch(queries);
      ASSERT_EQ(a.answers.size(), b.answers.size());
      // Exact search over the same global collection: answers must agree
      // even though the streamed partitioning differs from the global one.
      for (size_t q = 0; q < a.answers.size(); ++q) {
        ASSERT_EQ(a.answers[q].size(), b.answers[q].size()) << q;
        for (size_t k = 0; k < a.answers[q].size(); ++k) {
          EXPECT_EQ(a.answers[q][k].id, b.answers[q][k].id) << q;
          EXPECT_EQ(a.answers[q][k].squared_distance,
                    b.answers[q][k].squared_distance)
              << q;
        }
      }
    }
    std::remove(path.c_str());
  }
}

// A bad per-record dimension header fails the streaming build with the
// sequential reader's InvalidArgument naming that record, on the map and on
// the pread fallback, wherever the record sits: the second record, the
// middle of a chunk, the last record. Of two bad records the lower is
// named, although the parallel readers may meet the higher first.
TEST(IngestAndBuildTest, BadRecordHeaderIsTheReadersStatus) {
  constexpr size_t kRecords = 50;
  const SeriesCollection data = GenerateRandomWalk(kRecords, 16, 19);
  OdysseyOptions cluster_options;
  cluster_options.num_nodes = 4;
  cluster_options.num_groups = 2;
  cluster_options.index_options.config = IsaxConfig(16, 4);
  cluster_options.build_threads_per_node = 2;
  for (const DataFormat format : {DataFormat::kFvecs, DataFormat::kBvecs}) {
    const bool fvecs = format == DataFormat::kFvecs;
    const long record = 4 + 16 * (fvecs ? 4 : 1);
    for (const std::vector<size_t>& bad :
         std::vector<std::vector<size_t>>{{1}, {20}, {49}, {20, 49}}) {
      const std::string path =
          TempPath(std::string("bad_header.") + (fvecs ? "fvecs" : "bvecs"));
      ASSERT_TRUE((fvecs ? WriteFvecs(data, path) : WriteBvecs(data, path))
                      .ok());
      {
        std::FILE* f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        for (const size_t r : bad) {
          ASSERT_EQ(std::fseek(f, static_cast<long>(r) * record, SEEK_SET), 0);
          const int32_t bad_dim = 17;
          ASSERT_EQ(std::fwrite(&bad_dim, sizeof(bad_dim), 1, f), 1u);
        }
        ASSERT_EQ(std::fclose(f), 0);
      }
      for (const MappedFile::Mode mode :
           {MappedFile::Mode::kAuto, MappedFile::Mode::kBuffered}) {
        SCOPED_TRACE(std::string(fvecs ? "fvecs" : "bvecs") + " record " +
                     std::to_string(bad[0]) +
                     (mode == MappedFile::Mode::kBuffered ? " buffered" : ""));
        IngestOptions options;
        options.format = format;
        options.chunk_size = 8;  // record 20 sits inside the third chunk
        options.io_mode = mode;
        StatusOr<SeriesIngestor> sequential =
            SeriesIngestor::Open(path, options);
        ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
        const Status want = sequential->ReadAll().status();
        ASSERT_EQ(want.code(), StatusCode::kInvalidArgument);
        EXPECT_NE(want.message().find("vector " + std::to_string(bad[0]) +
                                      " has dimension 17"),
                  std::string::npos)
            << want.ToString();

        StatusOr<SeriesIngestor> source = SeriesIngestor::Open(path, options);
        ASSERT_TRUE(source.ok()) << source.status().ToString();
        const StatusOr<std::unique_ptr<OdysseyCluster>> cluster =
            OdysseyCluster::IngestAndBuild(*source, cluster_options);
        ASSERT_FALSE(cluster.ok());
        EXPECT_EQ(cluster.status().ToString(), want.ToString());
      }
      std::remove(path.c_str());
    }
  }
}

TEST(IngestAndBuildTest, LengthMismatchAndEmptyArchiveAreStatusErrors) {
  const std::string path = TempPath("mismatch.raw");
  ASSERT_TRUE(WriteRawFloats(GenerateRandomWalk(32, 64, 1), path).ok());
  IngestOptions options;
  options.length = 64;
  OdysseyOptions cluster_options;
  cluster_options.num_nodes = 2;
  cluster_options.num_groups = 1;
  cluster_options.index_options.config = IsaxConfig(128, 16);  // wrong length
  StatusOr<SeriesIngestor> source = SeriesIngestor::Open(path, options);
  ASSERT_TRUE(source.ok());
  StatusOr<std::unique_ptr<OdysseyCluster>> cluster =
      OdysseyCluster::IngestAndBuild(*source, cluster_options);
  ASSERT_FALSE(cluster.ok());
  EXPECT_EQ(cluster.status().code(), StatusCode::kInvalidArgument);

  const std::string empty_path = TempPath("empty.raw");
  WriteBytes(empty_path, {});
  cluster_options.index_options.config = IsaxConfig(64, 16);
  StatusOr<SeriesIngestor> empty = SeriesIngestor::Open(empty_path, options);
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(OdysseyCluster::IngestAndBuild(*empty, cluster_options).ok());

  // One series cannot fill two groups: a Status, before any node is built.
  const std::string single_path = TempPath("single.raw");
  ASSERT_TRUE(WriteRawFloats(GenerateRandomWalk(1, 64, 2), single_path).ok());
  cluster_options.num_groups = 2;
  StatusOr<SeriesIngestor> single = SeriesIngestor::Open(single_path, options);
  ASSERT_TRUE(single.ok());
  cluster = OdysseyCluster::IngestAndBuild(*single, cluster_options);
  ASSERT_FALSE(cluster.ok());
  EXPECT_EQ(cluster.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
  std::remove(empty_path.c_str());
  std::remove(single_path.c_str());
}

}  // namespace
}  // namespace odyssey
