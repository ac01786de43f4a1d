#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "src/common/math_utils.h"
#include "src/dataset/file_io.h"
#include "src/dataset/generators.h"
#include "src/dataset/registry.h"
#include "src/dataset/series_collection.h"
#include "src/dataset/workload.h"
#include "tests/testing_utils.h"

namespace odyssey {
namespace {

TEST(SeriesCollectionTest, AppendAndAccess) {
  SeriesCollection c(4);
  const float a[] = {1, 2, 3, 4};
  const float b[] = {5, 6, 7, 8};
  c.Append(a);
  c.Append(b);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.length(), 4u);
  EXPECT_EQ(c.data(0)[0], 1.0f);
  EXPECT_EQ(c.data(1)[3], 8.0f);
  EXPECT_EQ(c.view(1).length, 4u);
  EXPECT_EQ(c.view(1)[2], 7.0f);
}

TEST(SeriesCollectionTest, AppendUninitializedBulk) {
  SeriesCollection c(8);
  float* dst = c.AppendUninitialized(3);
  for (int i = 0; i < 24; ++i) dst[i] = static_cast<float>(i);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.data(2)[7], 23.0f);
}

TEST(SeriesCollectionTest, SubsetPreservesOrderAndContent) {
  SeriesCollection c(2);
  for (int i = 0; i < 10; ++i) {
    const float v[] = {static_cast<float>(i), static_cast<float>(-i)};
    c.Append(v);
  }
  const SeriesCollection sub = c.Subset({7, 1, 3});
  ASSERT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub.data(0)[0], 7.0f);
  EXPECT_EQ(sub.data(1)[0], 1.0f);
  EXPECT_EQ(sub.data(2)[1], -3.0f);
}

TEST(SeriesCollectionTest, StorageIs64ByteAligned) {
  SeriesCollection c(16);
  c.AppendUninitialized(4);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c.data(0)) % 64, 0u);
}

// ------------------------------------------------------------ Generators

class GeneratorTest
    : public ::testing::TestWithParam<
          SeriesCollection (*)(size_t, size_t, uint64_t)> {};

TEST_P(GeneratorTest, SeriesAreZNormalized) {
  const SeriesCollection data = GetParam()(64, 128, 7);
  ASSERT_EQ(data.size(), 64u);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(Mean(data.data(i), data.length()), 0.0, 1e-4) << i;
    EXPECT_NEAR(StdDev(data.data(i), data.length()), 1.0, 1e-3) << i;
  }
}

TEST_P(GeneratorTest, DeterministicForSeed) {
  const SeriesCollection a = GetParam()(16, 64, 42);
  const SeriesCollection b = GetParam()(16, 64, 42);
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t t = 0; t < a.length(); ++t) {
      ASSERT_EQ(a.data(i)[t], b.data(i)[t]);
    }
  }
}

TEST_P(GeneratorTest, SeedChangesOutput) {
  const SeriesCollection a = GetParam()(8, 64, 1);
  const SeriesCollection b = GetParam()(8, 64, 2);
  int same = 0;
  for (size_t t = 0; t < a.length(); ++t) same += (a.data(0)[t] == b.data(0)[t]);
  EXPECT_LT(same, 8);
}

SeriesCollection EmbeddingWrapper(size_t count, size_t length, uint64_t seed) {
  return GenerateEmbeddingLike(count, length, 16, seed);
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GeneratorTest,
    ::testing::Values(&GenerateRandomWalk, &GenerateSeismicLike,
                      &GenerateAstroLike, &EmbeddingWrapper,
                      &GenerateCrossModalLike),
    [](const auto& info) {
      switch (info.index) {
        case 0: return std::string("RandomWalk");
        case 1: return std::string("SeismicLike");
        case 2: return std::string("AstroLike");
        case 3: return std::string("EmbeddingLike");
        default: return std::string("CrossModalLike");
      }
    });

// -------------------------------------------------------------- Workload

TEST(WorkloadTest, GeneratesRequestedCountZNormalized) {
  const SeriesCollection data = GenerateRandomWalk(100, 96, 3);
  WorkloadOptions options;
  options.count = 25;
  const SeriesCollection queries = GenerateQueries(data, options);
  ASSERT_EQ(queries.size(), 25u);
  EXPECT_EQ(queries.length(), 96u);
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_NEAR(Mean(queries.data(q), 96), 0.0, 1e-4);
  }
}

TEST(WorkloadTest, ZeroNoiseQueriesMatchDatasetMembers) {
  const SeriesCollection data = GenerateRandomWalk(50, 64, 3);
  const SeriesCollection queries = GenerateUniformQueries(data, 10, 0.0, 9);
  // Every zero-noise query is a re-normalized copy of some member: its
  // nearest neighbor distance must be ~0.
  for (size_t q = 0; q < queries.size(); ++q) {
    float best = 1e30f;
    for (size_t i = 0; i < data.size(); ++i) {
      float sum = 0.0f;
      for (size_t t = 0; t < 64; ++t) {
        const float d = queries.data(q)[t] - data.data(i)[t];
        sum += d * d;
      }
      best = std::min(best, sum);
    }
    EXPECT_LT(best, 1e-6f);
  }
}

TEST(WorkloadTest, NoiseIncreasesNearestNeighborDistance) {
  const SeriesCollection data = GenerateRandomWalk(200, 64, 3);
  const SeriesCollection easy = GenerateUniformQueries(data, 10, 0.05, 9);
  const SeriesCollection hard = GenerateUniformQueries(data, 10, 3.0, 9);
  auto mean_nn = [&](const SeriesCollection& queries) {
    double total = 0.0;
    for (size_t q = 0; q < queries.size(); ++q) {
      float best = 1e30f;
      for (size_t i = 0; i < data.size(); ++i) {
        float sum = 0.0f;
        for (size_t t = 0; t < 64; ++t) {
          const float d = queries.data(q)[t] - data.data(i)[t];
          sum += d * d;
        }
        best = std::min(best, sum);
      }
      total += std::sqrt(best);
    }
    return total / queries.size();
  };
  EXPECT_LT(mean_nn(easy), mean_nn(hard));
}

TEST(WorkloadTest, UnrelatedFractionProducesQueries) {
  const SeriesCollection data = GenerateRandomWalk(50, 64, 3);
  WorkloadOptions options;
  options.count = 10;
  options.unrelated_fraction = 1.0;
  const SeriesCollection queries = GenerateQueries(data, options);
  EXPECT_EQ(queries.size(), 10u);
}

// --------------------------------------------------------------- File IO

TEST(FileIoTest, RoundTrip) {
  const SeriesCollection data = GenerateRandomWalk(20, 32, 5);
  const std::string path = testing_utils::TempPath("roundtrip.bin");
  ASSERT_TRUE(WriteCollection(data, path).ok());
  StatusOr<SeriesCollection> loaded = ReadCollection(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), data.size());
  ASSERT_EQ(loaded->length(), data.length());
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t t = 0; t < data.length(); ++t) {
      ASSERT_EQ(loaded->data(i)[t], data.data(i)[t]);
    }
  }
  std::remove(path.c_str());
}

TEST(FileIoTest, ReadMissingFileFails) {
  StatusOr<SeriesCollection> result =
      ReadCollection("/nonexistent/odyssey.bin");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(FileIoTest, ReadRejectsBadMagic) {
  const std::string path = testing_utils::TempPath("badmagic.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char garbage[16] = {'n', 'o', 'p', 'e'};
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);
  StatusOr<SeriesCollection> result = ReadCollection(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(FileIoTest, RawFloatsRoundTrip) {
  const SeriesCollection data = GenerateRandomWalk(6, 16, 5);
  const std::string path = testing_utils::TempPath("raw.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  for (size_t i = 0; i < data.size(); ++i) {
    std::fwrite(data.data(i), sizeof(float), 16, f);
  }
  std::fclose(f);
  StatusOr<SeriesCollection> loaded = ReadRawFloats(path, 16);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 6u);
  EXPECT_EQ(loaded->data(3)[7], data.data(3)[7]);
  // A length that does not divide the file size is rejected.
  EXPECT_FALSE(ReadRawFloats(path, 17).ok());
  std::remove(path.c_str());
}

// --------------------------------------------------------------- Registry

TEST(RegistryTest, ContainsAllTable1Rows) {
  const auto specs = Table1Datasets();
  ASSERT_EQ(specs.size(), 6u);
  for (const char* name :
       {"Seismic", "Astro", "Deep", "Sift", "Yan-TtI", "Random"}) {
    bool found = false;
    for (const auto& spec : specs) found |= (spec.name == name);
    EXPECT_TRUE(found) << name;
  }
}

TEST(RegistryTest, SpecsMatchPaperLengths) {
  EXPECT_EQ(Table1Dataset("Seismic")->length, 256u);
  EXPECT_EQ(Table1Dataset("Deep")->length, 96u);
  EXPECT_EQ(Table1Dataset("Sift")->length, 128u);
  EXPECT_EQ(Table1Dataset("Yan-TtI")->length, 200u);
}

TEST(RegistryTest, UnknownNameIsNotFoundInEveryBuildMode) {
  const StatusOr<DatasetSpec> spec = Table1Dataset("NoSuchDataset");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, ScaleControlsCount) {
  const DatasetSpec small = *Table1Dataset("Random", 0.01);
  const DatasetSpec big = *Table1Dataset("Random", 0.1);
  EXPECT_LT(small.count, big.count);
  const SeriesCollection data = small.Generate(1);
  EXPECT_EQ(data.size(), small.count);
  EXPECT_EQ(data.length(), small.length);
}

}  // namespace
}  // namespace odyssey
