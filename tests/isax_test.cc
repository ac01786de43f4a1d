#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/dataset/generators.h"
#include "src/distance/dtw.h"
#include "src/distance/euclidean.h"
#include "src/distance/lb_keogh.h"
#include "src/index/builder.h"
#include "src/isax/breakpoints.h"
#include "src/isax/isax_word.h"
#include "src/isax/mindist.h"
#include "src/isax/paa.h"

namespace odyssey {
namespace {

// ----------------------------------------------------------- Breakpoints

TEST(InverseNormalCdfTest, KnownQuantiles) {
  EXPECT_NEAR(InverseNormalCdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(InverseNormalCdf(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(InverseNormalCdf(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(InverseNormalCdf(0.8413447), 1.0, 1e-5);
}

TEST(BreakpointTableTest, CountsAndOrdering) {
  const BreakpointTable& table = BreakpointTable::Get();
  for (int bits = 1; bits <= kMaxSaxBits; ++bits) {
    const auto& bps = table.ForBits(bits);
    ASSERT_EQ(bps.size(), (1u << bits) - 1) << "bits=" << bits;
    for (size_t i = 1; i < bps.size(); ++i) ASSERT_LT(bps[i - 1], bps[i]);
  }
}

TEST(BreakpointTableTest, SymmetricAroundZero) {
  const BreakpointTable& table = BreakpointTable::Get();
  for (int bits = 1; bits <= kMaxSaxBits; ++bits) {
    const auto& bps = table.ForBits(bits);
    const size_t n = bps.size();
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(bps[i], -bps[n - 1 - i], 1e-9);
    }
  }
}

TEST(BreakpointTableTest, NestingGivesPrefixProperty) {
  // The b-bit symbol of any value equals its (b+1)-bit symbol >> 1 — the
  // property the iSAX tree's cardinality refinement depends on.
  const BreakpointTable& table = BreakpointTable::Get();
  Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    const double v = rng.NextGaussian() * 1.5;
    const uint8_t full = table.MaxBitsSymbol(v);
    for (int bits = 1; bits < kMaxSaxBits; ++bits) {
      // Recompute the symbol at `bits` directly from that level's
      // breakpoints.
      const auto& bps = table.ForBits(bits);
      uint32_t direct = 0;
      while (direct < bps.size() && bps[direct] < v) ++direct;
      EXPECT_EQ(direct, static_cast<uint32_t>(full >> (kMaxSaxBits - bits)))
          << "v=" << v << " bits=" << bits;
    }
  }
}

TEST(BreakpointTableTest, RegionBoundsBracketSymbolValues) {
  const BreakpointTable& table = BreakpointTable::Get();
  Rng rng(5);
  for (int trial = 0; trial < 1000; ++trial) {
    const double v = rng.NextGaussian() * 2.0;
    for (int bits = 1; bits <= kMaxSaxBits; ++bits) {
      const uint32_t symbol = table.MaxBitsSymbol(v) >> (kMaxSaxBits - bits);
      EXPECT_GE(v, table.RegionLower(bits, symbol) - 1e-12);
      EXPECT_LE(v, table.RegionUpper(bits, symbol) + 1e-12);
    }
  }
}

// ------------------------------------------------------------------- PAA

TEST(PaaTest, SegmentBoundsPartitionTheSeries) {
  for (size_t length : {64u, 96u, 100u, 200u, 256u}) {
    for (int segments : {1, 4, 7, 16}) {
      if (static_cast<size_t>(segments) > length) continue;
      const PaaConfig config(length, segments);
      size_t covered = 0;
      for (int i = 0; i < segments; ++i) {
        EXPECT_EQ(config.SegmentBegin(i), covered);
        EXPECT_GE(config.SegmentCount(i), 1u);
        covered = config.SegmentEnd(i);
      }
      EXPECT_EQ(covered, length);
    }
  }
}

TEST(PaaTest, ConstantSeriesHasConstantPaa) {
  std::vector<float> series(100, 2.5f);
  const PaaConfig config(100, 8);
  const std::vector<double> paa = ComputePaa(series.data(), config);
  for (double v : paa) EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(PaaTest, MeansAreExact) {
  const float series[] = {1, 3, 5, 7, 2, 4, 6, 8};
  const PaaConfig config(8, 2);
  const std::vector<double> paa = ComputePaa(series, config);
  EXPECT_DOUBLE_EQ(paa[0], 4.0);
  EXPECT_DOUBLE_EQ(paa[1], 5.0);
}

TEST(PaaTest, PaaDistanceLowerBoundsEuclidean) {
  // sum_i n_i (paa_a[i] - paa_b[i])^2 <= squared ED — the Cauchy-Schwarz
  // backbone of every mindist in the library.
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 60;
    const PaaConfig config(n, 8);
    std::vector<float> a(n), b(n);
    for (auto& x : a) x = static_cast<float>(rng.NextGaussian());
    for (auto& x : b) x = static_cast<float>(rng.NextGaussian());
    const std::vector<double> pa = ComputePaa(a.data(), config);
    const std::vector<double> pb = ComputePaa(b.data(), config);
    double lb = 0.0;
    for (int i = 0; i < 8; ++i) {
      const double d = pa[i] - pb[i];
      lb += static_cast<double>(config.SegmentCount(i)) * d * d;
    }
    const double ed = SquaredEuclideanScalar(a.data(), b.data(), n);
    EXPECT_LE(lb, ed * (1 + 1e-6) + 1e-9);
  }
}

// ------------------------------------------------------------- IsaxWord

TEST(IsaxWordTest, ComputeSaxMatchesPerSegmentSymbols) {
  const IsaxConfig config(64, 8);
  const SeriesCollection data = GenerateRandomWalk(10, 64, 9);
  const BreakpointTable& table = BreakpointTable::Get();
  std::vector<uint8_t> sax(8);
  for (size_t i = 0; i < data.size(); ++i) {
    ComputeSax(data.data(i), config, sax.data());
    const std::vector<double> paa = ComputePaa(data.data(i), config.paa);
    for (int s = 0; s < 8; ++s) {
      EXPECT_EQ(sax[s], table.MaxBitsSymbol(paa[s]));
    }
  }
}

TEST(IsaxWordTest, RootWordAndKeyRoundTrip) {
  // kMaxSegments segments use every bit of the key.
  for (int segments : {8, kMaxSegments}) {
    const IsaxConfig config(64, segments);
    const uint32_t all_ones =
        static_cast<uint32_t>((uint64_t{1} << segments) - 1);
    for (uint32_t key : {0u, 1u, 37u, 128u, all_ones}) {
      const IsaxWord word = IsaxWord::Root(config, key);
      ASSERT_EQ(word.symbols.size(), static_cast<size_t>(segments));
      uint32_t rebuilt = 0;
      for (int i = 0; i < segments; ++i) {
        EXPECT_EQ(word.bits[i], 1);
        rebuilt = (rebuilt << 1) | word.symbols[i];
      }
      EXPECT_EQ(rebuilt, key) << "segments=" << segments;
    }
  }
}

TEST(IsaxWordTest, SeriesMatchesItsOwnRootWord) {
  const IsaxConfig config(64, 8);
  const SeriesCollection data = GenerateRandomWalk(50, 64, 11);
  std::vector<uint8_t> sax(8);
  for (size_t i = 0; i < data.size(); ++i) {
    ComputeSax(data.data(i), config, sax.data());
    const IsaxWord root = IsaxWord::Root(config, RootKey(sax.data(), config));
    EXPECT_TRUE(root.Matches(sax.data(), config));
  }
}

TEST(IsaxWordTest, ToStringShowsBits) {
  IsaxWord word;
  word.symbols = {1, 0, 3};
  word.bits = {1, 1, 2};
  EXPECT_EQ(word.ToString(), "1|0|11");
}

TEST(IsaxWordTest, MaxBitsBelowEight) {
  const IsaxConfig config(64, 8, /*bits=*/4);
  const SeriesCollection data = GenerateRandomWalk(20, 64, 13);
  std::vector<uint8_t> sax(8);
  for (size_t i = 0; i < data.size(); ++i) {
    ComputeSax(data.data(i), config, sax.data());
    for (int s = 0; s < 8; ++s) EXPECT_LT(sax[s], 16);  // 4-bit symbols
  }
}

// A root key holds one bit per segment in a uint32_t, so a 33rd segment
// must fail the config's check instead of wrapping every key.
TEST(IsaxConfigDeathTest, MoreSegmentsThanARootKeyHoldsAborts) {
  EXPECT_DEATH(IsaxConfig config(256, 33), "segments <= kMaxSegments");
}

// -------------------------------------------------------------- Mindist

class MindistPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(MindistPropertyTest, WordMindistLowerBoundsEuclidean) {
  const auto [length, segments] = GetParam();
  const IsaxConfig config(length, segments);
  const SeriesCollection data = GenerateRandomWalk(200, length, 17);
  const SeriesCollection queries = GenerateRandomWalk(10, length, 19);
  std::vector<uint8_t> sax(segments);
  Rng rng(21);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::vector<double> paa = ComputePaa(queries.data(qi), config.paa);
    for (size_t i = 0; i < data.size(); ++i) {
      ComputeSax(data.data(i), config, sax.data());
      const float ed =
          SquaredEuclideanScalar(queries.data(qi), data.data(i), length);
      // Full-cardinality summary bound.
      ASSERT_LE(MindistPaaToSax(paa.data(), sax.data(), config),
                ed * (1 + 1e-5f) + 1e-6f);
      // Variable-cardinality word bound, at random per-segment bit depths.
      IsaxWord word;
      word.symbols.resize(segments);
      word.bits.resize(segments);
      for (int s = 0; s < segments; ++s) {
        const int bits = 1 + static_cast<int>(rng.NextBounded(kMaxSaxBits));
        word.bits[s] = static_cast<uint8_t>(bits);
        word.symbols[s] =
            static_cast<uint8_t>(sax[s] >> (kMaxSaxBits - bits));
      }
      ASSERT_LE(MindistPaaToWord(paa.data(), word, config),
                ed * (1 + 1e-5f) + 1e-6f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MindistPropertyTest,
    ::testing::Values(std::make_tuple(64u, 8), std::make_tuple(96u, 16),
                      std::make_tuple(100u, 7), std::make_tuple(128u, 16),
                      std::make_tuple(200u, 16)));

TEST(MindistTest, SeriesAgainstOwnSummaryIsZero) {
  const IsaxConfig config(64, 8);
  const SeriesCollection data = GenerateRandomWalk(50, 64, 23);
  std::vector<uint8_t> sax(8);
  for (size_t i = 0; i < data.size(); ++i) {
    ComputeSax(data.data(i), config, sax.data());
    const std::vector<double> paa = ComputePaa(data.data(i), config.paa);
    EXPECT_EQ(MindistPaaToSax(paa.data(), sax.data(), config), 0.0f);
  }
}

TEST(MindistTest, TighterWithMoreBits) {
  // Refining a word can only increase (or keep) the lower bound.
  const IsaxConfig config(64, 8);
  const SeriesCollection data = GenerateRandomWalk(30, 64, 29);
  const SeriesCollection queries = GenerateRandomWalk(5, 64, 31);
  std::vector<uint8_t> sax(8);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::vector<double> paa = ComputePaa(queries.data(qi), config.paa);
    for (size_t i = 0; i < data.size(); ++i) {
      ComputeSax(data.data(i), config, sax.data());
      float prev = -1.0f;
      for (int bits = 1; bits <= kMaxSaxBits; ++bits) {
        IsaxWord word;
        word.symbols.resize(8);
        word.bits.assign(8, static_cast<uint8_t>(bits));
        for (int s = 0; s < 8; ++s) {
          word.symbols[s] =
              static_cast<uint8_t>(sax[s] >> (kMaxSaxBits - bits));
        }
        const float lb = MindistPaaToWord(paa.data(), word, config);
        ASSERT_GE(lb, prev - 1e-6f) << "bits=" << bits;
        prev = lb;
      }
    }
  }
}

TEST(MindistTest, EnvelopeMindistLowerBoundsDtw) {
  const IsaxConfig config(64, 8);
  const SeriesCollection data = GenerateSeismicLike(150, 64, 33);
  const SeriesCollection queries = GenerateSeismicLike(5, 64, 35);
  const size_t window = WarpingWindowFromFraction(64, 0.05);
  std::vector<uint8_t> sax(8);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Envelope env = BuildEnvelope(queries.data(qi), 64, window);
    const EnvelopePaa env_paa = ComputeEnvelopePaa(env, config);
    for (size_t i = 0; i < data.size(); ++i) {
      ComputeSax(data.data(i), config, sax.data());
      const float dtw =
          SquaredDtw(queries.data(qi), data.data(i), 64, window);
      ASSERT_LE(MindistEnvelopeToSax(env_paa, sax.data(), config),
                dtw * (1 + 1e-5f) + 1e-6f);
      const IsaxWord root =
          IsaxWord::Root(config, RootKey(sax.data(), config));
      ASSERT_LE(MindistEnvelopeToWord(env_paa, root, config),
                dtw * (1 + 1e-5f) + 1e-6f);
    }
  }
}

// The leaf scan's per-series filter reads SaxBoundTable instead of calling
// MindistPaaToSax / MindistEnvelopeToSax. Every pruning decision stays the
// same only if the two agree to the bit, so this compares the floats'
// bytes. It covers segment counts that do not divide the length (uneven
// segment weights), every symbol at every segment, query values exactly on
// breakpoints and beyond the outermost ones, and seeded random rows.
TEST(SaxBoundTableTest, BoundIsTheReferenceBitForBit) {
  const std::vector<double>& bps8 = BreakpointTable::Get().ForBits(8);
  Rng rng(0x5AB0);
  size_t compared = 0;
  for (size_t length : {7u, 64u, 100u, 256u, 257u}) {
    for (int segments : {1, 3, 8, 16, 32}) {
      if (static_cast<size_t>(segments) > length) continue;
      for (int bits : {1, 4, 8}) {
        const IsaxConfig config(length, segments, bits);
        const std::vector<double>& bps = BreakpointTable::Get().ForBits(bits);
        const uint32_t symbols = 1u << bits;
        // Candidate query values: Gaussian draws, this depth's and the
        // 8-bit depth's breakpoints, and values past the outermost ones.
        auto draw = [&] {
          switch (rng.NextBounded(4)) {
            case 0:
              return bps[rng.NextBounded(bps.size())];
            case 1:
              return bps8[rng.NextBounded(bps8.size())];
            case 2:
              return (rng.NextBounded(2) == 0 ? -1.0 : 1.0) *
                     (bps8.back() + 1.0 + 10.0 * rng.NextDouble());
            default:
              return 1.5 * rng.NextGaussian();
          }
        };
        std::vector<uint8_t> sax(segments);
        for (int query = 0; query < 4; ++query) {
          std::vector<double> paa(segments);
          EnvelopePaa env_paa;
          for (int i = 0; i < segments; ++i) {
            paa[i] = draw();
            const double a = draw();
            const double b = query == 0 ? a : draw();  // a zero-width band
            env_paa.lower.push_back(std::min(a, b));
            env_paa.upper.push_back(std::max(a, b));
          }
          const SaxBoundTable ed = SaxBoundTable::ForPaa(paa.data(), config);
          const SaxBoundTable dtw =
              SaxBoundTable::ForEnvelope(env_paa, config);
          auto expect_same = [&] {
            const float want_ed = MindistPaaToSax(paa.data(), sax.data(),
                                                  config);
            const float got_ed = ed.Bound(sax.data());
            const float want_dtw =
                MindistEnvelopeToSax(env_paa, sax.data(), config);
            const float got_dtw = dtw.Bound(sax.data());
            ASSERT_EQ(std::memcmp(&want_ed, &got_ed, sizeof(float)), 0)
                << "ED n=" << length << " w=" << segments << " bits=" << bits
                << ": " << want_ed << " vs " << got_ed;
            ASSERT_EQ(std::memcmp(&want_dtw, &got_dtw, sizeof(float)), 0)
                << "DTW n=" << length << " w=" << segments
                << " bits=" << bits << ": " << want_dtw << " vs " << got_dtw;
            compared += 2;
          };
          // Every symbol at every segment: row r puts symbol (r + 7i) mod
          // 2^bits at segment i.
          for (uint32_t r = 0; r < symbols; ++r) {
            for (int i = 0; i < segments; ++i) {
              sax[i] = static_cast<uint8_t>((r + 7u * i) % symbols);
            }
            expect_same();
            if (::testing::Test::HasFatalFailure()) return;
          }
          for (int row = 0; row < 64; ++row) {
            for (int i = 0; i < segments; ++i) {
              sax[i] = static_cast<uint8_t>(rng.NextBounded(symbols));
            }
            expect_same();
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 10000u);
}

// The traversal's node bound reads SaxBoundTable::WordBound instead of
// calling MindistPaaToWord / MindistEnvelopeToWord, so every node the
// traversal keeps or prunes stays the same only if the two agree to the
// bit. This compares the floats' bytes for words at every bit depth 1..
// max_bits with every symbol, for query values on the breakpoints, between
// them and beyond +-4, for DTW bands from windows 0, 5% and the full
// length, and for every node of a built index.
TEST(SaxBoundTableTest, WordBoundIsTheReferenceBitForBit) {
  const std::vector<double>& bps8 = BreakpointTable::Get().ForBits(8);
  // Query values: every 8-bit breakpoint, the midpoint of every pair of
  // neighbours, and values past the outermost ones.
  std::vector<double> values(bps8.begin(), bps8.end());
  for (size_t j = 1; j < bps8.size(); ++j) {
    values.push_back(0.5 * (bps8[j - 1] + bps8[j]));
  }
  for (double far : {4.0, 4.5, 7.0, 1e6}) {
    values.push_back(far);
    values.push_back(-far);
  }
  Rng rng(0x3057);
  auto draw = [&] { return values[rng.NextBounded(values.size())]; };
  size_t compared = 0;
  auto expect_same = [&compared](float want, float got, const char* what,
                                 const IsaxWord& word) {
    ASSERT_EQ(std::memcmp(&want, &got, sizeof(float)), 0)
        << what << " word " << word.ToString() << ": " << want << " vs "
        << got;
    ++compared;
  };
  for (size_t length : {64u, 100u, 256u}) {
    for (int segments : {1, 3, 8, 16}) {
      for (int max_bits : {1, 2, 5, 8}) {
        const IsaxConfig config(length, segments, max_bits);
        // DTW bands: the envelopes of a random walk, scaled by 3 so that
        // some segment means leave +-4, at windows 0, 5% and the full
        // length; then a band whose edges are drawn values.
        const SeriesCollection walk = GenerateRandomWalk(1, length, 7);
        std::vector<float> series(walk.data(0), walk.data(0) + length);
        for (float& x : series) x *= 3.0f;
        std::vector<EnvelopePaa> bands;
        for (size_t window : {size_t{0},
                              WarpingWindowFromFraction(length, 0.05),
                              length}) {
          bands.push_back(ComputeEnvelopePaa(
              BuildEnvelope(series.data(), length, window), config));
        }
        EnvelopePaa drawn;
        for (int i = 0; i < segments; ++i) {
          const double a = draw();
          const double b = draw();
          drawn.lower.push_back(std::min(a, b));
          drawn.upper.push_back(std::max(a, b));
        }
        bands.push_back(drawn);
        for (size_t query = 0; query < bands.size(); ++query) {
          std::vector<double> paa(segments);
          for (double& v : paa) v = draw();
          const SaxBoundTable ed = SaxBoundTable::ForPaa(paa.data(), config);
          const SaxBoundTable dtw =
              SaxBoundTable::ForEnvelope(bands[query], config);
          auto check = [&](const IsaxWord& word) {
            expect_same(MindistPaaToWord(paa.data(), word, config),
                        ed.WordBound(word), "ED", word);
            expect_same(MindistEnvelopeToWord(bands[query], word, config),
                        dtw.WordBound(word), "DTW", word);
          };
          IsaxWord word;
          word.symbols.resize(segments);
          word.bits.resize(segments);
          // Every symbol at every depth: word r puts symbol (r + 7i) mod
          // 2^bits at segment i.
          for (int bits = 1; bits <= max_bits; ++bits) {
            const uint32_t symbols = 1u << bits;
            word.bits.assign(segments, static_cast<uint8_t>(bits));
            for (uint32_t r = 0; r < symbols; ++r) {
              for (int i = 0; i < segments; ++i) {
                word.symbols[i] = static_cast<uint8_t>((r + 7u * i) % symbols);
              }
              check(word);
              if (::testing::Test::HasFatalFailure()) return;
            }
          }
          // Mixed depths, as tree nodes have them.
          for (int w = 0; w < 64; ++w) {
            for (int i = 0; i < segments; ++i) {
              word.bits[i] =
                  static_cast<uint8_t>(1 + rng.NextBounded(max_bits));
              word.symbols[i] =
                  static_cast<uint8_t>(rng.NextBounded(1u << word.bits[i]));
            }
            check(word);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
  // Every node of a built index, against random-walk queries.
  IndexOptions options;
  options.config = IsaxConfig(64, 8);
  options.leaf_capacity = 8;
  const SeriesCollection data = GenerateRandomWalk(3000, 64, 0x3058);
  const Index index = Index::Build(SeriesCollection(data), options);
  const SeriesCollection queries = GenerateRandomWalk(3, 64, 0x3059);
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<double> paa =
        ComputePaa(queries.data(q), options.config.paa);
    const SaxBoundTable ed = SaxBoundTable::ForPaa(paa.data(), options.config);
    for (size_t window : {size_t{0}, WarpingWindowFromFraction(64, 0.05),
                          size_t{64}}) {
      const EnvelopePaa band = ComputeEnvelopePaa(
          BuildEnvelope(queries.data(q), 64, window), options.config);
      const SaxBoundTable dtw = SaxBoundTable::ForEnvelope(band, options.config);
      std::function<void(const TreeNode*)> visit = [&](const TreeNode* node) {
        const IsaxWord& word = node->word();
        expect_same(MindistPaaToWord(paa.data(), word, options.config),
                    ed.WordBound(word), "index ED", word);
        expect_same(MindistEnvelopeToWord(band, word, options.config),
                    dtw.WordBound(word), "index DTW", word);
        if (::testing::Test::HasFatalFailure() || node->is_leaf()) return;
        visit(node->left());
        visit(node->right());
      };
      for (size_t r = 0; r < index.tree().root_count(); ++r) {
        visit(index.tree().root(r));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(compared, 100000u);
}

}  // namespace
}  // namespace odyssey
