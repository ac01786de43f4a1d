#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "src/common/rng.h"
#include "src/dataset/generators.h"
#include "src/distance/dtw.h"
#include "src/distance/euclidean.h"
#include "src/distance/lb_keogh.h"
#include "src/distance/simd.h"
#include "src/isax/isax_word.h"
#include "tests/testing_utils.h"

namespace odyssey {
namespace {

using testing_utils::NearlyEqual;

std::vector<float> RandomSeries(Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->NextGaussian());
  return v;
}

// ------------------------------------------------------------- Euclidean

class EuclideanLengthTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EuclideanLengthTest, DispatchedMatchesScalar) {
  const size_t n = GetParam();
  Rng rng(n * 7 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<float> a = RandomSeries(&rng, n);
    const std::vector<float> b = RandomSeries(&rng, n);
    const float simd = SquaredEuclidean(a.data(), b.data(), n);
    const float scalar = SquaredEuclideanScalar(a.data(), b.data(), n);
    EXPECT_TRUE(NearlyEqual(simd, scalar)) << simd << " vs " << scalar;
  }
}

TEST_P(EuclideanLengthTest, EarlyAbandonExactBelowThreshold) {
  const size_t n = GetParam();
  Rng rng(n * 13 + 1);
  const std::vector<float> a = RandomSeries(&rng, n);
  const std::vector<float> b = RandomSeries(&rng, n);
  const float exact = SquaredEuclideanScalar(a.data(), b.data(), n);
  const float got = SquaredEuclideanEarlyAbandon(
      a.data(), b.data(), n, exact * 2.0f + 1.0f);
  EXPECT_TRUE(NearlyEqual(got, exact));
}

TEST_P(EuclideanLengthTest, EarlyAbandonReturnsAtLeastThresholdWhenCrossed) {
  const size_t n = GetParam();
  Rng rng(n * 17 + 1);
  const std::vector<float> a = RandomSeries(&rng, n);
  const std::vector<float> b = RandomSeries(&rng, n);
  const float exact = SquaredEuclideanScalar(a.data(), b.data(), n);
  if (exact <= 0.0f) return;
  const float threshold = exact / 2.0f;
  const float got =
      SquaredEuclideanEarlyAbandon(a.data(), b.data(), n, threshold);
  EXPECT_GE(got * (1.0f + 1e-4f), threshold);
}

INSTANTIATE_TEST_SUITE_P(Lengths, EuclideanLengthTest,
                         ::testing::Values(1, 3, 8, 15, 16, 17, 31, 32, 96,
                                           100, 128, 200, 256));

TEST(EuclideanTest, ZeroForIdenticalSeries) {
  Rng rng(1);
  const std::vector<float> a = RandomSeries(&rng, 64);
  EXPECT_EQ(SquaredEuclidean(a.data(), a.data(), 64), 0.0f);
}

TEST(EuclideanTest, KnownValue) {
  const float a[] = {0, 0, 0, 0};
  const float b[] = {1, 2, 3, 4};
  EXPECT_FLOAT_EQ(SquaredEuclidean(a, b, 4), 30.0f);
}

TEST(EuclideanTest, ScalarEarlyAbandonMatchesSimdVariant) {
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 64;
    const std::vector<float> a = RandomSeries(&rng, n);
    const std::vector<float> b = RandomSeries(&rng, n);
    const float threshold = static_cast<float>(rng.NextDouble() * 200.0);
    const float s =
        SquaredEuclideanEarlyAbandonScalar(a.data(), b.data(), n, threshold);
    const float v =
        SquaredEuclideanEarlyAbandon(a.data(), b.data(), n, threshold);
    // Both must agree on whether the threshold was crossed, and on the exact
    // value when it was not.
    EXPECT_EQ(s >= threshold, v * (1 + 1e-5f) >= threshold * (1 - 1e-5f))
        << s << " " << v << " thr " << threshold;
    if (s < threshold) {
      EXPECT_TRUE(NearlyEqual(s, v));
    }
  }
}

// ------------------------------------------------------------------- DTW

TEST(DtwTest, WindowZeroEqualsEuclidean) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<float> a = RandomSeries(&rng, 50);
    const std::vector<float> b = RandomSeries(&rng, 50);
    EXPECT_TRUE(NearlyEqual(SquaredDtw(a.data(), b.data(), 50, 0),
                            SquaredEuclideanScalar(a.data(), b.data(), 50)));
  }
}

TEST(DtwTest, NeverExceedsEuclidean) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const std::vector<float> a = RandomSeries(&rng, 40);
    const std::vector<float> b = RandomSeries(&rng, 40);
    const float ed = SquaredEuclideanScalar(a.data(), b.data(), 40);
    for (size_t w : {1u, 2u, 5u, 39u}) {
      EXPECT_LE(SquaredDtw(a.data(), b.data(), 40, w), ed * (1 + 1e-5f));
    }
  }
}

TEST(DtwTest, MonotoneNonIncreasingInWindow) {
  Rng rng(7);
  const std::vector<float> a = RandomSeries(&rng, 60);
  const std::vector<float> b = RandomSeries(&rng, 60);
  float prev = SquaredDtw(a.data(), b.data(), 60, 0);
  for (size_t w = 1; w <= 10; ++w) {
    const float cur = SquaredDtw(a.data(), b.data(), 60, w);
    EXPECT_LE(cur, prev * (1 + 1e-5f)) << "w=" << w;
    prev = cur;
  }
}

TEST(DtwTest, Symmetric) {
  Rng rng(9);
  const std::vector<float> a = RandomSeries(&rng, 32);
  const std::vector<float> b = RandomSeries(&rng, 32);
  EXPECT_TRUE(NearlyEqual(SquaredDtw(a.data(), b.data(), 32, 4),
                          SquaredDtw(b.data(), a.data(), 32, 4)));
}

TEST(DtwTest, ZeroForIdenticalSeries) {
  Rng rng(11);
  const std::vector<float> a = RandomSeries(&rng, 32);
  EXPECT_EQ(SquaredDtw(a.data(), a.data(), 32, 3), 0.0f);
}

TEST(DtwTest, AlignsShiftedSeries) {
  // A one-step shifted copy should be nearly free under warping but
  // expensive under ED.
  const size_t n = 64;
  std::vector<float> a(n), b(n);
  for (size_t t = 0; t < n; ++t) {
    a[t] = std::sin(0.3 * static_cast<double>(t));
    b[t] = std::sin(0.3 * static_cast<double>(t + 1));
  }
  const float ed = SquaredEuclideanScalar(a.data(), b.data(), n);
  const float dtw = SquaredDtw(a.data(), b.data(), n, 3);
  EXPECT_LT(dtw, ed * 0.2f);
}

TEST(DtwTest, EarlyAbandonExactBelowThreshold) {
  Rng rng(13);
  const std::vector<float> a = RandomSeries(&rng, 48);
  const std::vector<float> b = RandomSeries(&rng, 48);
  const float exact = SquaredDtw(a.data(), b.data(), 48, 5);
  EXPECT_TRUE(NearlyEqual(
      SquaredDtwEarlyAbandon(a.data(), b.data(), 48, 5, exact * 2 + 1),
      exact));
  if (exact > 0) {
    EXPECT_GE(
        SquaredDtwEarlyAbandon(a.data(), b.data(), 48, 5, exact / 2) *
            (1 + 1e-5f),
        exact / 2);
  }
}

// Textbook Sakoe-Chiba DTW: the full (n+1) x (n+1) cost matrix in double
// precision, cells outside |i - j| <= window left at +inf. Shares no code
// with the library's rolling-row DP.
double TextbookSquaredDtw(const std::vector<float>& a,
                          const std::vector<float>& b, size_t window) {
  const size_t n = a.size();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> d(n + 1, std::vector<double>(n + 1, inf));
  d[0][0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= n; ++j) {
      if ((i > j ? i - j : j - i) > window) continue;
      const double diff = static_cast<double>(a[i - 1]) - b[j - 1];
      d[i][j] = diff * diff +
                std::min({d[i - 1][j], d[i][j - 1], d[i - 1][j - 1]});
    }
  }
  return d[n][n];
}

TEST(DtwTest, MatchesTextbookBandedDp) {
  Rng rng(15);
  for (size_t n : {1u, 2u, 3u, 17u, 64u, 256u}) {
    const size_t five_percent = static_cast<size_t>(std::ceil(0.05 * n));
    for (size_t window : {size_t{0}, size_t{1}, five_percent, n / 4, n - 1,
                          n + 5}) {
      for (int trial = 0; trial < 4; ++trial) {
        const std::vector<float> a = RandomSeries(&rng, n);
        const std::vector<float> b = RandomSeries(&rng, n);
        const double expected = TextbookSquaredDtw(a, b, window);
        const double tolerance = 1e-5 * expected;
        const float got = SquaredDtw(a.data(), b.data(), n, window);
        EXPECT_NEAR(got, expected, tolerance)
            << "n=" << n << " window=" << window << " trial=" << trial;
        const float above = static_cast<float>(expected * 2 + 1);
        EXPECT_NEAR(SquaredDtwEarlyAbandon(a.data(), b.data(), n, window,
                                           above),
                    expected, tolerance)
            << "n=" << n << " window=" << window << " trial=" << trial;
        const float below = static_cast<float>(expected / 2);
        EXPECT_GE(SquaredDtwEarlyAbandon(a.data(), b.data(), n, window,
                                         below),
                  below)
            << "n=" << n << " window=" << window << " trial=" << trial;
      }
    }
  }
}

TEST(DtwTest, WarpingWindowFromFraction) {
  EXPECT_EQ(WarpingWindowFromFraction(256, 0.0), 0u);
  EXPECT_EQ(WarpingWindowFromFraction(256, 0.05), 13u);  // ceil(12.8)
  EXPECT_EQ(WarpingWindowFromFraction(100, 0.001), 1u);  // min 1
  EXPECT_EQ(WarpingWindowFromFraction(100, 0.15), 15u);
}

// -------------------------------------------------------------- LB_Keogh

TEST(LbKeoghTest, EnvelopeMatchesBruteForce) {
  Rng rng(15);
  const std::vector<float> q = RandomSeries(&rng, 40);
  for (size_t w : {0u, 1u, 3u, 10u, 39u, 100u}) {
    const Envelope env = BuildEnvelope(q.data(), q.size(), w);
    for (size_t i = 0; i < q.size(); ++i) {
      const size_t lo = (i >= w) ? i - w : 0;
      const size_t hi = std::min(q.size() - 1, i + w);
      float mx = -1e30f, mn = 1e30f;
      for (size_t j = lo; j <= hi; ++j) {
        mx = std::max(mx, q[j]);
        mn = std::min(mn, q[j]);
      }
      ASSERT_EQ(env.upper[i], mx) << "w=" << w << " i=" << i;
      ASSERT_EQ(env.lower[i], mn) << "w=" << w << " i=" << i;
    }
  }
}

TEST(LbKeoghTest, LowerBoundsDtw) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 48;
    const size_t w = 1 + rng.NextBounded(8);
    const std::vector<float> q = RandomSeries(&rng, n);
    const std::vector<float> c = RandomSeries(&rng, n);
    const Envelope env = BuildEnvelope(q.data(), n, w);
    const float lb = SquaredLbKeogh(env, c.data());
    const float dtw = SquaredDtw(q.data(), c.data(), n, w);
    EXPECT_LE(lb, dtw * (1 + 1e-5f) + 1e-6f)
        << "trial " << trial << " w=" << w;
  }
}

TEST(LbKeoghTest, ZeroWhenCandidateInsideEnvelope) {
  Rng rng(19);
  const std::vector<float> q = RandomSeries(&rng, 32);
  const Envelope env = BuildEnvelope(q.data(), 32, 2);
  // The query itself always lies inside its own envelope.
  EXPECT_EQ(SquaredLbKeogh(env, q.data()), 0.0f);
}

TEST(LbKeoghTest, EarlyAbandonConsistent) {
  Rng rng(21);
  const std::vector<float> q = RandomSeries(&rng, 32);
  const std::vector<float> c = RandomSeries(&rng, 32);
  const Envelope env = BuildEnvelope(q.data(), 32, 2);
  const float exact = SquaredLbKeogh(env, c.data());
  EXPECT_TRUE(NearlyEqual(
      SquaredLbKeoghEarlyAbandon(env, c.data(), exact * 2 + 1), exact));
  if (exact > 0) {
    EXPECT_GE(SquaredLbKeoghEarlyAbandon(env, c.data(), exact / 2),
              exact / 2 * (1 - 1e-5f));
  }
}

// Pipeline property: summary filter -> LB_Keogh -> DTW must be a chain of
// lower bounds on real data (the exactness invariant of the DTW extension).
TEST(LbKeoghTest, BoundChainOnRealisticData) {
  const SeriesCollection data = GenerateSeismicLike(100, 64, 23);
  const SeriesCollection queries = GenerateSeismicLike(5, 64, 29);
  const size_t w = WarpingWindowFromFraction(64, 0.05);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Envelope env = BuildEnvelope(queries.data(qi), 64, w);
    for (size_t i = 0; i < data.size(); ++i) {
      const float lb = SquaredLbKeogh(env, data.data(i));
      const float dtw = SquaredDtw(queries.data(qi), data.data(i), 64, w);
      ASSERT_LE(lb, dtw * (1 + 1e-5f) + 1e-6f);
    }
  }
}

// ----------------------------------------------------- SIMD kernel layer
// Property tests of the runtime-dispatched kernel tables against the scalar
// reference: every available vector ISA, every length in [1, 256] (covering
// all non-multiple-of-8/16 remainders), plus subnormal inputs.

std::vector<const simd::KernelTable*> VectorTables() {
  std::vector<const simd::KernelTable*> tables;
  if (simd::SseTable() != nullptr) tables.push_back(simd::SseTable());
  if (simd::Avx2Table() != nullptr) tables.push_back(simd::Avx2Table());
  return tables;
}

TEST(SimdKernelTest, ActiveTableIsBestAvailable) {
  const simd::KernelTable& active = simd::ActiveTable();
  EXPECT_EQ(&active, &simd::ActiveTable());  // stable across calls
  if (std::getenv("ODYSSEY_SIMD") == nullptr &&
      simd::Avx2Table() != nullptr) {
    EXPECT_EQ(active.isa, simd::Isa::kAvx2);
  }
}

TEST(SimdKernelTest, EuclideanMatchesScalarOnEveryLengthTo256) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(31);
    for (size_t n = 1; n <= 256; ++n) {
      const std::vector<float> a = RandomSeries(&rng, n);
      const std::vector<float> b = RandomSeries(&rng, n);
      const float want = scalar.squared_euclidean(a.data(), b.data(), n);
      const float got = table->squared_euclidean(a.data(), b.data(), n);
      ASSERT_TRUE(NearlyEqual(got, want))
          << simd::IsaName(table->isa) << " n=" << n << ": " << got << " vs "
          << want;
    }
  }
}

TEST(SimdKernelTest, EuclideanEarlyAbandonConsistentOnEveryLengthTo256) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(41);
    for (size_t n = 1; n <= 256; ++n) {
      const std::vector<float> a = RandomSeries(&rng, n);
      const std::vector<float> b = RandomSeries(&rng, n);
      const float exact = scalar.squared_euclidean(a.data(), b.data(), n);
      const float threshold =
          static_cast<float>(rng.NextDouble()) * 2.0f * (exact + 1.0f);
      const float got = table->squared_euclidean_early_abandon(
          a.data(), b.data(), n, threshold);
      // Away from the threshold boundary the contract is unambiguous:
      // exact value when clearly below, >= threshold when clearly above.
      if (exact < threshold * (1.0f - 1e-4f)) {
        ASSERT_TRUE(NearlyEqual(got, exact))
            << simd::IsaName(table->isa) << " n=" << n;
      } else if (exact > threshold * (1.0f + 1e-4f)) {
        ASSERT_GE(got * (1.0f + 1e-4f), threshold)
            << simd::IsaName(table->isa) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelTest, LbKeoghMatchesScalarOnEveryLengthTo256) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(51);
    for (size_t n = 1; n <= 256; ++n) {
      const std::vector<float> q = RandomSeries(&rng, n);
      const std::vector<float> c = RandomSeries(&rng, n);
      const size_t w = rng.NextBounded(n + 4);
      const Envelope env = BuildEnvelope(q.data(), n, w);
      const float want =
          scalar.lb_keogh(env.upper.data(), env.lower.data(), c.data(), n);
      const float got =
          table->lb_keogh(env.upper.data(), env.lower.data(), c.data(), n);
      ASSERT_TRUE(NearlyEqual(got, want))
          << simd::IsaName(table->isa) << " n=" << n << " w=" << w;
      const float exact_ea = table->lb_keogh_early_abandon(
          env.upper.data(), env.lower.data(), c.data(), n, want * 2.0f + 1.0f);
      ASSERT_TRUE(NearlyEqual(exact_ea, want))
          << simd::IsaName(table->isa) << " n=" << n;
      if (want > 0.0f) {
        ASSERT_GE(table->lb_keogh_early_abandon(env.upper.data(),
                                                env.lower.data(), c.data(), n,
                                                want / 2.0f) *
                      (1.0f + 1e-4f),
                  want / 2.0f)
            << simd::IsaName(table->isa) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelTest, AlignedFastPathBitIdenticalToUnaligned) {
  // The AVX2 kernels take an aligned-load fast path when every operand sits
  // on a 32-byte boundary and the length is a lane multiple. The fast path
  // keeps the generic loops' exact accumulation order, so the same values
  // at an aligned vs a misaligned address must give bit-identical results —
  // exact EQ, no tolerance (gated like the AVX2 paths themselves).
  const simd::KernelTable* avx2 = simd::Avx2Table();
  if (avx2 == nullptr) GTEST_SKIP() << "CPU/build lacks AVX2";
  Rng rng(61);
  // Over-aligned buffers, plus +1-float shadow copies of the same values
  // at deliberately misaligned addresses.
  constexpr size_t kMax = 256;
  auto aligned_buf = [](size_t n) {
    void* p = nullptr;
    ODYSSEY_CHECK(posix_memalign(&p, 64, (n + 8) * sizeof(float)) == 0);
    return static_cast<float*>(p);
  };
  float* a = aligned_buf(kMax);
  float* b = aligned_buf(kMax);
  float* c = aligned_buf(kMax);
  float* ua = aligned_buf(kMax) + 1;
  float* ub = aligned_buf(kMax) + 1;
  float* uc = aligned_buf(kMax) + 1;
  for (size_t n = 8; n <= kMax; n += 8) {
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.NextGaussian());
      b[i] = static_cast<float>(rng.NextGaussian());
      c[i] = static_cast<float>(rng.NextGaussian());
    }
    std::copy(a, a + n, ua);
    std::copy(b, b + n, ub);
    std::copy(c, c + n, uc);
    ASSERT_EQ(avx2->squared_euclidean(a, b, n),
              avx2->squared_euclidean(ua, ub, n))
        << "n=" << n;
    const float exact = avx2->squared_euclidean(a, b, n);
    for (float threshold : {exact * 0.25f, exact, exact * 4.0f + 1.0f}) {
      ASSERT_EQ(avx2->squared_euclidean_early_abandon(a, b, n, threshold),
                avx2->squared_euclidean_early_abandon(ua, ub, n, threshold))
          << "n=" << n << " threshold=" << threshold;
    }
    // LB_Keogh: a/b as the (not necessarily ordered) band edges is fine for
    // an identity check — the kernel only computes gaps against them.
    ASSERT_EQ(avx2->lb_keogh(a, b, c, n), avx2->lb_keogh(ua, ub, uc, n))
        << "n=" << n;
    const float lb = avx2->lb_keogh(a, b, c, n);
    for (float threshold : {lb * 0.25f, lb * 4.0f + 1.0f}) {
      ASSERT_EQ(avx2->lb_keogh_early_abandon(a, b, c, n, threshold),
                avx2->lb_keogh_early_abandon(ua, ub, uc, n, threshold))
          << "n=" << n << " threshold=" << threshold;
    }
  }
  std::free(a);
  std::free(b);
  std::free(c);
  std::free(ua - 1);
  std::free(ub - 1);
  std::free(uc - 1);
}

TEST(SimdKernelTest, PaaMatchesScalarOnEveryLengthTo256) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(91);
    for (size_t n = 1; n <= 256; ++n) {
      const std::vector<float> s = RandomSeries(&rng, n);
      // Segment counts spanning 1 point per segment up to one segment
      // total, including the non-dividing geometries.
      for (size_t segments :
           {size_t{1}, std::min<size_t>(n, 3), std::min<size_t>(n, 8),
            std::min<size_t>(n, 16), n}) {
        std::vector<double> want(segments), got(segments);
        scalar.paa(s.data(), n, static_cast<int>(segments), want.data());
        table->paa(s.data(), n, static_cast<int>(segments), got.data());
        for (size_t i = 0; i < segments; ++i) {
          ASSERT_TRUE(NearlyEqual(static_cast<float>(got[i]),
                                  static_cast<float>(want[i])))
              << simd::IsaName(table->isa) << " n=" << n
              << " segments=" << segments << " i=" << i << ": " << got[i]
              << " vs " << want[i];
        }
      }
    }
  }
}

TEST(SimdKernelTest, SaxSymbolsAgreeAcrossPaaKernels) {
  // The SAX word is quantized from the PAA; lane-striped accumulation may
  // move a mean by a few double ulps, which must not flip breakpoints on
  // generic data (a flip needs a mean within ~1 ulp of a quantile).
  const simd::KernelTable& scalar = simd::ScalarTable();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(93);
    for (size_t n : {8u, 64u, 100u, 256u}) {
      const IsaxConfig config(n, 8);
      for (int trial = 0; trial < 20; ++trial) {
        const std::vector<float> s = RandomSeries(&rng, n);
        std::vector<double> paa_scalar(8), paa_vector(8);
        scalar.paa(s.data(), n, 8, paa_scalar.data());
        table->paa(s.data(), n, 8, paa_vector.data());
        std::vector<uint8_t> sax_scalar(8), sax_vector(8);
        ComputeSaxFromPaa(paa_scalar.data(), config, sax_scalar.data());
        ComputeSaxFromPaa(paa_vector.data(), config, sax_vector.data());
        for (int i = 0; i < 8; ++i) {
          ASSERT_EQ(sax_scalar[i], sax_vector[i])
              << simd::IsaName(table->isa) << " n=" << n << " segment " << i;
        }
      }
    }
  }
}

TEST(SimdKernelTest, SubnormalInputsMatchScalar) {
  // ±subnormals and tiny normals: d*d underflows; all ISAs must agree (no
  // kernel sets FTZ/DAZ, so vector and scalar follow the same IEEE rules).
  const float specials[] = {0.0f,     1e-38f,  -1e-38f, 1e-41f, -1e-41f,
                            1e-44f,   -1e-44f, 1.5f,    -2.5f,  1e-30f,
                            -1e-30f};
  const size_t kNumSpecials = sizeof(specials) / sizeof(specials[0]);
  const simd::KernelTable& scalar = simd::ScalarTable();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(71);
    for (size_t n : {1u, 7u, 16u, 61u, 250u, 256u}) {
      std::vector<float> a(n), b(n);
      for (size_t i = 0; i < n; ++i) {
        a[i] = specials[rng.NextBounded(kNumSpecials)];
        b[i] = specials[rng.NextBounded(kNumSpecials)];
      }
      const float want = scalar.squared_euclidean(a.data(), b.data(), n);
      const float got = table->squared_euclidean(a.data(), b.data(), n);
      ASSERT_TRUE(NearlyEqual(got, want))
          << simd::IsaName(table->isa) << " n=" << n;
      const Envelope env = BuildEnvelope(a.data(), n, 2);
      ASSERT_TRUE(NearlyEqual(
          table->lb_keogh(env.upper.data(), env.lower.data(), b.data(), n),
          scalar.lb_keogh(env.upper.data(), env.lower.data(), b.data(), n)))
          << simd::IsaName(table->isa) << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, PublicEntryPointsUseActiveTable) {
  Rng rng(81);
  const std::vector<float> a = RandomSeries(&rng, 96);
  const std::vector<float> b = RandomSeries(&rng, 96);
  const simd::KernelTable& active = simd::ActiveTable();
  EXPECT_EQ(SquaredEuclidean(a.data(), b.data(), 96),
            active.squared_euclidean(a.data(), b.data(), 96));
  const Envelope env = BuildEnvelope(a.data(), 96, 5);
  EXPECT_EQ(SquaredLbKeogh(env, b.data()),
            active.lb_keogh(env.upper.data(), env.lower.data(), b.data(), 96));
  EXPECT_EQ(HasAvx2Kernels(), active.isa == simd::Isa::kAvx2);
}

// ------------------------------------------------ batched Euclidean kernel
// The batched kernel's contract: out[q] equals the per-query *scalar*
// early-abandon kernel bit for bit on every available tier (scalar
// included), across lengths, group sizes, subnormals and misaligned inputs.

std::vector<const simd::KernelTable*> AllTables() {
  std::vector<const simd::KernelTable*> tables{&simd::ScalarTable()};
  for (const simd::KernelTable* table : VectorTables()) tables.push_back(table);
  return tables;
}

uint32_t BitsOf(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

// Random points salted with the values FP kernels get wrong first: zeros of
// both signs and subnormals.
std::vector<float> SaltedSeries(size_t n, std::mt19937* rng) {
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::uniform_int_distribution<int> pick(0, 19);
  std::vector<float> out(n);
  for (size_t i = 0; i < n; ++i) {
    switch (pick(*rng)) {
      case 0: out[i] = 0.0f; break;
      case 1: out[i] = -0.0f; break;
      case 2: out[i] = 1e-42f; break;   // subnormal
      case 3: out[i] = -1e-42f; break;  // subnormal
      default: out[i] = dist(*rng);
    }
  }
  return out;
}

// Shifts `v` into a buffer whose payload starts one float past an
// allocation boundary, so any kernel silently assuming 16/32/64-byte
// alignment faults or misreads.
std::vector<float> MisalignedShadow(const std::vector<float>& v) {
  std::vector<float> shadow(v.size() + 1, 0.0f);
  std::memcpy(shadow.data() + 1, v.data(), v.size() * sizeof(float));
  return shadow;
}

// Threshold mix per lane: never abandon, abandon partway (half the exact
// distance), and 0.0, which freezes the lane after its first block.
float MixedThreshold(size_t q, float exact) {
  switch (q % 3) {
    case 0: return 1e30f;
    case 1: return 0.5f * exact;
    default: return 0.0f;
  }
}

TEST(BatchedKernelTest, EuclideanBitIdenticalToScalarPerQueryOnEveryTier) {
  constexpr size_t kLengths[] = {1,  2,  3,  5,   8,   15,  16,  17,  31, 32,
                                 33, 48, 63, 64,  65,  100, 127, 128, 129,
                                 192, 255, 256};
  constexpr size_t kGroupSizes[] = {1, 2, 3, 7, 16};
  std::mt19937 rng(20230701);
  const simd::KernelTable& scalar = simd::ScalarTable();
  for (size_t n : kLengths) {
    for (size_t q_count : kGroupSizes) {
      const size_t stride = simd::BatchStride(q_count);
      const std::vector<float> candidate = SaltedSeries(n, &rng);
      std::vector<std::vector<float>> queries;
      std::vector<float> block(n * stride, 0.0f);
      std::vector<float> thresholds(q_count);
      std::vector<float> want(q_count);
      for (size_t q = 0; q < q_count; ++q) {
        queries.push_back(SaltedSeries(n, &rng));
        for (size_t i = 0; i < n; ++i) block[i * stride + q] = queries[q][i];
        const float exact =
            scalar.squared_euclidean(queries[q].data(), candidate.data(), n);
        thresholds[q] = MixedThreshold(q, exact);
        want[q] = scalar.squared_euclidean_early_abandon(
            queries[q].data(), candidate.data(), n, thresholds[q]);
      }
      const std::vector<float> cand_shadow = MisalignedShadow(candidate);
      const std::vector<float> block_shadow = MisalignedShadow(block);
      for (const simd::KernelTable* table : AllTables()) {
        std::vector<float> out(q_count, -1.0f);
        table->batched_squared_euclidean_early_abandon(
            candidate.data(), block.data(), n, stride, q_count,
            thresholds.data(), out.data());
        for (size_t q = 0; q < q_count; ++q) {
          ASSERT_EQ(BitsOf(out[q]), BitsOf(want[q]))
              << simd::IsaName(table->isa) << " n=" << n << " Q=" << q_count
              << " q=" << q;
        }
        std::vector<float> out_shifted(q_count, -1.0f);
        table->batched_squared_euclidean_early_abandon(
            cand_shadow.data() + 1, block_shadow.data() + 1, n, stride,
            q_count, thresholds.data(), out_shifted.data());
        for (size_t q = 0; q < q_count; ++q) {
          ASSERT_EQ(BitsOf(out_shifted[q]), BitsOf(want[q]))
              << simd::IsaName(table->isa) << " misaligned n=" << n
              << " Q=" << q_count << " q=" << q;
        }
      }
    }
  }
}

TEST(BatchedKernelTest, EveryTableCarriesBatchedKernels) {
  for (const simd::KernelTable* table : AllTables()) {
    EXPECT_NE(table->batched_squared_euclidean_early_abandon, nullptr)
        << simd::IsaName(table->isa);
  }
  EXPECT_NE(simd::ActiveTable().batched_squared_euclidean_early_abandon,
            nullptr);
}

}  // namespace
}  // namespace odyssey
