#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "src/common/gray_code.h"
#include "src/common/linear_regression.h"
#include "src/common/math_utils.h"
#include "src/common/nelder_mead.h"
#include "src/common/rng.h"
#include "src/common/sigmoid_fit.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"

namespace odyssey {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
        StatusCode::kInternal, StatusCode::kIoError}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, WorksWithMoveOnlyLikeTypes) {
  StatusOr<std::vector<int>> result(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(result.ok());
  std::vector<int> v = std::move(result).value();
  EXPECT_EQ(v.size(), 3u);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.NextU64() == b.NextU64());
  EXPECT_LT(equal, 3);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(17), 17u);
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, GaussianMomentsAreStandard) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

// ------------------------------------------------------------- MathUtils

TEST(MathUtilsTest, MeanAndStdDev) {
  const float v[] = {1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(Mean(v, 4), 2.5);
  EXPECT_NEAR(StdDev(v, 4), std::sqrt(1.25), 1e-9);
  EXPECT_DOUBLE_EQ(Mean(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(StdDev(v, 0), 0.0);
}

TEST(MathUtilsTest, ZNormalizeProducesZeroMeanUnitVar) {
  std::vector<float> v = {5.0f, 7.0f, 9.0f, 11.0f, 13.0f};
  ZNormalize(v.data(), v.size());
  EXPECT_NEAR(Mean(v.data(), v.size()), 0.0, 1e-6);
  EXPECT_NEAR(StdDev(v.data(), v.size()), 1.0, 1e-5);
}

TEST(MathUtilsTest, ZNormalizeConstantSeriesBecomesZero) {
  std::vector<float> v(16, 3.5f);
  ZNormalize(v.data(), v.size());
  for (float x : v) EXPECT_EQ(x, 0.0f);
}

// ZNormalize sums the mean once, yet writes exactly what the public Mean
// and StdDev give: (v - mean) * (1 / sd), or 0 for a constant row.
TEST(MathUtilsTest, ZNormalizeEqualsMeanAndStdDevBitForBit) {
  auto expect_reference = [](std::vector<float> row, const char* what) {
    const double mean = Mean(row.data(), row.size());
    const double sd = StdDev(row.data(), row.size());
    std::vector<float> want(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      want[i] = sd < 1e-12 ? 0.0f
                           : static_cast<float>((row[i] - mean) * (1.0 / sd));
    }
    ZNormalize(row.data(), row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      ASSERT_EQ(std::memcmp(&row[i], &want[i], sizeof(float)), 0)
          << what << " point " << i << ": " << row[i] << " vs " << want[i];
    }
  };
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.NextBounded(300);
    std::vector<float> walk(n);
    std::vector<float> shifted(n);
    double x = 0.0;
    for (size_t i = 0; i < n; ++i) {
      x += rng.NextGaussian();
      walk[i] = static_cast<float>(x);
      shifted[i] = static_cast<float>(1e6 + 1e3 * x);
    }
    expect_reference(walk, "random walk");
    expect_reference(shifted, "large offset");
  }
  expect_reference({42.0f}, "length 1");
  expect_reference(std::vector<float>(64, -3.25f), "constant");
  expect_reference(std::vector<float>(7, 1e9f), "constant, large");
}

TEST(MathUtilsTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(MathUtilsTest, PercentileEndpoints) {
  std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 25.0);
}

// ------------------------------------------------------------- GrayCode

TEST(GrayCodeTest, ConsecutiveCodewordsDifferInOneBit) {
  for (uint64_t i = 0; i + 1 < 4096; ++i) {
    const uint64_t diff = BinaryToGray(i) ^ BinaryToGray(i + 1);
    EXPECT_EQ(__builtin_popcountll(diff), 1) << "at i=" << i;
  }
}

TEST(GrayCodeTest, RankInvertsBinaryToGray) {
  for (uint64_t i = 0; i < 4096; ++i) {
    EXPECT_EQ(GrayRank(BinaryToGray(i)), i);
  }
  // And a few wide values.
  for (uint64_t i : {0xDEADBEEFULL, 0x123456789ABCDEFULL, ~0ULL >> 1}) {
    EXPECT_EQ(GrayRank(BinaryToGray(i)), i);
  }
}

TEST(GrayCodeTest, GrayOrderingNeighborsAreOneBitApart) {
  // Sorting keys by GrayRank must enumerate them in a 1-bit-step sequence.
  std::vector<uint64_t> keys(256);
  for (uint64_t k = 0; k < 256; ++k) keys[k] = k;
  std::sort(keys.begin(), keys.end(),
            [](uint64_t a, uint64_t b) { return GrayRank(a) < GrayRank(b); });
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    EXPECT_EQ(__builtin_popcountll(keys[i] ^ keys[i + 1]), 1);
  }
}

// ---------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.ParallelFor(0, [&](size_t, size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 1);
}

// --------------------------------------------------- LinearRegression

TEST(LinearRegressionTest, RecoversExactLine) {
  LinearRegression lr;
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {5, 7, 9, 11, 13};  // y = 2x + 3
  ASSERT_TRUE(lr.Fit(x, y).ok());
  EXPECT_NEAR(lr.slope(), 2.0, 1e-9);
  EXPECT_NEAR(lr.intercept(), 3.0, 1e-9);
  EXPECT_NEAR(lr.r_squared(), 1.0, 1e-12);
  EXPECT_NEAR(lr.Predict(10.0), 23.0, 1e-9);
}

TEST(LinearRegressionTest, NoisyFitHasReasonableR2) {
  Rng rng(5);
  std::vector<double> x, y;
  for (int i = 0; i < 500; ++i) {
    const double xi = rng.NextDouble() * 10.0;
    x.push_back(xi);
    y.push_back(1.5 * xi + 2.0 + 0.1 * rng.NextGaussian());
  }
  LinearRegression lr;
  ASSERT_TRUE(lr.Fit(x, y).ok());
  EXPECT_NEAR(lr.slope(), 1.5, 0.05);
  EXPECT_GT(lr.r_squared(), 0.99);
}

TEST(LinearRegressionTest, RejectsDegenerateInput) {
  LinearRegression lr;
  EXPECT_FALSE(lr.Fit({1.0}, {2.0}).ok());               // too few
  EXPECT_FALSE(lr.Fit({1, 2}, {1.0}).ok());              // size mismatch
  EXPECT_FALSE(lr.Fit({3, 3, 3}, {1, 2, 3}).ok());       // constant x
  EXPECT_FALSE(lr.fitted());
}

// --------------------------------------------------------- NelderMead

TEST(NelderMeadTest, MinimizesQuadratic) {
  auto objective = [](const std::vector<double>& p) {
    const double dx = p[0] - 3.0;
    const double dy = p[1] + 1.0;
    return dx * dx + dy * dy;
  };
  const NelderMeadResult result = NelderMeadMinimize(objective, {0.0, 0.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 3.0, 1e-3);
  EXPECT_NEAR(result.x[1], -1.0, 1e-3);
  EXPECT_LT(result.value, 1e-6);
}

TEST(NelderMeadTest, MinimizesRosenbrock) {
  auto rosenbrock = [](const std::vector<double>& p) {
    const double a = 1.0 - p[0];
    const double b = p[1] - p[0] * p[0];
    return a * a + 100.0 * b * b;
  };
  NelderMeadOptions options;
  options.max_iterations = 20000;
  options.tolerance = 1e-14;
  const NelderMeadResult result =
      NelderMeadMinimize(rosenbrock, {-1.2, 1.0}, options);
  EXPECT_NEAR(result.x[0], 1.0, 1e-2);
  EXPECT_NEAR(result.x[1], 1.0, 1e-2);
}

// --------------------------------------------------------- SigmoidFit

TEST(SigmoidFitTest, EvaluateMatchesFormula) {
  SigmoidParams p{1.0, 5.0, 1.0, 2.0, 0.0};
  // At the midpoint z = d with b = 1: m + (M - m) / 2.
  EXPECT_NEAR(p.Evaluate(0.0), 3.0, 1e-12);
  // Far left approaches m, far right approaches M.
  EXPECT_NEAR(p.Evaluate(-100.0), 1.0, 1e-6);
  EXPECT_NEAR(p.Evaluate(100.0), 5.0, 1e-6);
}

TEST(SigmoidFitTest, RecoversKnownSigmoid) {
  const SigmoidParams truth{10.0, 200.0, 1.0, 1.5, 4.0};
  std::vector<double> z, y;
  for (double zi = 0.0; zi <= 8.0; zi += 0.25) {
    z.push_back(zi);
    y.push_back(truth.Evaluate(zi));
  }
  SigmoidParams fitted;
  double rmse = 0.0;
  ASSERT_TRUE(FitSigmoid(z, y, &fitted, &rmse).ok());
  EXPECT_LT(rmse, 2.0);
  // The fitted curve (not necessarily the parameters) must match.
  for (double zi = 0.5; zi <= 7.5; zi += 0.5) {
    EXPECT_NEAR(fitted.Evaluate(zi), truth.Evaluate(zi), 6.0) << "z=" << zi;
  }
}

TEST(SigmoidFitTest, RejectsTooFewSamples) {
  SigmoidParams p;
  EXPECT_FALSE(FitSigmoid({1, 2, 3}, {1, 2, 3}, &p).ok());
  EXPECT_FALSE(FitSigmoid({1, 2, 3, 4, 5}, {1, 2}, &p).ok());
}

}  // namespace
}  // namespace odyssey
