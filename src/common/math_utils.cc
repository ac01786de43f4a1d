#include "src/common/math_utils.h"

#include <algorithm>
#include <cmath>

namespace odyssey {

double Mean(const float* values, size_t n) {
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += values[i];
  return sum / static_cast<double>(n);
}

namespace {

/// StdDev around a mean the caller already summed: the one place both
/// StdDev and ZNormalize add the squared deviations, so they agree bit for
/// bit.
double StdDevAbout(const float* values, size_t n, double mean) {
  double ssq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = values[i] - mean;
    ssq += d * d;
  }
  return std::sqrt(ssq / static_cast<double>(n));
}

}  // namespace

double StdDev(const float* values, size_t n) {
  if (n == 0) return 0.0;
  return StdDevAbout(values, n, Mean(values, n));
}

void ZNormalize(float* values, size_t n) {
  if (n == 0) return;
  const double mean = Mean(values, n);
  const double sd = StdDevAbout(values, n, mean);
  if (sd < 1e-12) {
    for (size_t i = 0; i < n; ++i) values[i] = 0.0f;
    return;
  }
  const double inv = 1.0 / sd;
  for (size_t i = 0; i < n; ++i) {
    values[i] = static_cast<float>((values[i] - mean) * inv);
  }
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  if (p <= 0.0) return *std::min_element(values.begin(), values.end());
  if (p >= 100.0) return *std::max_element(values.begin(), values.end());
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values[lo];
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

}  // namespace odyssey
