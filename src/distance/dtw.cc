#include "src/distance/dtw.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/common/hotpath.h"

namespace odyssey {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// The two rolling DP rows, owned per thread and reused across calls. The
/// DP used to construct two n-float vectors on every distance call — two
/// heap allocations per scanned candidate in DTW mode, squarely inside the
/// hot-path purity contract's scoring loops.
struct DtwScratch {
  std::vector<float> prev;
  std::vector<float> cur;
};

DtwScratch& ScratchForThisThread() {
  static thread_local DtwScratch scratch;
  return scratch;
}

// One banded DP row for row index i >= 1:
//
//   cur[j] = (ai - b[j])^2 + min(prev[j], prev[j-1], cur[j-1])
//
// for j in [jlo, jhi] (inclusive), returning the row minimum. prev/cur are
// full-length rows with +inf outside the previous/current band, and
// cur[jlo-1] is +inf when jlo > 0; when jlo == 0 the j == 0 cell takes only
// prev[0]. Scalar at every ISA level on purpose: each cell waits on
// cur[j-1], and staging the point costs around that chain with SSE or AVX2
// measured slower (BM_SquaredDtw256, dtw-16k). CMakeLists.txt pins
// -ffp-contract=off on this file, so the mul and add stay separate (no
// FMA) whatever flags the build adds.
ODYSSEY_HOT float DtwRow(float ai, const float* b, const float* prev,
                         float* cur, size_t jlo, size_t jhi) {
  float row_min = kInf;
  size_t j = jlo;
  if (j == 0) {
    const float d = ai - b[0];
    cur[0] = d * d + prev[0];
    row_min = cur[0];
    j = 1;
  }
  for (; j <= jhi; ++j) {
    const float d = ai - b[j];
    float best = prev[j];
    if (prev[j - 1] < best) best = prev[j - 1];
    if (cur[j - 1] < best) best = cur[j - 1];
    cur[j] = d * d + best;
    if (cur[j] < row_min) row_min = cur[j];
  }
  return row_min;
}

// Shared band DP. When `threshold` is finite, abandons as soon as a full row
// exceeds it (every warping path must pass through each row's band, so the
// row minimum lower-bounds the final value). Row 0 is a plain prefix sum;
// every later row goes through DtwRow.
ODYSSEY_HOT float BandDtw(const float* a, const float* b, size_t n,
                          size_t window, float threshold)
    ODYSSEY_HOT_ALLOWS(
        "alloc: the DP-row assigns below are grow-only thread-local scratch "
        "— allocation-free at steady state (counting-allocator-asserted)") {
  if (n == 0) return 0.0f;
  window = std::min(window, n - 1);

  // Two rolling DP rows over the full length; cells outside the band stay
  // +inf. For the window sizes the paper uses (<= 15% of n) the wasted cells
  // are cheap and the code stays simple. The rows live in thread-local
  // scratch: the assigns refill them with +inf (same O(n) init the old
  // per-call vectors paid) but reuse the capacity across calls.
  DtwScratch& scratch = ScratchForThisThread();
  scratch.prev.assign(n, kInf);
  scratch.cur.assign(n, kInf);
  std::vector<float>& prev = scratch.prev;
  std::vector<float>& cur = scratch.cur;

  // Row 0: the only predecessor of (0, j) is (0, j-1), so the row is the
  // running prefix sum of point costs; its minimum is the first cell.
  {
    const size_t jhi = std::min(n - 1, window);
    float run = 0.0f;
    for (size_t j = 0; j <= jhi; ++j) {
      const float d = a[0] - b[j];
      run += d * d;
      cur[j] = run;
    }
    if (cur[0] >= threshold) return cur[0];
    std::swap(prev, cur);
  }

  for (size_t i = 1; i < n; ++i) {
    const size_t jlo = (i >= window) ? i - window : 0;
    const size_t jhi = std::min(n - 1, i + window);
    // The buffers are ping-ponged, so cur still holds row i-2. Only the two
    // cells flanking this row's band are ever read before being written
    // (cur[jlo-1] as the in-row left neighbor, and both flanks as prev
    // cells of row i+1, whose band grows by at most one on each side) —
    // resetting them is enough, no O(n) refill.
    if (jlo > 0) cur[jlo - 1] = kInf;
    if (jhi + 1 < n) cur[jhi + 1] = kInf;
    const float row_min = DtwRow(a[i], b, prev.data(), cur.data(), jlo, jhi);
    if (row_min >= threshold) return row_min;
    std::swap(prev, cur);
  }
  return prev[n - 1];
}

}  // namespace

ODYSSEY_HOT float SquaredDtw(const float* a, const float* b, size_t n,
                             size_t window) {
  return BandDtw(a, b, n, window, kInf);
}

ODYSSEY_HOT float SquaredDtwEarlyAbandon(const float* a, const float* b,
                                         size_t n, size_t window,
                                         float threshold) {
  return BandDtw(a, b, n, window, threshold);
}

void ReserveDtwScratch(size_t n) {
  DtwScratch& scratch = ScratchForThisThread();
  scratch.prev.reserve(n);
  scratch.cur.reserve(n);
}

size_t WarpingWindowFromFraction(size_t length, double fraction) {
  if (fraction <= 0.0) return 0;
  const double w = std::ceil(fraction * static_cast<double>(length));
  return std::max<size_t>(1, static_cast<size_t>(w));
}

}  // namespace odyssey
