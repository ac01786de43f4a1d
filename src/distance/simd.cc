#include "src/distance/simd.h"

#include "src/common/hotpath.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

// x86-64 only (not __i386__): the SSE tier relies on SSE2 being an
// architectural baseline, which holds for x86-64 but not 32-bit x86.
// Other architectures use the scalar table.
#if defined(__x86_64__)
#define ODYSSEY_X86 1
#include <immintrin.h>
#endif

namespace odyssey {
namespace simd {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// --------------------------------------------------------------- scalar

ODYSSEY_HOT float SquaredEuclideanScalarK(const float* a, const float* b, size_t n) {
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

ODYSSEY_HOT float SquaredEuclideanEarlyAbandonScalarK(const float* a, const float* b,
                                          size_t n, float threshold) {
  float sum = 0.0f;
  size_t i = 0;
  // Check the threshold once per 16-point block: frequent enough to abandon
  // early, rare enough not to serialize the loop. Every ISA level uses the
  // same cadence so all levels abandon at the same point.
  while (i + 16 <= n) {
    for (size_t j = 0; j < 16; ++j) {
      const float d = a[i + j] - b[i + j];
      sum += d * d;
    }
    i += 16;
    if (sum >= threshold) return sum;
  }
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

inline float LbKeoghPointGap(float upper, float lower, float c) {
  // max(c - upper, lower - c, 0): positive only outside the envelope band.
  float d = c - upper;
  const float dl = lower - c;
  if (dl > d) d = dl;
  return d > 0.0f ? d : 0.0f;
}

ODYSSEY_HOT float LbKeoghScalarK(const float* upper, const float* lower,
                     const float* candidate, size_t n) {
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float d = LbKeoghPointGap(upper[i], lower[i], candidate[i]);
    sum += d * d;
  }
  return sum;
}

ODYSSEY_HOT float LbKeoghEarlyAbandonScalarK(const float* upper, const float* lower,
                                 const float* candidate, size_t n,
                                 float threshold) {
  float sum = 0.0f;
  size_t i = 0;
  while (i + 16 <= n) {
    for (size_t j = 0; j < 16; ++j) {
      const float d =
          LbKeoghPointGap(upper[i + j], lower[i + j], candidate[i + j]);
      sum += d * d;
    }
    i += 16;
    if (sum >= threshold) return sum;
  }
  for (; i < n; ++i) {
    const float d = LbKeoghPointGap(upper[i], lower[i], candidate[i]);
    sum += d * d;
  }
  return sum;
}

ODYSSEY_HOT void PaaScalarK(const float* series, size_t n, int segments, double* out) {
  size_t begin = 0;
  for (int i = 0; i < segments; ++i) {
    const size_t end =
        (static_cast<size_t>(i) + 1) * n / static_cast<size_t>(segments);
    double sum = 0.0;
    for (size_t t = begin; t < end; ++t) sum += series[t];
    out[i] = sum / static_cast<double>(end - begin);
    begin = end;
  }
}

// Batched kernel, scalar tier: the per-lane reference semantics every
// vector tier must reproduce bit-for-bit. Each query lane accumulates in
// point order with separate mul+add (this file pins -ffp-contract=off), is
// checked against its threshold every 16 points, and freezes its output at
// the first crossing — exactly the per-query scalar early-abandon kernel,
// just reading the query through the interleaved stride.

ODYSSEY_HOT void BatchedSquaredEuclideanEarlyAbandonScalarK(
    const float* candidate, const float* queries, size_t n, size_t stride,
    size_t q_count, const float* thresholds, float* out) {
  for (size_t q = 0; q < q_count; ++q) {
    const float threshold = thresholds[q];
    float sum = 0.0f;
    size_t i = 0;
    bool frozen = false;
    while (i + 16 <= n) {
      for (size_t j = 0; j < 16; ++j) {
        const float d = candidate[i + j] - queries[(i + j) * stride + q];
        sum += d * d;
      }
      i += 16;
      if (sum >= threshold) {
        frozen = true;
        break;
      }
    }
    if (!frozen) {
      for (; i < n; ++i) {
        const float d = candidate[i] - queries[i * stride + q];
        sum += d * d;
      }
    }
    out[q] = sum;
  }
}

constexpr KernelTable kScalarTable = {
    Isa::kScalar,
    SquaredEuclideanScalarK,
    SquaredEuclideanEarlyAbandonScalarK,
    LbKeoghScalarK,
    LbKeoghEarlyAbandonScalarK,
    BatchedSquaredEuclideanEarlyAbandonScalarK,
    PaaScalarK,
};

#if defined(ODYSSEY_X86)

// ------------------------------------------------------------------ SSE
// x86-64 baseline (SSE2) — always available, no target attribute needed.

inline float HorizontalSum128(__m128 v) {
  const __m128 hi = _mm_movehl_ps(v, v);           // lanes [2,3,·,·]
  const __m128 sum2 = _mm_add_ps(v, hi);           // [0+2, 1+3, ·, ·]
  const __m128 lane1 = _mm_shuffle_ps(sum2, sum2, 0x55);
  return _mm_cvtss_f32(_mm_add_ss(sum2, lane1));
}

ODYSSEY_HOT float SquaredEuclideanSseK(const float* a, const float* b, size_t n) {
  __m128 acc = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 d = _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i));
    acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
  }
  float sum = HorizontalSum128(acc);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

ODYSSEY_HOT float SquaredEuclideanEarlyAbandonSseK(const float* a, const float* b,
                                       size_t n, float threshold) {
  __m128 acc = _mm_setzero_ps();
  float sum = 0.0f;
  size_t i = 0;
  while (i + 16 <= n) {
    for (size_t k = 0; k < 16; k += 4) {
      const __m128 d =
          _mm_sub_ps(_mm_loadu_ps(a + i + k), _mm_loadu_ps(b + i + k));
      acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
    }
    i += 16;
    sum = HorizontalSum128(acc);
    if (sum >= threshold) return sum;
  }
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

inline __m128 LbKeoghGap128(const float* upper, const float* lower,
                            const float* candidate) {
  const __m128 c = _mm_loadu_ps(candidate);
  const __m128 du = _mm_sub_ps(c, _mm_loadu_ps(upper));
  const __m128 dl = _mm_sub_ps(_mm_loadu_ps(lower), c);
  return _mm_max_ps(_mm_max_ps(du, dl), _mm_setzero_ps());
}

ODYSSEY_HOT float LbKeoghSseK(const float* upper, const float* lower,
                  const float* candidate, size_t n) {
  __m128 acc = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 d = LbKeoghGap128(upper + i, lower + i, candidate + i);
    acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
  }
  float sum = HorizontalSum128(acc);
  for (; i < n; ++i) {
    const float d = LbKeoghPointGap(upper[i], lower[i], candidate[i]);
    sum += d * d;
  }
  return sum;
}

ODYSSEY_HOT float LbKeoghEarlyAbandonSseK(const float* upper, const float* lower,
                              const float* candidate, size_t n,
                              float threshold) {
  __m128 acc = _mm_setzero_ps();
  float sum = 0.0f;
  size_t i = 0;
  while (i + 16 <= n) {
    for (size_t k = 0; k < 16; k += 4) {
      const __m128 d =
          LbKeoghGap128(upper + i + k, lower + i + k, candidate + i + k);
      acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
    }
    i += 16;
    sum = HorizontalSum128(acc);
    if (sum >= threshold) return sum;
  }
  for (; i < n; ++i) {
    const float d = LbKeoghPointGap(upper[i], lower[i], candidate[i]);
    sum += d * d;
  }
  return sum;
}

ODYSSEY_HOT void PaaSseK(const float* series, size_t n, int segments, double* out) {
  size_t begin = 0;
  for (int i = 0; i < segments; ++i) {
    const size_t end =
        (static_cast<size_t>(i) + 1) * n / static_cast<size_t>(segments);
    // Two independent accumulators keep the add_pd latency chains off the
    // critical path (a segment is typically 16 points: 4 iterations here).
    __m128d acc0 = _mm_setzero_pd();
    __m128d acc1 = _mm_setzero_pd();
    size_t t = begin;
    for (; t + 4 <= end; t += 4) {
      const __m128 v = _mm_loadu_ps(series + t);
      acc0 = _mm_add_pd(acc0, _mm_cvtps_pd(v));
      acc1 = _mm_add_pd(acc1, _mm_cvtps_pd(_mm_movehl_ps(v, v)));
    }
    const __m128d acc = _mm_add_pd(acc0, acc1);
    double sum = _mm_cvtsd_f64(acc) +
                 _mm_cvtsd_f64(_mm_unpackhi_pd(acc, acc));
    for (; t < end; ++t) sum += series[t];
    out[i] = sum / static_cast<double>(end - begin);
    begin = end;
  }
}

// Batched kernel, vector tiers: one query per SIMD lane over the
// interleaved layout, so each lane's accumulation is point-sequential
// mul+add — bit-identical to the scalar per-query kernel by construction
// (no horizontal reduction ever happens; lanes never mix). Lane groups of
// the vector width walk the candidate one group at a time; after the first
// group the candidate is L1-resident, so memory traffic stays one candidate
// read per call. Abandon bookkeeping is a per-group bitmask: every 16
// points, lanes newly at/above their threshold store their partial sum to
// out and freeze (later, larger sums must not overwrite the value the
// scalar kernel would have returned at its first crossing); frozen lanes
// keep accumulating garbage harmlessly — their output is already written —
// and a fully-frozen group exits its point loop early, preserving the
// abandon win. Threshold lanes beyond q_count are padded with +inf so they
// never freeze and never store.

ODYSSEY_HOT void BatchedSquaredEuclideanEarlyAbandonSseK(
    const float* candidate, const float* queries, size_t n, size_t stride,
    size_t q_count, const float* thresholds, float* out) {
  for (size_t g = 0; g < q_count; g += 4) {
    const size_t lanes = (q_count - g < 4) ? q_count - g : 4;
    const unsigned full = (1u << lanes) - 1u;
    alignas(16) float thr_pad[4] = {kInf, kInf, kInf, kInf};
    for (size_t l = 0; l < lanes; ++l) thr_pad[l] = thresholds[g + l];
    const __m128 thr = _mm_load_ps(thr_pad);
    __m128 acc = _mm_setzero_ps();
    unsigned frozen = 0;
    size_t i = 0;
    while (i + 16 <= n && frozen != full) {
      for (size_t j = 0; j < 16; ++j) {
        const __m128 c = _mm_set1_ps(candidate[i + j]);
        const __m128 qv = _mm_loadu_ps(queries + (i + j) * stride + g);
        const __m128 d = _mm_sub_ps(c, qv);
        acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
      }
      i += 16;
      const unsigned crossed =
          static_cast<unsigned>(_mm_movemask_ps(_mm_cmpge_ps(acc, thr)));
      const unsigned newly = crossed & full & ~frozen;
      if (newly != 0) {
        alignas(16) float sums[4];
        _mm_store_ps(sums, acc);
        for (size_t l = 0; l < lanes; ++l) {
          if ((newly >> l) & 1u) out[g + l] = sums[l];
        }
        frozen |= newly;
      }
    }
    if (frozen != full) {
      for (; i < n; ++i) {
        const __m128 c = _mm_set1_ps(candidate[i]);
        const __m128 qv = _mm_loadu_ps(queries + i * stride + g);
        const __m128 d = _mm_sub_ps(c, qv);
        acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
      }
      alignas(16) float sums[4];
      _mm_store_ps(sums, acc);
      for (size_t l = 0; l < lanes; ++l) {
        if (((frozen >> l) & 1u) == 0) out[g + l] = sums[l];
      }
    }
  }
}

constexpr KernelTable kSseTable = {
    Isa::kSse,
    SquaredEuclideanSseK,
    SquaredEuclideanEarlyAbandonSseK,
    LbKeoghSseK,
    LbKeoghEarlyAbandonSseK,
    BatchedSquaredEuclideanEarlyAbandonSseK,
    PaaSseK,
};

// ----------------------------------------------------------------- AVX2
// Compiled with per-function target attributes so the rest of the library
// keeps the baseline ISA; only ever called after a CPUID check.

#define ODYSSEY_TARGET_AVX2 __attribute__((target("avx2,fma")))

ODYSSEY_TARGET_AVX2 inline float HorizontalSum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  return HorizontalSum128(_mm_add_ps(lo, hi));
}

// Aligned-load fast path predicate: every operand sits on a 32-byte
// boundary, so the kernel may use vmovaps and — when the length is a lane
// multiple — drop the scalar tail entirely. SeriesCollection allocates its
// storage 64-byte aligned, so for the common series lengths (multiples of
// 8) every row qualifies. The fast paths keep the exact accumulation order
// of the generic loops (same lane striping, FMA, and abandon cadence), so
// results are bit-identical — asserted by the distance property tests.
inline bool Aligned32(const float* p) {
  return (reinterpret_cast<uintptr_t>(p) & 31u) == 0;
}

ODYSSEY_TARGET_AVX2
ODYSSEY_HOT float SquaredEuclideanAvx2K(const float* a, const float* b, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  if (n % 8 == 0 && Aligned32(a) && Aligned32(b)) {
    for (size_t i = 0; i < n; i += 8) {
      const __m256 d =
          _mm256_sub_ps(_mm256_load_ps(a + i), _mm256_load_ps(b + i));
      acc = _mm256_fmadd_ps(d, d, acc);
    }
    return HorizontalSum256(acc);
  }
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_fmadd_ps(d, d, acc);
  }
  float sum = HorizontalSum256(acc);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

ODYSSEY_TARGET_AVX2
ODYSSEY_HOT float SquaredEuclideanEarlyAbandonAvx2K(const float* a, const float* b,
                                        size_t n, float threshold) {
  __m256 acc = _mm256_setzero_ps();
  float sum = 0.0f;
  size_t i = 0;
  if (n % 16 == 0 && Aligned32(a) && Aligned32(b)) {
    // Tail-free aligned variant of the loop below (the 16-point abandon
    // block matches the lane unroll, so n % 16 == 0 leaves no remainder).
    while (i < n) {
      const __m256 d0 =
          _mm256_sub_ps(_mm256_load_ps(a + i), _mm256_load_ps(b + i));
      acc = _mm256_fmadd_ps(d0, d0, acc);
      const __m256 d1 =
          _mm256_sub_ps(_mm256_load_ps(a + i + 8), _mm256_load_ps(b + i + 8));
      acc = _mm256_fmadd_ps(d1, d1, acc);
      i += 16;
      sum = HorizontalSum256(acc);
      if (sum >= threshold) return sum;
    }
    return sum;
  }
  // Two unrolled 8-lane FMAs per iteration, threshold check per 16 points.
  while (i + 16 <= n) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_fmadd_ps(d0, d0, acc);
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc = _mm256_fmadd_ps(d1, d1, acc);
    i += 16;
    sum = HorizontalSum256(acc);
    if (sum >= threshold) return sum;
  }
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

ODYSSEY_TARGET_AVX2 inline __m256 LbKeoghGap256(const float* upper,
                                                const float* lower,
                                                const float* candidate) {
  const __m256 c = _mm256_loadu_ps(candidate);
  const __m256 du = _mm256_sub_ps(c, _mm256_loadu_ps(upper));
  const __m256 dl = _mm256_sub_ps(_mm256_loadu_ps(lower), c);
  return _mm256_max_ps(_mm256_max_ps(du, dl), _mm256_setzero_ps());
}

ODYSSEY_TARGET_AVX2 inline __m256 LbKeoghGap256Aligned(
    const float* upper, const float* lower, const float* candidate) {
  const __m256 c = _mm256_load_ps(candidate);
  const __m256 du = _mm256_sub_ps(c, _mm256_load_ps(upper));
  const __m256 dl = _mm256_sub_ps(_mm256_load_ps(lower), c);
  return _mm256_max_ps(_mm256_max_ps(du, dl), _mm256_setzero_ps());
}

ODYSSEY_TARGET_AVX2
ODYSSEY_HOT float LbKeoghAvx2K(const float* upper, const float* lower,
                   const float* candidate, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  if (n % 8 == 0 && Aligned32(upper) && Aligned32(lower) &&
      Aligned32(candidate)) {
    for (size_t i = 0; i < n; i += 8) {
      const __m256 d =
          LbKeoghGap256Aligned(upper + i, lower + i, candidate + i);
      acc = _mm256_fmadd_ps(d, d, acc);
    }
    return HorizontalSum256(acc);
  }
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = LbKeoghGap256(upper + i, lower + i, candidate + i);
    acc = _mm256_fmadd_ps(d, d, acc);
  }
  float sum = HorizontalSum256(acc);
  for (; i < n; ++i) {
    const float d = LbKeoghPointGap(upper[i], lower[i], candidate[i]);
    sum += d * d;
  }
  return sum;
}

ODYSSEY_TARGET_AVX2
ODYSSEY_HOT float LbKeoghEarlyAbandonAvx2K(const float* upper, const float* lower,
                               const float* candidate, size_t n,
                               float threshold) {
  __m256 acc = _mm256_setzero_ps();
  float sum = 0.0f;
  size_t i = 0;
  if (n % 16 == 0 && Aligned32(upper) && Aligned32(lower) &&
      Aligned32(candidate)) {
    while (i < n) {
      const __m256 d0 =
          LbKeoghGap256Aligned(upper + i, lower + i, candidate + i);
      acc = _mm256_fmadd_ps(d0, d0, acc);
      const __m256 d1 = LbKeoghGap256Aligned(upper + i + 8, lower + i + 8,
                                             candidate + i + 8);
      acc = _mm256_fmadd_ps(d1, d1, acc);
      i += 16;
      sum = HorizontalSum256(acc);
      if (sum >= threshold) return sum;
    }
    return sum;
  }
  while (i + 16 <= n) {
    const __m256 d0 = LbKeoghGap256(upper + i, lower + i, candidate + i);
    acc = _mm256_fmadd_ps(d0, d0, acc);
    const __m256 d1 =
        LbKeoghGap256(upper + i + 8, lower + i + 8, candidate + i + 8);
    acc = _mm256_fmadd_ps(d1, d1, acc);
    i += 16;
    sum = HorizontalSum256(acc);
    if (sum >= threshold) return sum;
  }
  for (; i < n; ++i) {
    const float d = LbKeoghPointGap(upper[i], lower[i], candidate[i]);
    sum += d * d;
  }
  return sum;
}

ODYSSEY_TARGET_AVX2
ODYSSEY_HOT void PaaAvx2K(const float* series, size_t n, int segments, double* out) {
  size_t begin = 0;
  for (int i = 0; i < segments; ++i) {
    const size_t end =
        (static_cast<size_t>(i) + 1) * n / static_cast<size_t>(segments);
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    size_t t = begin;
    for (; t + 8 <= end; t += 8) {
      acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm_loadu_ps(series + t)));
      acc1 =
          _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm_loadu_ps(series + t + 4)));
    }
    const __m256d acc = _mm256_add_pd(acc0, acc1);
    const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                    _mm256_extractf128_pd(acc, 1));
    double sum = _mm_cvtsd_f64(pair) +
                 _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
    for (; t < end; ++t) sum += series[t];
    out[i] = sum / static_cast<double>(end - begin);
    begin = end;
  }
}

// Batched kernel, AVX2 tier: 8 query lanes per group; see the SSE batched
// kernel for the shared structure and bit-identity argument. mul+add (no
// FMA) keeps each lane equal to the scalar per-query accumulation.

ODYSSEY_TARGET_AVX2
ODYSSEY_HOT void BatchedSquaredEuclideanEarlyAbandonAvx2K(
    const float* candidate, const float* queries, size_t n, size_t stride,
    size_t q_count, const float* thresholds, float* out) {
  for (size_t g = 0; g < q_count; g += 8) {
    const size_t lanes = (q_count - g < 8) ? q_count - g : 8;
    const unsigned full = (1u << lanes) - 1u;
    alignas(32) float thr_pad[8] = {kInf, kInf, kInf, kInf,
                                    kInf, kInf, kInf, kInf};
    for (size_t l = 0; l < lanes; ++l) thr_pad[l] = thresholds[g + l];
    const __m256 thr = _mm256_load_ps(thr_pad);
    __m256 acc = _mm256_setzero_ps();
    unsigned frozen = 0;
    size_t i = 0;
    while (i + 16 <= n && frozen != full) {
      for (size_t j = 0; j < 16; ++j) {
        const __m256 c = _mm256_set1_ps(candidate[i + j]);
        const __m256 qv = _mm256_loadu_ps(queries + (i + j) * stride + g);
        const __m256 d = _mm256_sub_ps(c, qv);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
      }
      i += 16;
      const unsigned crossed = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_cmp_ps(acc, thr, _CMP_GE_OQ)));
      const unsigned newly = crossed & full & ~frozen;
      if (newly != 0) {
        alignas(32) float sums[8];
        _mm256_store_ps(sums, acc);
        for (size_t l = 0; l < lanes; ++l) {
          if ((newly >> l) & 1u) out[g + l] = sums[l];
        }
        frozen |= newly;
      }
    }
    if (frozen != full) {
      for (; i < n; ++i) {
        const __m256 c = _mm256_set1_ps(candidate[i]);
        const __m256 qv = _mm256_loadu_ps(queries + i * stride + g);
        const __m256 d = _mm256_sub_ps(c, qv);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
      }
      alignas(32) float sums[8];
      _mm256_store_ps(sums, acc);
      for (size_t l = 0; l < lanes; ++l) {
        if (((frozen >> l) & 1u) == 0) out[g + l] = sums[l];
      }
    }
  }
}

constexpr KernelTable kAvx2Table = {
    Isa::kAvx2,
    SquaredEuclideanAvx2K,
    SquaredEuclideanEarlyAbandonAvx2K,
    LbKeoghAvx2K,
    LbKeoghEarlyAbandonAvx2K,
    BatchedSquaredEuclideanEarlyAbandonAvx2K,
    PaaAvx2K,
};

bool CpuHasAvx2Fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#endif  // defined(ODYSSEY_X86)

// ------------------------------------------------------------- dispatch

Isa BestSupportedIsa() {
#if defined(ODYSSEY_X86)
  return CpuHasAvx2Fma() ? Isa::kAvx2 : Isa::kSse;
#else
  return Isa::kScalar;
#endif
}

Isa ResolveIsa() {
  Isa isa = BestSupportedIsa();
  const char* env = std::getenv("ODYSSEY_SIMD");
  if (env != nullptr) {
    Isa requested = isa;  // unknown values and "auto" keep the best ISA
    if (std::strcmp(env, "scalar") == 0) {
      requested = Isa::kScalar;
    } else if (std::strcmp(env, "sse") == 0) {
      requested = Isa::kSse;
    } else if (std::strcmp(env, "avx2") == 0) {
      requested = Isa::kAvx2;
    }
    // The override can only lower the ISA: asking for one the CPU lacks
    // degrades to the best supported level instead of crashing.
    if (static_cast<int>(requested) < static_cast<int>(isa)) isa = requested;
  }
  return isa;
}

const KernelTable* TableFor(Isa isa) {
  switch (isa) {
#if defined(ODYSSEY_X86)
    case Isa::kAvx2:
      return &kAvx2Table;
    case Isa::kSse:
      return &kSseTable;
#else
    case Isa::kAvx2:
    case Isa::kSse:
      return &kScalarTable;  // non-x86 builds carry only the scalar tier
#endif
    case Isa::kScalar:
      return &kScalarTable;
  }
  return &kScalarTable;  // unreachable; keeps -Wreturn-type satisfied
}

// Resolves the dispatched table once and, under ODYSSEY_SIMD_LOG, reports
// the choice to stderr — a silently degraded CI machine (e.g. AVX2
// requested, SSE resolved) would otherwise poison cross-run baseline
// comparisons without a trace in the bench logs.
const KernelTable* ResolveActiveTable() {
  const Isa best = BestSupportedIsa();
  const Isa chosen = ResolveIsa();
  if (std::getenv("ODYSSEY_SIMD_LOG") != nullptr) {
    std::fprintf(stderr, "odyssey: simd tier %s (best supported %s)\n",
                 IsaName(chosen), IsaName(best));
  }
  return TableFor(chosen);
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kSse:
      return "sse";
    case Isa::kScalar:
      return "scalar";
  }
  return "scalar";  // unreachable; keeps -Wreturn-type satisfied
}

const KernelTable& ScalarTable() { return kScalarTable; }

const KernelTable* SseTable() {
#if defined(ODYSSEY_X86)
  return &kSseTable;
#else
  return nullptr;
#endif
}

const KernelTable* Avx2Table() {
#if defined(ODYSSEY_X86)
  if (CpuHasAvx2Fma()) return &kAvx2Table;
#endif
  return nullptr;
}

const KernelTable& ActiveTable() {
  static const KernelTable* const table = ResolveActiveTable();
  return *table;
}

Isa ActiveIsa() { return ActiveTable().isa; }

}  // namespace simd
}  // namespace odyssey
