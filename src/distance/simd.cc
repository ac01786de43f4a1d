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

// Batched kernels, scalar tier: the per-lane reference semantics every
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

ODYSSEY_HOT void BatchedLbKeoghEarlyAbandonScalarK(const float* candidate,
                                       const float* upper, const float* lower,
                                       size_t n, size_t stride, size_t q_count,
                                       const float* thresholds, float* out) {
  for (size_t q = 0; q < q_count; ++q) {
    const float threshold = thresholds[q];
    float sum = 0.0f;
    size_t i = 0;
    bool frozen = false;
    while (i + 16 <= n) {
      for (size_t j = 0; j < 16; ++j) {
        const size_t at = (i + j) * stride + q;
        const float d =
            LbKeoghPointGap(upper[at], lower[at], candidate[i + j]);
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
        const size_t at = i * stride + q;
        const float d = LbKeoghPointGap(upper[at], lower[at], candidate[i]);
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
    BatchedLbKeoghEarlyAbandonScalarK,
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

// Batched kernels, vector tiers: one query per SIMD lane over the
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

ODYSSEY_HOT void BatchedLbKeoghEarlyAbandonSseK(const float* candidate, const float* upper,
                                    const float* lower, size_t n,
                                    size_t stride, size_t q_count,
                                    const float* thresholds, float* out) {
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
        const size_t at = (i + j) * stride + g;
        const __m128 c = _mm_set1_ps(candidate[i + j]);
        const __m128 du = _mm_sub_ps(c, _mm_loadu_ps(upper + at));
        const __m128 dl = _mm_sub_ps(_mm_loadu_ps(lower + at), c);
        const __m128 d =
            _mm_max_ps(_mm_max_ps(du, dl), _mm_setzero_ps());
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
        const size_t at = i * stride + g;
        const __m128 c = _mm_set1_ps(candidate[i]);
        const __m128 du = _mm_sub_ps(c, _mm_loadu_ps(upper + at));
        const __m128 dl = _mm_sub_ps(_mm_loadu_ps(lower + at), c);
        const __m128 d =
            _mm_max_ps(_mm_max_ps(du, dl), _mm_setzero_ps());
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
    BatchedLbKeoghEarlyAbandonSseK,
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

// Batched kernels, AVX2 tier: 8 query lanes per group; see the SSE batched
// kernels for the shared structure and bit-identity argument. mul+add (no
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

ODYSSEY_TARGET_AVX2
ODYSSEY_HOT void BatchedLbKeoghEarlyAbandonAvx2K(const float* candidate,
                                     const float* upper, const float* lower,
                                     size_t n, size_t stride, size_t q_count,
                                     const float* thresholds, float* out) {
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
        const size_t at = (i + j) * stride + g;
        const __m256 c = _mm256_set1_ps(candidate[i + j]);
        const __m256 du = _mm256_sub_ps(c, _mm256_loadu_ps(upper + at));
        const __m256 dl = _mm256_sub_ps(_mm256_loadu_ps(lower + at), c);
        const __m256 d =
            _mm256_max_ps(_mm256_max_ps(du, dl), _mm256_setzero_ps());
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
        const size_t at = i * stride + g;
        const __m256 c = _mm256_set1_ps(candidate[i]);
        const __m256 du = _mm256_sub_ps(c, _mm256_loadu_ps(upper + at));
        const __m256 dl = _mm256_sub_ps(_mm256_loadu_ps(lower + at), c);
        const __m256 d =
            _mm256_max_ps(_mm256_max_ps(du, dl), _mm256_setzero_ps());
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
    BatchedLbKeoghEarlyAbandonAvx2K,
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

namespace {

// Multi-candidate scoring backends. Each lane is one candidate's strict
// sequential sub+mul+add chain in point order — bit-identical to the
// per-query scalar kernel (this file pins -ffp-contract=off, and the SSE
// paths only ever apply ELEMENT-wise ops across lanes, never horizontal
// ones). Freeze-by-pointer-swap gives scalar-exact early abandonment: a
// lane whose partial crosses the threshold at a 16-point boundary gets its
// series pointer redirected to the query itself, so every later point
// contributes (query - query)^2 == +0.0f — and adding +0.0f to a
// non-negative float is the bit-exact identity. The lane's sum stays frozen
// at exactly the boundary where the scalar kernel would have returned it,
// with no extra per-point arithmetic.

#if defined(ODYSSEY_X86)

// Accumulates 4 points × 4 lanes into `acc` (lane l in element l): four
// contiguous loads, an in-register 4x4 transpose, then element-wise
// sub/mul/add per point. The transpose shuffles hide in the shadow of the
// accumulator's loop-carried add latency, which is what bounds this loop.
inline __m128 MultiStep4Sse(const float* query, size_t i, const float* s0,
                            const float* s1, const float* s2, const float* s3,
                            __m128 acc) {
  __m128 r0 = _mm_loadu_ps(s0 + i);
  __m128 r1 = _mm_loadu_ps(s1 + i);
  __m128 r2 = _mm_loadu_ps(s2 + i);
  __m128 r3 = _mm_loadu_ps(s3 + i);
  _MM_TRANSPOSE4_PS(r0, r1, r2, r3);  // rk = all 4 lanes at point i + k
  __m128 d = _mm_sub_ps(_mm_set1_ps(query[i]), r0);
  acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
  d = _mm_sub_ps(_mm_set1_ps(query[i + 1]), r1);
  acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
  d = _mm_sub_ps(_mm_set1_ps(query[i + 2]), r2);
  acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
  d = _mm_sub_ps(_mm_set1_ps(query[i + 3]), r3);
  acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
  return acc;
}

// One sub-16 tail point for 4 lanes (no abandon checks in the tail, like
// the scalar kernel; frozen lanes read the query and add +0.0f).
inline __m128 MultiTailSse(const float* query, size_t i, const float* s0,
                           const float* s1, const float* s2, const float* s3,
                           __m128 acc) {
  const __m128 col = _mm_set_ps(s3[i], s2[i], s1[i], s0[i]);
  const __m128 d = _mm_sub_ps(_mm_set1_ps(query[i]), col);
  return _mm_add_ps(acc, _mm_mul_ps(d, d));
}

// 4 lanes, one accumulator chain. x86-64 baseline (SSE2) — always
// available, so there is no dispatch and no scalar twin to keep in sync.
ODYSSEY_HOT void MultiLanes4Sse(const float* query, const float* const* lanes,
                                size_t n, float threshold, float* sums) {
  const float* s0 = lanes[0];
  const float* s1 = lanes[1];
  const float* s2 = lanes[2];
  const float* s3 = lanes[3];
  __m128 acc = _mm_setzero_ps();
  const __m128 thresh = _mm_set1_ps(threshold);
  unsigned frozen = 0;  // bit l set = lane l frozen
  size_t i = 0;
  while (i + 16 <= n) {
    acc = MultiStep4Sse(query, i, s0, s1, s2, s3, acc);
    acc = MultiStep4Sse(query, i + 4, s0, s1, s2, s3, acc);
    acc = MultiStep4Sse(query, i + 8, s0, s1, s2, s3, acc);
    acc = MultiStep4Sse(query, i + 12, s0, s1, s2, s3, acc);
    i += 16;
    const unsigned crossed =
        static_cast<unsigned>(_mm_movemask_ps(_mm_cmpge_ps(acc, thresh))) &
        ~frozen;
    if (crossed != 0) {
      if ((crossed & 1u) != 0) s0 = query;
      if ((crossed & 2u) != 0) s1 = query;
      if ((crossed & 4u) != 0) s2 = query;
      if ((crossed & 8u) != 0) s3 = query;
      frozen |= crossed;
      if (frozen == 0xFu) break;
    }
  }
  if (frozen != 0xFu) {
    for (; i < n; ++i) acc = MultiTailSse(query, i, s0, s1, s2, s3, acc);
  }
  _mm_storeu_ps(sums, acc);
}

// 8 lanes as two independent 4-lane chains: the second accumulator fills
// the first chain's add-latency bubbles, roughly doubling lane throughput
// over MultiLanes4Sse for full flushes.
ODYSSEY_HOT void MultiLanes8Sse(const float* query, const float* const* lanes,
                                size_t n, float threshold, float* sums) {
  const float* s0 = lanes[0];
  const float* s1 = lanes[1];
  const float* s2 = lanes[2];
  const float* s3 = lanes[3];
  const float* s4 = lanes[4];
  const float* s5 = lanes[5];
  const float* s6 = lanes[6];
  const float* s7 = lanes[7];
  __m128 acc_a = _mm_setzero_ps();
  __m128 acc_b = _mm_setzero_ps();
  const __m128 thresh = _mm_set1_ps(threshold);
  unsigned frozen = 0;  // bits 0-3: chain A lanes, bits 4-7: chain B lanes
  size_t i = 0;
  while (i + 16 <= n) {
    for (size_t j = 0; j < 16; j += 4) {
      acc_a = MultiStep4Sse(query, i + j, s0, s1, s2, s3, acc_a);
      acc_b = MultiStep4Sse(query, i + j, s4, s5, s6, s7, acc_b);
    }
    i += 16;
    const unsigned crossed =
        (static_cast<unsigned>(_mm_movemask_ps(_mm_cmpge_ps(acc_a, thresh))) |
         static_cast<unsigned>(_mm_movemask_ps(_mm_cmpge_ps(acc_b, thresh)))
             << 4) &
        ~frozen;
    if (crossed != 0) {
      if ((crossed & 0x01u) != 0) s0 = query;
      if ((crossed & 0x02u) != 0) s1 = query;
      if ((crossed & 0x04u) != 0) s2 = query;
      if ((crossed & 0x08u) != 0) s3 = query;
      if ((crossed & 0x10u) != 0) s4 = query;
      if ((crossed & 0x20u) != 0) s5 = query;
      if ((crossed & 0x40u) != 0) s6 = query;
      if ((crossed & 0x80u) != 0) s7 = query;
      frozen |= crossed;
      if (frozen == 0xFFu) break;
    }
  }
  if (frozen != 0xFFu) {
    for (; i < n; ++i) {
      acc_a = MultiTailSse(query, i, s0, s1, s2, s3, acc_a);
      acc_b = MultiTailSse(query, i, s4, s5, s6, s7, acc_b);
    }
  }
  _mm_storeu_ps(sums, acc_a);
  _mm_storeu_ps(sums + 4, acc_b);
}

// 8 lanes in one 256-bit accumulator. The win over MultiLanes8Sse is port
// pressure: baseline-SSE query broadcasts cost a shuffle each, and with two
// 4x4 transposes per 4 points the single shuffle port becomes the bound;
// here vbroadcastss is a pure load-port op and the full 8x8 transpose costs
// 3 shuffle-port ops per point, which hides entirely under the
// accumulator's add-latency chain. Element-wise ops only, so each lane's
// sum is still the scalar kernel's — picking this path by CPUID can never
// change a result, only its speed.
ODYSSEY_TARGET_AVX2 ODYSSEY_HOT void MultiLanes8Avx2(
    const float* query, const float* const* lanes, size_t n, float threshold,
    float* sums) {
  const float* s0 = lanes[0];
  const float* s1 = lanes[1];
  const float* s2 = lanes[2];
  const float* s3 = lanes[3];
  const float* s4 = lanes[4];
  const float* s5 = lanes[5];
  const float* s6 = lanes[6];
  const float* s7 = lanes[7];
  __m256 acc = _mm256_setzero_ps();
  const __m256 thresh = _mm256_set1_ps(threshold);
  unsigned frozen = 0;  // bit l set = lane l frozen
  size_t i = 0;
  while (i + 16 <= n) {
    for (size_t h = 0; h < 16; h += 8) {
      const __m256 r0 = _mm256_loadu_ps(s0 + i + h);
      const __m256 r1 = _mm256_loadu_ps(s1 + i + h);
      const __m256 r2 = _mm256_loadu_ps(s2 + i + h);
      const __m256 r3 = _mm256_loadu_ps(s3 + i + h);
      const __m256 r4 = _mm256_loadu_ps(s4 + i + h);
      const __m256 r5 = _mm256_loadu_ps(s5 + i + h);
      const __m256 r6 = _mm256_loadu_ps(s6 + i + h);
      const __m256 r7 = _mm256_loadu_ps(s7 + i + h);
      // 8x8 transpose, standard unpack/shuffle/permute ladder. u_k carries
      // lanes 0-3 at points {k, k+4} in its two 128-bit halves, v_k lanes
      // 4-7; the vperm2f128 pairs then assemble one full 8-lane column per
      // point so the accumulate below runs in strict point order.
      const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
      const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
      const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
      const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
      const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
      const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
      const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
      const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
      const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 v0 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 v1 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 v2 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 v3 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 col0 = _mm256_permute2f128_ps(u0, v0, 0x20);
      const __m256 col1 = _mm256_permute2f128_ps(u1, v1, 0x20);
      const __m256 col2 = _mm256_permute2f128_ps(u2, v2, 0x20);
      const __m256 col3 = _mm256_permute2f128_ps(u3, v3, 0x20);
      const __m256 col4 = _mm256_permute2f128_ps(u0, v0, 0x31);
      const __m256 col5 = _mm256_permute2f128_ps(u1, v1, 0x31);
      const __m256 col6 = _mm256_permute2f128_ps(u2, v2, 0x31);
      const __m256 col7 = _mm256_permute2f128_ps(u3, v3, 0x31);
      __m256 d = _mm256_sub_ps(_mm256_broadcast_ss(query + i + h), col0);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
      d = _mm256_sub_ps(_mm256_broadcast_ss(query + i + h + 1), col1);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
      d = _mm256_sub_ps(_mm256_broadcast_ss(query + i + h + 2), col2);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
      d = _mm256_sub_ps(_mm256_broadcast_ss(query + i + h + 3), col3);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
      d = _mm256_sub_ps(_mm256_broadcast_ss(query + i + h + 4), col4);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
      d = _mm256_sub_ps(_mm256_broadcast_ss(query + i + h + 5), col5);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
      d = _mm256_sub_ps(_mm256_broadcast_ss(query + i + h + 6), col6);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
      d = _mm256_sub_ps(_mm256_broadcast_ss(query + i + h + 7), col7);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
    }
    i += 16;
    const unsigned crossed =
        static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_cmp_ps(acc, thresh, _CMP_GE_OQ))) &
        ~frozen;
    if (crossed != 0) {
      if ((crossed & 0x01u) != 0) s0 = query;
      if ((crossed & 0x02u) != 0) s1 = query;
      if ((crossed & 0x04u) != 0) s2 = query;
      if ((crossed & 0x08u) != 0) s3 = query;
      if ((crossed & 0x10u) != 0) s4 = query;
      if ((crossed & 0x20u) != 0) s5 = query;
      if ((crossed & 0x40u) != 0) s6 = query;
      if ((crossed & 0x80u) != 0) s7 = query;
      frozen |= crossed;
      if (frozen == 0xFFu) break;
    }
  }
  if (frozen != 0xFFu && i < n) {
    __m128 acc_a = _mm256_castps256_ps128(acc);
    __m128 acc_b = _mm256_extractf128_ps(acc, 1);
    for (; i < n; ++i) {
      acc_a = MultiTailSse(query, i, s0, s1, s2, s3, acc_a);
      acc_b = MultiTailSse(query, i, s4, s5, s6, s7, acc_b);
    }
    _mm_storeu_ps(sums, acc_a);
    _mm_storeu_ps(sums + 4, acc_b);
    return;
  }
  _mm256_storeu_ps(sums, acc);
}

#else  // !defined(ODYSSEY_X86)

// Portable backend: L interleaved scalar chains with the same
// freeze-by-pointer-swap boundaries. Fixed L so the compiler fully unrolls
// the lane loops.
template <size_t L>
void MultiLanesGeneric(const float* query, const float* const* lanes,
                       size_t n, float threshold, float* sums) {
  const float* s[L];
  float a[L];
  for (size_t l = 0; l < L; ++l) {
    s[l] = lanes[l];
    a[l] = 0.0f;
  }
  size_t frozen = 0;
  size_t i = 0;
  while (i + 16 <= n) {
    for (size_t j = 0; j < 16; ++j) {
      const float q = query[i + j];
      for (size_t l = 0; l < L; ++l) {
        const float d = q - s[l][i + j];
        a[l] += d * d;
      }
    }
    i += 16;
    for (size_t l = 0; l < L; ++l) {
      if (s[l] != query && a[l] >= threshold) {
        s[l] = query;
        ++frozen;
      }
    }
    if (frozen == L) break;
  }
  if (frozen < L) {
    for (; i < n; ++i) {
      const float q = query[i];
      for (size_t l = 0; l < L; ++l) {
        const float d = q - s[l][i];
        a[l] += d * d;
      }
    }
  }
  for (size_t l = 0; l < L; ++l) sums[l] = a[l];
}

#endif  // defined(ODYSSEY_X86)

}  // namespace

ODYSSEY_HOT void MultiSquaredEuclideanEarlyAbandon(const float* query,
                                                   const float* const* series,
                                                   size_t count, size_t n,
                                                   float threshold,
                                                   float* out) {
  if (count == 0) return;
  // Partial flushes pad the missing lanes with the last real candidate: a
  // padded lane mirrors its source exactly (same sums, same freeze point),
  // so it never delays the all-frozen break, and its result is simply not
  // written out. Counts that fit one chain run the half-width pass; either
  // way a given candidate's lane math is identical, so which pass a flush
  // lands in can never change a reported distance.
  const float* lanes[kMultiCandidateLanes];
  for (size_t c = 0; c < kMultiCandidateLanes; ++c) {
    lanes[c] = series[c < count ? c : count - 1];
  }
  float sums[kMultiCandidateLanes];
  static_assert(kMultiCandidateLanes == 8,
                "multi-candidate backends are written for 8 lanes");
#if defined(ODYSSEY_X86)
  // The AVX2 path honors the resolved tier (ODYSSEY_SIMD can force it off);
  // every backend returns bit-identical sums, so the pick is speed-only.
  if (count <= 4) {
    MultiLanes4Sse(query, lanes, n, threshold, sums);
  } else if (static_cast<int>(ActiveIsa()) >=
             static_cast<int>(Isa::kAvx2)) {
    MultiLanes8Avx2(query, lanes, n, threshold, sums);
  } else {
    MultiLanes8Sse(query, lanes, n, threshold, sums);
  }
#else
  if (count <= 4) {
    MultiLanesGeneric<4>(query, lanes, n, threshold, sums);
  } else {
    MultiLanesGeneric<8>(query, lanes, n, threshold, sums);
  }
#endif
  for (size_t c = 0; c < count; ++c) out[c] = sums[c];
}

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
