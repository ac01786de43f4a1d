#ifndef ODYSSEY_DISTANCE_SIMD_H_
#define ODYSSEY_DISTANCE_SIMD_H_

#include <cstddef>

#include "src/common/hotpath.h"

namespace odyssey {
namespace simd {

/// Runtime-dispatched SIMD kernels for the distance hot path. Every kernel
/// exists at three ISA levels — portable scalar, SSE (x86-64 baseline) and
/// AVX2+FMA — grouped into per-ISA tables so that call sites pay for
/// dispatch once, not per distance computation. The active table is chosen
/// at first use from CPUID, overridable with the ODYSSEY_SIMD environment
/// variable ("scalar", "sse", "avx2", "auto"); requesting an ISA the CPU
/// lacks, or an unknown value, resolves to the best supported one, so CI
/// machines without AVX2 run the same binaries. Set ODYSSEY_SIMD_LOG=1 to
/// print the resolved tier to stderr once, so bench JSON runs are
/// attributable to an ISA.
///
/// All kernels share the library's conventions: squared distances, float
/// series, and early-abandoning variants that return some value >=
/// `threshold` once the running sum provably crosses it (checked every 16
/// points at every ISA level, so all levels abandon at the same cadence).

enum class Isa {
  kScalar = 0,
  kSse = 1,
  kAvx2 = 2,
};

/// Human-readable ISA name ("scalar", "sse", "avx2").
const char* IsaName(Isa isa);

/// Lane stride of the interleaved multi-query block consumed by the batched
/// Euclidean kernel: q_count rounded up to 16 floats, so every ISA level
/// (widest vector: 8 lanes) may load full lane groups without reading past
/// the block. Padding lanes are never compared or stored; callers only need
/// them readable (a zero-filled std::vector<float> of n * stride suffices —
/// no alignment requirement, the batched kernel uses unaligned loads).
/// Nothing in the library uses it; it stays only because the benchmark's
/// traced kernel timing (bench/e2e/odyssey_bench.cc, per-layer metric
/// distance.batched_ed_gbps) builds its query block with it.
constexpr size_t BatchStride(size_t q_count) {
  return (q_count + 15) / 16 * 16;
}

/// Every function bound into a KernelTable slot is a purity-checked hot
/// path (ODYSSEY_HOT, src/common/hotpath.h): kernels never allocate, lock,
/// throw or touch the OS. tools/check_hot_paths.py resolves the indirect
/// kernels_->xxx(...) call edges through these tables' positional
/// initializers in simd.cc and verifies the closure — a new kernel wired
/// into a slot without the annotation fails the static-analysis CI job.
struct KernelTable {
  Isa isa;

  /// Squared Euclidean distance over length-n series.
  float (*squared_euclidean)(const float* a, const float* b, size_t n);

  /// Early-abandoning squared Euclidean: exact when < threshold, otherwise
  /// some value >= threshold as soon as the running sum crosses it.
  float (*squared_euclidean_early_abandon)(const float* a, const float* b,
                                           size_t n, float threshold);

  /// Squared LB_Keogh of `candidate` against a precomputed warping envelope
  /// (upper/lower, both length n): sum of squared gaps outside the band.
  float (*lb_keogh)(const float* upper, const float* lower,
                    const float* candidate, size_t n);

  /// Early-abandoning squared LB_Keogh.
  float (*lb_keogh_early_abandon)(const float* upper, const float* lower,
                                  const float* candidate, size_t n,
                                  float threshold);

  /// Batched early-abandoning squared Euclidean: one candidate series
  /// against q_count queries at once, so the candidate is loaded once per
  /// q_count distance computations. Queries are interleaved point-major:
  /// queries[i * stride + q] is point i of query q, with stride =
  /// BatchStride(q_count) lanes readable at every point. out[q] receives
  /// exactly what the per-query *scalar* early-abandon kernel would return
  /// for (query q, candidate, thresholds[q]) — bit-identical at every ISA
  /// level, because each lane accumulates in point order with mul+add
  /// (never FMA) and freezes at the same 16-point abandon cadence.
  /// No query path calls it; it stays only because the benchmark's traced
  /// kernel timing (bench/e2e/odyssey_bench.cc, per-layer metric
  /// distance.batched_ed_gbps) calls it on every tier.
  void (*batched_squared_euclidean_early_abandon)(
      const float* candidate, const float* queries, size_t n, size_t stride,
      size_t q_count, const float* thresholds, float* out);

  /// PAA summarization: the mean of each of `segments` contiguous ranges of
  /// the length-n float series, written to out[0..segments). Boundaries are
  /// the integer partition [floor(i*n/w), floor((i+1)*n/w)) shared with
  /// PaaConfig. Accumulation is double at every ISA level; the vector
  /// levels stripe the per-segment sum across lanes, so results can differ
  /// from scalar by ordinary FP reassociation (property-tested to the same
  /// relative tolerance as the distance kernels).
  void (*paa)(const float* series, size_t n, int segments, double* out);
};

/// Portable scalar reference kernels — always available, the ground truth
/// the vector kernels are property-tested against.
const KernelTable& ScalarTable();

/// SSE kernels; nullptr on non-x86 builds.
const KernelTable* SseTable();

/// AVX2+FMA kernels; nullptr when the CPU (or build) lacks them.
const KernelTable* Avx2Table();

/// The dispatched table: best supported ISA, clamped by ODYSSEY_SIMD.
/// Resolved once per process; the returned reference is immutable.
const KernelTable& ActiveTable();

/// ISA of ActiveTable(), for logging / benchmark counters.
Isa ActiveIsa();

}  // namespace simd
}  // namespace odyssey

#endif  // ODYSSEY_DISTANCE_SIMD_H_
