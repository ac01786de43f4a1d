// odyssey_bench — one workload of the end-to-end benchmark per process.
//
//   odyssey_bench --workload mixed-600k --seed 1 --seconds 10
//                 [--scale 1] [--work-dir DIR] [--trace-out FILE]
//                 [--self-test-verify]
//
// Untraced (no --trace-out): generates every batch the timed loop may
// issue, builds the workload's cluster, warms it up and issues one
// AnswerBatch call after another on it for --seconds. Further builds after
// the loop make setup_s a median. Then, untimed, an exhaustive scalar scan
// answers every query the loop issued (verify_s) and each of the loop's
// answers is checked against it. The last stdout line is one JSON object
// with the end-to-end numbers.
//
// Traced (--trace-out FILE): the same cluster loop with a span around every
// call, followed by a replay of the workload's queries through each layer's
// public functions on one replication group's chunk. Spans are kept in
// memory and written as Chrome trace-event JSON when the run ends; run.py
// derives the per-layer metrics from that file.
//
// All configuration comes from flags (no environment variables): run.py
// refuses to run when one of the library's behaviour-changing ODYSSEY_*
// variables is set, so OdysseyOptions{} defaults are what gets measured.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/math_utils.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/summary_stats.h"
#include "src/common/sync.h"
#include "src/common/thread_pool.h"
#include "src/core/driver.h"
#include "src/core/partitioning.h"
#include "src/core/shared_chunk.h"
#include "src/dataset/file_io.h"
#include "src/dataset/generators.h"
#include "src/dataset/ingest.h"
#include "src/dataset/workload.h"
#include "src/distance/dtw.h"
#include "src/distance/lb_keogh.h"
#include "src/distance/simd.h"
#include "src/index/builder.h"
#include "src/index/query_engine.h"
#include "src/net/mailbox.h"
#include "src/query/prepared_query.h"

#ifndef ODYSSEY_E2E_BUILD_TYPE
#define ODYSSEY_E2E_BUILD_TYPE "unknown"
#endif

namespace odyssey {
namespace e2e {
namespace {

constexpr size_t kLength = 256;
constexpr int kSegments = 16;
constexpr size_t kLeafCapacity = 128;
constexpr double kDtwWarping = 0.05;
// Mixed difficulty (Zoumpatianos et al.): a query is a data series plus
// Gaussian noise of this standard deviation range, or an unrelated walk.
constexpr double kMinNoise = 0.05;
constexpr double kMaxNoise = 2.0;
// Mixed queries are drawn in blocks of kBlock: one unrelated random walk
// (10%) and kBlock - 1 perturbed series whose noise levels form a fixed,
// evenly spaced ladder over [kMinNoise, kMaxNoise]. Stratifying instead of
// drawing each level independently keeps the difficulty mix identical from
// call to call and seed to seed, so the spread measures the system, not
// the draw.
constexpr size_t kBlock = 10;
constexpr size_t kTemplateRepeats = 8;
// The timed loop's batches are generated before the cluster is built, so
// their memory stays out of rss_peak_mb: enough for this many queries per
// second of the run, about ten times the fastest workload's rate. A loop
// that uses them all ends early.
constexpr double kMaxQueriesPerSecond = 4000.0;
constexpr double kTemplateJitter = 0.05;
// Answers agree with the reference when their squared distances differ by
// at most this relative amount (the library accumulates in float).
constexpr double kRelTolerance = 1e-4;
constexpr uint64_t kDataSeed = 0xDA7A;

enum class Mix { kMixed, kCorrelated };

struct Workload {
  const char* name;
  size_t series;
  /// Built with OdysseyCluster::IngestAndBuild from a raw-float archive
  /// (true) or with the in-memory constructor (false).
  bool from_archive;
  int nodes;
  int groups;
  int workers;  ///< query and build threads per node
  Mix mix;
  size_t queries_per_call;
  bool dtw;
  int setup_builds;
  int warmup_calls;
  /// Queries replayed through the per-layer calls in a traced run.
  size_t replay_queries;
};

// Every cluster runs nodes x workers = 4 busy threads, and every call
// carries enough queries to keep them busy for tens of milliseconds or
// more. See README.md for why each workload exists and which layer it
// loads.
const Workload kWorkloads[] = {
    {"mixed-600k", 600000, true, 2, 1, 2, Mix::kMixed, 20, false, 3, 2, 16},
    {"correlated-600k", 600000, true, 2, 1, 2, Mix::kCorrelated, 32, false,
     3, 2, 16},
    {"partial-16k", 16000, false, 4, 2, 1, Mix::kMixed, 20, false, 25, 10,
     400},
    {"dtw-16k", 16000, false, 2, 2, 2, Mix::kMixed, 30, true, 25, 2, 64},
};

// ------------------------------------------------------------------ flags

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  double scale = 1.0;
  std::string work_dir = ".";
  std::string trace_out;
  bool self_test_verify = false;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "odyssey_bench: %s\n", message.c_str());
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      flags.workload = value();
    } else if (arg == "--seed") {
      flags.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      flags.seconds = std::atof(value().c_str());
    } else if (arg == "--scale") {
      flags.scale = std::atof(value().c_str());
    } else if (arg == "--work-dir") {
      flags.work_dir = value();
    } else if (arg == "--trace-out") {
      flags.trace_out = value();
    } else if (arg == "--self-test-verify") {
      flags.self_test_verify = true;
    } else {
      Die("unknown flag " + arg);
    }
  }
  if (flags.seconds <= 0.0) Die("--seconds must be positive");
  if (flags.scale <= 0.0 || flags.scale > 1.0) Die("--scale must be in (0, 1]");
  return flags;
}

const Workload& FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  Die("unknown workload '" + name + "'");
}

/// Applies --scale (smoke runs use 1/50): smaller data, fewer warm-ups and
/// replays, same cluster shape and batch shape.
Workload Scaled(Workload w, double scale) {
  if (scale >= 1.0) return w;
  auto shrink = [scale](size_t v, size_t floor) {
    return std::max(floor, static_cast<size_t>(std::lround(v * scale)));
  };
  w.series = shrink(w.series, 512);
  w.warmup_calls = static_cast<int>(shrink(w.warmup_calls, 1));
  w.replay_queries = shrink(w.replay_queries, 8);
  return w;
}

uint64_t Mix64(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// ----------------------------------------------------------------- tracer

/// In-memory span recorder for the benchmark's own calls into the library.
/// Single-threaded: every span is opened and closed on the main thread, and
/// a span opened while another is open becomes its child. Disabled tracers
/// record nothing, so the untraced run pays one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; `call` groups the spans of one request (-1 = none).
  /// Returns the span id (0 when disabled).
  int64_t Open(const char* name, int64_t call) {
    if (!enabled_) return 0;
    Span span;
    span.name = name;
    span.id = static_cast<int64_t>(spans_.size()) + 1;
    span.parent = open_.empty() ? 0 : open_.back();
    span.call = call;
    span.start_us = NowUs();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void Arg(int64_t id, const char* key, double value) {
    if (id == 0) return;
    spans_[id - 1].args.emplace_back(key, value);
  }

  void Close(int64_t id) {
    if (id == 0) return;
    Span& span = spans_[id - 1];
    span.dur_us = NowUs() - span.start_us;
    ODYSSEY_CHECK(!open_.empty() && open_.back() == id);
    open_.pop_back();
  }

  /// Writes every span as a Chrome trace-event "X" event; the category is
  /// the layer (the name's prefix up to the first '.').
  bool WriteChromeJson(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string name = s.name;
      const std::string layer = name.substr(0, name.find('.'));
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                   "\"args\":{\"span\":%lld,\"parent\":%lld,\"call\":%lld",
                   i == 0 ? "" : ",\n", s.name, layer.c_str(), s.start_us,
                   s.dur_us, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.call));
      for (const auto& [key, value] : s.args) {
        std::fprintf(f, ",\"%s\":%.17g", key, value);
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name = "";
    int64_t id = 0;
    int64_t parent = 0;
    int64_t call = -1;
    double start_us = 0.0;
    double dur_us = 0.0;
    std::vector<std::pair<const char*, double>> args;
  };

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t call = -1)
      : tracer_(tracer), id_(tracer->Open(name, call)) {}
  ~ScopedSpan() { tracer_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Arg(const char* key, double value) { tracer_->Arg(id_, key, value); }

 private:
  Tracer* const tracer_;
  const int64_t id_;
};

// --------------------------------------------------------------- queries

/// Noise levels for `related` perturbed queries at the midpoints of
/// `related` equal steps over [kMinNoise, kMaxNoise], plus `unrelated`
/// entries of -1 (an unrelated random walk), in random order.
std::vector<double> NoiseLadder(Rng* rng, size_t related, size_t unrelated) {
  std::vector<double> levels;
  for (size_t j = 0; j < related; ++j) {
    levels.push_back(kMinNoise + (kMaxNoise - kMinNoise) *
                                     (static_cast<double>(j) + 0.5) /
                                     static_cast<double>(related));
  }
  levels.insert(levels.end(), unrelated, -1.0);
  for (size_t j = levels.size(); j > 1; --j) {
    std::swap(levels[j - 1], levels[rng->NextBounded(j)]);
  }
  return levels;
}

/// Produces the workload's AnswerBatch inputs, one call at a time.
///  - kMixed: a stream of stratified blocks of kBlock queries, one of them
///    unrelated (so a call of 20 holds exactly two).
///  - kCorrelated: per call, a ladder of templates (perturbed data series)
///    each repeated kTemplateRepeats times with kTemplateJitter noise,
///    template-major, so co-resident queries walk the same leaves.
class BatchSource {
 public:
  BatchSource(const Workload& w, const SeriesCollection* data, uint64_t seed)
      : w_(w), data_(data), rng_(seed) {}

  SeriesCollection Next() {
    SeriesCollection batch(kLength);
    batch.Reserve(w_.queries_per_call);
    if (w_.mix == Mix::kMixed) {
      for (size_t q = 0; q < w_.queries_per_call; ++q) {
        if (next_ == block_.size()) {
          block_ = NoiseLadder(&rng_, kBlock - 1, 1);
          next_ = 0;
        }
        batch.Append(Query(block_[next_++]).data(0));
      }
      return batch;
    }
    const size_t templates = w_.queries_per_call / kTemplateRepeats;
    for (double noise : NoiseLadder(&rng_, templates, 0)) {
      const SeriesCollection repeats = GenerateUniformQueries(
          Query(noise), kTemplateRepeats, kTemplateJitter, rng_.NextU64());
      for (size_t r = 0; r < repeats.size(); ++r) batch.Append(repeats.data(r));
    }
    return batch;
  }

 private:
  SeriesCollection Query(double noise) {
    const uint64_t seed = rng_.NextU64();
    return noise < 0.0 ? GenerateRandomWalk(1, kLength, seed)
                       : GenerateUniformQueries(*data_, 1, noise, seed);
  }

  const Workload& w_;
  const SeriesCollection* data_;
  Rng rng_;
  std::vector<double> block_;
  size_t next_ = 0;
};

// ------------------------------------------------------------- reference
//
// Exhaustive reference answers, computed untimed with plain scalar loops in
// double precision — deliberately not the library's SIMD kernels, which are
// what is under test. Every shortcut is exact: early abandoning at the
// running best (a partial sum of squares only grows) and skipping a row
// whose lower bound already reaches it.

double RefSquaredEd(const float* a, const float* b, size_t n, double bound) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  while (i < n) {
    const size_t end = std::min(n, i + 32);
    for (; i + 4 <= end; i += 4) {
      for (size_t k = 0; k < 4; ++k) {
        const double d = static_cast<double>(a[i + k]) - b[i + k];
        acc[k] += d * d;
      }
    }
    for (; i < end; ++i) {
      const double d = static_cast<double>(a[i]) - b[i];
      acc[0] += d * d;
    }
    const double sum = acc[0] + acc[1] + acc[2] + acc[3];
    if (sum >= bound) return sum;
  }
  return acc[0] + acc[1] + acc[2] + acc[3];
}

/// Banded DTW (Sakoe-Chiba, |i - j| <= window) over squared point costs,
/// abandoning once a whole DP row plus `tail` is at or above `bound`.
/// `tail` (n + 1 entries, or null for none) bounds what the path still has
/// to pay after row i: every point j > i + window of `b` is matched to some
/// later point of `a` within the window, so tail[j] may be the LB_Keogh
/// contribution of b[j..n) against a's envelope (the UCR-suite cascade).
double RefSquaredDtw(const float* a, const float* b, size_t n, size_t window,
                     double bound, const double* tail,
                     std::vector<double>* prev_row,
                     std::vector<double>* cur_row) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  window = std::min(window, n - 1);
  // Row cell j + 1 holds column j; cell 0 is the column -1 sentinel, which
  // is 0 only above (0, 0) so that D(0, 0) is its own point cost.
  std::vector<double>& prev = *prev_row;
  std::vector<double>& cur = *cur_row;
  prev.assign(n + 1, kInf);
  cur.assign(n + 1, kInf);
  prev[0] = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i >= window ? i - window : 0;
    const size_t hi = std::min(n - 1, i + window);
    // cur still holds row i - 2; the only stale cells ever read are the
    // two flanking this row's band (this row's left neighbour, and the
    // next row's upper diagonal).
    cur[lo] = kInf;
    if (hi + 2 <= n) cur[hi + 2] = kInf;
    const double ai = a[i];
    double row_min = kInf;
    for (size_t c = lo + 1; c <= hi + 1; ++c) {
      const double d = ai - b[c - 1];
      cur[c] = d * d + std::min(std::min(prev[c], prev[c - 1]), cur[c - 1]);
      row_min = std::min(row_min, cur[c]);
    }
    const double rest =
        tail == nullptr ? 0.0 : tail[std::min(n, i + window + 1)];
    if (row_min + rest >= bound) return row_min + rest;
    std::swap(prev, cur);
  }
  return prev[n];
}

struct Reference {
  double distance = std::numeric_limits<double>::infinity();
  uint32_t id = 0;
};

/// Segment means of one series over kSegments equal-length segments.
void RefPaa(const float* series, size_t n, double* out) {
  for (int seg = 0; seg < kSegments; ++seg) {
    const size_t lo = seg * n / kSegments;
    const size_t hi = (seg + 1) * n / kSegments;
    double sum = 0.0;
    for (size_t t = lo; t < hi; ++t) sum += series[t];
    out[seg] = sum / static_cast<double>(hi - lo);
  }
}

/// Every row's segment means, computed once per reference pass.
std::vector<double> RefPaaTable(const SeriesCollection& data, int threads) {
  std::vector<double> table(data.size() * kSegments);
  std::vector<CountedThread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t s = t; s < data.size(); s += threads) {
        RefPaa(data.data(0) + s * data.length(), data.length(),
               table.data() + s * kSegments);
      }
    });
  }
  for (CountedThread& t : pool) t.Join();
  return table;
}

/// Nearest neighbour of one query: every row is either skipped by the PAA
/// lower bound (segment length x squared mean gap, summed — never above
/// the squared ED by Cauchy-Schwarz) or measured with an early-abandoning
/// scan. The best distance is seeded from the rows with the smallest
/// bounds, so the filter bites from the first row.
Reference ReferenceEd(const SeriesCollection& data,
                      const std::vector<double>& paa_table,
                      const float* query, std::vector<double>* bounds) {
  const size_t n = data.length();
  double qpaa[kSegments];
  RefPaa(query, n, qpaa);
  const double seg_len = static_cast<double>(n) / kSegments;
  bounds->resize(data.size());
  constexpr size_t kSeeds = 8;
  std::vector<std::pair<double, uint32_t>> seeds;
  for (size_t s = 0; s < data.size(); ++s) {
    const double* spaa = paa_table.data() + s * kSegments;
    double lb = 0.0;
    for (int seg = 0; seg < kSegments; ++seg) {
      const double gap = qpaa[seg] - spaa[seg];
      lb += gap * gap;
    }
    lb *= seg_len;
    (*bounds)[s] = lb;
    if (seeds.size() < kSeeds || lb < seeds.back().first) {
      if (seeds.size() == kSeeds) seeds.pop_back();
      seeds.insert(std::upper_bound(seeds.begin(), seeds.end(),
                                    std::make_pair(lb, uint32_t{0})),
                   {lb, static_cast<uint32_t>(s)});
    }
  }
  Reference best;
  auto visit = [&](uint32_t s) {
    const double d =
        RefSquaredEd(query, data.data(0) + s * n, n, best.distance);
    if (d < best.distance) best = {d, s};
  };
  for (const auto& seed : seeds) visit(seed.second);
  for (size_t s = 0; s < data.size(); ++s) {
    if ((*bounds)[s] < best.distance) visit(static_cast<uint32_t>(s));
  }
  return best;
}

/// Nearest DTW neighbour of one query: LB_Keogh (own envelope) of every
/// row, then DTW in ascending bound order until the next bound reaches the
/// best distance — an exact cascade, since LB_Keogh <= DTW.
Reference ReferenceDtw(const SeriesCollection& data, const float* query,
                       size_t window) {
  const size_t n = data.length();
  std::vector<double> upper(n), lower(n), tail(n + 1), prev, cur;
  auto gap = [&](const float* series, size_t i) {
    const double v = series[i];
    return v > upper[i] ? v - upper[i] : (v < lower[i] ? lower[i] - v : 0.0);
  };
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i >= window ? i - window : 0;
    const size_t hi = std::min(n - 1, i + window);
    upper[i] = -std::numeric_limits<double>::infinity();
    lower[i] = std::numeric_limits<double>::infinity();
    for (size_t j = lo; j <= hi; ++j) {
      upper[i] = std::max(upper[i], static_cast<double>(query[j]));
      lower[i] = std::min(lower[i], static_cast<double>(query[j]));
    }
  }
  std::vector<std::pair<double, uint32_t>> bounds(data.size());
  for (size_t s = 0; s < data.size(); ++s) {
    const float* series = data.data(0) + s * n;
    double lb = 0.0;
    for (size_t i = 0; i < n; ++i) lb += gap(series, i) * gap(series, i);
    bounds[s] = {lb, static_cast<uint32_t>(s)};
  }
  std::sort(bounds.begin(), bounds.end());
  Reference best;
  for (const auto& [lb, s] : bounds) {
    if (lb >= best.distance) break;
    const float* series = data.data(0) + s * n;
    tail[n] = 0.0;
    for (size_t i = n; i-- > 0;) {
      tail[i] = tail[i + 1] + gap(series, i) * gap(series, i);
    }
    const double d = RefSquaredDtw(query, series, n, window, best.distance,
                                   tail.data(), &prev, &cur);
    if (d < best.distance) best = {d, s};
  }
  return best;
}

/// Exhaustive nearest neighbour of every query in `queries` over `data`,
/// spread over `threads` counted threads.
std::vector<Reference> ExhaustiveReference(const SeriesCollection& data,
                                           const SeriesCollection& queries,
                                           bool dtw, size_t window,
                                           int threads) {
  std::vector<Reference> out(queries.size());
  const std::vector<double> paa_table =
      dtw ? std::vector<double>() : RefPaaTable(data, threads);
  std::atomic<size_t> cursor{0};
  auto worker = [&] {
    std::vector<double> bounds;
    for (size_t q = cursor.fetch_add(1); q < queries.size();
         q = cursor.fetch_add(1)) {
      out[q] = dtw ? ReferenceDtw(data, queries.data(q), window)
                   : ReferenceEd(data, paa_table, queries.data(q), &bounds);
    }
  };
  std::vector<CountedThread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (CountedThread& t : pool) t.Join();
  return out;
}

bool CloseEnough(double a, double b) {
  return std::fabs(a - b) <= kRelTolerance * std::max(std::fabs(a), std::fabs(b)) + 1e-6;
}

/// An answer (its nearest neighbour, null when missing) is correct when its
/// distance matches the reference's and the series it names really lies at
/// that distance.
bool AnswerIsCorrect(const Neighbor* nearest, const Reference& ref,
                     const float* query, const SeriesCollection& data,
                     bool dtw, size_t window) {
  if (nearest == nullptr || nearest->id >= data.size()) return false;
  const double got = nearest->squared_distance;
  if (!CloseEnough(got, ref.distance)) return false;
  std::vector<double> prev, cur;
  const float* series = data.data(nearest->id);
  const double actual =
      dtw ? RefSquaredDtw(query, series, kLength, window,
                          std::numeric_limits<double>::infinity(), nullptr,
                          &prev, &cur)
          : RefSquaredEd(query, series, kLength,
                         std::numeric_limits<double>::infinity());
  return CloseEnough(actual, got);
}

// ---------------------------------------------------------------- cluster

/// The workload's data: z-normalized random walks (the paper's Random
/// data set), generated as kSlices independently seeded slices in parallel.
/// The slice count is fixed so the data depends on the seed alone.
SeriesCollection GenerateData(size_t count, uint64_t seed) {
  constexpr size_t kSlices = 4;
  std::vector<SeriesCollection> parts(kSlices, SeriesCollection(kLength));
  {
    std::vector<CountedThread> threads;
    for (size_t k = 0; k < kSlices; ++k) {
      threads.emplace_back([&, k] {
        const size_t begin = count * k / kSlices;
        const size_t end = count * (k + 1) / kSlices;
        parts[k] = GenerateRandomWalk(end - begin, kLength, Mix64(seed, k));
      });
    }
    for (CountedThread& t : threads) t.Join();
  }
  SeriesCollection data(kLength);
  data.Reserve(count);
  for (SeriesCollection& part : parts) {
    if (part.empty()) continue;
    std::memcpy(data.AppendUninitialized(part.size()), part.data(0),
                part.size() * kLength * sizeof(float));
    part = SeriesCollection(kLength);
  }
  return data;
}

OdysseyOptions ClusterOptions(const Workload& w) {
  OdysseyOptions options;  // library defaults, except what follows
  options.num_nodes = w.nodes;
  options.num_groups = w.groups;
  options.build_threads_per_node = w.workers;
  options.query_options.num_threads = w.workers;
  options.index_options.config = IsaxConfig(kLength, kSegments);
  options.index_options.leaf_capacity = kLeafCapacity;
  if (w.dtw) {
    options.query_options.use_dtw = true;
    options.query_options.dtw_window =
        WarpingWindowFromFraction(kLength, kDtwWarping);
  }
  return options;
}

/// Removes the file on scope exit.
class ScratchFile {
 public:
  explicit ScratchFile(std::string path) : path_(std::move(path)) {}
  ~ScratchFile() { std::remove(path_.c_str()); }
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

IngestOptions ArchiveIngestOptions() {
  IngestOptions ingest;
  ingest.format = DataFormat::kRawFloat;
  ingest.length = kLength;
  return ingest;
}

std::unique_ptr<OdysseyCluster> BuildCluster(const Workload& w,
                                             const OdysseyOptions& options,
                                             const SeriesCollection& data,
                                             const std::string& archive) {
  if (!w.from_archive) return std::make_unique<OdysseyCluster>(data, options);
  StatusOr<SeriesIngestor> source =
      SeriesIngestor::Open(archive, ArchiveIngestOptions());
  if (!source.ok()) Die(source.status().ToString());
  StatusOr<std::unique_ptr<OdysseyCluster>> cluster =
      OdysseyCluster::IngestAndBuild(*source, options);
  if (!cluster.ok()) Die(cluster.status().ToString());
  return std::move(cluster).value();
}

/// The nearest neighbour the loop received for one query, checked against
/// the reference after the loop.
struct LoopAnswer {
  bool present = false;  ///< the batch succeeded and answered this query
  Neighbor nearest;
};

struct LoopResult {
  std::vector<double> call_ms;
  double seconds = 0.0;  ///< wall time of the whole loop
  size_t queries = 0;    ///< queries issued, in batch order
};

/// Attaches one AnswerBatch call's BatchReport counters to its span.
void RecordCall(ScopedSpan* span, size_t queries, const BatchReport& report,
                uint64_t threads_spawned) {
  double busy_max = 0.0, busy_sum = 0.0, given_away = 0.0;
  for (const NodeBatchStats& s : report.node_stats) {
    busy_max = std::max(busy_max, s.busy_seconds);
    busy_sum += s.busy_seconds;
    given_away += s.batches_given_away;
  }
  span->Arg("queries", static_cast<double>(queries));
  span->Arg("nodes", static_cast<double>(report.node_stats.size()));
  span->Arg("prepare_s", report.prepare_seconds);
  span->Arg("scheduling_s", report.scheduling_seconds);
  span->Arg("busy_max_s", busy_max);
  span->Arg("busy_sum_s", busy_sum);
  span->Arg("steals", report.total_steals());
  span->Arg("given_away", given_away);
  span->Arg("inflight_hwm", report.queries_in_flight_hwm);
  span->Arg("messages", static_cast<double>(report.messages_sent));
  span->Arg("bsf_updates", static_cast<double>(report.bsf_updates));
  span->Arg("threads_spawned", static_cast<double>(threads_spawned));
}

/// The closed loop: one client issues the pre-generated batches back to
/// back until `seconds` have passed (at least three calls) or they run
/// out. Query i's answer goes into `(*answers)[i]`, one slot per
/// pre-generated query, allocated before the loop.
LoopResult RunLoop(OdysseyCluster* cluster,
                   const std::vector<SeriesCollection>& batches,
                   double seconds, Tracer* tracer,
                   std::vector<LoopAnswer>* answers) {
  LoopResult result;
  result.call_ms.reserve(batches.size());
  Stopwatch loop;
  for (size_t c = 0; c < batches.size(); ++c) {
    if (c >= 3 && loop.ElapsedSeconds() >= seconds) break;
    const SeriesCollection& batch = batches[c];
    BatchReport report;
    {
      const uint64_t spawned_before = executor_stats::ThreadsSpawned();
      ScopedSpan span(tracer, "core.answer_batch", static_cast<int64_t>(c));
      Stopwatch call;
      report = cluster->AnswerBatch(batch);
      result.call_ms.push_back(call.ElapsedMillis());
      if (tracer->enabled()) {
        RecordCall(&span, batch.size(), report,
                   executor_stats::ThreadsSpawned() - spawned_before);
      }
    }
    for (size_t q = 0; q < batch.size(); ++q) {
      LoopAnswer& slot = (*answers)[result.queries++];
      slot.present = report.status.ok() && q < report.answers.size() &&
                     !report.answers[q].empty();
      if (slot.present) slot.nearest = report.answers[q][0];
    }
  }
  result.seconds = loop.ElapsedSeconds();
  return result;
}

/// Unverified, unmeasured calls: they start the nodes' threads and fill
/// the caches.
void WarmUp(OdysseyCluster* cluster,
            const std::vector<SeriesCollection>& batches) {
  for (const SeriesCollection& batch : batches) {
    (void)cluster->AnswerBatch(batch);
  }
}

/// One "<field>: <n> kB" line of /proc/self/status, in MiB.
double ProcStatusMiB(const char* field) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) Die("cannot open /proc/self/status");
  const size_t len = std::strlen(field);
  double kib = -1.0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kib = std::atof(line + len + 1);
      break;
    }
  }
  std::fclose(f);
  if (kib < 0.0) Die(std::string("no ") + field + " in /proc/self/status");
  return kib / 1024.0;
}

/// Lowers the process's peak resident set (VmHWM) to its current size.
void ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool written = f != nullptr && std::fputs("5", f) >= 0;
  if (f == nullptr || std::fclose(f) != 0 || !written) {
    Die("cannot reset the peak RSS through /proc/self/clear_refs");
  }
}

// ----------------------------------------------------------------- replay
//
// Traced runs only: the workload's queries replayed through each layer's
// public calls on replication group 0's chunk, which PartitionSeries with
// the cluster's scheme and seed reproduces exactly.

struct ReplayInput {
  /// Released once group 0's chunk is copied out, so the chunk-sized
  /// buffers of the kernel passes do not stack on top of the full data.
  SeriesCollection* data;
  const OdysseyOptions* options;
  const SeriesCollection* queries;
  size_t failed = 0;
  size_t attempted = 0;
};

void TraceIngest(Tracer* tracer, const std::string& archive) {
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan span(tracer, "dataset.ingest");
    StatusOr<SeriesIngestor> source =
        SeriesIngestor::Open(archive, ArchiveIngestOptions());
    if (!source.ok()) Die(source.status().ToString());
    StatusOr<SeriesCollection> all = source->ReadAll();
    if (!all.ok()) Die(all.status().ToString());
    span.Arg("bytes", static_cast<double>(all->size() * kLength * sizeof(float)));
  }
}

/// Receives the kernel passes' results, so no pass can be optimized away.
volatile double g_sink = 0.0;

/// Times `body(row)` over every row of `chunk`, three times; the span
/// carries the bytes (or DP cells) the pass covered.
template <typename Body>
double TimeRows(Tracer* tracer, const char* name, const SeriesCollection& chunk,
                size_t rows, const char* unit, double per_row, Body body) {
  double checksum = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan span(tracer, name);
    for (size_t r = 0; r < rows; ++r) checksum += body(chunk.data(r));
    span.Arg(unit, per_row * static_cast<double>(rows));
  }
  return checksum;
}

/// Kernel throughput over the chunk; `window` is the DTW workload's warping
/// window, used for LB_Keogh and DTW on every workload.
void TraceKernels(Tracer* tracer, const SeriesCollection& chunk,
                  const SeriesCollection& queries, size_t window) {
  const size_t rows = chunk.size();
  const double row_bytes = static_cast<double>(kLength * sizeof(float));
  const simd::KernelTable& kernels = simd::ActiveTable();
  const float* q = queries.data(0);
  double checksum = 0.0;

  {
    std::vector<float> dst(rows * kLength, 1.0f);  // pre-faulted
    for (int rep = 0; rep < 3; ++rep) {
      ScopedSpan span(tracer, "common.memcpy");
      std::memcpy(dst.data(), chunk.data(0), rows * kLength * sizeof(float));
      span.Arg("bytes", row_bytes * static_cast<double>(rows));
    }
    checksum += dst[rows * kLength / 2];
  }

  double paa[kSegments];
  checksum += TimeRows(tracer, "isax.paa", chunk, rows, "bytes", row_bytes,
                       [&](const float* row) {
                         kernels.paa(row, kLength, kSegments, paa);
                         return paa[0];
                       });
  checksum += TimeRows(tracer, "distance.ed", chunk, rows, "bytes", row_bytes,
                       [&](const float* row) {
                         return kernels.squared_euclidean(q, row, kLength);
                       });

  constexpr size_t kBatchQ = 8;
  const size_t stride = simd::BatchStride(kBatchQ);
  std::vector<float> block(kLength * stride, 0.0f);
  for (size_t i = 0; i < kLength; ++i) {
    for (size_t j = 0; j < kBatchQ; ++j) {
      block[i * stride + j] = queries.data(j % queries.size())[i];
    }
  }
  const std::vector<float> thresholds(kBatchQ,
                                      std::numeric_limits<float>::infinity());
  float out[kBatchQ];
  checksum += TimeRows(
      tracer, "distance.batched_ed", chunk, rows, "bytes", row_bytes,
      [&](const float* row) {
        kernels.batched_squared_euclidean_early_abandon(
            row, block.data(), kLength, stride, kBatchQ, thresholds.data(),
            out);
        return out[0];
      });

  const Envelope envelope = BuildEnvelope(q, kLength, window);
  checksum += TimeRows(tracer, "distance.lb_keogh", chunk, rows, "bytes",
                       row_bytes, [&](const float* row) {
                         return kernels.lb_keogh(envelope.upper.data(),
                                                 envelope.lower.data(), row,
                                                 kLength);
                       });

  double cells = 0.0;
  for (size_t i = 0; i < kLength; ++i) {
    const size_t lo = i >= window ? i - window : 0;
    const size_t hi = std::min(kLength - 1, i + window);
    cells += static_cast<double>(hi - lo + 1);
  }
  checksum += TimeRows(tracer, "distance.dtw", chunk, std::min<size_t>(rows, 4000),
                       "cells", cells, [&](const float* row) {
                         return SquaredDtw(q, row, kLength, window);
                       });
  g_sink = g_sink + checksum;
}

void TraceMailbox(Tracer* tracer) {
  constexpr int kRoundTrips = 5000;
  Mailbox ping, pong;
  ScopedSpan span(tracer, "net.mailbox_pingpong");
  CountedThread server([&] {
    Message m;
    for (int i = 0; i < kRoundTrips; ++i) {
      if (!ping.Receive(&m)) return;
      pong.Send(m);
    }
  });
  CountedThread client([&] {
    Message m;
    for (int i = 0; i < kRoundTrips; ++i) {
      ping.Send(Message{});
      if (!pong.Receive(&m)) return;
    }
  });
  client.Join();
  server.Join();
  span.Arg("round_trips", kRoundTrips);
}

/// Replays the queries through prepare, seed, search and grouped search on
/// group 0's chunk, verifying every replayed answer.
void TraceReplay(Tracer* tracer, ReplayInput* in, int threads) {
  const OdysseyOptions& options = *in->options;
  const IsaxConfig& config = options.index_options.config;
  const QueryOptions& qopts = options.query_options;

  std::vector<uint32_t> chunk_ids;
  {
    ScopedSpan span(tracer, "core.partition");
    std::vector<std::vector<uint32_t>> chunks =
        PartitionSeries(*in->data, options.num_groups, options.partitioning,
                        config, options.seed);
    chunk_ids = std::move(chunks[0]);
    span.Arg("series", static_cast<double>(in->data->size()));
  }
  ThreadPool build_pool(static_cast<size_t>(options.build_threads_per_node));
  {
    SeriesCollection subset = in->data->Subset(chunk_ids);
    ScopedSpan span(tracer, "core.shared_chunk_build");
    std::shared_ptr<const SharedChunk> bundle = SharedChunk::Build(
        std::move(subset), chunk_ids, config, &build_pool);
    span.Arg("series", static_cast<double>(bundle->size()));
  }
  SeriesCollection subset = in->data->Subset(chunk_ids);
  *in->data = SeriesCollection(kLength);
  Index index = [&] {
    ScopedSpan span(tracer, "index.build");
    Index built = Index::Build(std::move(subset), options.index_options,
                               &build_pool);
    span.Arg("series", static_cast<double>(built.data().size()));
    return built;
  }();
  const SeriesCollection& chunk = index.data();

  const std::vector<Reference> refs = ExhaustiveReference(
      chunk, *in->queries, qopts.use_dtw, qopts.dtw_window, threads);
  TraceKernels(tracer, chunk, *in->queries,
               WarpingWindowFromFraction(kLength, kDtwWarping));

  PreparedBatch prepared;
  {
    ScopedSpan span(tracer, "query.prepare");
    prepared = PreparedBatch::Prepare(*in->queries, config, qopts.use_dtw,
                                      qopts.dtw_window);
    span.Arg("queries", static_cast<double>(in->queries->size()));
  }

  ThreadPool pool(static_cast<size_t>(qopts.num_threads));
  auto check = [&](size_t q, const KnnSet& knn) {
    const QueryAnswer answer = knn.SortedResults();
    ++in->attempted;
    if (!AnswerIsCorrect(answer.empty() ? nullptr : &answer[0], refs[q],
                         in->queries->data(q), chunk, qopts.use_dtw,
                         qopts.dtw_window)) {
      ++in->failed;
    }
  };
  for (size_t q = 0; q < prepared.size(); ++q) {
    ScopedSpan query_span(tracer, "bench.query", static_cast<int64_t>(q));
    QueryExecution exec(&index, prepared.query(q), qopts);
    {
      ScopedSpan span(tracer, "index.seed", static_cast<int64_t>(q));
      exec.SeedInitialBsf();
    }
    {
      ScopedSpan span(tracer, "index.search", static_cast<int64_t>(q));
      exec.Run(&pool);
      const QueryStats stats = exec.stats();
      span.Arg("leaves_processed", static_cast<double>(stats.leaves_processed));
      span.Arg("leaves_inserted", static_cast<double>(stats.leaves_inserted));
      span.Arg("real_distances", static_cast<double>(stats.real_distances));
      span.Arg("chunk_series", static_cast<double>(chunk.size()));
    }
    check(q, exec.results());
  }

  constexpr size_t kGroup = 4;
  for (size_t g = 0; g + kGroup <= prepared.size(); g += kGroup) {
    ScopedSpan group_span(tracer, "bench.group", static_cast<int64_t>(g));
    std::vector<std::unique_ptr<QueryExecution>> members;
    std::vector<QueryExecution*> raw;
    for (size_t q = g; q < g + kGroup; ++q) {
      members.push_back(
          std::make_unique<QueryExecution>(&index, prepared.query(q), qopts));
      members.back()->SeedInitialBsf();
      raw.push_back(members.back().get());
    }
    {
      ScopedSpan span(tracer, "index.grouped_search", static_cast<int64_t>(g));
      GroupedQueryExecution group(raw);
      group.Run(&pool);
      span.Arg("queries", kGroup);
    }
    for (size_t q = g; q < g + kGroup; ++q) check(q, members[q - g]->results());
  }
}

// ----------------------------------------------------------------- output

void PrintJson(const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string line = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + fields[i].first + "\": " + fields[i].second;
  }
  line += "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(const std::string& s) { return "\"" + s + "\""; }

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += Num(values[i]);
  }
  return out + "]";
}

int Run(const Flags& flags) {
  const Workload w = Scaled(FindWorkload(flags.workload), flags.scale);
  const OdysseyOptions options = ClusterOptions(w);
  const bool traced = !flags.trace_out.empty();
  const int cpus = UsableCpus();
  Tracer tracer(traced);
  Stopwatch run_watch;

  // The data set is the same for every seed, so the index it builds (and
  // index_mb) does too; --seed varies the queries.
  SeriesCollection data = GenerateData(w.series, kDataSeed);
  std::unique_ptr<ScratchFile> archive;
  if (w.from_archive || traced) {
    archive = std::make_unique<ScratchFile>(
        flags.work_dir + "/" + w.name + "-" + std::to_string(flags.seed) +
        "-" + std::to_string(getpid()) + ".f32");
    const Status written = WriteRawFloats(data, archive->path());
    if (!written.ok()) Die(written.ToString());
  }
  const double data_s = run_watch.ElapsedSeconds();
  if (traced) TraceIngest(&tracer, archive->path());
  const std::string archive_path = archive ? archive->path() : "";

  // Every batch the timed loop may issue, generated before anything is
  // timed; the warm-up batches come from a stream of their own.
  const double loop_seconds = traced ? 0.4 * flags.seconds : flags.seconds;
  const size_t max_calls =
      static_cast<size_t>(std::ceil(loop_seconds * kMaxQueriesPerSecond /
                                    static_cast<double>(w.queries_per_call))) +
      3;
  BatchSource warm_source(w, &data, Mix64(flags.seed, 0xBA5E));
  std::vector<SeriesCollection> warm_batches;
  for (int c = 0; c < w.warmup_calls; ++c) {
    warm_batches.push_back(warm_source.Next());
  }
  BatchSource source(w, &data, Mix64(flags.seed, 0x5EED));
  std::vector<SeriesCollection> batches;
  for (size_t c = 0; c < max_calls; ++c) batches.push_back(source.Next());
  std::vector<LoopAnswer> answers(max_calls * w.queries_per_call);

  // Every cluster construction is one setup_s sample.
  std::vector<double> setup_s;
  auto build = [&] {
    Stopwatch watch;
    std::unique_ptr<OdysseyCluster> built =
        BuildCluster(w, options, data, archive_path);
    setup_s.push_back(watch.ElapsedSeconds());
    return built;
  };

  // rss_peak_mb is the library's own footprint: the peak resident set from
  // the measured cluster's construction to the end of the loop, above what
  // the process holds just before it (the data, the batches and the
  // answers' slots). Freed heap is trimmed first, so the baseline counts
  // live memory only.
  malloc_trim(0);
  const double rss_baseline_mb = ProcStatusMiB("VmRSS");
  ResetPeakRss();
  std::unique_ptr<OdysseyCluster> cluster;
  {
    ScopedSpan span(&tracer, "core.cluster_build");
    cluster = build();
  }
  const double index_mb =
      static_cast<double>(cluster->total_index_bytes()) / (1024.0 * 1024.0);
  WarmUp(cluster.get(), warm_batches);
  const LoopResult loop = [&] {
    ScopedSpan span(&tracer, "bench.cluster_loop");
    return RunLoop(cluster.get(), batches, loop_seconds, &tracer, &answers);
  }();
  const double rss_peak_mb = ProcStatusMiB("VmHWM") - rss_baseline_mb;
  cluster.reset();

  // Untimed: the exhaustive reference answers every query the loop issued,
  // and each of the loop's answers is checked against it.
  SeriesCollection issued(kLength);
  issued.Reserve(loop.queries);
  for (size_t c = 0; issued.size() < loop.queries; ++c) {
    for (size_t q = 0; q < batches[c].size(); ++q) {
      issued.Append(batches[c].data(q));
    }
  }
  const size_t window = options.query_options.dtw_window;
  Stopwatch verify_watch;
  std::vector<Reference> refs =
      ExhaustiveReference(data, issued, w.dtw, window, cpus);
  const double verify_s = verify_watch.ElapsedSeconds();
  if (flags.self_test_verify) refs[0].distance *= 1.5;
  size_t attempted = loop.queries;
  size_t failed = 0;
  for (size_t q = 0; q < loop.queries; ++q) {
    const LoopAnswer& a = answers[q];
    if (!AnswerIsCorrect(a.present ? &a.nearest : nullptr, refs[q],
                         issued.data(q), data, w.dtw, window)) {
      ++failed;
    }
  }
  if (flags.self_test_verify) {
    const bool fired = failed > 0;
    std::fprintf(stderr, "self-test-verify: %zu of %zu answers failed (%s)\n",
                 failed, attempted,
                 fired ? "the check fires" : "THE CHECK DID NOT FIRE");
    PrintJson({{"self_test_verify", fired ? "true" : "false"},
               {"attempted", Num(static_cast<double>(attempted))},
               {"failed", Num(static_cast<double>(failed))}});
    return fired ? 0 : 1;
  }

  while (!traced && static_cast<int>(setup_s.size()) < w.setup_builds) {
    (void)build();
  }

  if (traced) {
    SeriesCollection replay(kLength);
    for (size_t q = 0; q < std::min(w.replay_queries, issued.size()); ++q) {
      replay.Append(issued.data(q));
    }
    ReplayInput in{&data, &options, &replay};
    {
      ScopedSpan span(&tracer, "bench.replay");
      TraceReplay(&tracer, &in, cpus);
    }
    TraceMailbox(&tracer);
    attempted += in.attempted;
    failed += in.failed;
    if (!tracer.WriteChromeJson(flags.trace_out)) {
      Die("cannot write trace " + flags.trace_out);
    }
  }

  // qps is closed-loop throughput: every query the loop issued over the
  // time spent inside AnswerBatch. The tail percentiles are informational
  // (BENCHMARK.json gates none of them): on a shared host they follow the
  // host's scheduling delays more than the library.
  double call_ms_sum = 0.0;
  for (double ms : loop.call_ms) call_ms_sum += ms;
  PrintJson({
      {"workload", Str(w.name)},
      {"seed", Num(static_cast<double>(flags.seed))},
      {"traced", traced ? "true" : "false"},
      {"build_type", Str(ODYSSEY_E2E_BUILD_TYPE)},
      {"isa", Str(simd::IsaName(simd::ActiveIsa()))},
      {"cpus", Num(cpus)},
      {"series", Num(static_cast<double>(w.series))},
      {"queries_per_call", Num(static_cast<double>(w.queries_per_call))},
      {"calls", Num(static_cast<double>(loop.call_ms.size()))},
      {"max_calls", Num(static_cast<double>(max_calls))},
      {"attempted", Num(static_cast<double>(attempted))},
      {"failed", Num(static_cast<double>(failed))},
      {"data_s", Num(data_s)},
      {"verify_s", Num(verify_s)},
      {"loop_s", Num(loop.seconds)},
      {"setup_samples_s", NumList(setup_s)},
      {"setup_s", Num(Median(setup_s))},
      {"qps", Num(static_cast<double>(loop.queries) / (call_ms_sum / 1e3))},
      {"latency_p50_ms", Num(Median(loop.call_ms))},
      {"latency_p90_ms", Num(Percentile(loop.call_ms, 90.0))},
      {"latency_p99_ms", Num(Percentile(loop.call_ms, 99.0))},
      {"rss_baseline_mb", Num(rss_baseline_mb)},
      {"rss_peak_mb", Num(rss_peak_mb)},
      {"index_mb", Num(index_mb)},
      {"wall_s", Num(run_watch.ElapsedSeconds())},
      {"call_ms", NumList(loop.call_ms)},
  });
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace odyssey

int main(int argc, char** argv) {
  return odyssey::e2e::Run(odyssey::e2e::ParseFlags(argc, argv));
}
