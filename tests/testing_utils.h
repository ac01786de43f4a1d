#ifndef ODYSSEY_TESTS_TESTING_UTILS_H_
#define ODYSSEY_TESTS_TESTING_UTILS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/dataset/series_collection.h"
#include "src/distance/dtw.h"
#include "src/distance/euclidean.h"
#include "src/index/query_engine.h"
#include "src/index/tree.h"

namespace odyssey {
namespace testing_utils {

/// A path under ::testing::TempDir() for a fixture file or directory named
/// `name`, with this process's id in it: two runs of one suite at the same
/// time (a sanitizer build's ctest beside a normal build's, say) then never
/// rewrite each other's fixtures.
inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/odyssey_" + std::to_string(::getpid()) +
         "_" + name;
}

/// Deep structural equality of two index subtrees: same words, same split
/// segments, same row ranges. This is the replica bit-identity Odyssey's
/// data-free work-stealing relies on; IndexesIdentical adds the rows the
/// ranges name.
inline bool NodesIdentical(const TreeNode* a, const TreeNode* b) {
  if (a->word().symbols != b->word().symbols ||
      a->word().bits != b->word().bits ||
      a->begin() != b->begin() || a->subtree_size() != b->subtree_size() ||
      a->is_leaf() != b->is_leaf()) {
    return false;
  }
  if (a->is_leaf()) return true;
  return a->split_segment() == b->split_segment() &&
         NodesIdentical(a->left(), b->left()) &&
         NodesIdentical(a->right(), b->right());
}

inline bool TreesIdentical(const IndexTree& a, const IndexTree& b) {
  if (a.root_count() != b.root_count()) return false;
  for (size_t r = 0; r < a.root_count(); ++r) {
    if (a.root_key(r) != b.root_key(r)) return false;
    if (!NodesIdentical(a.root(r), b.root(r))) return false;
  }
  return true;
}

/// Same tree, and the same bundle rows in the same order: series values,
/// SAX rows and global ids. What "a bundle build equals a private build"
/// and "a loaded index equals the saved one" mean.
inline bool IndexesIdentical(const Index& a, const Index& b) {
  if (!TreesIdentical(a.tree(), b.tree()) ||
      a.data().size() != b.data().size() ||
      a.data().length() != b.data().length() ||
      a.chunk()->sax_table() != b.chunk()->sax_table() ||
      a.chunk()->global_ids() != b.chunk()->global_ids()) {
    return false;
  }
  for (size_t i = 0; i < a.data().size(); ++i) {
    if (!std::equal(a.data().data(i), a.data().data(i) + a.data().length(),
                    b.data().data(i))) {
      return false;
    }
  }
  return true;
}

/// Exact k-NN by exhaustive scan (squared Euclidean), the ground truth every
/// index / distributed configuration must reproduce.
inline std::vector<Neighbor> BruteForceKnn(const SeriesCollection& data,
                                           const float* query, int k) {
  std::vector<Neighbor> all;
  all.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    all.push_back({SquaredEuclidean(query, data.data(i), data.length()),
                   static_cast<uint32_t>(i)});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.squared_distance != b.squared_distance) {
      return a.squared_distance < b.squared_distance;
    }
    return a.id < b.id;
  });
  if (all.size() > static_cast<size_t>(k)) all.resize(k);
  return all;
}

/// Exact k-NN by exhaustive scan under banded DTW.
inline std::vector<Neighbor> BruteForceKnnDtw(const SeriesCollection& data,
                                              const float* query, int k,
                                              size_t window) {
  std::vector<Neighbor> all;
  all.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    all.push_back({SquaredDtw(query, data.data(i), data.length(), window),
                   static_cast<uint32_t>(i)});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.squared_distance != b.squared_distance) {
      return a.squared_distance < b.squared_distance;
    }
    return a.id < b.id;
  });
  if (all.size() > static_cast<size_t>(k)) all.resize(k);
  return all;
}

/// Relative FP tolerance for comparing squared distances computed by
/// different summation orders (SIMD vs scalar vs early-abandon blocks).
inline bool NearlyEqual(float a, float b, float rel = 1e-4f) {
  const float scale = std::max({1.0f, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= rel * scale;
}

/// One seeded corruption of a valid loader fixture: flip 1-8 random bytes,
/// truncate at a random offset, or overwrite an aligned 32-bit word with a
/// random or a small value. Rng(seed + iteration) drives it, so the pair
/// replays the exact bytes.
inline std::vector<uint8_t> MutateFixture(std::vector<uint8_t> bytes,
                                          uint64_t seed, int iteration) {
  Rng rng(seed + static_cast<uint64_t>(iteration));
  if (bytes.size() < 4) return bytes;
  switch (rng.NextBounded(3)) {
    case 0:
      for (uint64_t n = 1 + rng.NextBounded(8); n > 0; --n) {
        bytes[rng.NextBounded(bytes.size())] ^=
            static_cast<uint8_t>(1 + rng.NextBounded(255));
      }
      break;
    case 1:
      bytes.resize(rng.NextBounded(bytes.size()));
      break;
    default: {
      const size_t offset = 4 * rng.NextBounded(bytes.size() / 4);
      const uint32_t value = rng.NextBounded(2) == 0
                                 ? static_cast<uint32_t>(rng.NextU64())
                                 : static_cast<uint32_t>(rng.NextBounded(16));
      for (int i = 0; i < 4; ++i) {
        bytes[offset + i] = static_cast<uint8_t>(value >> (8 * i));
      }
      break;
    }
  }
  return bytes;
}

/// What the SIGABRT handler below prints: the replay line of the mutation
/// being loaded, written before each load because a handler may not format.
inline char g_mutation_replay[160];
inline volatile std::sig_atomic_t g_mutation_replay_len = 0;

inline void PrintMutationReplay(int /*signal*/) {
  const ssize_t written = ::write(STDERR_FILENO, g_mutation_replay,
                                  static_cast<size_t>(g_mutation_replay_len));
  (void)written;
}

struct MutationOutcome {
  int ok = 0;      ///< loads that returned Ok
  int failed = 0;  ///< loads that returned a non-Ok Status
};

/// Reads the valid fixture at `path`, then loads `iterations` seeded
/// mutations of it (each rewritten to `path`, which is removed at the end)
/// through `load`, whose contract is Ok or a non-Ok Status: never an
/// exception (std::bad_alloc included) and never an abort. A throw fails
/// the test with its seed and iteration; an abort prints them on stderr
/// before the process dies. Either way MutateFixture(fixture, seed,
/// iteration) rebuilds the offending bytes.
inline MutationOutcome RunSeededMutations(
    const std::string& path, uint64_t seed, int iterations,
    const std::function<Status(const std::string&)>& load) {
  std::vector<uint8_t> fixture;
  {
    std::ifstream in(path, std::ios::binary);
    fixture.assign(std::istreambuf_iterator<char>(in), {});
  }
  MutationOutcome outcome;
  const auto previous = std::signal(SIGABRT, PrintMutationReplay);
  for (int i = 0; i < iterations; ++i) {
    const std::vector<uint8_t> bytes = MutateFixture(fixture, seed, i);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const bool written =
        f != nullptr &&
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    if (f == nullptr || std::fclose(f) != 0 || !written) {
      ADD_FAILURE() << "cannot write " << path;
      break;
    }
    const std::string replay = "mutation replay: seed " +
                               std::to_string(seed) + ", iteration " +
                               std::to_string(i);
    g_mutation_replay_len = std::snprintf(
        g_mutation_replay, sizeof(g_mutation_replay), "%s\n", replay.c_str());
    try {
      (load(path).ok() ? outcome.ok : outcome.failed) += 1;
    } catch (const std::exception& e) {
      ADD_FAILURE() << replay << " threw: " << e.what();
    } catch (...) {
      ADD_FAILURE() << replay << " threw a non-std exception";
    }
  }
  std::signal(SIGABRT, previous);
  g_mutation_replay_len = 0;
  std::remove(path.c_str());
  return outcome;
}

}  // namespace testing_utils
}  // namespace odyssey

// ---------------------------------------------------------------------------
// Hot-region counting allocator
// ---------------------------------------------------------------------------
//
// Define ODYSSEY_TESTING_COUNT_ALLOCATIONS before including this header to
// replace the global operator new/delete with versions that count every
// allocation made while the calling thread is inside a
// hotpath::ScopedHotRegion (src/common/hotpath.h) — the dynamic backstop
// behind tools/check_hot_paths.py's static guarantee. Replacement is
// program-wide, so define the macro in exactly one TU per binary; the test
// suites are single-TU executables, which makes that the including test
// itself. The C++17 aligned overloads are deliberately not replaced: the
// hot paths allocate nothing over-aligned, and the default aligned
// operators remain available for anything else.
#if defined(ODYSSEY_TESTING_COUNT_ALLOCATIONS)

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/common/hotpath.h"

namespace odyssey {
namespace testing_utils {

inline std::atomic<uint64_t> g_hot_allocations{0};

/// Allocations observed inside hot regions since the last reset. Anything
/// above zero at steady state is a purity violation the static checker
/// missed (or an ODYSSEY_HOT_ALLOWS claim that turned out to be false).
inline uint64_t HotAllocations() {
  return g_hot_allocations.load(std::memory_order_relaxed);
}

inline void ResetHotAllocations() {
  g_hot_allocations.store(0, std::memory_order_relaxed);
}

inline void* CountingAllocate(std::size_t size) {
  if (odyssey::hotpath::InHotRegion()) {
    g_hot_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace testing_utils
}  // namespace odyssey

// GCC pairs these replacements up at inlined call sites and warns that
// std::free releases memory from operator new; the pairing is intentional
// (new is malloc-backed precisely so delete can be free-backed).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  void* p = odyssey::testing_utils::CountingAllocate(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = odyssey::testing_utils::CountingAllocate(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return odyssey::testing_utils::CountingAllocate(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return odyssey::testing_utils::CountingAllocate(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // ODYSSEY_TESTING_COUNT_ALLOCATIONS

#endif  // ODYSSEY_TESTS_TESTING_UTILS_H_
