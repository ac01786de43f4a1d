#ifndef ODYSSEY_DATASET_SERIES_COLLECTION_H_
#define ODYSSEY_DATASET_SERIES_COLLECTION_H_

#include <stdlib.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace odyssey {

/// A read-only view of one data series: `length` consecutive floats.
/// The pointed-to storage is owned by a SeriesCollection and is 64-byte
/// aligned at collection granularity.
struct SeriesView {
  const float* values = nullptr;
  size_t length = 0;

  const float* begin() const { return values; }
  const float* end() const { return values + length; }
  float operator[](size_t i) const { return values[i]; }
};

/// An in-memory collection of fixed-length data series stored contiguously
/// (row-major: series i occupies [i*length, (i+1)*length)). This is the raw
/// data every system node keeps for its chunk. Storage is 64-byte aligned so
/// the AVX2 distance kernels can use aligned loads on series boundaries when
/// the length is a multiple of 16.
class SeriesCollection {
 public:
  /// Creates an empty collection of series of `length` points each.
  explicit SeriesCollection(size_t length) : length_(length) {
    ODYSSEY_CHECK(length > 0);
  }

  SeriesCollection(const SeriesCollection&) = default;
  SeriesCollection& operator=(const SeriesCollection&) = default;
  SeriesCollection(SeriesCollection&&) = default;
  SeriesCollection& operator=(SeriesCollection&&) = default;

  size_t length() const { return length_; }
  size_t size() const { return data_.size() / length_; }
  bool empty() const { return data_.empty(); }

  /// Pre-allocates room for `count` series.
  void Reserve(size_t count) { data_.reserve(count * length_); }

  /// Appends one series; `values` must hold length() floats.
  void Append(const float* values) {
    data_.insert(data_.end(), values, values + length_);
  }

  /// Appends `count` uninitialized series and returns a pointer to the first
  /// new value, for generator-style bulk filling. The new values are never
  /// written here (the allocator default-initializes), so a caller that
  /// overwrites them pays no memset, and the pages of a fresh allocation are
  /// first touched by whichever threads fill them.
  float* AppendUninitialized(size_t count) {
    const size_t old = data_.size();
    data_.resize(old + count * length_);
    return data_.data() + old;
  }

  /// Pointer to series i.
  const float* data(size_t i) const {
    ODYSSEY_CHECK(i < size());
    return data_.data() + i * length_;
  }
  float* mutable_data(size_t i) {
    ODYSSEY_CHECK(i < size());
    return data_.data() + i * length_;
  }

  SeriesView view(size_t i) const { return SeriesView{data(i), length_}; }

  /// Builds a new collection containing the selected series, in the order of
  /// `indices`. This is how data chunks are materialized on system nodes
  /// (the simulation of physically shipping raw data during partitioning).
  SeriesCollection Subset(const std::vector<uint32_t>& indices) const;

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const { return data_.capacity() * sizeof(float); }

 private:
  // 64-byte-aligned allocator so SIMD kernels may assume aligned collection
  // bases. Uses posix_memalign rather than aligned operator new: the
  // sanitizer runtimes intercept the former reliably, keeping TSAN/ASAN
  // reports on this hot allocation trustworthy. Its construct()
  // default-initializes, so std::vector::resize leaves new floats
  // unwritten instead of zeroing them (AppendUninitialized).
  template <typename T>
  struct AlignedAllocator {
    using value_type = T;
    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U>&) {}  // NOLINT
    T* allocate(size_t n) {
      void* p = nullptr;
      if (posix_memalign(&p, 64, n * sizeof(T)) != 0) throw std::bad_alloc();
      return static_cast<T*>(p);
    }
    void deallocate(T* p, size_t) { std::free(p); }
    template <typename U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
    bool operator==(const AlignedAllocator&) const { return true; }
  };

  size_t length_;
  std::vector<float, AlignedAllocator<float>> data_;
};

}  // namespace odyssey

#endif  // ODYSSEY_DATASET_SERIES_COLLECTION_H_
