#ifndef ODYSSEY_ISAX_ISAX_WORD_H_
#define ODYSSEY_ISAX_ISAX_WORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/isax/breakpoints.h"
#include "src/isax/paa.h"

namespace odyssey {

/// Shared configuration of the iSAX summarization layer: PAA geometry plus
/// symbol width. All indexes, words and lower bounds are interpreted
/// relative to one IsaxConfig.
struct IsaxConfig {
  PaaConfig paa;
  /// Bits per segment at maximum cardinality (symbols are 2^max_bits-ary).
  int max_bits = kMaxSaxBits;

  IsaxConfig() = default;
  /// Aborts unless 1 <= segments <= min(series_length, kMaxSegments) and
  /// 1 <= bits <= kMaxSaxBits.
  IsaxConfig(size_t series_length, int segments, int bits = kMaxSaxBits);

  int segments() const { return paa.segments; }
  size_t series_length() const { return paa.series_length; }
};

/// A full-cardinality SAX summary: one max_bits-bit symbol per segment,
/// stored one byte per segment. This is what summarization buffers and index
/// leaves keep per series.
using SaxSymbols = std::vector<uint8_t>;

/// Computes the full-cardinality SAX symbols of `series` into `out`
/// (config.segments() bytes). Derives a PAA internally; when the caller
/// already holds one (the PreparedQuery pipeline), use ComputeSaxFromPaa.
void ComputeSax(const float* series, const IsaxConfig& config, uint8_t* out);

/// Quantizes an existing PAA (config.segments() doubles) into SAX symbols
/// without recomputing the segment means.
void ComputeSaxFromPaa(const double* paa, const IsaxConfig& config,
                       uint8_t* out);

/// An iSAX word with per-segment variable cardinality: `symbols[i]` holds
/// the top `bits[i]` bits of segment i's full symbol (right-aligned).
/// Index-tree nodes are labelled with such words; refining a node adds one
/// bit to one segment.
struct IsaxWord {
  std::vector<uint8_t> symbols;
  std::vector<uint8_t> bits;

  /// The root word of a subtree: every segment at 1 bit.
  static IsaxWord Root(const IsaxConfig& config, uint32_t root_key);

  /// True if a series with full-cardinality symbols `sax` falls under this
  /// word (every segment's bits[i]-bit prefix matches).
  bool Matches(const uint8_t* sax, const IsaxConfig& config) const;

  /// Human-readable form like "01|1|00" (for debugging and logs).
  std::string ToString() const;
};

/// The root key of a SAX summary: the top bit of each segment's symbol,
/// segment 0 in the most significant position. Identifies which of the
/// 2^segments root subtrees the series belongs to, and is the unit the
/// DENSITY-AWARE partitioner orders by Gray rank.
uint32_t RootKey(const uint8_t* sax, const IsaxConfig& config);

/// Most segments an IsaxConfig may have: RootKey packs one bit per segment
/// into a uint32_t and IsaxWord::Root unpacks it, so a 33rd segment would
/// wrap the key.
constexpr int kMaxSegments = 32;

}  // namespace odyssey

#endif  // ODYSSEY_ISAX_ISAX_WORD_H_
