#ifndef ODYSSEY_ISAX_MINDIST_H_
#define ODYSSEY_ISAX_MINDIST_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/hotpath.h"
#include "src/distance/lb_keogh.h"
#include "src/isax/isax_word.h"

namespace odyssey {

/// Lower-bound ("mindist") distances between a query and iSAX summaries.
/// All results are squared, consistent with the distance kernels, and are
/// guaranteed <= the squared Euclidean (resp. DTW) distance between the
/// query and ANY series summarized by the word — the invariant that makes
/// pruning exact.
///
/// The four functions below are the reference definitions of the node
/// bound (*ToWord) and the per-series bound (*ToSax). A query execution
/// calls none of them: it reads the same terms from a SaxBoundTable
/// (below), which returns the same float bit for bit.

/// Squared lower bound between a query PAA and a variable-cardinality iSAX
/// word. Per segment: the gap between the query's PAA value and the
/// breakpoint region of the word's symbol, squared, weighted by the
/// segment's point count. Reference for SaxBoundTable::WordBound.
float MindistPaaToWord(const double* query_paa, const IsaxWord& word,
                       const IsaxConfig& config);

/// Squared lower bound between a query PAA and a full-cardinality SAX
/// summary (a leaf's per-series summary; the tightest summary-level filter
/// applied before computing a real distance). Reference for
/// SaxBoundTable::ForPaa.
float MindistPaaToSax(const double* query_paa, const uint8_t* sax,
                      const IsaxConfig& config);

/// Per-segment PAA of a DTW warping envelope: means of the upper and lower
/// envelope over each segment. Precomputed once per query.
struct EnvelopePaa {
  std::vector<double> upper;
  std::vector<double> lower;
};

/// Builds the per-segment envelope PAA.
EnvelopePaa ComputeEnvelopePaa(const Envelope& envelope,
                               const IsaxConfig& config);

/// Squared DTW lower bound between a query envelope (segment-level) and an
/// iSAX word: a segment contributes only when the word's whole breakpoint
/// region lies outside the envelope band (LB_PAA of Keogh & Ratanamahatana
/// lifted to iSAX regions). Guaranteed <= squared LB_Keogh <= squared DTW.
/// Reference for SaxBoundTable::WordBound.
float MindistEnvelopeToWord(const EnvelopePaa& env_paa, const IsaxWord& word,
                            const IsaxConfig& config);

/// Same bound against a full-cardinality SAX summary. Reference for
/// SaxBoundTable::ForEnvelope.
float MindistEnvelopeToSax(const EnvelopePaa& env_paa, const uint8_t* sax,
                           const IsaxConfig& config);

/// One query's SAX bounds as a lookup table. Row i holds, for every symbol
/// s < 2^max_bits, the double that MindistPaaToSax (or
/// MindistEnvelopeToSax) adds for symbol s at segment i. Bound() adds one
/// entry per segment, in segment order and in double, and rounds the sum
/// to float once, so it returns the reference's float bit for bit: the
/// same terms, added in the same order. mindist.cc compiles with
/// -ffp-contract=off so that the reference's multiply-add is not fused
/// into an FMA the table's pre-rounded terms could not reproduce.
///
/// WordBound() reads the same rows for a variable-cardinality word. A
/// b-bit symbol covers the full-cardinality symbols [sym << (max_bits - b),
/// that | (2^(max_bits - b) - 1)], and its region is the union of theirs,
/// with the same edge doubles: the b-bit breakpoint InverseNormalCdf(j /
/// 2^b) is the max_bits breakpoint at index j << (max_bits - b), computed
/// from the same argument. Along a row the terms fall to a zero (the
/// symbols whose region holds the query value, or meets the band) and rise
/// away from it. So the word's term is the entry at the row's zero clamped
/// into the word's range: 0 if the zero lies inside it, else the entry at
/// the range's end nearer the zero, whose outer edge is the word's.
/// WordBound returns MindistPaaToWord (or MindistEnvelopeToWord) bit for
/// bit.
///
/// At 16 segments and 8 bits a table is 32 KiB, so a query execution
/// builds one per query, once, before its traversal starts.
class SaxBoundTable {
 public:
  SaxBoundTable() = default;

  /// Euclidean terms of the query PAA `query_paa` (config.segments()
  /// doubles).
  static SaxBoundTable ForPaa(const double* query_paa,
                              const IsaxConfig& config);
  /// DTW terms of the query's per-segment envelope PAA. Every segment's
  /// band must have lower <= upper (ComputeEnvelopePaa guarantees it).
  static SaxBoundTable ForEnvelope(const EnvelopePaa& env_paa,
                                   const IsaxConfig& config);

  /// The bound for one full-cardinality SAX row (one symbol per segment).
  /// Every symbol must be < 2^max_bits, or the lookup reads past its
  /// segment's row; ComputeSax never writes a wider one, and
  /// LoadIndexFromFile recomputes every row it loads.
  ODYSSEY_HOT float Bound(const uint8_t* sax) const {
    const double* row = terms_.data();
    double sum = 0.0;
    for (int i = 0; i < segments_; ++i, row += symbols_) sum += row[sax[i]];
    return static_cast<float>(sum);
  }

  /// The bound for a tree node's word. Every segment needs 1 <= bits <=
  /// max_bits and symbols < 2^bits; the tree build and LoadIndexFromFile,
  /// which refuses a split past max_bits, only make such words.
  ODYSSEY_HOT float WordBound(const IsaxWord& word) const {
    const double* row = terms_.data();
    double sum = 0.0;
    for (int i = 0; i < segments_; ++i, row += symbols_) {
      const int shift = max_bits_ - word.bits[i];
      const uint32_t first = uint32_t{word.symbols[i]} << shift;
      const uint32_t last = first | ((1u << shift) - 1u);
      sum += row[std::clamp(uint32_t{zeros_[i]}, first, last)];
    }
    return static_cast<float>(sum);
  }

 private:
  /// Fills the table from term(i, lo, hi, count), the term of segment i for
  /// the breakpoint region [lo, hi] of each symbol in turn.
  template <typename Term>
  SaxBoundTable(const IsaxConfig& config, Term term);

  int segments_ = 0;
  int max_bits_ = 0;
  size_t symbols_ = 0;         ///< 2^max_bits: the row stride
  std::vector<double> terms_;  ///< terms_[i * symbols_ + s]
  /// zeros_[i]: the lowest symbol whose term at segment i is 0.
  std::vector<uint8_t> zeros_;
};

}  // namespace odyssey

#endif  // ODYSSEY_ISAX_MINDIST_H_
