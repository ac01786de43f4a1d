#include "src/isax/mindist.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"

namespace odyssey {
namespace {

/// Squared, count-weighted gap between value `q` and region [lo, hi].
inline double SegmentGapSq(double q, double lo, double hi, size_t count) {
  double gap = 0.0;
  if (q < lo) {
    gap = lo - q;
  } else if (q > hi) {
    gap = q - hi;
  }
  return static_cast<double>(count) * gap * gap;
}

/// Squared, count-weighted gap between the band [ql, qu] and region
/// [lo, hi]: positive only when the intervals are disjoint.
inline double BandGapSq(double ql, double qu, double lo, double hi,
                        size_t count) {
  double gap = 0.0;
  if (lo > qu) {
    gap = lo - qu;
  } else if (hi < ql) {
    gap = ql - hi;
  }
  return static_cast<double>(count) * gap * gap;
}

}  // namespace

float MindistPaaToWord(const double* query_paa, const IsaxWord& word,
                       const IsaxConfig& config) {
  const BreakpointTable& table = BreakpointTable::Get();
  double sum = 0.0;
  for (int i = 0; i < config.segments(); ++i) {
    const int bits = word.bits[i];
    const uint32_t symbol = word.symbols[i];
    sum += SegmentGapSq(query_paa[i], table.RegionLower(bits, symbol),
                        table.RegionUpper(bits, symbol),
                        config.paa.SegmentCount(i));
  }
  return static_cast<float>(sum);
}

float MindistPaaToSax(const double* query_paa, const uint8_t* sax,
                      const IsaxConfig& config) {
  const BreakpointTable& table = BreakpointTable::Get();
  const int bits = config.max_bits;
  double sum = 0.0;
  for (int i = 0; i < config.segments(); ++i) {
    sum += SegmentGapSq(query_paa[i], table.RegionLower(bits, sax[i]),
                        table.RegionUpper(bits, sax[i]),
                        config.paa.SegmentCount(i));
  }
  return static_cast<float>(sum);
}

EnvelopePaa ComputeEnvelopePaa(const Envelope& envelope,
                               const IsaxConfig& config) {
  EnvelopePaa out;
  out.upper = ComputePaa(envelope.upper.data(), config.paa);
  out.lower = ComputePaa(envelope.lower.data(), config.paa);
  return out;
}

float MindistEnvelopeToWord(const EnvelopePaa& env_paa, const IsaxWord& word,
                            const IsaxConfig& config) {
  const BreakpointTable& table = BreakpointTable::Get();
  double sum = 0.0;
  for (int i = 0; i < config.segments(); ++i) {
    const int bits = word.bits[i];
    const uint32_t symbol = word.symbols[i];
    sum += BandGapSq(env_paa.lower[i], env_paa.upper[i],
                     table.RegionLower(bits, symbol),
                     table.RegionUpper(bits, symbol),
                     config.paa.SegmentCount(i));
  }
  return static_cast<float>(sum);
}

float MindistEnvelopeToSax(const EnvelopePaa& env_paa, const uint8_t* sax,
                           const IsaxConfig& config) {
  const BreakpointTable& table = BreakpointTable::Get();
  const int bits = config.max_bits;
  double sum = 0.0;
  for (int i = 0; i < config.segments(); ++i) {
    sum += BandGapSq(env_paa.lower[i], env_paa.upper[i],
                     table.RegionLower(bits, sax[i]),
                     table.RegionUpper(bits, sax[i]),
                     config.paa.SegmentCount(i));
  }
  return static_cast<float>(sum);
}

template <typename Term>
SaxBoundTable::SaxBoundTable(const IsaxConfig& config, Term term)
    : segments_(config.segments()),
      max_bits_(config.max_bits),
      symbols_(size_t{1} << config.max_bits) {
  // Region edges come straight from the breakpoint row: the same doubles
  // RegionLower and RegionUpper return, without their per-call checks.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double>& bps =
      BreakpointTable::Get().ForBits(config.max_bits);
  terms_.resize(static_cast<size_t>(segments_) * symbols_);
  zeros_.resize(static_cast<size_t>(segments_));
  double* out = terms_.data();
  for (int i = 0; i < segments_; ++i) {
    const size_t count = config.paa.SegmentCount(i);
    double* row = out;
    for (size_t s = 0; s < symbols_; ++s) {
      const double lo = s == 0 ? -kInf : bps[s - 1];
      const double hi = s + 1 == symbols_ ? kInf : bps[s];
      *out++ = term(i, lo, hi, count);
    }
    // WordBound clamps this symbol into a word's range. A query value lies
    // in some region and a band with lower <= upper meets one, so the row
    // has a zero; an inverted band might not.
    const double* zero = std::find(row, out, 0.0);
    ODYSSEY_CHECK_MSG(zero != out,
                      "SAX bound row without a zero term (inverted band?)");
    zeros_[i] = static_cast<uint8_t>(zero - row);
  }
}

SaxBoundTable SaxBoundTable::ForPaa(const double* query_paa,
                                    const IsaxConfig& config) {
  return SaxBoundTable(config, [query_paa](int i, double lo, double hi,
                                           size_t count) {
    return SegmentGapSq(query_paa[i], lo, hi, count);
  });
}

SaxBoundTable SaxBoundTable::ForEnvelope(const EnvelopePaa& env_paa,
                                         const IsaxConfig& config) {
  return SaxBoundTable(config, [&env_paa](int i, double lo, double hi,
                                          size_t count) {
    return BandGapSq(env_paa.lower[i], env_paa.upper[i], lo, hi, count);
  });
}

}  // namespace odyssey
