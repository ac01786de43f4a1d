#include "src/isax/isax_word.h"

#include "src/common/summary_stats.h"

namespace odyssey {

IsaxConfig::IsaxConfig(size_t series_length, int segments, int bits)
    : paa(series_length, segments), max_bits(bits) {
  ODYSSEY_CHECK(segments <= kMaxSegments);
  ODYSSEY_CHECK(bits >= 1 && bits <= kMaxSaxBits);
}

void ComputeSax(const float* series, const IsaxConfig& config, uint8_t* out) {
  std::vector<double> paa(config.segments());
  ComputePaa(series, config.paa, paa.data());
  ComputeSaxFromPaa(paa.data(), config, out);
}

void ComputeSaxFromPaa(const double* paa, const IsaxConfig& config,
                       uint8_t* out) {
  summary_stats::CountSax();
  const BreakpointTable& table = BreakpointTable::Get();
  const int shift = kMaxSaxBits - config.max_bits;
  for (int i = 0; i < config.segments(); ++i) {
    out[i] = static_cast<uint8_t>(table.MaxBitsSymbol(paa[i]) >> shift);
  }
}

IsaxWord IsaxWord::Root(const IsaxConfig& config, uint32_t root_key) {
  IsaxWord word;
  const int w = config.segments();
  word.symbols.resize(w);
  word.bits.assign(w, 1);
  for (int i = 0; i < w; ++i) {
    word.symbols[i] = static_cast<uint8_t>((root_key >> (w - 1 - i)) & 1u);
  }
  return word;
}

bool IsaxWord::Matches(const uint8_t* sax, const IsaxConfig& config) const {
  for (size_t i = 0; i < symbols.size(); ++i) {
    const int shift = config.max_bits - bits[i];
    if (static_cast<uint8_t>(sax[i] >> shift) != symbols[i]) return false;
  }
  return true;
}

std::string IsaxWord::ToString() const {
  std::string out;
  for (size_t i = 0; i < symbols.size(); ++i) {
    if (i > 0) out += '|';
    for (int b = bits[i] - 1; b >= 0; --b) {
      out += ((symbols[i] >> b) & 1u) ? '1' : '0';
    }
  }
  return out;
}

uint32_t RootKey(const uint8_t* sax, const IsaxConfig& config) {
  uint32_t key = 0;
  const int top = config.max_bits - 1;
  for (int i = 0; i < config.segments(); ++i) {
    key = (key << 1) | ((sax[i] >> top) & 1u);
  }
  return key;
}

}  // namespace odyssey
