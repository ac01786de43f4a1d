#include "src/common/hotpath.h"

namespace odyssey {
namespace hotpath {
namespace {

// Depth counters rather than flags so regions and allowances nest safely.
thread_local int hot_depth = 0;
thread_local int allowance_depth = 0;

}  // namespace

bool InHotRegion() { return hot_depth > 0 && allowance_depth == 0; }

ScopedHotRegion::ScopedHotRegion() { ++hot_depth; }
ScopedHotRegion::~ScopedHotRegion() { --hot_depth; }

ScopedAllowance::ScopedAllowance() { ++allowance_depth; }
ScopedAllowance::~ScopedAllowance() { --allowance_depth; }

}  // namespace hotpath
}  // namespace odyssey
