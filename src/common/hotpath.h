#ifndef ODYSSEY_COMMON_HOTPATH_H_
#define ODYSSEY_COMMON_HOTPATH_H_

/// Hot-path purity contract, the companion of src/common/sync.h's locking
/// contract. A function annotated ODYSSEY_HOT promises that every execution
/// path through it and its callees is *pure* in the systems sense: no heap
/// allocation or deallocation, no container growth, no mutex acquisition or
/// condition-variable wait, no getenv, no throwing construct, no I/O
/// syscall. These are the scoring loops the paper's Fig. 13 throughput
/// numbers assume never stall — the SIMD kernel table, the RS-batch claim
/// loops, SAX filters and real-distance scans, KnnSet::Offer, and the
/// Mailbox fast path.
///
/// Enforcement is two-layered (see ARCHITECTURE.md "Hot-path contract"):
///
///  * Statically, tools/check_hot_paths.py builds a call graph over the
///    translation units in compile_commands.json and fails CI on any path
///    from an ODYSSEY_HOT function to a forbidden sink. Kernel-table
///    function pointers are resolved through their positional initializers,
///    so the indirect kernels_->xxx(...) dispatch edges are walked too.
///
///  * Dynamically, the test-only counting allocator in
///    tests/testing_utils.h attributes every operator new/delete that runs
///    while the current thread is inside a ScopedHotRegion, and
///    query_test/executor_test assert the steady-state processing phase
///    performs zero of them after warm-up — a checker false-negative still
///    fails CTest.
///
/// Sanctioned impurity is spelled at the function, not hidden from the
/// tool: ODYSSEY_HOT_ALLOWS("lock: one steal_mu_ snapshot at phase entry")
/// excuses only the named sink categories (alloc, lock, wait, indirect,
/// io, throw — comma-separated before the colon) and only inside that
/// function's own body; the walk still continues into its callees.
/// Cross-function excuses (e.g. a std::function BSF broadcast the checker
/// cannot resolve) live in the committed tools/hotpath_allowlist.txt with
/// the same reason-string discipline.

// ------------------------------------------------------------------ macros

#if defined(__GNUC__) || defined(__clang__)
/// Marks a function as a purity-checked hot path. Expands to the `hot`
/// codegen attribute (optimize-for-speed placement) on GCC/Clang; the
/// static checker keys on the macro token itself, so the annotation is
/// meaningful even where the attribute is a no-op.
#define ODYSSEY_HOT __attribute__((hot))
#else
#define ODYSSEY_HOT
#endif

/// Escape hatch, placed in the signature of an ODYSSEY_HOT function (or a
/// function reached from one): excuses the listed sink categories within
/// this function's own body, for the stated reason. Format:
/// "cat1,cat2: reason". Expands to nothing; it exists for the checker and
/// the reader.
#define ODYSSEY_HOT_ALLOWS(reason)

// ---------------------------------------------------- dynamic region marker

namespace odyssey {
namespace hotpath {

/// True while the current thread is inside a ScopedHotRegion and not inside
/// a ScopedAllowance. The test-only counting allocator
/// (tests/testing_utils.h) reads this to attribute heap traffic to the
/// steady-state scoring loops; production code never branches on it.
bool InHotRegion();

/// RAII marker opened at the top of a processing-phase body
/// (QueryExecution::ProcessingPhase). One thread-local increment per phase
/// entry — zero per-candidate cost.
class ScopedHotRegion {
 public:
  ScopedHotRegion();
  ~ScopedHotRegion();
  ScopedHotRegion(const ScopedHotRegion&) = delete;
  ScopedHotRegion& operator=(const ScopedHotRegion&) = delete;
};

/// RAII suspension of hot-region attribution around sanctioned impurity —
/// today the cross-node BSF broadcast callback, which intentionally takes
/// the mailbox lock and enqueues a message from inside a scan.
class ScopedAllowance {
 public:
  ScopedAllowance();
  ~ScopedAllowance();
  ScopedAllowance(const ScopedAllowance&) = delete;
  ScopedAllowance& operator=(const ScopedAllowance&) = delete;
};

}  // namespace hotpath
}  // namespace odyssey

#endif  // ODYSSEY_COMMON_HOTPATH_H_
