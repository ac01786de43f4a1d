#ifndef ODYSSEY_INDEX_QUERY_ENGINE_H_
#define ODYSSEY_INDEX_QUERY_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/hotpath.h"
#include "src/common/sync.h"
#include "src/distance/lb_keogh.h"
#include "src/distance/simd.h"
#include "src/index/approx_search.h"
#include "src/index/builder.h"
#include "src/index/rs_batch.h"
#include "src/isax/mindist.h"
#include "src/query/prepared_query.h"

namespace odyssey {

/// Atomically lowers `*cell` to `value` if `value` is smaller. Returns true
/// when the cell was lowered. The basis of BSF sharing between threads and
/// (via the BSF channel) between nodes.
bool AtomicFetchMinFloat(std::atomic<float>* cell, float value);

/// One answer candidate: squared distance + series id. In a
/// QueryExecution's results the id is a row of Index::data() (leaf order;
/// Index::chunk()->global_ids() maps it to the caller's id); in a cluster's
/// answers it is already the global dataset id.
struct Neighbor {
  float squared_distance = 0.0f;
  uint32_t id = 0;
};

/// Fixed-capacity hash set of series ids: open addressing with linear
/// probing and backward-shift deletion over two flat arrays sized at
/// construction. KnnSet's duplicate check needs set semantics with at most
/// k resident ids, and it runs under the result mutex inside the scoring
/// loops — std::unordered_set pays a node allocation per insert there,
/// this pays none after construction (the hot-path purity contract,
/// src/common/hotpath.h).
class FixedIdSet {
 public:
  /// `capacity` is the maximum number of resident ids (KnnSet passes k).
  /// The bucket count is the next power of two at or above twice that, so
  /// the load factor stays <= 0.5 and probe chains stay short.
  explicit FixedIdSet(size_t capacity) {
    size_t buckets = 8;
    while (buckets < 2 * capacity) buckets <<= 1;
    slots_.assign(buckets, 0);
    used_.assign(buckets, 0);
    mask_ = buckets - 1;
  }

  ODYSSEY_HOT bool Contains(uint32_t id) const {
    size_t i = Hash(id) & mask_;
    while (used_[i] != 0) {
      if (slots_[i] == id) return true;
      i = (i + 1) & mask_;
    }
    return false;
  }

  /// `id` must not be present and the set must not be full.
  ODYSSEY_HOT void Add(uint32_t id) {
    size_t i = Hash(id) & mask_;
    while (used_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = id;
    used_[i] = 1;
    ++size_;
  }

  /// `id` must be present. Backward-shift deletion: elements behind the
  /// hole move up while the hole still lies on their probe path, so no
  /// tombstones accumulate and Contains stays a plain probe.
  ODYSSEY_HOT void Remove(uint32_t id) {
    size_t hole = Hash(id) & mask_;
    while (used_[hole] == 0 || slots_[hole] != id) hole = (hole + 1) & mask_;
    used_[hole] = 0;
    size_t j = hole;
    for (;;) {
      j = (j + 1) & mask_;
      if (used_[j] == 0) break;
      const size_t ideal = Hash(slots_[j]) & mask_;
      if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        used_[hole] = 1;
        used_[j] = 0;
        hole = j;
      }
    }
    --size_;
  }

  size_t size() const { return size_; }

 private:
  static size_t Hash(uint32_t id) {
    // Avalanching 32-bit mix (lowbias32): sequential series ids must not
    // form probe chains.
    uint32_t h = id;
    h ^= h >> 16;
    h *= 0x7feb352dU;
    h ^= h >> 15;
    h *= 0x846ca68bU;
    h ^= h >> 16;
    return h;
  }

  std::vector<uint32_t> slots_;
  std::vector<uint8_t> used_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Thread-safe k-nearest set. Threshold() is the pruning bound: the k-th
/// best squared distance once k candidates are known, +inf before. With
/// k = 1 this degenerates to the classic single BSF.
class KnnSet {
 public:
  explicit KnnSet(int k);

  /// Offers a candidate; returns true if it entered the set (and therefore
  /// possibly lowered the threshold).
  ODYSSEY_HOT bool Offer(float squared_distance, uint32_t id)
      ODYSSEY_EXCLUDES(mu_)
      ODYSSEY_HOT_ALLOWS(
          "lock,alloc: the result mutex is the k-NN merge point, held for "
          "O(log k) heap work; heap_ is reserved to k in the constructor "
          "so its pushes never reallocate (counting-allocator-asserted)");

  /// Current pruning threshold (squared). Lock-free: the scan loop reads it
  /// per candidate and must not contend with Offer.
  float Threshold() const {
    return threshold_.load(std::memory_order_acquire);
  }

  int k() const { return k_; }

  /// Results sorted by ascending distance (at most k entries).
  std::vector<Neighbor> SortedResults() const ODYSSEY_EXCLUDES(mu_);

 private:
  const int k_;
  mutable Mutex mu_;
  /// Max-heap on squared_distance. Reserved to k in the constructor so the
  /// fill-up pushes never reallocate under the mutex.
  std::vector<Neighbor> heap_ ODYSSEY_GUARDED_BY(mu_);
  /// Ids currently in the heap, so Offer's duplicate check is O(1) instead
  /// of an O(k) scan under the mutex for every candidate.
  FixedIdSet ids_ ODYSSEY_GUARDED_BY(mu_);
  std::atomic<float> threshold_;
};

/// Per-query execution knobs. For work-stealing to be meaningful,
/// `num_batches` must be identical on every node of a replication group
/// (batch ids are exchanged between nodes).
struct QueryOptions {
  int num_threads = 4;
  /// Number of RS-batches (Nsb). 0 means num_threads, the paper's best
  /// setting.
  size_t num_batches = 0;
  /// Priority-queue size threshold TH in leaves; 0 means unbounded.
  size_t queue_threshold = 0;
  /// Max helper threads per RS-batch (HelpTH).
  int help_threshold = 2;
  /// Number of nearest neighbors (k-NN extension; 1 = classic search).
  int k = 1;
  /// DTW extension: when true, all bounds and distances are DTW-based.
  bool use_dtw = false;
  /// Sakoe-Chiba warping window in points (only with use_dtw).
  size_t dtw_window = 0;
  /// Approximate mode (the paper's future-work extension): answer with the
  /// k best series of the single best-matching leaf — the classic iSAX
  /// approximate search — skipping the exact phases entirely.
  bool approximate = false;

  size_t EffectiveBatches() const {
    return num_batches == 0 ? static_cast<size_t>(num_threads) : num_batches;
  }
};

/// Observability counters for one query execution (feeds the cost and
/// threshold models and the benchmarks).
struct QueryStats {
  double initial_bsf = 0.0;       ///< true (non-squared) initial BSF
  size_t leaves_inserted = 0;     ///< leaves pushed into priority queues
  size_t leaves_processed = 0;    ///< leaves popped and scanned
  size_t real_distances = 0;      ///< full distance computations
  size_t queue_count = 0;         ///< priority queues produced
  double median_queue_size = 0.0; ///< median queue size in leaves
  double elapsed_seconds = 0.0;   ///< Run() wall time
};

/// Executes one similarity-search query against one Index with the paper's
/// three-phase multi-threaded algorithm (Figure 5 / Algorithms 1-2):
///
///   1. tree traversal — threads claim RS-batches with Fetch&Add, traverse
///      their root subtrees, and fill size-bounded priority queues with
///      unprunable leaves; idle threads help incomplete batches (<= HelpTH
///      helpers each);
///   2. priority-queue preprocessing — the queue array is sorted by each
///      queue's minimum lower bound;
///   3. priority-queue processing — threads claim queues with Fetch&Add,
///      skip stolen ones, and scan leaf series (summary filter, then
///      early-abandoning real distance), updating the shared BSF.
///
/// Work-stealing hooks: a work-stealing manager thread calls StealBatches()
/// to give away RS-batches per the Take-Away property; the thief rebuilds
/// and processes those batches on its own replica via RunBatchSubset().
class QueryExecution {
 public:
  /// `index` and `query` (the batch-level prepared artifact, including the
  /// raw series it points to) must outlive the execution. The query must be
  /// prepared against the same iSAX geometry as the index, with an envelope
  /// for options.dtw_window when options.use_dtw is set — replicas and
  /// work-stealing thieves share one PreparedQuery instead of each
  /// re-deriving PAA/SAX/envelope. The constructor builds this execution's
  /// SaxBoundTable (32 KiB at 16 segments and 8 bits) from the query's PAA
  /// or envelope PAA, so the traversal's node bound and the scan's
  /// per-series filter are table lookups.
  /// `shared_bsf` (optional) is the node's BSF book-keeping cell for this
  /// query: it is read for pruning and lowered on improvement;
  /// `on_bsf_improve` (optional) fires after each lowering with the new
  /// squared threshold (the node runtime broadcasts it on the BSF channel).
  QueryExecution(const Index* index, const PreparedQuery& query,
                 const QueryOptions& options,
                 std::atomic<float>* shared_bsf = nullptr,
                 std::function<void(float)> on_bsf_improve = nullptr);
  ~QueryExecution();

  QueryExecution(const QueryExecution&) = delete;
  QueryExecution& operator=(const QueryExecution&) = delete;

  /// Seeds the BSF from an approximate search against this execution's own
  /// index (the per-index half of the former Initialize(); the batch-level
  /// half — summarization — now lives in PreparedQuery/PreparedBatch).
  /// Returns the initial BSF as a true (non-squared) distance — the
  /// regressor of the paper's cost model. Must be called before Run*.
  float SeedInitialBsf();

  /// Overrides the queue threshold TH after SeedInitialBsf (the per-query
  /// value predicted by the ThresholdModel from the initial BSF). Must be
  /// called before Run*.
  void set_queue_threshold(size_t threshold) {
    options_.queue_threshold = threshold;
  }

  /// Runs the full three-phase search over all RS-batches. With a `pool`,
  /// the phases run as tasks on it — zero thread creation, the persistent
  /// per-node executor path; each of the two parallel phases is one
  /// TaskGroup epoch of `options.num_threads` tasks and the Wait between
  /// them is the phase barrier (executed, helping, by the calling thread).
  /// Without one, the calling thread runs every phase alone, whatever
  /// `num_threads` says. Both claim work through the same atomic cursors
  /// and produce identical answers.
  void Run(ThreadPool* pool = nullptr);

  /// Thief-side entry: traverses and processes only the given batch ids
  /// (obtained from a victim's StealBatches) on this node's own index.
  void RunBatchSubset(const std::vector<int>& batch_ids,
                      ThreadPool* pool = nullptr);

  /// Work-stealing-manager side: selects up to `nsend` RS-batches per the
  /// Take-Away property, marks their queues stolen, and returns their ids.
  /// Returns an empty vector outside the PQ-processing phase. Thread-safe
  /// with respect to the running workers.
  ODYSSEY_HOT std::vector<int> StealBatches(int nsend)
      ODYSSEY_EXCLUDES(steal_mu_)
      ODYSSEY_HOT_ALLOWS(
          "lock,alloc: the steal snapshot holds steal_mu_ by design (it "
          "fences the running claim loops), and the returned batch-id "
          "vector is the steal reply itself — O(nsend), not O(series)");

  /// Total number of RS-batches (same on every replica).
  size_t batch_count() const { return batch_ranges_.size(); }

  const KnnSet& results() const { return knn_; }
  QueryStats stats() const ODYSSEY_EXCLUDES(steal_mu_);

 private:
  friend class QueryScratch;
  enum class Phase { kInit, kTraversal, kProcessing, kDone };

  struct PqRef {
    BoundedPq* queue = nullptr;
    int batch_id = -1;
    std::atomic<bool> stolen{false};
  };

  /// Worker-thread-local bounded-queue builder for one batch.
  struct QueueBuilder;

  /// Leaves scanned and real distances computed by one worker in one
  /// phase, added to the shared counters when the phase ends rather than
  /// once per leaf and once per distance.
  struct ScanCounts {
    size_t leaves = 0;
    size_t distances = 0;
  };

  /// Every RS-batch id of this execution, in order (what Run arms).
  std::vector<int> AllBatchIds() const;
  void RunWorkers(const std::vector<int>& batch_ids, ThreadPool* pool)
      ODYSSEY_EXCLUDES(steal_mu_);
  /// Arms batches_/cursors for `batch_ids` and enters Phase::kTraversal.
  void ArmBatches(const std::vector<int>& batch_ids)
      ODYSSEY_EXCLUDES(steal_mu_);
  /// Phase 1 worker body: Fetch&Add batch claims, then helping. Snapshots
  /// the armed batch set under steal_mu_ at entry (into the worker's
  /// QueryScratch); the claim loop itself holds no lock (batches are
  /// claimed through their atomic cursors).
  ODYSSEY_HOT void TraversalPhase() ODYSSEY_EXCLUDES(steal_mu_)
      ODYSSEY_HOT_ALLOWS("lock: one steal_mu_ snapshot at phase entry");
  /// Phase 2 (single-threaded): sorts the queue array, enters kProcessing.
  void PreprocessQueues() ODYSSEY_EXCLUDES(steal_mu_);
  /// Phase 3 worker body: Fetch&Add queue claims, skipping stolen ones.
  /// Snapshots the sorted queue array under steal_mu_ at entry, like
  /// TraversalPhase. The claim loop is the zero-allocation steady state
  /// the counting-allocator tests measure.
  ODYSSEY_HOT void ProcessingPhase() ODYSSEY_EXCLUDES(steal_mu_)
      ODYSSEY_HOT_ALLOWS("lock: one steal_mu_ snapshot at phase entry");
  ODYSSEY_HOT void TraverseBatch(RsBatch* batch);
  ODYSSEY_HOT void TraverseNode(const TreeNode* node, QueueBuilder* builder);
  ODYSSEY_HOT void ProcessQueue(BoundedPq* queue, ScanCounts* counts);
  /// Scans one leaf in blocks of kScanBlock rows: pass 1 filters the
  /// block's rows by their SAX bound, pass 2 scores the survivors,
  /// prefetching each survivor's row kPrefetchAhead survivors ahead.
  ODYSSEY_HOT void ScanLeaf(const TreeNode* leaf, ScanCounts* counts);
  void AddScanCounts(const ScanCounts& counts);
  ODYSSEY_HOT void OfferCandidate(float squared_distance, uint32_t id)
      ODYSSEY_HOT_ALLOWS(
          "indirect: on_bsf_improve_ is the sanctioned BSF-broadcast "
          "callback; its invocation runs under a hotpath::ScopedAllowance");
  ODYSSEY_HOT float PruneThreshold() const;
  ODYSSEY_HOT float LeafLowerBound(const TreeNode* node) const;
  ODYSSEY_HOT float SeriesLowerBound(const uint8_t* sax) const;
  ODYSSEY_HOT float RealDistance(const float* series, float threshold) const;

  const Index* index_;
  const PreparedQuery* prepared_;
  const float* query_;  // prepared_->series(), cached for the scan loop
  // DTW-only view into *prepared_, resolved once in the constructor so the
  // LB_Keogh checks pay no precondition re-validation.
  const Envelope* envelope_ = nullptr;
  /// The SAX bound terms for this query (ED or DTW), built in the
  /// constructor: LeafLowerBound and SeriesLowerBound are a lookup per
  /// segment.
  SaxBoundTable sax_bounds_;
  QueryOptions options_;
  /// Dispatched distance kernels, resolved once per execution so the scan
  /// loop pays no per-distance dispatch cost.
  const simd::KernelTable* const kernels_ = &simd::ActiveTable();
  std::atomic<float>* shared_bsf_;
  std::atomic<float> local_bsf_;  // used when shared_bsf == nullptr
  std::function<void(float)> on_bsf_improve_;

  bool seeded_ = false;  // SeedInitialBsf happened

  // RS-batch state. batch_ranges_ is identical across replicas and
  // immutable after the constructor. Everything the phase transitions
  // rewrite — the live batch objects, the armed subset, the sorted queue
  // array and the per-batch stolen flags — sits under steal_mu_: phase
  // entry/exit and the work-stealing manager take the mutex, while the
  // phase bodies run against pointer snapshots taken under it (the batch
  // and queue objects themselves are claimed via atomic cursors).
  std::vector<std::pair<size_t, size_t>> batch_ranges_;
  mutable Mutex steal_mu_;
  std::vector<std::unique_ptr<RsBatch>> batches_  // indexed by batch id
      ODYSSEY_GUARDED_BY(steal_mu_);
  std::atomic<size_t> batch_cursor_{0};
  std::vector<int> active_batch_ids_ ODYSSEY_GUARDED_BY(steal_mu_);

  // Sorted priority-queue array (phase 2 output) and processing cursor.
  std::vector<std::unique_ptr<PqRef>> pq_refs_ ODYSSEY_GUARDED_BY(steal_mu_);
  std::atomic<size_t> pq_cursor_{0};
  std::vector<bool> batch_stolen_ ODYSSEY_GUARDED_BY(steal_mu_);
  std::atomic<int> phase_{static_cast<int>(Phase::kInit)};

  KnnSet knn_;
  // Stats (relaxed atomics; read after Run). Workers count locally and add
  // once per RS-batch they traverse (leaves inserted) or once per phase
  // (the scan counts).
  std::atomic<size_t> stat_leaves_inserted_{0};
  std::atomic<size_t> stat_leaves_processed_{0};
  std::atomic<size_t> stat_real_distances_{0};
  double stat_initial_bsf_ = 0.0;
  double stat_elapsed_seconds_ = 0.0;
  std::vector<double> stat_queue_sizes_ ODYSSEY_GUARDED_BY(steal_mu_);
};

/// Per-thread reusable buffers for the query phases — the fix for the
/// hot-path purity contract (src/common/hotpath.h): the phase bodies used
/// to allocate their snapshot vectors on every entry, per worker, per
/// epoch. Each pool worker (and the orchestrating caller) owns one
/// QueryScratch via ForThisThread(); the buffers are grow-only and reused
/// across TaskGroup epochs, queries and batches, so the steady state
/// performs zero allocations (asserted by the counting-allocator tests).
/// The persistent executor pre-sizes every worker's scratch at batch start
/// (NodeRuntime::EnsureExecutor), so even a worker's first query of a
/// batch starts warm.
///
/// The checker treats growth of containers reached through a receiver
/// whose path names `scratch` as sanctioned (see tools/check_hot_paths.py);
/// the dynamic backstop keeps that honest.
class QueryScratch {
 public:
  /// The calling thread's scratch (function-local thread_local: created on
  /// first use, destroyed at thread exit).
  static QueryScratch& ForThisThread();

  /// Grow-only pre-sizing, called by the executor warm-up with bounds
  /// derived from the batch options (`queues` is a floor — the real queue
  /// count is data-dependent and growth beyond it stays amortized).
  void Reserve(size_t batches, size_t queues);

  /// Phase-1 armed-batch snapshot (TraversalPhase).
  std::vector<RsBatch*> armed;
  /// Phase-3 sorted-queue snapshot (ProcessingPhase).
  std::vector<QueryExecution::PqRef*> refs;
  /// StealBatches' per-round first-unclaimed-queue-per-batch table.
  std::vector<size_t> first_unclaimed;
};

/// Runs several QueryExecutions one after another, each with its own
/// Run(pool). Nothing in the library uses it; it stays only because the
/// benchmark's traced replay (bench/e2e/odyssey_bench.cc, per-layer metric
/// index.grouped_search_ms) constructs and runs one. Delete it with that
/// replay.
class GroupedQueryExecution {
 public:
  /// Each member must be seeded (SeedInitialBsf) and outlive the group.
  explicit GroupedQueryExecution(std::vector<QueryExecution*> members)
      : members_(std::move(members)) {}

  void Run(ThreadPool* pool = nullptr) {
    for (QueryExecution* member : members_) member->Run(pool);
  }

 private:
  std::vector<QueryExecution*> members_;
};

/// Convenience builders tying PreparedQuery/PreparedBatch to QueryOptions:
/// a DTW envelope is built exactly when `options.use_dtw` is set, with the
/// options' warping window.
PreparedQuery PrepareQuery(const float* series, const IsaxConfig& config,
                           const QueryOptions& options);
PreparedBatch PrepareBatch(const SeriesCollection& queries,
                           const IsaxConfig& config,
                           const QueryOptions& options,
                           ThreadPool* pool = nullptr);

}  // namespace odyssey

#endif  // ODYSSEY_INDEX_QUERY_ENGINE_H_
