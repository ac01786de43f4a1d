#include "src/index/query_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/common/math_utils.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/distance/dtw.h"
#include "src/distance/euclidean.h"

namespace odyssey {

namespace {
constexpr float kInf = std::numeric_limits<float>::infinity();

// ScanLeaf's two constants and its row prefetch were chosen on a 4-vCPU
// Xeon KVM guest (AVX2 tier, GCC 12.2, Release) by timing
// QueryExecution::Run on a 2-thread pool over 600,000 random walks of 256
// points (16 segments, leaf 128, a memory-bound index): 40 mixed queries,
// 3 passes, the variants taken in turn for 4 rounds. These settings
// averaged 33.0 ms a query, against 48.2 ms with the reference node bound
// and a row-by-row scan, and 40.1 ms with the two passes but no prefetch.

/// Rows ScanLeaf filters per block before it scores the block's
/// survivors. Survivor rows and bounds sit in two stack arrays of this
/// size (512 bytes). Blocks of 32 and of 128 rows averaged 34.6 and
/// 34.4 ms.
constexpr uint32_t kScanBlock = 64;

/// How many survivors ahead of the one being scored ScanLeaf prefetches.
/// A survivor is a 1 KiB row at a place the hardware prefetcher cannot
/// predict, so without this every distance starts with a cold miss. One
/// ahead averaged 33.7 ms and four ahead 34.4 ms.
constexpr uint32_t kPrefetchAhead = 2;

/// Prefetches every cache line of one series row (16 lines of a 256-point
/// row). Prefetching only the first 8 lines averaged 33.9 ms.
inline void PrefetchRow(const float* row, size_t length) {
  constexpr uintptr_t kLine = 64;
  const uintptr_t last = reinterpret_cast<uintptr_t>(row + length) - 1;
  for (uintptr_t line = reinterpret_cast<uintptr_t>(row) & ~(kLine - 1);
       line <= last; line += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
}

/// KnnSet's k, validated before any member is sized from it: a negative k
/// cast to size_t would have FixedIdSet double its bucket count forever.
size_t CheckedK(int k) {
  ODYSSEY_CHECK_MSG(k >= 1, "k-NN needs k >= 1");
  return static_cast<size_t>(k);
}
}  // namespace

bool AtomicFetchMinFloat(std::atomic<float>* cell, float value) {
  float current = cell->load(std::memory_order_relaxed);
  while (value < current) {
    if (cell->compare_exchange_weak(current, value,
                                    std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

KnnSet::KnnSet(int k) : k_(k), ids_(CheckedK(k)), threshold_(kInf) {
  // All of Offer's mutations stay allocation-free after this point: the
  // heap never exceeds k entries and FixedIdSet is flat by construction.
  heap_.reserve(static_cast<size_t>(k));
}

ODYSSEY_HOT bool KnnSet::Offer(float squared_distance, uint32_t id) {
  MutexLock lock(&mu_);
  // Lexicographic (distance, id) order: exact-distance ties resolve by the
  // smaller series id instead of by arrival order, so the k-set is a pure
  // function of the offered candidates — replicas and re-executions (the
  // failure-recovery path) reach bit-identical answers regardless of
  // worker interleaving. PruneThreshold()'s one-ulp pad is the other half:
  // it keeps tying candidates from being abandoned before they get here.
  auto compare = [](const Neighbor& a, const Neighbor& b) {
    if (a.squared_distance != b.squared_distance) {
      return a.squared_distance < b.squared_distance;
    }
    return a.id < b.id;
  };
  // The same series can be offered more than once (approximate search plus
  // leaf scan; work-stealing can even process a leaf on two nodes). A
  // duplicate id must not consume a second k-slot.
  if (ids_.Contains(id)) return false;
  if (heap_.size() < static_cast<size_t>(k_)) {
    heap_.push_back({squared_distance, id});
    std::push_heap(heap_.begin(), heap_.end(), compare);
    ids_.Add(id);
    if (heap_.size() == static_cast<size_t>(k_)) {
      threshold_.store(heap_.front().squared_distance,
                       std::memory_order_release);
    }
    return true;
  }
  const Neighbor& worst = heap_.front();
  if (squared_distance > worst.squared_distance ||
      (squared_distance == worst.squared_distance && id > worst.id)) {
    return false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), compare);
  ids_.Remove(heap_.back().id);
  heap_.back() = {squared_distance, id};
  std::push_heap(heap_.begin(), heap_.end(), compare);
  ids_.Add(id);
  threshold_.store(heap_.front().squared_distance, std::memory_order_release);
  return true;
}

std::vector<Neighbor> KnnSet::SortedResults() const {
  MutexLock lock(&mu_);
  std::vector<Neighbor> out = heap_;
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.squared_distance != b.squared_distance) {
      return a.squared_distance < b.squared_distance;
    }
    return a.id < b.id;
  });
  return out;
}

/// Builds a batch's bounded queues on behalf of one worker thread: pushes
/// seal into the batch's queue list when a queue fills up (the paper's
/// "give up this queue, initiate a new one").
struct QueryExecution::QueueBuilder {
  RsBatch* batch = nullptr;
  size_t capacity = 0;
  std::unique_ptr<BoundedPq> current;
  size_t pushed = 0;  ///< leaves pushed, for stat_leaves_inserted_

  void Push(PqItem item) {
    if (current == nullptr) current = std::make_unique<BoundedPq>(capacity);
    ++pushed;
    if (current->Push(item)) Seal();
  }
  void Seal() {
    if (current == nullptr || current->empty()) return;
    MutexLock lock(&batch->mu);
    batch->queues.push_back(std::move(current));
  }
};

QueryExecution::QueryExecution(const Index* index, const PreparedQuery& query,
                               const QueryOptions& options,
                               std::atomic<float>* shared_bsf,
                               std::function<void(float)> on_bsf_improve)
    : index_(index),
      prepared_(&query),
      query_(query.series()),
      options_(options),
      shared_bsf_(shared_bsf),
      local_bsf_(kInf),
      on_bsf_improve_(std::move(on_bsf_improve)),
      knn_(options.k) {
  ODYSSEY_CHECK(index_ != nullptr && query_ != nullptr);
  ODYSSEY_CHECK(options_.num_threads >= 1);
  ODYSSEY_CHECK_MSG(
      query.segments() == index_->config().segments() &&
          query.length() == index_->config().series_length(),
      "query prepared against a different iSAX geometry than the index");
  if (options_.use_dtw) {
    ODYSSEY_CHECK_MSG(
        query.has_envelope() && query.dtw_window() == options_.dtw_window,
        "DTW execution needs a query prepared with the same warping window");
    envelope_ = &query.envelope();
    sax_bounds_ =
        SaxBoundTable::ForEnvelope(query.envelope_paa(), index_->config());
  } else {
    sax_bounds_ = SaxBoundTable::ForPaa(query.paa(), index_->config());
  }
  if (shared_bsf_ == nullptr) shared_bsf_ = &local_bsf_;
  batch_ranges_ = PartitionRsBatches(index_->tree().root_count(),
                                     options_.EffectiveBatches());
  batch_stolen_.assign(batch_ranges_.size(), false);
}

QueryExecution::~QueryExecution() = default;

float QueryExecution::SeedInitialBsf() {
  ODYSSEY_CHECK_MSG(!index_->data().empty(), "query against an empty index");
  uint32_t approx_id = 0;
  float approx_sq = kInf;
  if (options_.use_dtw) {
    approx_sq = ApproximateSearchSquaredDtw(*index_, *prepared_, &approx_id);
  } else {
    approx_sq = ApproximateSearchSquared(*index_, *prepared_, &approx_id);
  }
  OfferCandidate(approx_sq, approx_id);
  if (options_.approximate && options_.k > 1) {
    // Approximate k-NN: the whole best-matching leaf feeds the answer set
    // (the single best is already in).
    ScanCounts counts;
    ScanLeaf(ApproximateSearchLeaf(*index_, *prepared_), &counts);
    AddScanCounts(counts);
  }
  seeded_ = true;
  stat_initial_bsf_ = std::sqrt(static_cast<double>(approx_sq));
  return static_cast<float>(stat_initial_bsf_);
}

std::vector<int> QueryExecution::AllBatchIds() const {
  std::vector<int> all(batch_ranges_.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  return all;
}

void QueryExecution::Run(ThreadPool* pool) { RunWorkers(AllBatchIds(), pool); }

void QueryExecution::RunBatchSubset(const std::vector<int>& batch_ids,
                                    ThreadPool* pool) {
  RunWorkers(batch_ids, pool);
}

void QueryExecution::ArmBatches(const std::vector<int>& batch_ids) {
  // (Re)arm the traversal state for this subset. Batch objects are indexed
  // by global batch id so steal replies stay meaningful.
  MutexLock lock(&steal_mu_);
  batches_.clear();
  batches_.resize(batch_ranges_.size());
  for (int id : batch_ids) {
    ODYSSEY_CHECK(id >= 0 && static_cast<size_t>(id) < batch_ranges_.size());
    auto batch = std::make_unique<RsBatch>();
    batch->begin_root = batch_ranges_[id].first;
    batch->end_root = batch_ranges_[id].second;
    batches_[id] = std::move(batch);
  }
  active_batch_ids_ = batch_ids;
  pq_refs_.clear();
  pq_cursor_.store(0, std::memory_order_relaxed);
  batch_cursor_.store(0, std::memory_order_relaxed);
  phase_.store(static_cast<int>(Phase::kTraversal), std::memory_order_release);
}

ODYSSEY_HOT void QueryExecution::TraversalPhase() {
  // Snapshot the armed subset once per worker, into the worker's reusable
  // scratch; the batch objects are then claimed through their own atomic
  // cursors, lock-free. ArmBatches never runs concurrently with a phase
  // (RunWorkers arms before submitting workers), so the snapshot cannot go
  // stale.
  QueryScratch& scratch = QueryScratch::ForThisThread();
  scratch.armed.clear();
  {
    MutexLock lock(&steal_mu_);
    scratch.armed.reserve(active_batch_ids_.size());
    for (int id : active_batch_ids_) scratch.armed.push_back(batches_[id].get());
  }
  // --- Phase 1: tree traversal over RS-batches (Fetch&Add claims). ---
  for (;;) {
    const size_t i = batch_cursor_.fetch_add(1, std::memory_order_acq_rel);
    if (i >= scratch.armed.size()) break;
    TraverseBatch(scratch.armed[i]);
  }
  // Helping: join batches that are still incomplete, at most
  // help_threshold helpers per batch.
  for (RsBatch* batch : scratch.armed) {
    if (!batch->complete() &&
        batch->helped.fetch_add(1, std::memory_order_acq_rel) <
            options_.help_threshold) {
      TraverseBatch(batch);
    }
  }
}

void QueryExecution::PreprocessQueues() {
  // --- Phase 2: priority-queue preprocessing (one thread only). ---
  // Held across the whole phase: it reads the armed subset, drains each
  // batch's queue list, and publishes the sorted array. StealBatches
  // blocking for its duration is correct — stealing is only legal in
  // kProcessing, which this phase ends by entering.
  MutexLock lock(&steal_mu_);
  std::vector<std::pair<float, std::pair<BoundedPq*, int>>> sortable;
  for (int id : active_batch_ids_) {
    RsBatch* batch = batches_[id].get();
    MutexLock batch_lock(&batch->mu);
    for (auto& q : batch->queues) {
      if (q->empty()) continue;
      sortable.push_back({q->MinLowerBound(), {q.get(), id}});
    }
  }
  std::sort(sortable.begin(), sortable.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  pq_refs_.clear();
  pq_refs_.reserve(sortable.size());
  stat_queue_sizes_.clear();
  for (auto& entry : sortable) {
    auto ref = std::make_unique<PqRef>();
    ref->queue = entry.second.first;
    ref->batch_id = entry.second.second;
    pq_refs_.push_back(std::move(ref));
    stat_queue_sizes_.push_back(
        static_cast<double>(entry.second.first->size()));
  }
  phase_.store(static_cast<int>(Phase::kProcessing),
               std::memory_order_release);
}

ODYSSEY_HOT void QueryExecution::ProcessingPhase() {
  // Snapshot the sorted queue array once per worker (see TraversalPhase);
  // the PqRef objects themselves are stable for the phase and carry the
  // atomic `stolen` flag the work-stealing manager flips under steal_mu_.
  QueryScratch& scratch = QueryScratch::ForThisThread();
  scratch.refs.clear();
  {
    MutexLock lock(&steal_mu_);
    scratch.refs.reserve(pq_refs_.size());
    for (const auto& r : pq_refs_) scratch.refs.push_back(r.get());
  }
  // --- Phase 3: priority-queue processing (Fetch&Add claims). ---
  // The region marker attributes this loop's heap traffic (there must be
  // none at steady state) to the hot path for the counting-allocator tests.
  hotpath::ScopedHotRegion hot_region;
  ScanCounts counts;
  for (;;) {
    const size_t i = pq_cursor_.fetch_add(1, std::memory_order_acq_rel);
    if (i >= scratch.refs.size()) break;
    if (scratch.refs[i]->stolen.load(std::memory_order_acquire)) continue;
    ProcessQueue(scratch.refs[i]->queue, &counts);
  }
  AddScanCounts(counts);
}

void QueryExecution::AddScanCounts(const ScanCounts& counts) {
  stat_leaves_processed_.fetch_add(counts.leaves, std::memory_order_relaxed);
  stat_real_distances_.fetch_add(counts.distances, std::memory_order_relaxed);
}

void QueryExecution::RunWorkers(const std::vector<int>& batch_ids,
                                ThreadPool* pool) {
  ODYSSEY_CHECK_MSG(seeded_, "Run before SeedInitialBsf");
  if (options_.approximate) {
    // Approximate mode: the Initialize() leaf scan is the whole answer.
    phase_.store(static_cast<int>(Phase::kDone), std::memory_order_release);
    return;
  }
  Stopwatch watch;
  ArmBatches(batch_ids);
  const int num_threads = options_.num_threads;

  if (pool != nullptr) {
    // Executor path: each parallel phase is one TaskGroup epoch on the
    // shared pool; the Wait inside RunTasks is the phase barrier and the
    // calling thread helps run the phase tasks while it waits. No thread is
    // created, and several executions can share one pool concurrently (the
    // claim loops are self-contained: any number of workers, in any
    // interleaving, drain the same atomic cursors).
    TaskGroup group(pool);
    group.RunTasks(num_threads, [this](int) { TraversalPhase(); });
    PreprocessQueues();
    group.RunTasks(num_threads, [this](int) { ProcessingPhase(); });
  } else {
    // No pool: the caller is the only worker and drains every phase alone.
    TraversalPhase();
    PreprocessQueues();
    ProcessingPhase();
  }

  {
    MutexLock lock(&steal_mu_);
    phase_.store(static_cast<int>(Phase::kDone), std::memory_order_release);
  }
  stat_elapsed_seconds_ += watch.ElapsedSeconds();
}

ODYSSEY_HOT void QueryExecution::TraverseBatch(RsBatch* batch) {
  QueueBuilder builder;
  builder.batch = batch;
  builder.capacity = options_.queue_threshold;
  const size_t count = batch->root_count();
  for (;;) {
    const size_t r = batch->cursor.fetch_add(1, std::memory_order_acq_rel);
    if (r >= count) break;
    TraverseNode(index_->tree().root(batch->begin_root + r), &builder);
    batch->roots_done.fetch_add(1, std::memory_order_acq_rel);
  }
  builder.Seal();
  stat_leaves_inserted_.fetch_add(builder.pushed, std::memory_order_relaxed);
}

ODYSSEY_HOT void QueryExecution::TraverseNode(const TreeNode* node,
                                              QueueBuilder* builder) {
  if (node->subtree_size() == 0) return;
  const float lb = LeafLowerBound(node);
  if (lb >= PruneThreshold()) return;
  if (node->is_leaf()) {
    builder->Push({lb, node});
    return;
  }
  TraverseNode(node->left(), builder);
  TraverseNode(node->right(), builder);
}

ODYSSEY_HOT void QueryExecution::ProcessQueue(BoundedPq* queue,
                                              ScanCounts* counts) {
  while (!queue->empty()) {
    const PqItem item = queue->Pop();
    // The queue is ordered by lower bound: once the head cannot beat the
    // BSF, nothing behind it can either.
    if (item.lower_bound >= PruneThreshold()) break;
    ScanLeaf(item.leaf, counts);
  }
}

ODYSSEY_HOT void QueryExecution::ScanLeaf(const TreeNode* leaf,
                                          ScanCounts* counts) {
  ++counts->leaves;
  // The leaf's rows are contiguous (leaf order), so its SAX rows are read
  // as one sequential stream. Its surviving series rows are not: pass 1
  // finds them, so that pass 2 can prefetch each one before it is scored.
  const SeriesCollection& data = index_->data();
  const size_t length = data.length();
  uint32_t rows[kScanBlock];
  float bounds[kScanBlock];
  const uint32_t end = static_cast<uint32_t>(leaf->end());
  for (uint32_t begin = leaf->begin(); begin < end; begin += kScanBlock) {
    const uint32_t block_end = std::min(end, begin + kScanBlock);
    // Pass 1: the per-series summary filter at full cardinality (the
    // tightest summary-level bound) against the threshold at the block's
    // start. The threshold only falls, so a row dropped here would fail
    // the per-row check of pass 2 too.
    const float block_threshold = PruneThreshold();
    uint32_t kept = 0;
    for (uint32_t row = begin; row < block_end; ++row) {
      const float lb = SeriesLowerBound(index_->sax(row));
      rows[kept] = row;
      bounds[kept] = lb;
      kept += lb < block_threshold ? 1 : 0;
    }
    // Pass 2: the survivors, each re-checked against the current
    // threshold exactly as a row-by-row scan would, then scored.
    for (uint32_t j = 0; j < kept && j < kPrefetchAhead; ++j) {
      PrefetchRow(data.data(rows[j]), length);
    }
    for (uint32_t j = 0; j < kept; ++j) {
      if (j + kPrefetchAhead < kept) {
        PrefetchRow(data.data(rows[j + kPrefetchAhead]), length);
      }
      const float threshold = PruneThreshold();
      if (bounds[j] >= threshold) continue;
      const float d = RealDistance(data.data(rows[j]), threshold);
      ++counts->distances;
      if (d < threshold) OfferCandidate(d, rows[j]);
    }
  }
}

ODYSSEY_HOT void QueryExecution::OfferCandidate(float squared_distance,
                                                uint32_t id) {
  if (!knn_.Offer(squared_distance, id)) return;
  const float threshold = knn_.Threshold();
  if (threshold == kInf) return;
  if (AtomicFetchMinFloat(shared_bsf_, threshold) &&
      on_bsf_improve_ != nullptr) {
    // Sanctioned impurity: the broadcast callback intentionally takes the
    // mailbox lock and enqueues a message. The allowance keeps its heap
    // traffic out of the hot-region allocation count (it fires only on BSF
    // improvements, which dry up as the scan converges).
    hotpath::ScopedAllowance allowance;
    on_bsf_improve_(threshold);
  }
}

ODYSSEY_HOT float QueryExecution::PruneThreshold() const {
  // The node's book-keeping cell already folds in every broadcast BSF; the
  // local k-NN threshold can be momentarily tighter for k > 1 before the
  // k-th best is shared.
  //
  // Padded up by one ulp so pruning (and the >= early-abandon cadence in
  // the kernels this value is passed to) only discards candidates that are
  // *strictly* worse than the k-th best. A candidate whose distance exactly
  // ties the threshold then always completes scoring and reaches
  // KnnSet::Offer, where the (distance, id) order resolves the tie — the
  // same way in every run. Without the pad, whether a tying candidate
  // completes depends on how tight the threshold happened to be when its
  // leaf was scanned, i.e. on worker timing.
  const float t = std::min(shared_bsf_->load(std::memory_order_acquire),
                           knn_.Threshold());
  return std::nextafter(t, kInf);
}

ODYSSEY_HOT float QueryExecution::LeafLowerBound(const TreeNode* node) const {
  // MindistEnvelopeToWord (DTW) or MindistPaaToWord (ED), bit for bit.
  return sax_bounds_.WordBound(node->word());
}

ODYSSEY_HOT float QueryExecution::SeriesLowerBound(const uint8_t* sax) const {
  // MindistEnvelopeToSax (DTW) or MindistPaaToSax (ED), bit for bit.
  return sax_bounds_.Bound(sax);
}

ODYSSEY_HOT float QueryExecution::RealDistance(const float* series,
                                               float threshold) const {
  const size_t n = index_->config().series_length();
  if (options_.use_dtw) {
    // LB_Keogh at full resolution first; only survivors pay the DTW DP.
    const float lb = kernels_->lb_keogh_early_abandon(
        envelope_->upper.data(), envelope_->lower.data(), series,
        envelope_->length(), threshold);
    if (lb >= threshold) return lb;
    return SquaredDtwEarlyAbandon(series, query_, n, options_.dtw_window,
                                  threshold);
  }
  return kernels_->squared_euclidean_early_abandon(query_, series, n,
                                                   threshold);
}

ODYSSEY_HOT std::vector<int> QueryExecution::StealBatches(int nsend) {
  MutexLock lock(&steal_mu_);
  std::vector<int> given;
  if (phase_.load(std::memory_order_acquire) !=
      static_cast<int>(Phase::kProcessing)) {
    return given;
  }
  // The first-unclaimed table used to be allocated afresh on every round
  // of the nsend loop, all while the running claim loops contend on
  // steal_mu_; the comms thread's scratch reuses one buffer across rounds
  // and steal requests.
  QueryScratch& scratch = QueryScratch::ForThisThread();
  std::vector<size_t>& scratch_first_unclaimed = scratch.first_unclaimed;
  for (int round = 0; round < nsend; ++round) {
    const size_t cursor = pq_cursor_.load(std::memory_order_acquire);
    // Take-Away property: among batches not yet stolen that still have
    // unclaimed queues, pick the one whose first (leftmost) unclaimed queue
    // sits at the rightmost position — the batch least likely to have been
    // processed.
    int best_batch = -1;
    size_t best_first = 0;
    scratch_first_unclaimed.assign(batch_ranges_.size(), pq_refs_.size());
    for (size_t i = cursor; i < pq_refs_.size(); ++i) {
      const int b = pq_refs_[i]->batch_id;
      if (i < scratch_first_unclaimed[b]) scratch_first_unclaimed[b] = i;
    }
    for (size_t b = 0; b < batch_ranges_.size(); ++b) {
      if (batch_stolen_[b]) continue;
      if (scratch_first_unclaimed[b] == pq_refs_.size()) continue;  // empty
      if (best_batch < 0 || scratch_first_unclaimed[b] > best_first) {
        best_batch = static_cast<int>(b);
        best_first = scratch_first_unclaimed[b];
      }
    }
    if (best_batch < 0) break;
    batch_stolen_[best_batch] = true;
    for (size_t i = cursor; i < pq_refs_.size(); ++i) {
      if (pq_refs_[i]->batch_id == best_batch) {
        pq_refs_[i]->stolen.store(true, std::memory_order_release);
      }
    }
    given.push_back(best_batch);
  }
  return given;
}

QueryScratch& QueryScratch::ForThisThread() {
  // Function-local so construction is lazy (only threads that run query
  // phases pay for it) and destruction is tied to thread exit.
  static thread_local QueryScratch scratch;
  return scratch;
}

void QueryScratch::Reserve(size_t batches, size_t queues) {
  armed.reserve(batches);
  first_unclaimed.reserve(batches);
  refs.reserve(queues);
}

PreparedQuery PrepareQuery(const float* series, const IsaxConfig& config,
                           const QueryOptions& options) {
  return PreparedQuery::Prepare(series, config, options.use_dtw,
                                options.dtw_window);
}

PreparedBatch PrepareBatch(const SeriesCollection& queries,
                           const IsaxConfig& config,
                           const QueryOptions& options, ThreadPool* pool) {
  return PreparedBatch::Prepare(queries, config, options.use_dtw,
                                options.dtw_window, pool);
}

QueryStats QueryExecution::stats() const {
  QueryStats stats;
  stats.initial_bsf = stat_initial_bsf_;
  stats.leaves_inserted = stat_leaves_inserted_.load();
  stats.leaves_processed = stat_leaves_processed_.load();
  stats.real_distances = stat_real_distances_.load();
  {
    MutexLock lock(&steal_mu_);
    stats.queue_count = stat_queue_sizes_.size();
    stats.median_queue_size = Median(stat_queue_sizes_);
  }
  stats.elapsed_seconds = stat_elapsed_seconds_;
  return stats;
}

}  // namespace odyssey
