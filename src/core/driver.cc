#include "src/core/driver.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>  // std::this_thread::sleep_for (arrival pacing)
#include <unordered_map>
#include <utility>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/common/summary_stats.h"
#include "src/common/sync.h"
#include "src/common/thread_pool.h"

namespace odyssey {
namespace {

/// Coordinator-side failure detection and group-level reassignment — the
/// "victim never answers" branch of the recovery protocol (ARCHITECTURE.md
/// "Failure model"). Single-threaded: lives on the coordinator's answer
/// loop, fed one received message at a time.
///
/// Detection: every message the coordinator receives from a node is a
/// heartbeat; a node silent past the deadline (and not yet terminated) is
/// declared dead. Recovery: the verdict is broadcast (kNodeDead) so steal
/// victims re-run the RS-batches they had granted to the deceased and ack
/// (kNodeDeadAck); every query dispatched to the dead node is
/// re-executed wholesale by surviving members of its replication group
/// (kRecoverQuery), round-robin. The batch quiesces when every node is
/// terminated or dead and no ack or recovery answer is outstanding; a
/// final non-blocking drain then collects any answers a delay left behind.
///
/// A false-positive verdict (slow-but-alive node) is exactness-safe: its
/// transport stays open, it keeps answering, and the duplicate answers
/// deduplicate in MergeAnswers — re-execution only ever *adds* candidate
/// coverage. What is unrecoverable is every replica of a chunk dying:
/// SurvivingMembers surfaces that as a FailedPrecondition status.
class CoordinatorRecovery {
 public:
  CoordinatorRecovery(const ReplicationLayout& layout, SimCluster* cluster,
                      double timeout_seconds)
      : layout_(layout),
        cluster_(cluster),
        timeout_seconds_(timeout_seconds),
        last_heard_(static_cast<size_t>(layout.num_nodes()), 0.0) {}

  bool enabled() const { return timeout_seconds_ > 0.0; }
  bool IsDead(int node) const { return dead_.count(node) != 0; }
  const std::set<int>& dead() const { return dead_; }
  const Status& status() const { return status_; }

  /// Records that `query_id` was dispatched to `node` (static assignment
  /// or a dynamic grant): if the node dies unanswered, the query is
  /// re-executed by a surviving group member.
  void OnDispatch(int node, int query_id) {
    if (enabled()) dispatched_[node].push_back(query_id);
  }

  /// Folds one coordinator-received message into the bookkeeping.
  void OnMessage(const Message& m) {
    if (!enabled()) return;
    if (m.from >= 0 && m.from < layout_.num_nodes()) {
      last_heard_[static_cast<size_t>(m.from)] = clock_.ElapsedSeconds();
    }
    switch (m.type) {
      case MessageType::kLocalAnswer:
        // Only the flagged re-execution answer retires the reassignment.
        // A survivor can send *other* partial answers for the same
        // (node, query) pair — stolen-work results, or the grant replay
        // HandleNodeDead runs before acking — and counting one of those
        // would quiesce the batch while the real recovery re-run is still
        // scoring, losing the dead node's unstolen coverage for good.
        if (m.recovery) pending_recovery_.erase({m.from, m.query_id});
        break;
      case MessageType::kNodeDeadAck:
        pending_acks_.erase({m.from, m.subject});
        break;
      case MessageType::kQueryRequest:
      case MessageType::kNodeTerminated:
      case MessageType::kHeartbeat:
        break;  // heartbeat only; termination is the caller's set
      case MessageType::kAssignQuery:
      case MessageType::kNoMoreQueries:
      case MessageType::kBsfUpdate:
      case MessageType::kDone:
      case MessageType::kStealRequest:
      case MessageType::kStealReply:
      case MessageType::kShutdown:
      case MessageType::kNodeDead:
      case MessageType::kRecoverQuery:
        break;  // node-bound vocabulary; never coordinator-received
    }
  }

  /// Checks every live, unterminated node against the deadline.
  void Poll(const std::set<int>& terminated) {
    if (!enabled()) return;
    const double now = clock_.ElapsedSeconds();
    for (int n = 0; n < layout_.num_nodes(); ++n) {
      if (dead_.count(n) != 0 || terminated.count(n) != 0) continue;
      if (now - last_heard_[static_cast<size_t>(n)] > timeout_seconds_) {
        DeclareDead(n);
      }
    }
  }

  /// The batch is over: every node terminated or dead, every kNodeDead
  /// acked, every reassigned query answered.
  bool Quiesced(const std::set<int>& terminated) const {
    for (int n = 0; n < layout_.num_nodes(); ++n) {
      if (terminated.count(n) == 0 && dead_.count(n) == 0) return false;
    }
    return pending_acks_.empty() && pending_recovery_.empty();
  }

 private:
  void DeclareDead(int node) {
    if (dead_.count(node) != 0) return;
    dead_.insert(node);
    fault_stats::CountNodeDeclaredDead();
    // A verdict is protocol progress for everyone: restart every other
    // node's silence window so survivors quietly waiting out the victim
    // (e.g. parked in steal timeouts) are not cascaded into false
    // verdicts of their own.
    const double now = clock_.ElapsedSeconds();
    for (double& heard : last_heard_) heard = now;
    // Write off acks we were owed *by* the deceased, and collect
    // recoveries it owned — they must move to another survivor.
    std::vector<int> orphaned;
    for (auto it = pending_acks_.begin(); it != pending_acks_.end();) {
      if (it->first == node) {
        it = pending_acks_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = pending_recovery_.begin();
         it != pending_recovery_.end();) {
      if (it->first == node) {
        orphaned.push_back(it->second);
        it = pending_recovery_.erase(it);
      } else {
        ++it;
      }
    }
    // Tell every remaining node; each must ack after re-running whatever
    // it had granted to the deceased.
    Message verdict;
    verdict.type = MessageType::kNodeDead;
    verdict.from = cluster_->coordinator_id();
    verdict.subject = node;
    for (int v = 0; v < layout_.num_nodes(); ++v) {
      if (dead_.count(v) != 0) continue;
      cluster_->Send(v, verdict);
      pending_acks_.insert({v, node});
    }
    auto survivors = layout_.SurvivingMembers(layout_.GroupOf(node), dead_);
    if (!survivors.ok()) {
      // Chunk coverage is gone; surface the error instead of merging a
      // silently partial answer. No reassignment target exists.
      status_ = survivors.status();
      return;
    }
    // Re-execute *everything* dispatched to the deceased — even queries it
    // answered. Its answer for a query can be partial: it may have granted
    // the query's RS-batches to a thief and died before the batch-carrying
    // steal reply got out, in which case those batches ran nowhere and its
    // delivered answer silently lacks them. Re-running answered queries
    // only adds duplicate candidates (MergeAnswers dedups); skipping one
    // loses coverage. (A node that *terminated* needs none of this: a
    // delivered kNodeTerminated proves every earlier send — all its
    // answers and steal replies — was delivered too.)
    std::set<int> to_recover(orphaned.begin(), orphaned.end());
    for (int q : dispatched_[node]) to_recover.insert(q);
    for (int q : to_recover) {
      const int target =
          (*survivors)[static_cast<size_t>(rr_++) % survivors->size()];
      Message recover;
      recover.type = MessageType::kRecoverQuery;
      recover.from = cluster_->coordinator_id();
      recover.query_id = q;
      cluster_->Send(target, std::move(recover));
      pending_recovery_.insert({target, q});
      dispatched_[target].push_back(q);  // survivable if the target dies too
      fault_stats::CountQueryReassigned();
    }
  }

  const ReplicationLayout& layout_;
  SimCluster* const cluster_;
  const double timeout_seconds_;
  Stopwatch clock_;
  std::vector<double> last_heard_;
  std::set<int> dead_;
  /// (acker, subject) pairs still owed after a kNodeDead broadcast.
  std::set<std::pair<int, int>> pending_acks_;
  /// (owner, query) reassignments whose recovery answer is still owed.
  std::set<std::pair<int, int>> pending_recovery_;
  std::map<int, std::vector<int>> dispatched_;
  Status status_ = Status::Ok();
  int rr_ = 0;  // round-robin cursor over survivors
};

}  // namespace

QueryAnswer MergeAnswers(const std::vector<Neighbor>& candidates, int k) {
  // Deduplicate by global id, keeping each series' best distance, then take
  // the k smallest.
  std::unordered_map<uint32_t, float> best;
  best.reserve(candidates.size());
  for (const Neighbor& n : candidates) {
    auto [it, inserted] = best.emplace(n.id, n.squared_distance);
    if (!inserted && n.squared_distance < it->second) {
      it->second = n.squared_distance;
    }
  }
  QueryAnswer merged;
  merged.reserve(best.size());
  for (const auto& [id, dist] : best) merged.push_back({dist, id});
  std::sort(merged.begin(), merged.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.squared_distance != b.squared_distance) {
                return a.squared_distance < b.squared_distance;
              }
              return a.id < b.id;
            });
  if (merged.size() > static_cast<size_t>(k)) merged.resize(k);
  return merged;
}

OdysseyCluster::OdysseyCluster(const SeriesCollection& dataset,
                               const OdysseyOptions& options)
    : options_(options),
      layout_([&] {
        auto layout = ReplicationLayout::Make(options.num_nodes,
                                              options.num_groups);
        ODYSSEY_CHECK_MSG(layout.ok(), layout.status().ToString().c_str());
        return *layout;
      }()) {
  ODYSSEY_CHECK(dataset.length() == options.index_options.config.series_length());
  driver_pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(std::max(1, options_.build_threads_per_node)));

  // Stage 1: the coordinator partitions the collection into num_groups
  // chunks.
  Stopwatch watch;
  std::vector<std::vector<uint32_t>> chunks;
  if (!options_.custom_chunks.empty()) {
    ODYSSEY_CHECK(static_cast<int>(options_.custom_chunks.size()) ==
                  layout_.num_groups());
    chunks = options_.custom_chunks;
  } else {
    chunks = PartitionSeries(dataset, layout_.num_groups(),
                             options_.partitioning,
                             options_.index_options.config, options_.seed,
                             driver_pool_.get(), options_.density_options);
  }
  partition_seconds_ = watch.ElapsedSeconds();

  // Stage 2: each group materializes, summarizes and indexes its chunk
  // exactly once (Section 3.3: a group's members hold identical data), and
  // every member serves that one index. Under FULL replication this is 1
  // copy, 1 summarization and 1 tree instead of Nsn of each.
  BuildNodes([&](int g, ThreadPool* pool) {
    return SharedChunk::Build(dataset.Subset(chunks[g]), chunks[g],
                              options_.index_options.config, pool);
  });
}

OdysseyCluster::OdysseyCluster(GroupChunks groups,
                               const OdysseyOptions& options,
                               double partition_seconds,
                               double ingest_seconds,
                               double overlap_seconds)
    : options_(options),
      layout_([&] {
        auto layout = ReplicationLayout::Make(options.num_nodes,
                                              options.num_groups);
        ODYSSEY_CHECK_MSG(layout.ok(), layout.status().ToString().c_str());
        return *layout;
      }()),
      partition_seconds_(partition_seconds),
      ingest_seconds_(ingest_seconds),
      overlap_seconds_(overlap_seconds) {
  driver_pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(std::max(1, options_.build_threads_per_node)));
  // Each group adopts its accumulated series + SAX table (computed once per
  // ingest chunk, never recomputed here) as one bundle — the only per-group
  // work left is grouping the buffers, building the tree and reordering the
  // rows into leaf order.
  BuildNodes([&](int g, ThreadPool*) {
    return SharedChunk::Adopt(std::move(groups.data[g]),
                              std::move(groups.ids[g]),
                              std::move(groups.sax[g]),
                              options_.index_options.config);
  });
}

StatusOr<std::unique_ptr<OdysseyCluster>> OdysseyCluster::IngestAndBuild(
    SeriesIngestor& source, const OdysseyOptions& options) {
  auto layout = ReplicationLayout::Make(options.num_nodes, options.num_groups);
  if (!layout.ok()) return layout.status();
  if (source.length() != options.index_options.config.series_length()) {
    return Status::InvalidArgument(
        "archive series length " + std::to_string(source.length()) +
        " does not match the index config length " +
        std::to_string(options.index_options.config.series_length()));
  }
  if (!options.custom_chunks.empty()) {
    return Status::InvalidArgument(
        "custom_chunks index into a whole collection and cannot drive a "
        "streaming build");
  }

  // Stage 0+1 interleaved: pull one bounded chunk at a time and partition
  // it on arrival, appending each group's share directly into the group's
  // storage. Peak transient heap is two ingest chunks (the one being
  // processed + the one in flight); the full archive only ever exists
  // distributed across the groups (as on a real cluster). Each arriving
  // chunk is summarized exactly once — before partitioning, so
  // DENSITY-AWARE reuses the same table — and the SAX rows are scattered
  // into per-group tables alongside the series; the group bundles are then
  // adopted at build time with zero re-summarization, and the next chunk's
  // disk read runs concurrently with all of this.
  const IsaxConfig& config = options.index_options.config;
  const size_t w = static_cast<size_t>(config.segments());
  const int num_groups = layout->num_groups();
  GroupChunks groups;
  groups.data.resize(num_groups, SeriesCollection(source.length()));
  groups.ids.resize(num_groups);
  groups.sax.resize(num_groups);
  // Size each group's storage once: exact for one group, an even share
  // otherwise, so only a group an uneven split overflows grows (and copies).
  const size_t share =
      (source.total_series() + static_cast<size_t>(num_groups) - 1) /
      static_cast<size_t>(num_groups);
  for (int g = 0; g < num_groups; ++g) {
    groups.data[g].Reserve(share);
    groups.ids[g].reserve(share);
    groups.sax[g].reserve(share * w);
  }
  double partition_seconds = 0.0;
  ThreadPool pool(
      static_cast<size_t>(std::max(1, options.build_threads_per_node)));
  ChunkPrefetcher prefetcher(&source);
  Stopwatch watch;
  uint64_t chunk_index = 0;
  uint32_t base = 0;  // global id of the current chunk's first series
  std::vector<uint8_t> chunk_sax;
  for (;; ++chunk_index) {
    StatusOr<SeriesCollection> chunk = prefetcher.Next();
    if (!chunk.ok()) return chunk.status();
    if (chunk->empty()) break;
    const size_t n = chunk->size();
    watch.Restart();
    chunk_sax.resize(n * w);
    pool.ParallelFor(n, [&](size_t begin, size_t end) {
      double paa[kMaxSegments];
      for (size_t i = begin; i < end; ++i) {
        ComputePaa(chunk->data(i), config.paa, paa);
        ComputeSaxFromPaa(paa, config, chunk_sax.data() + i * w);
      }
    });
    // A tail chunk with fewer series than groups is cut into one part per
    // series, for the first n groups. Per-chunk seed: kRandomShuffle must
    // not deal every chunk the same permutation.
    const std::vector<std::vector<uint32_t>> local = PartitionSeries(
        *chunk, static_cast<int>(std::min<size_t>(num_groups, n)),
        options.partitioning, config, options.seed + chunk_index, &pool,
        options.density_options, &chunk_sax);
    for (size_t g = 0; g < local.size(); ++g) {
      for (uint32_t id : local[g]) {
        groups.data[g].Append(chunk->data(id));
        groups.ids[g].push_back(base + id);
        groups.sax[g].insert(groups.sax[g].end(), chunk_sax.data() + id * w,
                             chunk_sax.data() + (id + 1) * w);
      }
    }
    base += static_cast<uint32_t>(n);
    partition_seconds += watch.ElapsedSeconds();
  }
  const double ingest_seconds = prefetcher.pull_seconds();
  const double overlap_seconds = prefetcher.overlap_seconds();
  build_stats::AddOverlapSeconds(overlap_seconds);
  if (chunk_index == 0) {
    return Status::InvalidArgument("archive is empty: " + source.path());
  }
  if (std::any_of(groups.data.begin(), groups.data.end(),
                  [](const SeriesCollection& d) { return d.empty(); })) {
    return Status::InvalidArgument(
        "archive holds " + std::to_string(base) + " series, too few for " +
        std::to_string(num_groups) + " replication groups: " + source.path());
  }
  // A short group's id and SAX slack would outlive the build; trimming them
  // copies little. The series rows are never copied.
  for (int g = 0; g < num_groups; ++g) {
    groups.ids[g].shrink_to_fit();
    groups.sax[g].shrink_to_fit();
  }
  return std::unique_ptr<OdysseyCluster>(
      new OdysseyCluster(std::move(groups), options, partition_seconds,
                         ingest_seconds, overlap_seconds));
}

void OdysseyCluster::BuildNodes(
    const std::function<std::unique_ptr<SharedChunk>(int, ThreadPool*)>&
        make_bundle) {
  const int num_groups = layout_.num_groups();
  std::vector<std::shared_ptr<const Index>> indexes(num_groups);
  group_timings_.resize(num_groups);
  {
    std::vector<CountedThread> groups;
    groups.reserve(num_groups);
    for (int g = 0; g < num_groups; ++g) {
      groups.emplace_back([&, g] {
        // The group's members would each have built with
        // build_threads_per_node workers; the one build gets all of them.
        ThreadPool pool(layout_.GroupMembers(g).size() *
                        static_cast<size_t>(
                            std::max(1, options_.build_threads_per_node)));
        std::unique_ptr<SharedChunk> bundle = make_bundle(g, &pool);
        ODYSSEY_CHECK_MSG(!bundle->data().empty(),
                          "node received an empty chunk");
        indexes[g] = std::make_shared<const Index>(Index::BuildFromShared(
            std::move(bundle), options_.index_options, &pool,
            &group_timings_[g]));
      });
    }
    for (auto& t : groups) t.Join();
  }
  nodes_.reserve(layout_.num_nodes());
  for (int n = 0; n < layout_.num_nodes(); ++n) {
    nodes_.push_back(std::make_unique<NodeRuntime>(
        n, layout_, indexes[layout_.GroupOf(n)]));
  }
}

OdysseyCluster::~OdysseyCluster() = default;

double OdysseyCluster::max_buffer_seconds() const {
  double out = 0.0;
  for (const BuildTimings& t : group_timings_) {
    out = std::max(out, t.buffer_seconds);
  }
  return out;
}

double OdysseyCluster::max_tree_seconds() const {
  double out = 0.0;
  for (const BuildTimings& t : group_timings_) {
    out = std::max(out, t.tree_seconds);
  }
  return out;
}

size_t OdysseyCluster::total_index_bytes() const {
  size_t out = 0;
  for (const auto& node : nodes_) out += node->index().IndexMemoryBytes();
  return out;
}

size_t OdysseyCluster::total_data_bytes() const {
  size_t out = 0;
  for (const auto& node : nodes_) out += node->index().DataMemoryBytes();
  return out;
}

PreparedBatch OdysseyCluster::PrepareQueries(const SeriesCollection& queries,
                                             double* prepare_seconds) const {
  // Stage 3 pre-step: build every query's summaries (PAA, SAX, DTW
  // envelope) exactly once, on the coordinator's persistent pool.
  // Scheduling estimates, every replica, and stolen-work runs all share
  // these immutable artifacts.
  Stopwatch watch;
  PreparedBatch prepared =
      PrepareBatch(queries, options_.index_options.config,
                   options_.query_options, driver_pool_.get());
  *prepare_seconds = watch.ElapsedSeconds();
  return prepared;
}

std::vector<double> OdysseyCluster::EstimateGroupQueries(
    int group, const PreparedBatch& prepared) {
  // Stage 3a (on behalf of the group coordinator): per-query execution-time
  // estimates from the initial BSF of an approximate search on the group's
  // chunk (Figure 4). Without a fitted cost model, the initial BSF itself
  // serves as the estimate (the regression is monotone, so ordering and
  // greedy assignment behave identically). The queries' PAA/SAX come from
  // the batch-level prepared artifacts, so estimation pays only the tree
  // descent and one leaf scan per query.
  const Index& index = nodes_[layout_.GroupCoordinator(group)]->index();
  std::vector<double> estimates(prepared.size());
  // The group coordinator is itself a multi-core node: estimation uses
  // pooled workers, keeping the scheduling stage's overhead negligible
  // relative to query answering (as in the paper) — and, like every other
  // stage-3/4 step, it creates no threads.
  ThreadPool& pool = *driver_pool_;
  pool.ParallelFor(prepared.size(), [&](size_t begin, size_t end) {
    for (size_t q = begin; q < end; ++q) {
      const PreparedQuery& query = prepared.query(q);
      const float sq = options_.query_options.use_dtw
                           ? ApproximateSearchSquaredDtw(index, query)
                           : ApproximateSearchSquared(index, query);
      const double initial_bsf = std::sqrt(static_cast<double>(sq));
      estimates[q] =
          (options_.cost_model != nullptr && options_.cost_model->fitted())
              ? options_.cost_model->PredictSeconds(initial_bsf)
              : initial_bsf;
    }
  });
  return estimates;
}

BatchReport OdysseyCluster::AnswerBatch(const SeriesCollection& queries) {
  ODYSSEY_CHECK(!queries.empty());
  const int num_queries = static_cast<int>(queries.size());

  // A fresh transport per batch: stale messages cannot leak across runs.
  // With an active fault plan the transport is adversarial — the injector
  // consults the plan's seeded RNG on every send.
  FaultInjector injector(options_.fault_plan);
  SimCluster cluster(layout_.num_nodes(),
                     options_.fault_plan.active() ? &injector : nullptr);

  NodeBatchOptions node_options;
  node_options.policy = options_.scheduling;
  node_options.worksteal = options_.worksteal;
  // Work-stealing requires a peer with identical data: disable when groups
  // have a single member (EQUALLY-SPLIT), matching the paper's constraint.
  if (layout_.replication_degree() <= 1) node_options.worksteal.enabled = false;
  node_options.query_options = options_.query_options;
  node_options.threshold_model = options_.threshold_model;
  node_options.share_bsf = options_.share_bsf;
  // Admission depth: a node runs up to a pool's width of its queries
  // concurrently, and stolen work charges the same in-flight budget.
  node_options.max_inflight = std::max(1, options_.query_options.num_threads);
  // Arm unsolicited heartbeats only when the liveness deadline is: silent
  // compute must read as busy, and without a deadline pings are noise.
  node_options.liveness_heartbeat_seconds =
      options_.liveness_timeout_seconds > 0.0 ? 0.025 : 0.0;
  node_options.seed = options_.seed;

  Stopwatch batch_watch;
  double prepare_seconds = 0.0;
  const PreparedBatch prepared = PrepareQueries(queries, &prepare_seconds);

  // Constructed after preparation so its silence clock starts with the
  // nodes' epochs, not with the driver-side summarization work.
  CoordinatorRecovery recovery(layout_, &cluster,
                               options_.liveness_timeout_seconds);

  for (auto& node : nodes_) {
    node->StartBatch(&cluster, &prepared, node_options);
  }

  // Stage 3: scheduling, per replication group (the driver acts for each
  // group coordinator; assignment travels as kAssignQuery messages and
  // dynamic requests as kQueryRequest round-trips). Groups with a single
  // member have nothing to schedule, so they skip estimation entirely
  // (scheduling is a no-op without replication); per-group estimation runs
  // on the coordinator's persistent pool, one group at a time (on the real
  // system each group coordinator estimates on its own node's workers).
  Stopwatch scheduling_watch;
  const bool dynamic = PolicyIsDynamic(options_.scheduling);
  std::vector<std::vector<double>> group_estimates(layout_.num_groups());
  if (PolicyNeedsPredictions(options_.scheduling) &&
      layout_.replication_degree() > 1) {
    for (int g = 0; g < layout_.num_groups(); ++g) {
      group_estimates[g] = EstimateGroupQueries(g, prepared);
    }
  }
  // Dynamic dispatch queues, per group.
  std::vector<std::deque<int>> dispatch(layout_.num_groups());
  // Assignment fence (Message::assign_count): per-node count of distinct
  // kAssignQuery sends, stamped on every kNoMoreQueries so a node can tell
  // a marker that overtook a delayed assignment from one that really is
  // the end of its share.
  std::vector<int> assigns_sent(static_cast<size_t>(layout_.num_nodes()), 0);
  for (int g = 0; g < layout_.num_groups(); ++g) {
    const std::vector<int> members = layout_.GroupMembers(g);
    const std::vector<double>& estimates = group_estimates[g];
    SchedulingPolicy effective = options_.scheduling;
    if (estimates.empty() && PolicyNeedsPredictions(effective)) {
      // Single-member group: degrade to the prediction-free equivalent.
      effective = PolicyIsDynamic(effective) ? SchedulingPolicy::kDynamic
                                             : SchedulingPolicy::kStatic;
    }
    // Static policies fix each member's share up front; dynamic ones fill
    // the group's dispatch queue, which kQueryRequests drain below.
    std::vector<std::vector<int>> assignment;
    switch (effective) {
      case SchedulingPolicy::kStatic:
        assignment = StaticSplit(num_queries, static_cast<int>(members.size()));
        break;
      case SchedulingPolicy::kPredictStaticUnsorted:
      case SchedulingPolicy::kPredictStatic:
        assignment = PredictionGreedySplit(
            estimates, static_cast<int>(members.size()),
            /*sorted=*/effective == SchedulingPolicy::kPredictStatic);
        break;
      case SchedulingPolicy::kDynamic:
      case SchedulingPolicy::kPredictDynamic: {
        const bool sorted = effective == SchedulingPolicy::kPredictDynamic;
        const std::vector<int> order =
            DynamicDispatchOrder(estimates, num_queries, sorted);
        dispatch[g].assign(order.begin(), order.end());
        break;
      }
    }
    for (size_t w = 0; w < assignment.size(); ++w) {
      for (int q : assignment[w]) {
        Message m;
        m.type = MessageType::kAssignQuery;
        m.from = cluster.coordinator_id();
        m.query_id = q;
        cluster.Send(members[w], std::move(m));
        ++assigns_sent[static_cast<size_t>(members[w])];
        recovery.OnDispatch(members[w], q);
      }
    }
    if (!dynamic) {
      for (int member : members) {
        Message m;
        m.type = MessageType::kNoMoreQueries;
        m.from = cluster.coordinator_id();
        m.assign_count = assigns_sent[static_cast<size_t>(member)];
        cluster.Send(member, std::move(m));
      }
    }
  }
  const double scheduling_seconds = scheduling_watch.ElapsedSeconds();

  // Stage 4-5: serve dynamic requests, collect local answers, and wait for
  // every node to finish its work-stealing phase.
  BatchReport report;
  report.answers.resize(num_queries);
  std::vector<std::vector<Neighbor>> candidates(num_queries);
  // A duplicated kNodeTerminated (fault injection) must not double-count,
  // so terminations are a set, not a counter.
  std::set<int> terminated;
  while (!recovery.Quiesced(terminated)) {
    Message m;
    bool got;
    if (recovery.enabled()) {
      // Poll with a short timeout so liveness deadlines fire even while no
      // traffic arrives (the failure mode that needs them most).
      got = cluster.mailbox(cluster.coordinator_id())
                .ReceiveFor(std::chrono::microseconds(2000), &m);
    } else {
      got = cluster.mailbox(cluster.coordinator_id()).Receive(&m);
      if (!got) break;  // coordinator mailbox closed: defensive, never faulted
    }
    if (got) {
      recovery.OnMessage(m);
      switch (m.type) {
        case MessageType::kQueryRequest: {
          std::deque<int>& queue = dispatch[layout_.GroupOf(m.from)];
          Message reply;
          reply.from = cluster.coordinator_id();
          if (queue.empty()) {
            reply.type = MessageType::kNoMoreQueries;
            reply.assign_count = assigns_sent[static_cast<size_t>(m.from)];
          } else {
            reply.type = MessageType::kAssignQuery;
            reply.query_id = queue.front();
            queue.pop_front();
            ++assigns_sent[static_cast<size_t>(m.from)];
            recovery.OnDispatch(m.from, reply.query_id);
          }
          cluster.Send(m.from, std::move(reply));
          break;
        }
        case MessageType::kLocalAnswer: {
          std::vector<Neighbor>& bucket = candidates[m.query_id];
          bucket.insert(bucket.end(), m.neighbors.begin(), m.neighbors.end());
          break;
        }
        case MessageType::kNodeTerminated:
          terminated.insert(m.from);
          break;
        case MessageType::kAssignQuery:
        case MessageType::kNoMoreQueries:
        case MessageType::kBsfUpdate:
        case MessageType::kDone:
        case MessageType::kStealRequest:
        case MessageType::kStealReply:
        case MessageType::kShutdown:
        case MessageType::kNodeDead:
        case MessageType::kNodeDeadAck:
        case MessageType::kRecoverQuery:
        case MessageType::kHeartbeat:
          break;  // node-bound traffic (e.g. kDone copies) is informational
      }
    }
    recovery.Poll(terminated);
  }

  // Drain stragglers: a delayed kLocalAnswer can still sit in the held
  // queue after the last kNodeTerminated. Sound because recovery answers
  // are fenced by their node's kNodeDeadAck (same-thread FIFO) and ordinary
  // answers by that node's kNodeTerminated, all of which Quiesced() has
  // already seen; TryReceive force-flushes held messages.
  {
    Message m;
    while (cluster.mailbox(cluster.coordinator_id()).TryReceive(&m)) {
      if (m.type == MessageType::kLocalAnswer) {
        std::vector<Neighbor>& bucket = candidates[m.query_id];
        bucket.insert(bucket.end(), m.neighbors.begin(), m.neighbors.end());
      }
    }
  }
  report.status = recovery.status();
  report.dead_nodes.assign(recovery.dead().begin(), recovery.dead().end());

  // Merge the per-node partial answers into the final ones.
  for (int q = 0; q < num_queries; ++q) {
    report.answers[q] = MergeAnswers(candidates[q], options_.query_options.k);
  }
  report.query_seconds = batch_watch.ElapsedSeconds();
  report.prepare_seconds = prepare_seconds;
  report.scheduling_seconds = scheduling_seconds;

  Message shutdown;
  shutdown.type = MessageType::kShutdown;
  shutdown.from = cluster.coordinator_id();
  cluster.Broadcast(shutdown);
  for (auto& node : nodes_) node->JoinBatch();

  for (auto& node : nodes_) {
    report.node_stats.push_back(node->batch_stats());
    report.queries_in_flight_hwm = std::max(
        report.queries_in_flight_hwm, node->batch_stats().inflight_hwm);
  }
  report.messages_sent = cluster.messages_sent();
  report.bsf_updates = cluster.messages_sent(MessageType::kBsfUpdate);
  report.steal_requests = cluster.messages_sent(MessageType::kStealRequest);
  return report;
}

BatchReport OdysseyCluster::AnswerStream(
    const SeriesCollection& queries,
    const std::vector<double>& arrival_seconds) {
  ODYSSEY_CHECK(!queries.empty());
  ODYSSEY_CHECK(queries.length() ==
                options_.index_options.config.series_length());
  ODYSSEY_CHECK(arrival_seconds.size() == queries.size());
  ODYSSEY_CHECK(std::is_sorted(arrival_seconds.begin(),
                               arrival_seconds.end()));
  const int num_queries = static_cast<int>(queries.size());

  FaultInjector injector(options_.fault_plan);
  SimCluster cluster(layout_.num_nodes(),
                     options_.fault_plan.active() ? &injector : nullptr);
  CoordinatorRecovery recovery(layout_, &cluster,
                               options_.liveness_timeout_seconds);

  NodeBatchOptions node_options;
  // Streaming always dispatches dynamically: a query cannot be assigned (or
  // sorted by estimate) before it exists.
  node_options.policy = SchedulingPolicy::kDynamic;
  node_options.worksteal = options_.worksteal;
  if (layout_.replication_degree() <= 1) node_options.worksteal.enabled = false;
  node_options.query_options = options_.query_options;
  node_options.threshold_model = options_.threshold_model;
  node_options.share_bsf = options_.share_bsf;
  // A node with idle workers runs several admitted queries concurrently,
  // partitioning its pool, instead of strictly one at a time.
  node_options.max_inflight = std::max(1, options_.stream_max_inflight);
  // Arm unsolicited heartbeats only when the liveness deadline is: silent
  // compute must read as busy, and without a deadline pings are noise.
  node_options.liveness_heartbeat_seconds =
      options_.liveness_timeout_seconds > 0.0 ? 0.025 : 0.0;
  node_options.seed = options_.seed;

  // Online admission: slots are allocated up front, but each query is
  // summarized by the prep thread at its modeled arrival time — while the
  // nodes execute earlier arrivals — and dispatched the moment it is
  // admitted. Preparation therefore overlaps execution instead of
  // front-loading the whole stream's summarization (the ROADMAP's
  // streaming-prepare item; prep_overlap_seconds observes the win).
  PreparedBatch prepared = PreparedBatch::Allocate(queries.size());

  for (auto& node : nodes_) {
    node->StartBatch(&cluster, &prepared, node_options);
  }

  // The arrival clock starts now; the prep thread paces itself against it.
  Stopwatch batch_watch;

  const IsaxConfig& config = options_.index_options.config;
  const QueryOptions& qo = options_.query_options;
  double prepare_seconds = 0.0;
  double prep_overlap_seconds = 0.0;
  // Released queries whose answers are still outstanding (each query owes
  // one local answer per replication group; steal-split extras are capped
  // by the remaining-counter floor). The prep thread samples this gauge to
  // count only preparation that genuinely ran while something executed.
  std::atomic<int> executing_queries{0};
  CountedThread prep([&] {
    Stopwatch prep_watch;
    for (size_t q = 0; q < queries.size(); ++q) {
      // Model the arrival: admission cannot precede the query's existence.
      for (;;) {
        const double wait = arrival_seconds[q] - batch_watch.ElapsedSeconds();
        if (wait <= 0.0) break;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(wait, 500e-6)));
      }
      const bool busy_before =
          executing_queries.load(std::memory_order_acquire) > 0;
      prep_watch.Restart();
      prepared.Admit(q, queries.data(q), config, qo.use_dtw, qo.dtw_window);
      const double elapsed = prep_watch.ElapsedSeconds();
      prepare_seconds += elapsed;
      // Overlapped share: this admission ran while at least one earlier
      // query was still executing (sampled around the work; a sparse
      // trickle whose queries finish before the next arrival counts zero).
      if (busy_before ||
          executing_queries.load(std::memory_order_acquire) > 0) {
        prep_overlap_seconds += elapsed;
      }
    }
  });

  // Per-group released-query queues and parked dynamic requests: a request
  // that finds the queue empty while more queries are still to arrive is
  // deferred until the next admission.
  std::vector<std::deque<int>> dispatch(layout_.num_groups());
  std::vector<std::deque<int>> parked(layout_.num_groups());
  int released = 0;
  std::vector<int> answers_remaining(num_queries, layout_.num_groups());
  // Assignment fence — see AnswerBatch.
  std::vector<int> assigns_sent(static_cast<size_t>(layout_.num_nodes()), 0);

  BatchReport report;
  report.answers.resize(num_queries);
  std::vector<std::vector<Neighbor>> candidates(num_queries);
  std::set<int> terminated;

  auto serve = [&](int group) {
    while (!parked[group].empty()) {
      const int node = parked[group].front();
      if (recovery.IsDead(node)) {
        // A dead node's parked request is void: drop the request without
        // consuming a dispatch-queue entry, so the query goes to a
        // survivor's next request instead.
        parked[group].pop_front();
        continue;
      }
      std::deque<int>& queue = dispatch[group];
      Message reply;
      reply.from = cluster.coordinator_id();
      if (!queue.empty()) {
        reply.type = MessageType::kAssignQuery;
        reply.query_id = queue.front();
        queue.pop_front();
        ++assigns_sent[static_cast<size_t>(node)];
        recovery.OnDispatch(node, reply.query_id);
      } else if (released == num_queries) {
        reply.type = MessageType::kNoMoreQueries;
        reply.assign_count = assigns_sent[static_cast<size_t>(node)];
      } else {
        return;  // wait for the next admission
      }
      parked[group].pop_front();
      cluster.Send(node, std::move(reply));
    }
  };

  while (!recovery.Quiesced(terminated)) {
    // Release every query the prep thread has admitted (admission implies
    // its arrival time has passed). The admitted() acquire pairs with the
    // Admit fetch_add, so a released slot's summaries are visible to every
    // node the dispatch message reaches.
    while (released < num_queries &&
           static_cast<size_t>(released) < prepared.admitted()) {
      for (int g = 0; g < layout_.num_groups(); ++g) {
        dispatch[g].push_back(released);
      }
      ++released;
      executing_queries.fetch_add(1, std::memory_order_acq_rel);
      for (int g = 0; g < layout_.num_groups(); ++g) serve(g);
    }
    Message m;
    if (cluster.mailbox(cluster.coordinator_id())
            .ReceiveFor(std::chrono::microseconds(200), &m)) {
      recovery.OnMessage(m);
      switch (m.type) {
        case MessageType::kQueryRequest:
          parked[layout_.GroupOf(m.from)].push_back(m.from);
          serve(layout_.GroupOf(m.from));
          break;
        case MessageType::kLocalAnswer: {
          std::vector<Neighbor>& bucket = candidates[m.query_id];
          bucket.insert(bucket.end(), m.neighbors.begin(), m.neighbors.end());
          if (answers_remaining[m.query_id] > 0 &&
              --answers_remaining[m.query_id] == 0) {
            executing_queries.fetch_sub(1, std::memory_order_acq_rel);
          }
          break;
        }
        case MessageType::kNodeTerminated:
          terminated.insert(m.from);
          break;
        case MessageType::kAssignQuery:
        case MessageType::kNoMoreQueries:
        case MessageType::kBsfUpdate:
        case MessageType::kDone:
        case MessageType::kStealRequest:
        case MessageType::kStealReply:
        case MessageType::kShutdown:
        case MessageType::kNodeDead:
        case MessageType::kNodeDeadAck:
        case MessageType::kRecoverQuery:
        case MessageType::kHeartbeat:
          break;  // node-bound traffic is informational to the coordinator
      }
    }
    recovery.Poll(terminated);
    // A death verdict may have freed parked requests for reassignment.
    if (recovery.enabled()) {
      for (int g = 0; g < layout_.num_groups(); ++g) serve(g);
    }
  }
  // Termination of every node implies all queries were dispatched, so the
  // prep thread has already run to completion.
  prep.Join();

  // Drain held (delayed) stragglers; see AnswerBatch for the soundness
  // argument.
  {
    Message m;
    while (cluster.mailbox(cluster.coordinator_id()).TryReceive(&m)) {
      if (m.type == MessageType::kLocalAnswer) {
        std::vector<Neighbor>& bucket = candidates[m.query_id];
        bucket.insert(bucket.end(), m.neighbors.begin(), m.neighbors.end());
      }
    }
  }
  report.status = recovery.status();
  report.dead_nodes.assign(recovery.dead().begin(), recovery.dead().end());

  for (int q = 0; q < num_queries; ++q) {
    report.answers[q] = MergeAnswers(candidates[q], options_.query_options.k);
  }
  // Preparation ran inside the answering window (that is the point); the
  // makespan is just the window.
  report.query_seconds = batch_watch.ElapsedSeconds();
  report.prepare_seconds = prepare_seconds;
  report.prep_overlap_seconds = prep_overlap_seconds;
  executor_stats::AddPrepOverlapSeconds(prep_overlap_seconds);

  Message shutdown;
  shutdown.type = MessageType::kShutdown;
  shutdown.from = cluster.coordinator_id();
  cluster.Broadcast(shutdown);
  for (auto& node : nodes_) node->JoinBatch();

  for (auto& node : nodes_) {
    report.node_stats.push_back(node->batch_stats());
    report.queries_in_flight_hwm = std::max(
        report.queries_in_flight_hwm, node->batch_stats().inflight_hwm);
  }
  report.messages_sent = cluster.messages_sent();
  report.bsf_updates = cluster.messages_sent(MessageType::kBsfUpdate);
  report.steal_requests = cluster.messages_sent(MessageType::kStealRequest);
  return report;
}

}  // namespace odyssey
