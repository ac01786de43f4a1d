#ifndef ODYSSEY_CORE_DRIVER_H_
#define ODYSSEY_CORE_DRIVER_H_

/// The Odyssey coordinator (paper Figure 3): OdysseyCluster drives all five
/// stages of a deployment — stage 1 partitioning (Section 3.4), stage 2
/// distributed index construction over replication groups (Section 3.3,
/// here via one shared immutable chunk bundle per group), stage 3
/// predictive scheduling (Sections 2 and 3.1), stage 4 query execution on
/// the nodes, and stage 5 answer merging. IngestAndBuild is the streaming
/// variant: bounded chunks are pulled (double-buffered, overlapping pulls
/// with summarization), partitioned and summarized on arrival.

#include <functional>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/core/cost_model.h"
#include "src/core/node_runtime.h"
#include "src/core/partitioning.h"
#include "src/core/shared_chunk.h"
#include "src/dataset/ingest.h"
#include "src/net/fault_plan.h"

namespace odyssey {

/// Everything that configures one Odyssey deployment (Figure 3).
struct OdysseyOptions {
  /// Cluster shape: PARTIAL-num_groups over num_nodes nodes. num_groups = 1
  /// is FULL replication, num_groups = num_nodes is EQUALLY-SPLIT.
  int num_nodes = 4;
  int num_groups = 1;

  /// Stage-1 partitioning of the raw collection into num_groups chunks.
  PartitioningScheme partitioning = PartitioningScheme::kEquallySplit;
  DensityAwareOptions density_options;
  /// Overrides the partitioner with precomputed chunks (used by the DPiSAX
  /// baseline). Must contain exactly num_groups disjoint, exhaustive chunks.
  std::vector<std::vector<uint32_t>> custom_chunks;

  /// Stage-2 index construction.
  IndexOptions index_options;
  int build_threads_per_node = 4;

  /// Stage-3/4 query answering.
  SchedulingPolicy scheduling = SchedulingPolicy::kPredictDynamic;
  WorkStealConfig worksteal;
  QueryOptions query_options;
  bool share_bsf = true;
  /// AnswerStream only: max queries one node runs concurrently on its pool
  /// (its in-flight admission depth). With > 1 a node whose workers are
  /// idle starts the next admitted query instead of strictly serializing.
  /// AnswerBatch admits up to max(1, query_options.num_threads); on both
  /// paths, admitted queries and stolen work charge the same per-node
  /// in-flight budget.
  int stream_max_inflight = 2;
  /// Optional models (owned by the caller, must outlive the cluster).
  const CostModel* cost_model = nullptr;
  const ThresholdModel* threshold_model = nullptr;

  /// Fault injection (chaos testing, src/net/fault_plan.h): when active(),
  /// every batch runs over an adversarial transport that drops, delays,
  /// duplicates and reorders messages — and kills the plan's victim —
  /// per the plan's seeded RNG. Inactive (the default) is the perfect
  /// transport, bit-for-bit the pre-fault-model behaviour.
  FaultPlan fault_plan;
  /// Coordinator-side per-node liveness deadline, in seconds of silence
  /// (messages received by the coordinator count as heartbeats) after
  /// which a node is declared dead: the group is told (kNodeDead), victims
  /// re-run what they had granted to it, and its unanswered queries are
  /// re-executed by surviving group members (kRecoverQuery). 0 disables
  /// detection — required for plans that kill a node, since a dead node's
  /// kNodeTerminated never comes. False-positive declarations are
  /// exactness-safe (duplicate answers deduplicate in MergeAnswers), which
  /// is what makes aggressive deadlines usable in tests.
  double liveness_timeout_seconds = 0.0;

  uint64_t seed = 42;
};

/// The merged result of one query: up to k (distance, global id) pairs,
/// ascending by distance. Distances are squared (like the whole library);
/// use std::sqrt for reporting.
using QueryAnswer = std::vector<Neighbor>;

/// What one AnswerBatch run measured.
struct BatchReport {
  std::vector<QueryAnswer> answers;
  /// Makespan of the query-answering stages (preparation + scheduling +
  /// execution + work-stealing), the paper's "query answering time".
  double query_seconds = 0.0;
  /// Time the driver spent building the batch's PreparedQuery artifacts —
  /// the once-per-batch summarization cost every later stage reuses
  /// (included in query_seconds).
  double prepare_seconds = 0.0;
  /// Time the driver spent on estimation + assignment (included in
  /// query_seconds).
  double scheduling_seconds = 0.0;
  /// AnswerStream only: preparation time that ran concurrently with
  /// execution — the prep thread summarizing arrivals while earlier
  /// queries were already executing (0 for AnswerBatch, whose preparation
  /// is a serial pre-step).
  double prep_overlap_seconds = 0.0;
  /// Highest number of queries any single node ran concurrently on its
  /// pool (bounded by the path's admission depth: max(1,
  /// query_options.num_threads) for AnswerBatch, stream_max_inflight for
  /// streams; stolen-work runs charge the same budget).
  int queries_in_flight_hwm = 0;
  std::vector<NodeBatchStats> node_stats;
  size_t messages_sent = 0;
  size_t bsf_updates = 0;
  size_t steal_requests = 0;
  /// Ok unless failure recovery found the batch unrecoverable (every
  /// replica of some chunk declared dead). Answers are complete only when
  /// ok.
  Status status = Status::Ok();
  /// Nodes the coordinator declared dead during this batch (liveness
  /// verdicts, which may include false positives — see
  /// OdysseyOptions::liveness_timeout_seconds).
  std::vector<int> dead_nodes;

  int total_steals() const {
    int total = 0;
    for (const auto& s : node_stats) total += s.successful_steals;
    return total;
  }
};

/// An Odyssey deployment: builds the distributed index at construction
/// (stages 1-2 of Figure 3) and answers query batches on demand (stages
/// 3-5). The object plays the paper's coordinator-node role; the system
/// nodes are NodeRuntime instances communicating over a SimCluster.
class OdysseyCluster {
 public:
  /// Partitions `dataset` and builds every node's index. Aborts on invalid
  /// layout (use ReplicationLayout::Make to validate beforehand).
  OdysseyCluster(const SeriesCollection& dataset, const OdysseyOptions& options);
  ~OdysseyCluster();

  /// Streaming build from an on-disk archive: pulls fixed-size chunks from
  /// `source` and partitions each chunk as it arrives, appending every
  /// group's share straight into that group's node storage. The coordinator
  /// therefore never materializes the whole archive in one collection — its
  /// transient heap is one ingest chunk at a time — which is how the real
  /// system feeds billion-scale archives whose ingest bandwidth, not tree
  /// build, dominates wall-clock. kDensityAware partitioning is applied per
  /// chunk (a streaming approximation of the global buffer histogram).
  /// A last chunk holding n < num_groups series goes to the first n
  /// groups. Errors (I/O failures, length mismatch with the index config,
  /// invalid layout, an archive too small to give every group a series)
  /// come back as Status instead of aborting.
  static StatusOr<std::unique_ptr<OdysseyCluster>> IngestAndBuild(
      SeriesIngestor& source, const OdysseyOptions& options);

  OdysseyCluster(const OdysseyCluster&) = delete;
  OdysseyCluster& operator=(const OdysseyCluster&) = delete;

  /// Stage 3-5: schedules, executes and merges one query batch. Can be
  /// called repeatedly (the index is reused).
  BatchReport AnswerBatch(const SeriesCollection& queries);

  /// Streaming variant (the paper's dynamically-arriving-queries setting):
  /// query q becomes visible to the schedulers only `arrival_seconds[q]`
  /// seconds after the call. Queries are dispatched dynamically in arrival
  /// order — pre-sorting the batch is impossible, which is precisely the
  /// regime work-stealing is designed to cover. `arrival_seconds` must be
  /// non-decreasing and parallel to `queries`.
  BatchReport AnswerStream(const SeriesCollection& queries,
                           const std::vector<double>& arrival_seconds);

  const ReplicationLayout& layout() const { return layout_; }
  const OdysseyOptions& options() const { return options_; }

  /// Replaces the fault plan (and optionally the liveness deadline) applied
  /// to subsequent batches. The index is untouched, so a chaos harness can
  /// sweep hundreds of plans over one build instead of rebuilding per plan.
  void set_fault_plan(const FaultPlan& plan) { options_.fault_plan = plan; }
  void set_liveness_timeout_seconds(double seconds) {
    options_.liveness_timeout_seconds = seconds;
  }

  /// Stage-1 cost: partitioning the raw collection.
  double partition_seconds() const { return partition_seconds_; }
  /// Time IngestAndBuild spent pulling chunks off disk (0 for the in-memory
  /// constructor).
  double ingest_seconds() const { return ingest_seconds_; }
  /// Of ingest_seconds(), the part that ran concurrently with
  /// summarization/partitioning (the double-buffered pipeline's win; 0 for
  /// the in-memory constructor).
  double overlap_seconds() const { return overlap_seconds_; }
  /// Paper's index-time measures: the maximum across replication groups
  /// (each group builds one index, which all of its members serve).
  double max_buffer_seconds() const;
  double max_tree_seconds() const;
  double index_seconds() const {
    return max_buffer_seconds() + max_tree_seconds();
  }

  /// Total index-structure bytes across nodes (Figure 14's quantity).
  size_t total_index_bytes() const;
  /// Total raw-data bytes across nodes (grows with the replication degree).
  size_t total_data_bytes() const;

  int num_nodes() const { return layout_.num_nodes(); }
  const NodeRuntime& node(int i) const { return *nodes_[i]; }

 private:
  /// Per-group raw data + global ids, accumulated by the streaming build
  /// as chunks are partitioned on arrival, in storage reserved once from
  /// the archive's series count. The per-chunk SAX rows (computed once per
  /// ingest chunk, before partitioning) are scattered alongside, so the
  /// group bundles are adopted at build time without ever re-summarizing.
  struct GroupChunks {
    std::vector<SeriesCollection> data;
    std::vector<std::vector<uint32_t>> ids;
    std::vector<std::vector<uint8_t>> sax;
  };

  /// Streaming-build constructor body: every group's chunk and summaries
  /// are already materialized; just adopt them and build the indexes.
  OdysseyCluster(GroupChunks groups, const OdysseyOptions& options,
                 double partition_seconds, double ingest_seconds,
                 double overlap_seconds);

  /// Stage 2: one thread per group, so the groups build concurrently. Each
  /// runs `make_bundle(g, pool)` to produce group g's bundle, then builds
  /// the group's one Index from it (which reorders the bundle into leaf
  /// order and owns it), both on one pool of members x
  /// build_threads_per_node workers. Every member's NodeRuntime then holds
  /// that Index.
  void BuildNodes(
      const std::function<std::unique_ptr<SharedChunk>(int, ThreadPool*)>&
          make_bundle);

  /// Builds the batch's PreparedQuery artifacts across a driver-side
  /// thread pool and reports the elapsed preparation time.
  PreparedBatch PrepareQueries(const SeriesCollection& queries,
                               double* prepare_seconds) const;

  /// Per-group query-time estimates for prediction-based policies: initial
  /// BSF via approximate search on the group's data, mapped through the
  /// cost model when one is fitted. Reuses the batch's prepared summaries —
  /// estimation pays only the leaf descent and scan, never PAA/SAX again.
  std::vector<double> EstimateGroupQueries(int group,
                                           const PreparedBatch& prepared);

  OdysseyOptions options_;
  ReplicationLayout layout_;
  double partition_seconds_ = 0.0;
  double ingest_seconds_ = 0.0;
  double overlap_seconds_ = 0.0;
  /// Persistent coordinator-side pool (partitioning, batch preparation,
  /// scheduling estimates): like the node executors, it is created once
  /// per cluster so answering batches spawns no coordinator threads.
  std::unique_ptr<ThreadPool> driver_pool_;
  std::vector<BuildTimings> group_timings_;  // one per replication group
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
};

/// Merges per-node partial answers into the global k-NN answer: deduplicates
/// by global id (work-stealing can report the same series twice) and keeps
/// the k smallest. Exposed for the baselines and tests.
QueryAnswer MergeAnswers(const std::vector<Neighbor>& candidates, int k);

}  // namespace odyssey

#endif  // ODYSSEY_CORE_DRIVER_H_
