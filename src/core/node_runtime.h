#ifndef ODYSSEY_CORE_NODE_RUNTIME_H_
#define ODYSSEY_CORE_NODE_RUNTIME_H_

/// One simulated Odyssey system node (paper Sections 3.2 and 3.5): it holds
/// its replication group's one Index (built once per group by the driver —
/// Section 3.3's replicas-hold-identical-data property, made literal) and
/// runs the stage-4 *persistent executor*: a long-lived comms thread
/// implementing the work-stealing manager of Algorithm 3 plus the BSF
/// book-keeping array of Section 3.4, a long-lived main thread running
/// query answering and the PerformWorkStealing loop of Algorithm 4, and a
/// long-lived worker pool the query phases run on. All three survive
/// across batches: StartBatch/JoinBatch are cheap epoch transitions, and
/// the query hot path spawns zero threads (asserted through
/// executor_stats::ThreadsSpawned).
///
/// Locking discipline (machine-checked by -Wthread-safety; the full
/// capability table lives in ARCHITECTURE.md): five mutexes with disjoint
/// responsibilities — epoch_mu_ (epoch transitions), state_mu_ (comms/main
/// protocol state), inflight_mu_ (admission control), exec_mu_ (the
/// steal-victim execution list) and stats_mu_ (batch counters). The only
/// nesting is exec_mu_ -> stats_mu_ (HandleStealRequest records what it
/// gave away); nothing acquires exec_mu_ while holding stats_mu_.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/common/sync.h"
#include "src/common/thread_pool.h"
#include "src/core/replication.h"
#include "src/core/scheduler.h"
#include "src/core/worksteal.h"
#include "src/index/query_engine.h"
#include "src/index/threshold_model.h"
#include "src/net/sim_cluster.h"
#include "src/query/prepared_query.h"

namespace odyssey {

/// Per-batch configuration a node receives from the driver.
struct NodeBatchOptions {
  SchedulingPolicy policy = SchedulingPolicy::kPredictDynamic;
  WorkStealConfig worksteal;
  QueryOptions query_options;
  /// When set, each query's queue threshold TH is predicted from its
  /// initial BSF (Section 3.2.1); otherwise query_options.queue_threshold
  /// applies as-is.
  const ThresholdModel* threshold_model = nullptr;
  /// System-wide BSF sharing (Section 3.4). Off only for the DMESSI
  /// baseline.
  bool share_bsf = true;
  /// Maximum queries this node runs concurrently on its pool (>= 1). One
  /// shared admission budget covers everything the node executes: streamed
  /// admissions, batch queries (AnswerBatch raises this to the pool
  /// width), and stolen batches run in PerformWorkStealing — all claim
  /// in-flight slots against the same counter.
  int max_inflight = 1;
  /// Interval for unsolicited kHeartbeat pings to the coordinator, in
  /// seconds; 0 disables them. Set by the driver iff its liveness deadline
  /// is armed: long silent stretches (a main-phase DTW scan, a steal-phase
  /// peer wait) must then read as "busy", not "dead". Without a deadline
  /// the pings would be pure mailbox noise, so they are off.
  double liveness_heartbeat_seconds = 0.0;
  uint64_t seed = 0;
};

/// Per-node, per-batch observability counters.
struct NodeBatchStats {
  int queries_executed = 0;
  int steal_attempts = 0;     ///< steal requests sent
  int successful_steals = 0;  ///< replies that carried batches
  int batches_given_away = 0; ///< RS-batches this node handed to thieves
  int batches_stolen_run = 0; ///< RS-batches this node ran for others
  int inflight_hwm = 0;       ///< max queries simultaneously in flight
  double busy_seconds = 0.0;  ///< time spent executing (own + stolen) work
};

/// One simulated system node (Figure 3's stage 4): holds its group's index,
/// executes the queries it is assigned, shares BSF improvements, and
/// participates in the work-stealing protocol (Algorithms 1, 3 and 4). All
/// interaction with other nodes and with the coordinator goes through the
/// SimCluster mailboxes.
///
/// Thread ownership (per *process*, not per batch or per query): one comms
/// thread (the paper's work-stealing manager, which also maintains the BSF
/// book-keeping array), one main thread (query dispatch + the
/// PerformWorkStealing loop), and `query_options.num_threads` pool workers
/// — all created at the first StartBatch and reused by every later batch.
/// Query executions borrow pool workers through TaskGroup epochs; with
/// `max_inflight > 1` several in-flight queries partition the same pool.
class NodeRuntime {
 public:
  /// `index` is the node's replication group's one index, shared by every
  /// member. Its bundle must carry global ids (global id i is the original
  /// dataset id of local series i, so answers are reported globally).
  NodeRuntime(int node_id, const ReplicationLayout& layout,
              std::shared_ptr<const Index> index);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  int id() const { return id_; }
  const Index& index() const { return *index_; }

  /// Starts one query-batch epoch on the node's persistent threads,
  /// creating them (and the worker pool) on first use. `cluster` and
  /// `queries` (the driver's batch-level prepared artifact, plus the raw
  /// series it points into) must outlive the batch; on the streaming path
  /// `queries` slots may still be empty and are admitted later — the node
  /// only reads a slot after the coordinator dispatches its query id.
  /// The epoch runs until the driver sends kShutdown; call JoinBatch()
  /// afterwards.
  void StartBatch(SimCluster* cluster, const PreparedBatch* queries,
                  const NodeBatchOptions& options);

  /// Waits for the current epoch to finish (after the driver's kShutdown).
  /// The persistent threads stay parked for the next StartBatch; they are
  /// joined only by the destructor.
  void JoinBatch() ODYSSEY_EXCLUDES(epoch_mu_);

  /// Snapshot of the current batch's counters. Taken under stats_mu_, so
  /// it is safe to call while an epoch is still running (the driver reads
  /// it only after JoinBatch, when the numbers are final).
  NodeBatchStats batch_stats() const ODYSSEY_EXCLUDES(stats_mu_);

 private:
  /// Creates the persistent comms/main threads and the worker pool on
  /// first use (or grows the pool when a batch asks for more workers).
  void EnsureExecutor();
  /// Pre-sizes every pool worker's thread-local QueryScratch and DTW
  /// DP-row scratch to this batch's bounds, so the query phases run
  /// allocation-free from their very first iteration (the hot-path
  /// purity contract; see src/common/hotpath.h). Driver-side, between
  /// epochs; no-op when no bound grew since the last warm-up.
  void WarmExecutorScratch();
  /// Persistent-thread bodies: park between epochs, run one *Loop per
  /// epoch. `comms` selects which loop.
  void EpochThread(bool comms);
  void CommsLoop();
  void MainLoop();
  void ExecuteQuery(int query_id);
  /// Seeds `exec`'s BSF by approximate search and, with a calibrated
  /// threshold model, sets its queue threshold from that initial BSF
  /// (Section 3.2.1). Every execution this node runs starts here.
  void SeedExecution(QueryExecution* exec) const;
  /// The kBsfUpdate broadcast a query execution fires on each BSF
  /// improvement (Section 3.4), or an empty callback when BSF sharing is
  /// off.
  std::function<void(float)> BsfBroadcaster(int query_id) const;
  void HandleStealRequest(int thief, int steal_seq)
      ODYSSEY_EXCLUDES(exec_mu_, stats_mu_);
  /// Comms-thread reaction to the coordinator's kNodeDead verdict: marks
  /// `subject` done+dead (waking the steal loop), re-runs every RS-batch
  /// this node had granted to `subject` (those batches left our ownership
  /// at grant time and would otherwise run nowhere), and acks so the
  /// coordinator knows the re-coverage answers are in flight.
  void HandleNodeDead(int subject) ODYSSEY_EXCLUDES(state_mu_, stats_mu_);
  /// Comms-thread full re-execution of a dead group member's query
  /// (coordinator reassignment). Not registered as a steal victim:
  /// recovery work is not stealable, otherwise the protocol would have to
  /// track grants-of-grants across further failures.
  void ExecuteRecoveryQuery(int query_id) ODYSSEY_EXCLUDES(stats_mu_);
  void PerformWorkStealing();
  void RunStolenWork(const Message& reply);
  /// `recovery` must be true exactly when the answer fulfils a
  /// kRecoverQuery — the coordinator only retires its pending-recovery
  /// entry on a flagged answer (see Message::recovery).
  void SendLocalAnswer(int query_id, const std::vector<Neighbor>& local,
                       bool recovery = false);
  /// Next query to run, or -1 when the batch is exhausted. Blocks.
  int NextQuery() ODYSSEY_EXCLUDES(state_mu_);

  /// The share-complete predicate behind no_more_queries_: the marker
  /// arrived AND every assignment it counted has been received (or the
  /// transport closed, which voids the fence — a killed or shut-down node
  /// must not wait for traffic that will never come). Replaces raw
  /// no_more_queries_ checks in the main-loop waits, because the marker
  /// can overtake a delayed assignment under fault injection.
  bool AllAssignmentsInLocked() const ODYSSEY_REQUIRES(state_mu_);

  /// True when no epoch is running (both persistent loops have finished
  /// the last started epoch) — the StartBatch precondition and the
  /// JoinBatch wait condition.
  bool EpochIdleLocked() const ODYSSEY_REQUIRES(epoch_mu_);
  /// Records protocol progress (a peer finishing, a steal reply landing):
  /// bumps state_version_ and wakes the steal loop's backoff wait.
  void NoteProtocolProgressLocked() ODYSSEY_REQUIRES(state_mu_);

  const int id_;
  const ReplicationLayout layout_;
  const std::shared_ptr<const Index> index_;  // the group's, immutable
  const size_t leaf_count_;  ///< index_'s leaves (bounds the queue count)

  // Persistent executor: comms/main threads park between epochs; workers_
  // serves the query phases (and in-flight orchestration) of every batch.
  // The thread handles and workers_ are mutated only by EnsureExecutor and
  // the destructor, both driver-side between epochs.
  CountedThread comms_thread_;
  CountedThread main_thread_;
  std::unique_ptr<ThreadPool> workers_;
  /// High-water marks of the last scratch warm-up (thread-local scratch is
  /// grow-only, so a batch whose bounds all fit pays no re-warm).
  struct ScratchBounds {
    size_t width = 0;    ///< pool workers warmed
    size_t batches = 0;  ///< RS-batch lanes reserved
    size_t queues = 0;   ///< priority-queue ref lanes reserved
    size_t length = 0;   ///< series length the DTW rows are sized for
  };
  ScratchBounds warmed_scratch_;
  Mutex epoch_mu_;
  CondVar epoch_cv_;
  uint64_t epochs_started_ ODYSSEY_GUARDED_BY(epoch_mu_) = 0;
  uint64_t comms_epochs_done_ ODYSSEY_GUARDED_BY(epoch_mu_) = 0;
  uint64_t main_epochs_done_ ODYSSEY_GUARDED_BY(epoch_mu_) = 0;
  bool stopping_ ODYSSEY_GUARDED_BY(epoch_mu_) = false;

  // Per-epoch state: *epoch-owned*, not mutex-guarded. Written by
  // StartBatch while both persistent loops are parked (asserted against
  // epochs_started_/\*_epochs_done_), published to them by the epoch_mu_
  // release in StartBatch's epochs_started_ increment — which each loop
  // acquires before running — and treated as read-only until the loops
  // report the epoch done. The analysis cannot express this handoff; the
  // protocol above is the invariant.
  SimCluster* cluster_ = nullptr;
  const PreparedBatch* queries_ = nullptr;
  NodeBatchOptions options_;
  std::unique_ptr<std::atomic<float>[]> bsf_board_;  // one cell per query

  // Batch counters, written by concurrent in-flight orchestrators and the
  // comms thread (batches_given_away).
  mutable Mutex stats_mu_;
  NodeBatchStats batch_stats_ ODYSSEY_GUARDED_BY(stats_mu_);

  // Scheduling / protocol state shared between the two threads.
  Mutex state_mu_;
  CondVar state_cv_;
  std::deque<int> assigned_ ODYSSEY_GUARDED_BY(state_mu_);
  bool no_more_queries_ ODYSSEY_GUARDED_BY(state_mu_) = false;
  /// Assignment fence (Message::assign_count). Every distinct query id
  /// ever received via kAssignQuery this epoch — a set, so an
  /// injector-duplicated assignment neither double-executes nor
  /// double-counts against the fence — and the count the kNoMoreQueries
  /// marker said to expect (-1 until a marker arrives). The marker alone
  /// is not proof the share is complete: it can overtake a delayed
  /// assignment, and honoring it early would strand that query unexecuted
  /// in the held queue. AllAssignmentsInLocked() is the real predicate.
  std::set<int> assigned_seen_ ODYSSEY_GUARDED_BY(state_mu_);
  int expected_assignments_ ODYSSEY_GUARDED_BY(state_mu_) = -1;
  /// Set when this node's mailbox was closed under it (the fault
  /// injector's node kill): the comms loop exits, and the main loop skips
  /// every further protocol announcement — a dead host says nothing.
  bool transport_closed_ ODYSSEY_GUARDED_BY(state_mu_) = false;
  /// Group peers the coordinator declared dead (kNodeDead). A dead peer is
  /// never chosen as a steal victim and its outstanding replies are
  /// written off (the coordinator re-runs its unanswered queries
  /// wholesale).
  std::set<int> dead_nodes_ ODYSSEY_GUARDED_BY(state_mu_);
  std::set<int> done_nodes_ ODYSSEY_GUARDED_BY(state_mu_);
  std::deque<Message> steal_replies_ ODYSSEY_GUARDED_BY(state_mu_);
  /// Bumped by the comms thread on protocol progress (peer done, steal
  /// reply); the steal loop's timed backoff wait wakes on it instead of
  /// sleeping blind.
  uint64_t state_version_ ODYSSEY_GUARDED_BY(state_mu_) = 0;

  // In-flight admission (max_inflight > 1).
  Mutex inflight_mu_;
  CondVar inflight_cv_;
  int inflight_ ODYSSEY_GUARDED_BY(inflight_mu_) = 0;

  // Work-stealing victim side: every currently running own-query execution
  // (several when in-flight admission is on).
  Mutex exec_mu_ ODYSSEY_ACQUIRED_BEFORE(stats_mu_);
  std::vector<std::pair<int, QueryExecution*>> running_execs_
      ODYSSEY_GUARDED_BY(exec_mu_);

  /// Ledger of every RS-batch grant this node made as a steal victim, kept
  /// so a thief's death is survivable: the granted batches run nowhere
  /// once the thief dies, and HandleNodeDead re-runs them from here.
  /// *Comms-thread-owned* within an epoch (HandleStealRequest appends,
  /// HandleNodeDead consumes — both run on the comms thread only) and
  /// cleared by StartBatch between epochs; same publication protocol as
  /// the epoch-owned fields above, so no mutex.
  struct StealGrant {
    int thief;
    int query_id;
    std::vector<int> batch_ids;  // cleared once re-run (idempotence)
  };
  std::vector<StealGrant> steal_grants_;

  /// Duplicate-request fence for the victim side, keyed by (thief,
  /// steal_seq) and holding the exact reply sent the first time. A
  /// network-duplicated kStealRequest must NOT grant a second batch set:
  /// the thief retires a seq on the first reply it consumes and may
  /// legitimately terminate before a surprise second grant arrives, which
  /// would strand those batches (they left our answer at grant time).
  /// Re-sending the cached reply verbatim is idempotent — the thief at
  /// worst re-runs the same batches, and MergeAnswers dedups by id.
  /// Comms-thread-owned and epoch-cleared, like steal_grants_ above.
  std::map<std::pair<int, int>, Message> steal_replies_sent_;
};

}  // namespace odyssey

#endif  // ODYSSEY_CORE_NODE_RUNTIME_H_
