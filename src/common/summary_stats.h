#ifndef ODYSSEY_COMMON_SUMMARY_STATS_H_
#define ODYSSEY_COMMON_SUMMARY_STATS_H_

#include <cstdint>

namespace odyssey {
namespace summary_stats {

/// Process-wide counters of query-summary construction work (PAA, SAX and
/// DTW-envelope builds). The PreparedQuery pipeline promises each summary is
/// computed at most once per query per batch — across scheduling estimates,
/// replicas and stolen work — and the tests assert that promise through
/// these counters. Increments are relaxed atomics on per-counter cache
/// lines; the cost is one uncontended RMW per *summary* (not per
/// distance) — noise next to the segment-sum + quantization work each
/// summary already does, including on the parallel index-build path.
///
/// Note the nesting: ComputeSax(series) derives a PAA internally and so
/// counts one SAX and one PAA call; ComputeSaxFromPaa counts only the SAX.
/// ComputeEnvelopePaa runs PAA over both envelope bands (two PAA calls).

uint64_t PaaCalls();
uint64_t SaxCalls();
uint64_t EnvelopeCalls();

/// Zeroes all three counters (test setup).
void Reset();

/// Increment hooks, called by the summarization routines themselves.
void CountPaa();
void CountSax();
void CountEnvelope();

}  // namespace summary_stats

namespace build_stats {

/// Process-wide counters of *build-time* chunk summarization — the
/// index-construction mirror of summary_stats' query-time promise. The
/// SharedChunk subsystem (src/core/shared_chunk.h) promises each replication
/// group materializes exactly one {series, ids, SAX} bundle per chunk, from
/// which the group builds its one index. Tests and
/// bench_fig15_replication read these counters to prove the sharing ratio.

/// Number of SharedChunk bundles materialized (one per replication group,
/// plus one per standalone Index::Build).
uint64_t ChunksBuilt();
/// Total bytes of all materialized bundles (series + ids + SAX) —
/// the transient build memory the shared path divides by the replication
/// degree.
uint64_t ChunkBytes();
/// Series summarized into bundles (SAX rows written). A cluster
/// build summarizes each dataset series once, whatever the replication
/// degree.
uint64_t SummariesBuilt();
/// Seconds the streaming build spent pulling chunk i+1 concurrently with
/// summarizing/partitioning chunk i (the double-buffered overlap pipeline).
double OverlapSeconds();

/// Zeroes all counters (test setup).
void Reset();

/// Increment hooks, called by the index build (Index::BuildFromShared) and
/// the streaming driver.
void CountChunk(uint64_t bytes, uint64_t summaries);
void AddOverlapSeconds(double seconds);

}  // namespace build_stats

namespace executor_stats {

/// Process-wide counters of stage-4 *executor* work — the thread-ownership
/// mirror of summary_stats' and build_stats' promises. The persistent
/// per-node executor (src/core/node_runtime.h) promises the query hot path
/// spawns zero threads: every thread the process creates goes through
/// CountedThread (src/common/sync.h), whose constructor is the repo's
/// single sanctioned spawn site and increments ThreadsSpawned() — pool
/// workers, the persistent comms/main threads, the stream prep thread,
/// build/adopt workers and the ingest prefetcher all count by
/// construction, so tests can assert the count stays constant across
/// batches regardless of query count. QueriesInFlightHwm() is the
/// high-water mark of queries one node ran concurrently on its pool
/// (AnswerStream's partitioned-pool admission); PrepOverlapSeconds() is
/// query-preparation time that ran concurrently with execution (the
/// online-admission overlap win).
///
/// Concurrency: every counter in this header is a relaxed atomic on its
/// own cache line — no mutex, nothing for the thread-safety analysis to
/// guard (audited when the annotated locking layer was introduced). Reads
/// are exact only once the counted activity has quiesced, which is how the
/// tests use them.

uint64_t ThreadsSpawned();
uint64_t QueriesInFlightHwm();
double PrepOverlapSeconds();

/// Zeroes all counters (test setup).
void Reset();

/// Increment hook, called by CountedThread's constructor (the process's
/// one sanctioned thread-spawn site).
void CountThreadsSpawned(uint64_t n);
/// Max-updates the in-flight high-water mark.
void RecordQueriesInFlight(uint64_t n);
void AddPrepOverlapSeconds(double seconds);

}  // namespace executor_stats

namespace scan_stats {

/// Process-wide counters of *batched* leaf-scan work — the observability
/// half of the batched multi-query kernels' amortization promise. When a
/// GroupedQueryExecution scores one candidate series against Q >= 2 member
/// queries with a single batched-kernel call, BatchedScoreCalls() counts
/// that call and SeriesLoadsSaved() counts the Q - 1 candidate reloads the
/// per-query path would have paid. Euclidean series with fewer than four
/// survivors take the multi-candidate kernel instead (counted below), and
/// DTW series with one survivor the scalar per-query kernel; neither counts
/// here — the counters record genuine amortization events, not traffic
/// through the grouped code path. Tests assert the counters move under a
/// grouped execution and stay idle on a cluster, which runs the per-query
/// engine only.
///
/// Same concurrency story as every group in this header: relaxed atomics on
/// their own cache lines, exact only after the counted activity quiesced.

uint64_t BatchedScoreCalls();
uint64_t SeriesLoadsSaved();

/// Multi-candidate scorer counters — the low-occupancy complement of the
/// batched kernels. Euclidean series that fewer than four group members
/// survive (the grouped scan's routing cut) are deferred into per-member
/// lane queues and scored by MultiSquaredEuclideanEarlyAbandon
/// (several candidates, one query, strict scalar point order per lane);
/// MultiScoreCalls() counts the flush passes and MultiScoreLanes() the
/// candidate lanes they scored. High lanes-per-call (near
/// kMultiCandidateLanes) means the deferral queues filled before their
/// flushes — the ILP the pass exists to harvest.
uint64_t MultiScoreCalls();
uint64_t MultiScoreLanes();

/// Zeroes every scan_stats counter (test setup).
void Reset();

/// Increment hook, called once per batched-kernel call scoring `q_count`
/// queries.
void CountBatchedScore(uint64_t q_count);
/// Increment hook, called once per multi-candidate flush pass scoring
/// `lanes` deferred candidates.
void CountMultiScore(uint64_t lanes);

}  // namespace scan_stats

namespace fault_stats {

/// Process-wide counters of injected faults and the recovery work they
/// triggered — the observability half of the chaos suite's promise. The
/// Messages* counters move inside the fault-injection layer itself
/// (src/net/fault_plan.h), so a chaos run can assert its plan actually
/// fired rather than trivially passing on a quiet seed. NodesKilled counts
/// transport closures executed by the injector; NodesDeclaredDead counts
/// coordinator-side liveness verdicts (which may exceed NodesKilled: a
/// false-positive declaration against a slow-but-alive node is
/// exactness-safe and deliberately permitted, see ARCHITECTURE.md "Failure
/// model"). BatchesReassigned / QueriesReassigned / StealTimeouts count
/// the three recovery actions the protocol can take.
///
/// Same concurrency story as every group in this header: relaxed atomics
/// on their own cache lines, exact only after the counted activity
/// quiesced.

uint64_t MessagesDropped();
uint64_t MessagesDelayed();
uint64_t MessagesDuplicated();
uint64_t NodesKilled();
uint64_t NodesDeclaredDead();
uint64_t BatchesReassigned();
uint64_t QueriesReassigned();
uint64_t StealTimeouts();

/// Zeroes all counters (test setup).
void Reset();

/// Increment hooks. The first four are called by FaultInjector::Decide;
/// the rest by the recovery protocol in driver.cc / node_runtime.cc.
void CountMessageDropped();
void CountMessageDelayed();
void CountMessageDuplicated();
void CountNodeKilled();
void CountNodeDeclaredDead();
void CountBatchesReassigned(uint64_t n);
void CountQueryReassigned();
void CountStealTimeout();

}  // namespace fault_stats
}  // namespace odyssey

#endif  // ODYSSEY_COMMON_SUMMARY_STATS_H_
