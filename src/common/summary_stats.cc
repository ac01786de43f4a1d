#include "src/common/summary_stats.h"

#include <atomic>

namespace odyssey {
namespace summary_stats {
namespace {

// One cache line per counter: index construction increments the PAA and
// SAX counters from every build thread (once per data series), and packing
// them together would make each increment ping-pong the others' line too.
alignas(64) std::atomic<uint64_t> g_paa_calls{0};
alignas(64) std::atomic<uint64_t> g_sax_calls{0};
alignas(64) std::atomic<uint64_t> g_envelope_calls{0};

}  // namespace

uint64_t PaaCalls() { return g_paa_calls.load(std::memory_order_relaxed); }
uint64_t SaxCalls() { return g_sax_calls.load(std::memory_order_relaxed); }
uint64_t EnvelopeCalls() {
  return g_envelope_calls.load(std::memory_order_relaxed);
}

void Reset() {
  g_paa_calls.store(0, std::memory_order_relaxed);
  g_sax_calls.store(0, std::memory_order_relaxed);
  g_envelope_calls.store(0, std::memory_order_relaxed);
}

void CountPaa() { g_paa_calls.fetch_add(1, std::memory_order_relaxed); }
void CountSax() { g_sax_calls.fetch_add(1, std::memory_order_relaxed); }
void CountEnvelope() {
  g_envelope_calls.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace summary_stats

namespace build_stats {
namespace {

// Build-path counters are incremented once per chunk bundle (not per
// series), so contention is negligible; they still get their own lines so
// the query-time counters above never false-share with them.
alignas(64) std::atomic<uint64_t> g_chunks_built{0};
alignas(64) std::atomic<uint64_t> g_chunk_bytes{0};
alignas(64) std::atomic<uint64_t> g_summaries_built{0};

}  // namespace

uint64_t ChunksBuilt() {
  return g_chunks_built.load(std::memory_order_relaxed);
}
uint64_t ChunkBytes() {
  return g_chunk_bytes.load(std::memory_order_relaxed);
}
uint64_t SummariesBuilt() {
  return g_summaries_built.load(std::memory_order_relaxed);
}
void Reset() {
  g_chunks_built.store(0, std::memory_order_relaxed);
  g_chunk_bytes.store(0, std::memory_order_relaxed);
  g_summaries_built.store(0, std::memory_order_relaxed);
}

void CountChunk(uint64_t bytes, uint64_t summaries) {
  g_chunks_built.fetch_add(1, std::memory_order_relaxed);
  g_chunk_bytes.fetch_add(bytes, std::memory_order_relaxed);
  g_summaries_built.fetch_add(summaries, std::memory_order_relaxed);
}

}  // namespace build_stats

namespace executor_stats {
namespace {

// Thread creation is rare (pools and persistent node threads, never the
// query hot path — that is the point); the in-flight mark is updated once
// per query admission. Own lines anyway, mirroring the other stat groups.
alignas(64) std::atomic<uint64_t> g_threads_spawned{0};
alignas(64) std::atomic<uint64_t> g_inflight_hwm{0};
alignas(64) std::atomic<uint64_t> g_prep_overlap_nanos{0};

}  // namespace

uint64_t ThreadsSpawned() {
  return g_threads_spawned.load(std::memory_order_relaxed);
}
uint64_t QueriesInFlightHwm() {
  return g_inflight_hwm.load(std::memory_order_relaxed);
}
double PrepOverlapSeconds() {
  return static_cast<double>(
             g_prep_overlap_nanos.load(std::memory_order_relaxed)) *
         1e-9;
}

void Reset() {
  g_threads_spawned.store(0, std::memory_order_relaxed);
  g_inflight_hwm.store(0, std::memory_order_relaxed);
  g_prep_overlap_nanos.store(0, std::memory_order_relaxed);
}

void CountThreadsSpawned(uint64_t n) {
  g_threads_spawned.fetch_add(n, std::memory_order_relaxed);
}

void RecordQueriesInFlight(uint64_t n) {
  uint64_t current = g_inflight_hwm.load(std::memory_order_relaxed);
  while (n > current &&
         !g_inflight_hwm.compare_exchange_weak(current, n,
                                               std::memory_order_relaxed)) {
  }
}

void AddPrepOverlapSeconds(double seconds) {
  if (seconds <= 0.0) return;
  g_prep_overlap_nanos.fetch_add(static_cast<uint64_t>(seconds * 1e9),
                                 std::memory_order_relaxed);
}

}  // namespace executor_stats

namespace fault_stats {
namespace {

// Fault decisions happen once per SimCluster::Send under an injector-local
// mutex, and recovery actions are rarer still — contention is a non-issue;
// own cache lines keep them from false-sharing the counters above.
alignas(64) std::atomic<uint64_t> g_messages_dropped{0};
alignas(64) std::atomic<uint64_t> g_messages_delayed{0};
alignas(64) std::atomic<uint64_t> g_messages_duplicated{0};
alignas(64) std::atomic<uint64_t> g_nodes_killed{0};
alignas(64) std::atomic<uint64_t> g_nodes_declared_dead{0};
alignas(64) std::atomic<uint64_t> g_batches_reassigned{0};
alignas(64) std::atomic<uint64_t> g_queries_reassigned{0};
alignas(64) std::atomic<uint64_t> g_steal_timeouts{0};

}  // namespace

uint64_t MessagesDropped() {
  return g_messages_dropped.load(std::memory_order_relaxed);
}
uint64_t MessagesDelayed() {
  return g_messages_delayed.load(std::memory_order_relaxed);
}
uint64_t MessagesDuplicated() {
  return g_messages_duplicated.load(std::memory_order_relaxed);
}
uint64_t NodesKilled() {
  return g_nodes_killed.load(std::memory_order_relaxed);
}
uint64_t NodesDeclaredDead() {
  return g_nodes_declared_dead.load(std::memory_order_relaxed);
}
uint64_t BatchesReassigned() {
  return g_batches_reassigned.load(std::memory_order_relaxed);
}
uint64_t QueriesReassigned() {
  return g_queries_reassigned.load(std::memory_order_relaxed);
}
uint64_t StealTimeouts() {
  return g_steal_timeouts.load(std::memory_order_relaxed);
}

void Reset() {
  g_messages_dropped.store(0, std::memory_order_relaxed);
  g_messages_delayed.store(0, std::memory_order_relaxed);
  g_messages_duplicated.store(0, std::memory_order_relaxed);
  g_nodes_killed.store(0, std::memory_order_relaxed);
  g_nodes_declared_dead.store(0, std::memory_order_relaxed);
  g_batches_reassigned.store(0, std::memory_order_relaxed);
  g_queries_reassigned.store(0, std::memory_order_relaxed);
  g_steal_timeouts.store(0, std::memory_order_relaxed);
}

void CountMessageDropped() {
  g_messages_dropped.fetch_add(1, std::memory_order_relaxed);
}
void CountMessageDelayed() {
  g_messages_delayed.fetch_add(1, std::memory_order_relaxed);
}
void CountMessageDuplicated() {
  g_messages_duplicated.fetch_add(1, std::memory_order_relaxed);
}
void CountNodeKilled() {
  g_nodes_killed.fetch_add(1, std::memory_order_relaxed);
}
void CountNodeDeclaredDead() {
  g_nodes_declared_dead.fetch_add(1, std::memory_order_relaxed);
}
void CountBatchesReassigned(uint64_t n) {
  g_batches_reassigned.fetch_add(n, std::memory_order_relaxed);
}
void CountQueryReassigned() {
  g_queries_reassigned.fetch_add(1, std::memory_order_relaxed);
}
void CountStealTimeout() {
  g_steal_timeouts.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace fault_stats
}  // namespace odyssey
