#include <gtest/gtest.h>

// Deterministic chaos suite: sweeps seeded fault plans (message drops,
// delays, duplicates, reorders, and mid-batch node kills) over real
// deployments and asserts the answers stay bit-exact against a fault-free
// run of the same cluster. Every plan is derived from a printable seed;
// a failing sweep names the seed so one command reproduces it:
//
//   ODYSSEY_CHAOS_SEED=<seed> ODYSSEY_CHAOS_ITERS=1
//       ./chaos_test --gtest_filter=<failing test>
//
// Environment (see README's registry): ODYSSEY_CHAOS_SEED overrides the
// per-test base seed, ODYSSEY_CHAOS_ITERS overrides every sweep's plan
// count, ODYSSEY_CHAOS_BUDGET_SECONDS soft-stops sweeping when the suite
// has run that long (sanitizer CI legs use it; 0/unset = run everything).

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/summary_stats.h"
#include "src/core/driver.h"
#include "src/dataset/generators.h"
#include "src/dataset/workload.h"
#include "src/distance/dtw.h"
#include "src/net/fault_plan.h"

namespace odyssey {
namespace {

// ------------------------------------------------------------ environment

uint64_t EnvSeedOr(uint64_t fallback) {
  const char* env = std::getenv("ODYSSEY_CHAOS_SEED");
  return (env != nullptr && *env != '\0')
             ? static_cast<uint64_t>(std::strtoull(env, nullptr, 10))
             : fallback;
}

int EnvItersOr(int fallback) {
  const char* env = std::getenv("ODYSSEY_CHAOS_ITERS");
  return (env != nullptr && *env != '\0') ? std::atoi(env) : fallback;
}

double BudgetSeconds() {
  const char* env = std::getenv("ODYSSEY_CHAOS_BUDGET_SECONDS");
  return (env != nullptr && *env != '\0') ? std::atof(env) : 0.0;
}

/// Suite-wide wall clock for the budget soft-stop.
Stopwatch& SuiteClock() {
  static Stopwatch clock;
  return clock;
}

/// True once the suite has exhausted its wall-clock budget; sweeps then
/// stop early (loudly, so a truncated run never reads as full coverage).
bool OverBudget() {
  const double budget = BudgetSeconds();
  if (budget <= 0.0) return false;
  if (SuiteClock().ElapsedSeconds() < budget) return false;
  std::fprintf(stderr,
               "[chaos] wall-clock budget (%.0fs) exhausted; stopping the "
               "sweep early\n",
               budget);
  return true;
}

// --------------------------------------------------------------- de-flake

/// Per-plan deadline: a recovery bug that hangs a batch must fail fast with
/// a reproducible seed, never stall CTest until its global timeout. The
/// watchdog is a plain thread parked on a condition variable; the process
/// is torn down with _Exit because a hung batch holds locks that a normal
/// exit path could block on.
class PlanWatchdog {
 public:
  PlanWatchdog(uint64_t seed, double seconds)
      : thread_([this, seed, seconds] {
          std::unique_lock<std::mutex> lock(mu_);
          const auto deadline =
              std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
          while (!disarmed_) {
            if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
                !disarmed_) {
              std::fprintf(stderr,
                           "[chaos] plan deadline (%.0fs) exceeded -- "
                           "reproduce with: ODYSSEY_CHAOS_SEED=%llu "
                           "ODYSSEY_CHAOS_ITERS=1\n",
                           seconds,
                           static_cast<unsigned long long>(seed));
              std::fflush(stderr);
              std::_Exit(2);
            }
          }
        }) {}

  ~PlanWatchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      disarmed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;
};

constexpr double kPlanDeadlineSeconds = 120.0;  // generous for sanitizers

// ------------------------------------------------------------- plan sweep

/// Derives a full fault plan from one seed. `killable` lists the nodes a
/// kill may target (empty = fault-only plan); about half the kill-capable
/// plans actually kill, so every sweep covers both regimes.
FaultPlan PlanFromSeed(uint64_t seed, const std::vector<int>& killable) {
  Rng rng(seed);
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = rng.NextDouble() * 0.5;
  plan.delay_prob = rng.NextDouble() * 0.5;
  plan.duplicate_prob = rng.NextDouble() * 0.3;
  plan.reorder_prob = rng.NextDouble() * 0.3;
  plan.max_delay = static_cast<int>(rng.NextInRange(1, 6));
  if (!killable.empty() && rng.NextDouble() < 0.5) {
    plan.dead_node =
        killable[rng.NextBounded(static_cast<uint64_t>(killable.size()))];
    plan.kill_after_sends = static_cast<int>(rng.NextInRange(1, 24));
  }
  return plan;
}

std::string ReproLine(uint64_t seed) {
  return "reproduce with: ODYSSEY_CHAOS_SEED=" + std::to_string(seed) +
         " ODYSSEY_CHAOS_ITERS=1 (same --gtest_filter)";
}

/// Bit-exactness, not tolerance: a faulty transport may reorder work but
/// must never change a single answer bit (same ids, same float bits).
void ExpectBitExact(const BatchReport& want, const BatchReport& got,
                    uint64_t seed) {
  SCOPED_TRACE(ReproLine(seed));
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  ASSERT_EQ(got.answers.size(), want.answers.size());
  for (size_t q = 0; q < want.answers.size(); ++q) {
    const QueryAnswer& w = want.answers[q];
    const QueryAnswer& g = got.answers[q];
    ASSERT_EQ(g.size(), w.size()) << "query " << q;
    for (size_t i = 0; i < w.size(); ++i) {
      if (g[i].id != w[i].id ||
          g[i].squared_distance != w[i].squared_distance) {
        // Dump both lists: whether the faulty run *lost* a candidate or
        // produced a near-tie reordering is the whole diagnosis.
        std::string dump = "query " + std::to_string(q) + " rank " +
                           std::to_string(i) + "\nwant:";
        for (const Neighbor& n : w) {
          dump += " (" + std::to_string(n.id) + ", " +
                  std::to_string(n.squared_distance) + ")";
        }
        dump += "\ngot: ";
        for (const Neighbor& n : g) {
          dump += " (" + std::to_string(n.id) + ", " +
                  std::to_string(n.squared_distance) + ")";
        }
        FAIL() << dump;
      }
    }
  }
}

struct SweepOptions {
  uint64_t base_seed = 0;
  int plans = 0;
  /// Nodes a derived plan may kill (empty = fault-only sweep). Kills
  /// require liveness detection, enabled per-plan below.
  std::vector<int> killable;
  double liveness_seconds = 0.25;
};

/// Runs `plans` derived fault plans against `cluster` and bit-compares
/// each batch against `reference`. Returns the number of plans that ran
/// (the budget soft-stop may truncate the sweep).
int SweepBatches(OdysseyCluster& cluster, const SeriesCollection& queries,
                 const BatchReport& reference, const SweepOptions& sweep) {
  const uint64_t base = EnvSeedOr(sweep.base_seed);
  const int plans = EnvItersOr(sweep.plans);
  int ran = 0;
  for (int i = 0; i < plans && !OverBudget(); ++i) {
    const uint64_t seed = base + static_cast<uint64_t>(i);
    const FaultPlan plan = PlanFromSeed(seed, sweep.killable);
    fault_stats::Reset();  // per-plan numbers for the failure context below
    cluster.set_fault_plan(plan);
    // A killed node's kNodeTerminated never arrives, so kill plans need
    // the coordinator's liveness deadline; fault-only plans run without
    // it to also cover the detection-free recovery-free path.
    cluster.set_liveness_timeout_seconds(
        plan.dead_node >= 0 ? sweep.liveness_seconds : 0.0);
    PlanWatchdog watchdog(seed, kPlanDeadlineSeconds);
    const BatchReport report = cluster.AnswerBatch(queries);
    ExpectBitExact(reference, report, seed);
    if (::testing::Test::HasFailure()) {
      // Context that turns a bare mismatch into a diagnosis: which nodes
      // the coordinator wrote off, and what the injector actually did.
      std::string dead;
      for (int d : report.dead_nodes) dead += std::to_string(d) + " ";
      ADD_FAILURE() << "plan " << seed << ": dead_nodes=[" << dead
                    << "] killed=" << fault_stats::NodesKilled()
                    << " declared=" << fault_stats::NodesDeclaredDead()
                    << " queries_reassigned="
                    << fault_stats::QueriesReassigned()
                    << " batches_reassigned="
                    << fault_stats::BatchesReassigned()
                    << " dropped=" << fault_stats::MessagesDropped()
                    << " delayed=" << fault_stats::MessagesDelayed()
                    << " duplicated=" << fault_stats::MessagesDuplicated()
                    << " steal_timeouts=" << fault_stats::StealTimeouts();
      return ran;
    }
    if (plan.dead_node >= 0) {
      SCOPED_TRACE(ReproLine(seed));
      // The kill may not have fired (the victim can finish in fewer than
      // kill_after_sends sends), but a declared death implies the report
      // says so.
      for (int dead : report.dead_nodes) {
        EXPECT_TRUE(dead >= 0 && dead < cluster.num_nodes());
      }
    }
    ++ran;
  }
  cluster.set_fault_plan(FaultPlan());
  cluster.set_liveness_timeout_seconds(0.0);
  return ran;
}

IndexOptions TestIndexOptions() {
  IndexOptions options;
  options.config = IsaxConfig(64, 8);
  options.leaf_capacity = 32;
  return options;
}

OdysseyOptions BaseOptions(int nodes, int groups) {
  OdysseyOptions options;
  options.num_nodes = nodes;
  options.num_groups = groups;
  options.index_options = TestIndexOptions();
  options.build_threads_per_node = 2;
  options.query_options.num_threads = 2;
  return options;
}

// ------------------------------------------------------------ the sweeps

TEST(ChaosBatchTest, FullLayoutEdStaysExact) {
  const SeriesCollection data = GenerateSeismicLike(480, 64, 301);
  const SeriesCollection queries = GenerateUniformQueries(data, 8, 1.0, 303);
  OdysseyOptions options = BaseOptions(4, 1);
  options.scheduling = SchedulingPolicy::kDynamic;
  OdysseyCluster cluster(data, options);
  const BatchReport reference = cluster.AnswerBatch(queries);

  SweepOptions sweep;
  sweep.base_seed = 31000;
  sweep.plans = 40;
  sweep.killable = {0, 1, 2, 3};  // FULL: every node's chunk is replicated
  EXPECT_GT(SweepBatches(cluster, queries, reference, sweep), 0);
}

TEST(ChaosBatchTest, PartialLayoutEdStaysExact) {
  const SeriesCollection data = GenerateSeismicLike(512, 64, 311);
  const SeriesCollection queries = GenerateUniformQueries(data, 8, 1.2, 313);
  // PARTIAL-2 over 4 nodes with work-stealing: the recovery protocol's
  // hardest customer (steal grants outstanding at death).
  OdysseyOptions options = BaseOptions(4, 2);
  options.scheduling = SchedulingPolicy::kDynamic;
  options.worksteal.enabled = true;
  OdysseyCluster cluster(data, options);
  const BatchReport reference = cluster.AnswerBatch(queries);

  SweepOptions sweep;
  sweep.base_seed = 32000;
  sweep.plans = 48;
  sweep.killable = {0, 1, 2, 3};  // every group has two members
  EXPECT_GT(SweepBatches(cluster, queries, reference, sweep), 0);
}

TEST(ChaosBatchTest, PartialLayoutStaticStaysExact) {
  const SeriesCollection data = GenerateRandomWalk(480, 64, 321);
  const SeriesCollection queries = GenerateUniformQueries(data, 8, 1.0, 323);
  OdysseyOptions options = BaseOptions(4, 2);
  options.scheduling = SchedulingPolicy::kStatic;
  OdysseyCluster cluster(data, options);
  const BatchReport reference = cluster.AnswerBatch(queries);

  SweepOptions sweep;
  sweep.base_seed = 33000;
  sweep.plans = 24;
  sweep.killable = {0, 1, 2, 3};
  EXPECT_GT(SweepBatches(cluster, queries, reference, sweep), 0);
}

TEST(ChaosBatchTest, PartialLayoutDtwStaysExact) {
  const SeriesCollection data = GenerateSeismicLike(400, 64, 331);
  const SeriesCollection queries = GenerateUniformQueries(data, 6, 1.0, 333);
  OdysseyOptions options = BaseOptions(4, 2);
  options.query_options.use_dtw = true;
  options.query_options.dtw_window = WarpingWindowFromFraction(64, 0.05);
  OdysseyCluster cluster(data, options);
  const BatchReport reference = cluster.AnswerBatch(queries);

  SweepOptions sweep;
  sweep.base_seed = 34000;
  sweep.plans = 24;
  sweep.killable = {0, 1, 2, 3};
  EXPECT_GT(SweepBatches(cluster, queries, reference, sweep), 0);
}

TEST(ChaosBatchTest, PartialLayoutKnnStaysExact) {
  const SeriesCollection data = GenerateRandomWalk(512, 64, 341);
  const SeriesCollection queries = GenerateUniformQueries(data, 8, 1.5, 343);
  OdysseyOptions options = BaseOptions(4, 2);
  options.query_options.k = 5;
  OdysseyCluster cluster(data, options);
  const BatchReport reference = cluster.AnswerBatch(queries);

  SweepOptions sweep;
  sweep.base_seed = 35000;
  sweep.plans = 24;
  sweep.killable = {0, 1, 2, 3};
  EXPECT_GT(SweepBatches(cluster, queries, reference, sweep), 0);
}

TEST(ChaosStreamTest, StreamStaysExactUnderFaults) {
  const SeriesCollection data = GenerateRandomWalk(480, 64, 361);
  const SeriesCollection queries = GenerateUniformQueries(data, 8, 1.0, 363);
  const std::vector<double> arrivals(queries.size(), 0.0);
  OdysseyOptions options = BaseOptions(4, 2);
  options.worksteal.enabled = true;
  OdysseyCluster cluster(data, options);
  const BatchReport reference = cluster.AnswerStream(queries, arrivals);

  // Kills are excluded from stream plans (the online admission path's
  // failure handling beyond faults is future work, see ARCHITECTURE.md);
  // drops, delays, duplicates and reorders must all stay invisible.
  const uint64_t base = EnvSeedOr(37000);
  const int plans = EnvItersOr(24);
  for (int i = 0; i < plans && !OverBudget(); ++i) {
    const uint64_t seed = base + static_cast<uint64_t>(i);
    const FaultPlan plan = PlanFromSeed(seed, /*killable=*/{});
    cluster.set_fault_plan(plan);
    PlanWatchdog watchdog(seed, kPlanDeadlineSeconds);
    const BatchReport report = cluster.AnswerStream(queries, arrivals);
    ExpectBitExact(reference, report, seed);
  }
}

TEST(ChaosRecoveryTest, MidBatchKillOnPartialLayoutReassignsWork) {
  const SeriesCollection data = GenerateSeismicLike(480, 64, 371);
  const SeriesCollection queries = GenerateUniformQueries(data, 8, 1.0, 373);
  // Static scheduling: the victim always has dispatched queries on record,
  // so a mid-batch death must visibly reassign work, not just stay exact.
  OdysseyOptions options = BaseOptions(4, 2);
  options.scheduling = SchedulingPolicy::kStatic;
  options.liveness_timeout_seconds = 0.25;
  OdysseyCluster cluster(data, options);
  const BatchReport reference = cluster.AnswerBatch(queries);

  fault_stats::Reset();
  uint64_t kills = 0;
  // A victim owning 2 statically-assigned queries makes at least 4 sends
  // (two answers, kDone, kNodeTerminated), so killing at send 1-3 always
  // fires mid-protocol and always suppresses its kNodeTerminated: every
  // plan below must end in a death declaration.
  for (int victim : {1, 3}) {       // group 1 = {1, 3}: either may die
    for (int after : {1, 2, 3}) {   // from nearly-immediate to mid-batch
      FaultPlan plan;
      plan.seed = 38000 + static_cast<uint64_t>(victim * 10 + after);
      plan.dead_node = victim;
      plan.kill_after_sends = after;
      cluster.set_fault_plan(plan);
      PlanWatchdog watchdog(plan.seed, kPlanDeadlineSeconds);
      const BatchReport report = cluster.AnswerBatch(queries);
      ExpectBitExact(reference, report, plan.seed);
      ++kills;
    }
  }
  // The injection demonstrably fired and the protocol demonstrably worked:
  // every plan killed its victim, every kill was detected, and at least
  // one death caught unfinished work that had to move.
  EXPECT_EQ(fault_stats::NodesKilled(), kills);
  EXPECT_GE(fault_stats::NodesDeclaredDead(), kills);
  EXPECT_GT(fault_stats::QueriesReassigned() +
                fault_stats::BatchesReassigned(),
            0u);
}

TEST(ChaosRecoveryTest, EquallySplitDeathIsAnErrorNotAWrongAnswer) {
  const SeriesCollection data = GenerateRandomWalk(400, 64, 381);
  const SeriesCollection queries = GenerateUniformQueries(data, 6, 1.0, 383);
  // EQUALLY-SPLIT: one replica per chunk. A death loses coverage, and the
  // report must say so instead of returning silently incomplete answers.
  OdysseyOptions options = BaseOptions(4, 4);
  options.scheduling = SchedulingPolicy::kStatic;
  options.liveness_timeout_seconds = 0.25;
  OdysseyCluster cluster(data, options);

  for (int victim : {0, 2}) {
    FaultPlan plan;
    plan.seed = 39000 + static_cast<uint64_t>(victim);
    plan.dead_node = victim;
    plan.kill_after_sends = 1;
    cluster.set_fault_plan(plan);
    PlanWatchdog watchdog(plan.seed, kPlanDeadlineSeconds);
    const BatchReport report = cluster.AnswerBatch(queries);
    SCOPED_TRACE(ReproLine(plan.seed));
    ASSERT_FALSE(report.status.ok());
    EXPECT_NE(report.status.message().find("no longer fully covered"),
              std::string::npos)
        << report.status.ToString();
    ASSERT_EQ(report.dead_nodes.size(), 1u);
    EXPECT_EQ(report.dead_nodes[0], victim);
  }
}

TEST(ChaosStatsTest, CountersProveInjectionFired) {
  const SeriesCollection data = GenerateSeismicLike(480, 64, 391);
  const SeriesCollection queries = GenerateUniformQueries(data, 8, 1.0, 393);
  OdysseyOptions options = BaseOptions(4, 2);
  options.scheduling = SchedulingPolicy::kDynamic;
  options.worksteal.enabled = true;
  options.liveness_timeout_seconds = 0.25;
  OdysseyCluster cluster(data, options);
  const BatchReport reference = cluster.AnswerBatch(queries);

  fault_stats::Reset();
  FaultPlan plan;
  plan.seed = EnvSeedOr(40001);
  plan.drop_prob = 0.5;
  plan.delay_prob = 0.5;
  plan.duplicate_prob = 0.4;
  plan.reorder_prob = 0.4;
  plan.max_delay = 4;
  plan.dead_node = 1;
  plan.kill_after_sends = 3;
  cluster.set_fault_plan(plan);
  PlanWatchdog watchdog(plan.seed, kPlanDeadlineSeconds);
  const BatchReport report = cluster.AnswerBatch(queries);
  ExpectBitExact(reference, report, plan.seed);

  // Every fault class demonstrably fired (a chaos suite whose injector
  // silently no-ops would pass the exactness sweeps vacuously).
  EXPECT_GT(fault_stats::MessagesDropped(), 0u);
  EXPECT_GT(fault_stats::MessagesDelayed(), 0u);
  EXPECT_GT(fault_stats::MessagesDuplicated(), 0u);
  EXPECT_EQ(fault_stats::NodesKilled(), 1u);
  EXPECT_GE(fault_stats::NodesDeclaredDead(), 1u);
}

}  // namespace
}  // namespace odyssey
