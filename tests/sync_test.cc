// Tests for the annotated locking layer (src/common/sync.h): the wrappers
// must behave exactly like the std primitives they forward to (the
// annotations are compile-time only), and CountedThread must make
// executor_stats::ThreadsSpawned honest by construction.

#include "src/common/sync.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/summary_stats.h"

namespace odyssey {
namespace {

// The annotation macros must compile — and cost nothing — on every
// compiler. On GCC they expand to nothing; on Clang this class is also a
// minimal analysis input. Instantiated in MacrosCompileAndGuard below.
class ODYSSEY_CAPABILITY("mutex") AnnotatedCounter {
 public:
  void Add(int n) ODYSSEY_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    AddLocked(n);
  }
  int value() const ODYSSEY_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return value_;
  }

 private:
  void AddLocked(int n) ODYSSEY_REQUIRES(mu_) { value_ += n; }

  mutable Mutex mu_;
  int value_ ODYSSEY_GUARDED_BY(mu_) = 0;
};

TEST(SyncTest, MacrosCompileAndGuard) {
  AnnotatedCounter counter;
  counter.Add(41);
  counter.Add(1);
  EXPECT_EQ(counter.value(), 42);
}

TEST(SyncTest, MutexExcludes) {
  Mutex mu;
  mu.Lock();
  EXPECT_FALSE(mu.TryLock());  // non-recursive, like std::mutex
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(SyncTest, MutexLockIsScoped) {
  Mutex mu;
  {
    MutexLock lock(&mu);
    EXPECT_FALSE(mu.TryLock());
  }
  EXPECT_TRUE(mu.TryLock());  // released at scope exit
  mu.Unlock();
}

TEST(SyncTest, CondVarSignalWakesWaiter) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  int observed = 0;
  CountedThread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
    observed = 1;
  });
  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.Signal();
  waiter.Join();
  EXPECT_EQ(observed, 1);
}

TEST(SyncTest, WaitForReturnsTrueOnTimeout) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  // Nothing ever signals: the wait must report a timeout (absl
  // convention: true = deadline passed) and re-hold the mutex.
  EXPECT_TRUE(cv.WaitFor(&mu, std::chrono::milliseconds(5)));
  EXPECT_FALSE(mu.TryLock());  // still held by this scope
}

TEST(SyncTest, WaitUntilHonorsEarlySignal) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  CountedThread signaler([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.Signal();
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  {
    MutexLock lock(&mu);
    bool timed_out = false;
    while (!ready && !timed_out) timed_out = cv.WaitUntil(&mu, deadline);
    EXPECT_TRUE(ready);  // woke by signal, nowhere near the deadline
  }
  signaler.Join();
}

TEST(SyncTest, ProducerConsumerThroughWrappers) {
  // A bounded queue exercising the full Mutex/CondVar surface under real
  // contention — also the suite TSan chews on in the sanitize-thread job.
  constexpr int kItems = 2000;
  constexpr size_t kCapacity = 8;
  Mutex mu;
  CondVar not_full, not_empty;
  std::deque<int> queue;
  long long sum = 0;
  CountedThread producer([&] {
    for (int i = 1; i <= kItems; ++i) {
      MutexLock lock(&mu);
      while (queue.size() >= kCapacity) not_full.Wait(&mu);
      queue.push_back(i);
      not_empty.Signal();
    }
  });
  CountedThread consumer([&] {
    for (int n = 0; n < kItems; ++n) {
      MutexLock lock(&mu);
      while (queue.empty()) not_empty.Wait(&mu);
      sum += queue.front();
      queue.pop_front();
      not_full.Signal();
    }
  });
  producer.Join();
  consumer.Join();
  EXPECT_EQ(sum, static_cast<long long>(kItems) * (kItems + 1) / 2);
}

TEST(SyncTest, CountedThreadCountsEverySpawn) {
  executor_stats::Reset();
  std::atomic<int> ran{0};
  {
    std::vector<CountedThread> threads;
    for (int i = 0; i < 3; ++i) {
      threads.emplace_back([&ran] { ran.fetch_add(1); });
    }
    for (auto& t : threads) t.Join();
  }
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(executor_stats::ThreadsSpawned(), 3u);
}

TEST(SyncTest, DefaultConstructedCountsNothing) {
  executor_stats::Reset();
  CountedThread empty;
  EXPECT_FALSE(empty.joinable());
  EXPECT_EQ(executor_stats::ThreadsSpawned(), 0u);
}

TEST(SyncTest, MoveTransfersOwnershipWithoutRecount) {
  executor_stats::Reset();
  CountedThread a([] {});
  CountedThread b = std::move(a);
  EXPECT_FALSE(a.joinable());
  EXPECT_TRUE(b.joinable());
  b.Join();
  // One spawn, one count — the move is not a second spawn.
  EXPECT_EQ(executor_stats::ThreadsSpawned(), 1u);
}

}  // namespace
}  // namespace odyssey
