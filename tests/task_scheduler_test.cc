// Contract tests for the process-wide work-stealing TaskScheduler: worker
// identity, pool growth, fork/join scope counters, concurrency, teardown
// draining, and exception propagation. The randomized load tests live in
// task_scheduler_stress_test.cc (stress label, run under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/task_scheduler.h"

namespace tswarp {
namespace {

TEST(TaskSchedulerTest, ExternalThreadHasNoWorkerId) {
  EXPECT_EQ(TaskScheduler::CurrentWorkerId(), TaskScheduler::kExternalThread);
}

TEST(TaskSchedulerTest, EnsureWorkersGrowsAndNeverShrinks) {
  TaskScheduler& scheduler = TaskScheduler::Get();
  scheduler.EnsureWorkers(2);
  const std::size_t grown = scheduler.num_workers();
  EXPECT_GE(grown, 2u);
  scheduler.EnsureWorkers(1);  // Smaller request: no-op.
  EXPECT_EQ(scheduler.num_workers(), grown);
  scheduler.EnsureWorkers(TaskScheduler::kMaxWorkers + 100);  // Clamped.
  EXPECT_LE(scheduler.num_workers(), TaskScheduler::kMaxWorkers);
}

TEST(TaskSchedulerTest, ScopeCountsEveryTask) {
  TaskScheduler::Get().EnsureWorkers(2);
  TaskScope scope;
  std::atomic<int> ran{0};
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    scope.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  scope.Wait();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(scope.tasks_executed(), static_cast<std::uint64_t>(kTasks));
  // Externally submitted tasks count as stolen when a pool worker takes
  // them; the waiting thread helping itself does not.
  EXPECT_LE(scope.tasks_stolen(), scope.tasks_executed());
}

TEST(TaskSchedulerTest, ScopeIsReusableAndCountersAccumulate) {
  TaskScope scope;
  std::atomic<int> ran{0};
  scope.Submit([&ran] { ran.fetch_add(1); });
  scope.Wait();
  scope.Submit([&ran] { ran.fetch_add(1); });
  scope.Wait();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(scope.tasks_executed(), 2u);
}

TEST(TaskSchedulerTest, WaitRethrowsFirstExceptionAndClearsIt) {
  TaskScope scope;
  std::atomic<int> ran{0};
  scope.Submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 8; ++i) {
    scope.Submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(scope.Wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 8);  // Remaining tasks still ran.
  scope.Submit([&ran] { ran.fetch_add(1); });
  scope.Wait();  // Cleared: no rethrow on the next Wait.
  EXPECT_EQ(ran.load(), 9);
}

TEST(TaskSchedulerTest, StealAttemptCounterIsMonotonic) {
  TaskScheduler& scheduler = TaskScheduler::Get();
  scheduler.EnsureWorkers(2);
  const std::uint64_t before = scheduler.steal_attempts();
  TaskScope scope;
  for (int i = 0; i < 32; ++i) {
    scope.Submit([] {});
  }
  scope.Wait();
  EXPECT_GE(scheduler.steal_attempts(), before);
}

TEST(TaskSchedulerTest, TasksRunConcurrentlyAcrossWorkers) {
  // Two tasks that each wait for the other prove two threads run them at
  // once; a single-threaded executor would deadlock (bounded here by a
  // timeout).
  TaskScheduler::Get().EnsureWorkers(2);
  std::atomic<bool> a_entered{false};
  std::atomic<bool> b_entered{false};
  auto spin_until = [](std::atomic<bool>& flag) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    return flag.load();
  };
  std::atomic<bool> ok{true};
  TaskScope scope;
  scope.Submit([&] {
    a_entered.store(true);
    if (!spin_until(b_entered)) ok.store(false);
  });
  scope.Submit([&] {
    b_entered.store(true);
    if (!spin_until(a_entered)) ok.store(false);
  });
  scope.Wait();
  EXPECT_TRUE(ok.load());
}

TEST(TaskSchedulerTest, DestructorDrainsPendingTasks) {
  TaskScheduler::Get().EnsureWorkers(1);
  std::atomic<int> count{0};
  {
    TaskScope scope;
    for (int i = 0; i < 50; ++i) {
      scope.Submit([&count] { count.fetch_add(1); });
    }
    // No Wait(): the destructor must run every pending task.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(TaskSchedulerTest, NestedScopeInsideTaskJoinsWithoutDeadlock) {
  TaskScheduler::Get().EnsureWorkers(2);
  TaskScope outer;
  std::atomic<int> n{0};
  outer.Submit([&n] {
    TaskScope inner;
    for (int i = 0; i < 32; ++i) {
      inner.Submit([&n] { n.fetch_add(1, std::memory_order_relaxed); });
    }
    inner.Wait();  // Helping Wait: runs queued tasks instead of blocking.
    n.fetch_add(1000, std::memory_order_relaxed);
  });
  outer.Wait();
  EXPECT_EQ(n.load(), 1032);
}

}  // namespace
}  // namespace tswarp
