// Unit and stress tests for the concurrency substrate: the spinning mutex
// and its guards, blocking MPMC queue (the paper's run queue), thread pool,
// sharded counters.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "concurrency/annotations.hpp"
#include "concurrency/blocking_queue.hpp"
#include "concurrency/sharded_counter.hpp"
#include "concurrency/thread_pool.hpp"
#include "support/check.hpp"

namespace df::conc {
namespace {

// Every guard acquires through Mutex::lock(), which spins on try_lock()
// before it falls back to the blocking lock. A plain counter bumped under
// MutexLock, and under a UniqueLock released and retaken mid-section, must
// come out exact (and TSan reports any unguarded bump).
TEST(Mutex, GuardsExcludeUnderContention) {
  constexpr int kThreads = 6;
  constexpr int kIters = 5000;
  Mutex mutex;
  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        {
          MutexLock lock(mutex);
          ++counter;
        }
        UniqueLock lock(mutex);
        ++counter;
        lock.unlock();
        lock.lock();
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, std::uint64_t{3} * kThreads * kIters);
}

// A holder that keeps the lock far longer than the spin makes the next
// acquisition fall back to the blocking lock: it counts as a lock wait, and
// it returns only once the holder has released the lock.
TEST(Mutex, LongHoldCountsOneLockWait) {
  Mutex mutex;
  std::atomic<bool> held{false};
  bool released = false;  // written by the holder under the lock
  std::thread holder([&] {
    MutexLock lock(mutex);
    held.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    released = true;
  });
  while (!held.load()) {
    std::this_thread::yield();
  }
  {
    MutexLock lock(mutex);
    EXPECT_TRUE(released);
    EXPECT_EQ(mutex.lock_waits(), 1U);
  }
  holder.join();
}

// pop() parks only on an open empty queue: a queued item or a close ends
// its spin, and the locked re-check returns without waiting.
TEST(BlockingQueue, PopWithItemOrOnClosedQueueDoesNotPark) {
  BlockingQueue<int> queue;
  queue.push(5);
  EXPECT_EQ(queue.pop(), 5);
  EXPECT_EQ(queue.parks(), 0U);
  queue.close();
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_EQ(queue.parks(), 0U);
}

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> queue;
  queue.push(1);
  queue.push(2);
  queue.push(3);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), 3);
}

TEST(BlockingQueue, TryPopOnEmpty) {
  BlockingQueue<int> queue;
  EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(BlockingQueue, BoundedTryPush) {
  BlockingQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));  // full
  EXPECT_EQ(queue.size(), 2U);
}

TEST(BlockingQueue, CloseWakesBlockedPopper) {
  BlockingQueue<int> queue;
  std::optional<int> result = 42;
  std::thread popper([&] { result = queue.pop(); });
  queue.close();
  popper.join();
  EXPECT_FALSE(result.has_value());
}

TEST(BlockingQueue, CloseDrainsRemainingItems) {
  BlockingQueue<int> queue;
  queue.push(7);
  queue.push(8);
  queue.close();
  EXPECT_FALSE(queue.push(9));  // rejected after close
  EXPECT_EQ(queue.pop(), 7);
  EXPECT_EQ(queue.pop(), 8);
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_TRUE(queue.closed());
}

TEST(BlockingQueue, PopBlocksUntilPush) {
  BlockingQueue<int> queue;
  std::optional<int> got;
  std::thread popper([&] { got = queue.pop(); });
  queue.push(99);
  popper.join();
  EXPECT_EQ(got, 99);
}

// The paper's requirement: "each item on the queue is dequeued at most
// once". MPMC stress: many producers, many consumers, every item exactly
// once.
TEST(BlockingQueue, MpmcExactlyOnceStress) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  BlockingQueue<int> queue;
  std::array<std::atomic<int>, kProducers * kPerProducer> seen{};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto item = queue.pop()) {
        seen[static_cast<std::size_t>(*item)].fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        queue.push(p * kPerProducer + i);
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  queue.close();
  for (auto& t : consumers) {
    t.join();
  }
  for (const auto& count : seen) {
    ASSERT_EQ(count.load(), 1);
  }
}

// Wakeup-audit hammer: many idle consumers, a producer feeding single-item
// batches through push_all (the engine's common case — a chain graph drains
// one ready pair per transition). The producer waits for the queue to drain
// between bursts, so an under-wake cannot hide behind close()'s
// notify_all: if a batch's wakeups are insufficient, the queue never
// empties and the test hangs rather than passes. Consumers idle between
// bursts, so some pops block, and parks() counts them.
TEST(BlockingQueue, SingleItemBatchesWakeIdleConsumersStress) {
  constexpr int kConsumers = 6;
  constexpr int kBursts = 400;
  constexpr int kPerBurst = 8;
  BlockingQueue<int> queue;
  std::atomic<int> consumed{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (queue.pop()) {
        consumed.fetch_add(1);
      }
    });
  }
  std::vector<int> batch;
  for (int b = 0; b < kBursts; ++b) {
    for (int i = 0; i < kPerBurst; ++i) {
      batch.assign(1, b * kPerBurst + i);  // batches of exactly one
      ASSERT_TRUE(queue.push_all(batch));
    }
    while (consumed.load() < (b + 1) * kPerBurst) {
      std::this_thread::yield();  // hangs here on a lost wakeup
    }
  }
  queue.close();
  for (auto& t : consumers) {
    t.join();
  }
  EXPECT_EQ(consumed.load(), kBursts * kPerBurst);
  EXPECT_GT(queue.parks(), 0U);
}

// The lost wakeup the audit actually found: producers blocked in push_all
// wait for *batch-sized* room, so their predicates are heterogeneous. A
// notify_one on the consumer side could wake a large-batch producer that
// goes straight back to sleep while a small-batch producer that now fits
// sleeps forever; with consumers draining the queue empty afterwards,
// nobody signals again — deadlock. This hammers a small bounded queue with
// mixed batch sizes; the old code deadlocks here within a few rounds.
TEST(BlockingQueue, HeterogeneousBatchPushersDoNotLoseWakeups) {
  constexpr std::size_t kCapacity = 8;
  constexpr int kRounds = 500;
  BlockingQueue<int> queue(kCapacity);
  const std::size_t sizes[] = {7, 1, 5, 2};
  std::atomic<int> produced{0};
  std::atomic<int> consumed{0};

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < std::size(sizes); ++p) {
    producers.emplace_back([&, p] {
      std::vector<int> batch;
      for (int r = 0; r < kRounds; ++r) {
        batch.assign(sizes[p], static_cast<int>(p));
        ASSERT_TRUE(queue.push_all(batch));
        produced.fetch_add(static_cast<int>(sizes[p]));
      }
    });
  }
  const int total = kRounds * static_cast<int>(7 + 1 + 5 + 2);
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (queue.pop()) {
        consumed.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  queue.close();
  for (auto& t : consumers) {
    t.join();
  }
  EXPECT_EQ(produced.load(), total);
  EXPECT_EQ(consumed.load(), total);
}

TEST(ThreadPool, RunOnAllPassesDistinctIndices) {
  ThreadPool pool(4);
  std::array<std::atomic<int>, 4> hits{};
  pool.run_on_all([&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), support::check_error);
}

TEST(ParallelForThreads, RunsEachIndexOnce) {
  std::array<std::atomic<int>, 8> hits{};
  parallel_for_threads(8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ShardedCounter, SumsAcrossThreads) {
  ShardedCounter counter;
  parallel_for_threads(8, [&](std::size_t) {
    for (int i = 0; i < 10000; ++i) {
      counter.add();
    }
  });
  EXPECT_EQ(counter.value(), 80000U);
  counter.reset();
  EXPECT_EQ(counter.value(), 0U);
}

}  // namespace
}  // namespace df::conc
