// Unit and stress tests for the concurrency substrate: blocking MPMC queue
// (the paper's run queue), thread pool, SPSC ring, sharded counters.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "concurrency/blocking_queue.hpp"
#include "concurrency/sharded_counter.hpp"
#include "concurrency/spsc_ring.hpp"
#include "concurrency/thread_pool.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace df::conc {
namespace {

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
// empties and the test hangs rather than passes.
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
}

// A push_all caller that pops next names how many items it takes itself,
// and the queue wakes consumers only for the rest. With all consumers
// parked between bursts, a two-item batch with caller_pops = 1 must still
// wake one of them for the second item, or the burst never completes.
// parks() counts the pops that blocked.
TEST(BlockingQueue, CallerPopsDiscountStillWakesForTheRest) {
  constexpr int kConsumers = 3;
  constexpr int kBursts = 400;
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
    batch = {2 * b, 2 * b + 1};
    ASSERT_TRUE(queue.push_all(batch, /*caller_pops=*/1));
    if (queue.try_pop().has_value()) {
      consumed.fetch_add(1);
    }
    while (consumed.load() < 2 * (b + 1)) {
      std::this_thread::yield();  // hangs here if the rest went unsignalled
    }
  }
  queue.close();
  for (auto& t : consumers) {
    t.join();
  }
  EXPECT_EQ(consumed.load(), 2 * kBursts);
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

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
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

TEST(ThreadPool, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  SUCCEED();
}

TEST(ParallelForThreads, RunsEachIndexOnce) {
  std::array<std::atomic<int>, 8> hits{};
  parallel_for_threads(8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(SpscRing, CapacityMustBePowerOfTwo) {
  EXPECT_THROW(SpscRing<int>(3), support::check_error);
  EXPECT_THROW(SpscRing<int>(1), support::check_error);
  SpscRing<int> ok(8);
  EXPECT_EQ(ok.capacity(), 8U);
}

TEST(SpscRing, FifoAndFullness) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.push(i));
  }
  EXPECT_FALSE(ring.push(99));  // full
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.pop(), i);
  }
  EXPECT_FALSE(ring.pop().has_value());
}

TEST(SpscRing, ConcurrentProducerConsumer) {
  constexpr int kItems = 100000;
  SpscRing<int> ring(1024);
  std::vector<int> received;
  received.reserve(kItems);
  std::thread consumer([&] {
    while (received.size() < kItems) {
      if (auto item = ring.pop()) {
        received.push_back(*item);
      }
    }
  });
  for (int i = 0; i < kItems; ++i) {
    while (!ring.push(i)) {
    }
  }
  consumer.join();
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(received[static_cast<std::size_t>(i)], i);
  }
}

TEST(SpscRing, TryPushKeepsItemOnFullRing) {
  SpscRing<std::vector<int>> ring(2);
  std::vector<int> payload = {1, 2, 3};
  std::vector<int> a = payload;
  std::vector<int> b = payload;
  std::vector<int> c = payload;
  EXPECT_TRUE(ring.try_push(a));
  EXPECT_TRUE(ring.try_push(b));
  EXPECT_FALSE(ring.try_push(c));
  // Failure must leave the caller's item intact for a fallback path.
  EXPECT_EQ(c, payload);
}

TEST(SpscRing, DrainConsumesEverythingVisible) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) {
    ring.push(i);
  }
  std::vector<int> got;
  EXPECT_EQ(ring.drain([&](int&& v) { got.push_back(v); }), 5U);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.drain([&](int&&) { FAIL(); }), 0U);
}

// Consumer-role migration: the drain side hops between threads with an
// acquire/release flag handoff, exactly how the engine's draining_ flag
// serializes staging-ring consumers. Run under TSan to validate the
// ordering contract documented in spsc_ring.hpp.
TEST(SpscRing, ConsumerRoleMigratesAcrossThreadsWithHandoff) {
  constexpr int kItems = 50000;
  SpscRing<int> ring(256);
  std::atomic<bool> draining{false};  // the engine's drain-flag handoff
  std::atomic<int> drained{0};
  std::vector<std::atomic<char>> seen(kItems);

  const auto consumer = [&] {
    while (drained.load() < kItems) {
      if (draining.exchange(true)) {
        std::this_thread::yield();  // other side holds the drain
        continue;
      }
      // Winning the exchange is the handoff; announce it to the debug-only
      // owner check before consuming (mirrors Engine::drain_staged).
      ring.adopt_consumer();
      const std::size_t n = ring.drain([&](int&& v) {
        seen[static_cast<std::size_t>(v)].fetch_add(1);
      });
      drained.fetch_add(static_cast<int>(n));
      draining.store(false);
    }
  };
  std::thread a(consumer);
  std::thread b(consumer);
  for (int i = 0; i < kItems; ++i) {
    while (!ring.push(i)) {
      std::this_thread::yield();
    }
  }
  a.join();
  b.join();
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
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

TEST(ScopedNanoTimer, AccumulatesElapsedTime) {
  ShardedCounter sink;
  {
    ScopedNanoTimer timer(sink);
    support::spin_for_ns(1'000'000);
  }
  EXPECT_GE(sink.value(), 1'000'000U);
}

}  // namespace
}  // namespace df::conc
