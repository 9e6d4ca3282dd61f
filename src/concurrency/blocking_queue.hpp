// Thread-safe blocking MPMC queue — the "run queue" of the paper.
//
// The paper (section 3.2) assumes "a thread-safe queue: any thread executing
// a dequeue operation suspends until an item is available for dequeuing, and
// the dequeue operation atomically removes an item from the queue such that
// each item on the queue is dequeued at most once. It is also assumed to be
// empty at system initialization time." Its Java prototype used
// java.util.concurrent.BlockingQueue; this is the C++ equivalent, extended
// with close() semantics so computation threads can shut down cleanly (the
// paper's processes are infinite loops; real systems must terminate).
//
// Storage is a power-of-two circular buffer instead of a std::deque: a
// deque allocates and frees a block roughly every page of traffic, while the
// ring reaches its steady-state size once and then moves items in place.
// push_all() enqueues a whole batch of ready pairs under one lock
// acquisition with a bounded number of wakeups, which is how the engine
// drains a scheduler transition (see DESIGN.md, "Batched run-queue
// traffic").
//
// Wakeup discipline (audited for under-wake/lost-wakeup):
//   * not_empty_: consumers block only while the queue is empty, so k items
//     added need at most k wakeups, and one item needs exactly one — the
//     per-item notify_one in push()/single-item push_all() is sufficient,
//     never a lost wakeup. Batches wake min(batch, waiting consumers)
//     threads; with no consumer blocked at publication time no signal is
//     needed at all, because any later consumer re-checks the count under
//     the mutex before sleeping.
//   * A push_all caller that will itself pop next (the engine's drainer,
//     which goes straight back to pop_with_preblock) names how many items
//     it will take, and those are not signalled for: it wakes
//     min(batch - caller_pops, waiting consumers). The caller is not
//     waiting, so it needs no signal, and the items it leaves behind for a
//     moment are still covered — every consumer re-checks the count under
//     the mutex before sleeping, and the caller takes them when it pops.
//   * parks() counts not_empty_ waits, the times a consumer blocked on the
//     empty queue, under the queue's own mutex.
//   * not_full_: producers block on *batch-sized* room (push_all waits for
//     its whole batch to fit), so waiters are heterogeneous: waking one
//     producer after one pop could select a large-batch producer that goes
//     back to sleep while a small-batch producer that now fits sleeps
//     forever — a genuine lost wakeup. Consumers therefore notify_all when
//     any producer is waiting; each woken producer re-evaluates its own
//     predicate.
//
// Lock discipline is machine-checked: every field below is
// DF_GUARDED_BY(mutex_) and the ring helpers are DF_REQUIRES(mutex_), so a
// clang -Wthread-safety build fails on any unguarded access (see
// concurrency/annotations.hpp for the conventions).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "concurrency/annotations.hpp"
#include "support/check.hpp"

namespace df::conc {

template <typename T>
class BlockingQueue {
 public:
  /// capacity == 0 means unbounded.
  explicit BlockingQueue(std::size_t capacity = 0)
      : capacity_(capacity == 0 ? std::numeric_limits<std::size_t>::max()
                                : capacity) {}

  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Enqueues an item; blocks while the queue is at capacity.
  /// Returns false (dropping the item) if the queue has been closed.
  bool push(T item) {
    std::size_t wake = 0;
    {
      UniqueLock lock(mutex_);
      ++waiting_pushers_;
      while (!(closed_ || count_ < capacity_)) {
        not_full_.wait(lock);
      }
      --waiting_pushers_;
      if (closed_) {
        return false;
      }
      place(std::move(item));
      wake = waiting_poppers_ == 0 ? 0 : 1;
    }
    notify_consumers(wake);
    return true;
  }

  /// Enqueues every item of `items` under a single lock acquisition with at
  /// most one notify call; the batch is moved from (elements left valid but
  /// unspecified — callers typically clear() and reuse the vector). Blocks
  /// while the batch does not fit under the capacity bound, so the batch
  /// must be no larger than the capacity. Returns false (dropping the whole
  /// batch) if the queue has been closed; never partially enqueues.
  /// `caller_pops` is how many of the items the caller pops itself right
  /// after this call; no consumer is woken for those.
  bool push_all(std::vector<T>& items, std::size_t caller_pops = 0) {
    if (items.empty()) {
      return true;
    }
    DF_CHECK(items.size() <= capacity_,
             "batch larger than the queue capacity would never fit");
    std::size_t wake = 0;
    {
      UniqueLock lock(mutex_);
      ++waiting_pushers_;
      while (!(closed_ || count_ + items.size() <= capacity_)) {
        not_full_.wait(lock);
      }
      --waiting_pushers_;
      if (closed_) {
        return false;
      }
      for (T& item : items) {
        place(std::move(item));
      }
      // k new items can usefully wake at most k consumers, and consumers
      // only block while the queue is empty, so min(batch, waiters) covers
      // every consumer this batch could serve, less the items the caller
      // will pop itself (see header comment).
      wake = std::min(items.size() - std::min(caller_pops, items.size()),
                      waiting_poppers_);
    }
    notify_consumers(wake);
    return true;
  }

  /// Non-blocking enqueue; returns false if full or closed.
  bool try_push(T item) {
    std::size_t wake = 0;
    {
      MutexLock lock(mutex_);
      if (closed_ || count_ >= capacity_) {
        return false;
      }
      place(std::move(item));
      wake = waiting_poppers_ == 0 ? 0 : 1;
    }
    notify_consumers(wake);
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  /// nullopt signals "closed and empty" — the worker-thread exit condition.
  std::optional<T> pop() {
    UniqueLock lock(mutex_);
    ++waiting_poppers_;
    while (!(closed_ || count_ != 0)) {
      ++parks_;
      not_empty_.wait(lock);
    }
    --waiting_poppers_;
    if (count_ == 0) {
      return std::nullopt;  // closed and drained
    }
    T item = take();
    const bool producers_waiting = waiting_pushers_ != 0;
    lock.unlock();
    if (producers_waiting) {
      // Producers wait on batch-sized room (heterogeneous predicates), so
      // waking just one could pick a batch that still does not fit and
      // strand a smaller one — wake them all and let each re-check.
      not_full_.notify_all();
    }
    return item;
  }

  /// Blocking dequeue with a pre-block hook: like pop(), but runs `pre`
  /// (with the lock released) every time the queue is observed empty and
  /// open, before committing to sleep. The hook may push into this very
  /// queue — the engine drains its staged finish rings there, which can
  /// enqueue the pairs the caller is about to wait for — so the post-hook
  /// re-check under the lock is what makes the sleep safe. Replaces the
  /// old try_pop-then-pop retry: a hit costs one lock acquisition instead
  /// of two, and the hook is skipped entirely once the queue is closed and
  /// drained (nothing a drain produces can matter after close — see
  /// Engine::finish()/~Engine for why both closers guarantee that).
  template <typename PreBlock>
  std::optional<T> pop_with_preblock(PreBlock&& pre) {
    UniqueLock lock(mutex_);
    for (;;) {
      if (count_ != 0) {
        T item = take();
        const bool producers_waiting = waiting_pushers_ != 0;
        lock.unlock();
        if (producers_waiting) {
          not_full_.notify_all();  // heterogeneous batch predicates, see pop()
        }
        return item;
      }
      if (closed_) {
        return std::nullopt;  // closed and drained
      }
      lock.unlock();
      pre();
      lock.lock();
      if (count_ != 0 || closed_) {
        continue;  // the hook produced work (or the queue closed meanwhile)
      }
      ++waiting_poppers_;
      while (!(closed_ || count_ != 0)) {
        ++parks_;
        not_empty_.wait(lock);
      }
      --waiting_poppers_;
      // Loop: the hit/closed checks at the top consume whatever woke us. A
      // spurious pass re-runs the hook, which is cheap when idle (a single
      // atomic threshold check on the engine side).
    }
  }

  /// Non-blocking dequeue.
  std::optional<T> try_pop() {
    UniqueLock lock(mutex_);
    if (count_ == 0) {
      return std::nullopt;
    }
    T item = take();
    const bool producers_waiting = waiting_pushers_ != 0;
    lock.unlock();
    if (producers_waiting) {
      not_full_.notify_all();  // heterogeneous batch predicates, see pop()
    }
    return item;
  }

  /// Closes the queue: pending and future pushes fail, blocked poppers wake
  /// and drain the remaining items before receiving nullopt.
  void close() {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    MutexLock lock(mutex_);
    return count_;
  }

  bool empty() const { return size() == 0; }

  /// Times a consumer blocked on the empty queue (one per not_empty_ wait).
  std::uint64_t parks() const {
    MutexLock lock(mutex_);
    return parks_;
  }

 private:
  /// Wakes `wake` consumers (computed under the lock as min(items added,
  /// consumers then waiting)). Skipping the signal when no consumer was
  /// waiting is safe: a consumer that arrives later re-checks count_ under
  /// the mutex before sleeping, so it either sees the items or they were
  /// already taken — either way no signal is owed.
  void notify_consumers(std::size_t wake) {
    if (wake == 1) {
      not_empty_.notify_one();
    } else if (wake > 1) {
      not_empty_.notify_all();
    }
  }

  /// Appends one item, growing the ring if needed. Caller holds the lock
  /// and has already checked capacity/closed.
  void place(T item) DF_REQUIRES(mutex_) {
    if (count_ == ring_.size()) {
      grow();
    }
    ring_[(head_ + count_) & (ring_.size() - 1)] = std::move(item);
    ++count_;
  }

  T take() DF_REQUIRES(mutex_) {
    T item = std::move(ring_[head_]);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    return item;
  }

  void grow() DF_REQUIRES(mutex_) {
    std::size_t size = ring_.empty() ? 16 : ring_.size() * 2;
    std::vector<T> grown(size);
    for (std::size_t i = 0; i < count_; ++i) {
      grown[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(grown);
    head_ = 0;
  }

  mutable Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  std::vector<T> ring_ DF_GUARDED_BY(mutex_);  // circular; power-of-two size
  std::size_t head_ DF_GUARDED_BY(mutex_) = 0;
  std::size_t count_ DF_GUARDED_BY(mutex_) = 0;
  std::size_t capacity_;  // immutable after construction
  bool closed_ DF_GUARDED_BY(mutex_) = false;
  // Waiter counts, guarded by mutex_. A thread is counted from just before
  // its predicate wait to just after, so any thread actually blocked on a
  // condvar is always visible to the peer deciding whether to signal.
  std::size_t waiting_poppers_ DF_GUARDED_BY(mutex_) = 0;
  std::size_t waiting_pushers_ DF_GUARDED_BY(mutex_) = 0;
  std::uint64_t parks_ DF_GUARDED_BY(mutex_) = 0;
};

}  // namespace df::conc
