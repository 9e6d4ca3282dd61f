// Single-producer single-consumer lock-free ring buffer.
//
// Used by the in-process channel (distrib::InProcessChannel), whose frames
// it carries from one partition to the next.
//
// "Single producer" means *one producer at a time*, not one producer
// thread forever: the producer role may migrate between threads provided
// the handoff happens through an acquire/release (or stronger) edge — the
// channel's senders take turns under the egress link mutex, which is
// exactly that. The consumer stays on one thread.
//
// Debug builds enforce that contract: each side's operations assert they
// run on the role's owning thread (DF_ASSERT_PRODUCER / DF_ASSERT_CONSUMER
// below). The first use claims the role; a legal producer migration must
// be announced with adopt_producer() *after* the synchronizing handoff, so
// an unannounced thread switch — exactly the bug class the SPSC memory
// orderings cannot survive — fails a DF_CHECK instead of corrupting the
// ring. Release builds compile all of it away.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <thread>
#include <vector>

#include "support/check.hpp"

// Owner-thread assertions for the SPSC contract; no-ops under NDEBUG. Kept
// as macros so the owner fields and checks vanish from release builds.
#ifndef NDEBUG
#define DF_ASSERT_PRODUCER(ring) (ring).assert_producer()
#define DF_ASSERT_CONSUMER(ring) (ring).assert_consumer()
#else
#define DF_ASSERT_PRODUCER(ring) ((void)0)
#define DF_ASSERT_CONSUMER(ring) ((void)0)
#endif

namespace df::conc {

template <typename T>
class SpscRing {
 public:
  /// capacity must be a power of two (masking instead of modulo).
  explicit SpscRing(std::size_t capacity)
      : buffer_(capacity), mask_(capacity - 1) {
    DF_CHECK(capacity >= 2 && (capacity & (capacity - 1)) == 0,
             "SPSC ring capacity must be a power of two >= 2");
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false when full (the item is not stored).
  bool push(T item) { return try_push(item); }

  /// Producer side; moves from `item` only on success, so a caller holding
  /// an expensive-to-rebuild item (a channel's frame buffer) keeps it
  /// intact when the ring is full and can retry once there is room.
  bool try_push(T& item) {
    DF_ASSERT_PRODUCER(*this);
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail == buffer_.size()) {
      return false;
    }
    buffer_[head & mask_] = std::move(item);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side.
  std::optional<T> pop() {
    DF_ASSERT_CONSUMER(*this);
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (head == tail) {
      return std::nullopt;
    }
    T item = std::move(buffer_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return item;
  }

  std::size_t size() const {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }

  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return buffer_.size(); }

  /// Transfers the producer role to the calling thread. Legal only after
  /// a synchronizing handoff (an acquire/release or stronger edge) with
  /// the previous producer — e.g. under the egress link mutex.
  void adopt_producer() {
#ifndef NDEBUG
    producer_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }

#ifndef NDEBUG
  void assert_producer() { assert_role(producer_, "producer"); }
  void assert_consumer() { assert_role(consumer_, "consumer"); }
#endif

 private:
#ifndef NDEBUG
  // The relaxed order is deliberate: the owner slot is bookkeeping about
  // the handoff, not the handoff itself — a migration that relies on this
  // atomic for synchronization is already a contract violation.
  void assert_role(std::atomic<std::thread::id>& owner, const char* role) {
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id seen{};
    if (owner.compare_exchange_strong(seen, self,
                                      std::memory_order_relaxed)) {
      return;  // first use claims the role
    }
    DF_CHECK(seen == self, "SPSC contract violation: ", role,
             " used from a second thread without an announced handoff");
  }
#endif

  std::vector<T> buffer_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
#ifndef NDEBUG
  std::atomic<std::thread::id> producer_{};
  std::atomic<std::thread::id> consumer_{};
#endif
};

}  // namespace df::conc
