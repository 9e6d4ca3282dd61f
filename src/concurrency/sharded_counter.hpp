// Cache-line sharded counters for engine statistics.
//
// The engine counts executed pairs, delivered messages and enqueues from
// every worker thread; a single shared atomic would add contention to the
// very code paths the benchmarks measure, so counters are striped across
// cache lines and summed on read.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>

namespace df::conc {

class ShardedCounter {
 public:
  explicit ShardedCounter(std::size_t shards = 16);

  /// Adds `delta` to the shard chosen from the calling thread's identity.
  void add(std::uint64_t delta = 1);

  /// Sums all shards. Not linearizable with concurrent add()s, which is fine
  /// for statistics read after quiescence.
  std::uint64_t value() const;

  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
  };
  std::unique_ptr<Shard[]> shards_;
  std::size_t shard_count_;

  std::size_t shard_index() const;
};

}  // namespace df::conc
