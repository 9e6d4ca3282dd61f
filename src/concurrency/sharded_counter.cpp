#include "concurrency/sharded_counter.hpp"

#include <functional>

#include "support/check.hpp"

namespace df::conc {

ShardedCounter::ShardedCounter(std::size_t shards)
    : shards_(std::make_unique<Shard[]>(shards)), shard_count_(shards) {
  DF_CHECK(shards > 0, "counter needs at least one shard");
}

std::size_t ShardedCounter::shard_index() const {
  const auto id = std::hash<std::thread::id>{}(std::this_thread::get_id());
  return id % shard_count_;
}

void ShardedCounter::add(std::uint64_t delta) {
  shards_[shard_index()].count.fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t ShardedCounter::value() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    total += shards_[i].count.load(std::memory_order_relaxed);
  }
  return total;
}

void ShardedCounter::reset() {
  for (std::size_t i = 0; i < shard_count_; ++i) {
    shards_[i].count.store(0, std::memory_order_relaxed);
  }
}

}  // namespace df::conc
