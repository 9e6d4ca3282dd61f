// Fixed-size worker pool for the lockstep baseline (baseline/lockstep.cpp).
//
// The paper's prototype used java.util.concurrent.ThreadPoolExecutor for its
// "pool of computation threads". The lockstep executor needs one operation
// from a pool: run_on_all() runs a task on every worker and waits for all of
// them, once per level of the graph.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "concurrency/blocking_queue.hpp"

namespace df::conc {

class ThreadPool {
 public:
  /// Spawns `worker_count` threads that wait for run_on_all() tasks.
  explicit ThreadPool(std::size_t worker_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs `task` on every worker concurrently and returns when all complete.
  /// The task receives the worker index [0, worker_count). Tasks must not
  /// throw; exceptions terminate.
  void run_on_all(const std::function<void(std::size_t)>& task);

 private:
  void worker_main();

  BlockingQueue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
};

/// Spawns `count` threads each running `body(index)`, joins them all before
/// returning. Simple structured-parallelism helper used by tests/benches.
void parallel_for_threads(std::size_t count,
                          const std::function<void(std::size_t)>& body);

}  // namespace df::conc
