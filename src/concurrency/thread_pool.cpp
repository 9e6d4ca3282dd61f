#include "concurrency/thread_pool.hpp"

#include <latch>

#include "support/check.hpp"

namespace df::conc {

ThreadPool::ThreadPool(std::size_t worker_count) {
  DF_CHECK(worker_count > 0, "thread pool needs at least one worker");
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  tasks_.close();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::run_on_all(const std::function<void(std::size_t)>& task) {
  std::latch done(static_cast<std::ptrdiff_t>(workers_.size()));
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    tasks_.push([&task, &done, i] {
      task(i);
      done.count_down();
    });
  }
  done.wait();
}

void ThreadPool::worker_main() {
  while (auto task = tasks_.pop()) {
    (*task)();
  }
}

void parallel_for_threads(std::size_t count,
                          const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads.emplace_back([&body, i] { body(i); });
  }
  for (auto& thread : threads) {
    thread.join();
  }
}

}  // namespace df::conc
