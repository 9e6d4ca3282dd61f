// A2 — micro-benchmarks of the data structures behind the engine
// (google-benchmark): run-queue operations, lock acquisition, scheduler
// bookkeeping per pair, rng and value plumbing. These quantify the
// "computations performed to maintain the data structures" that the paper's
// speedup prediction is conditioned on.
#include <benchmark/benchmark.h>

#include <mutex>

#include "bench_gbench_json.hpp"

#include "concurrency/blocking_queue.hpp"
#include "concurrency/sharded_counter.hpp"
#include "concurrency/spsc_ring.hpp"
#include "core/scheduler.hpp"
#include "event/value.hpp"
#include "graph/generators.hpp"
#include "graph/numbering.hpp"
#include "support/rng.hpp"

namespace {

using namespace df;

void BM_blocking_queue_push_pop(benchmark::State& state) {
  conc::BlockingQueue<int> queue;
  for (auto _ : state) {
    queue.push(1);
    benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_blocking_queue_push_pop);

void BM_spsc_ring_push_pop(benchmark::State& state) {
  conc::SpscRing<int> ring(1024);
  for (auto _ : state) {
    ring.push(1);
    benchmark::DoNotOptimize(ring.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_spsc_ring_push_pop);

void BM_mutex_lock_unlock(benchmark::State& state) {
  std::mutex mutex;
  for (auto _ : state) {
    mutex.lock();
    benchmark::DoNotOptimize(&mutex);
    mutex.unlock();
  }
}
BENCHMARK(BM_mutex_lock_unlock);

void BM_sharded_counter_add(benchmark::State& state) {
  conc::ShardedCounter counter;
  for (auto _ : state) {
    counter.add();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_sharded_counter_add);

/// Full scheduler bookkeeping cost per vertex-phase pair on a chain: one
/// start_phase + N finish_execution calls per phase, with fresh vectors
/// per call (the seed implementation's allocation profile; the removed
/// seed-compat wrappers behaved exactly like this).
void BM_scheduler_pair_bookkeeping(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const graph::Dag dag = graph::chain(n);
  const graph::Numbering numbering =
      graph::compute_satisfactory_numbering(dag);
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    core::Scheduler scheduler(numbering.m);
    std::vector<event::InputBundle> bundles(1);
    std::vector<core::Scheduler::ReadyPair> queue;
    scheduler.start_phase(1, std::span(bundles), queue);
    while (!queue.empty()) {
      core::Scheduler::ReadyPair pair = std::move(queue.back());
      queue.pop_back();
      std::vector<core::Scheduler::Delivery> deliveries;
      if (pair.vertex < n) {
        deliveries.push_back(core::Scheduler::Delivery{
            pair.vertex + 1, 0, event::Value(1.0)});
      }
      std::vector<core::Scheduler::ReadyPair> ready;
      scheduler.finish_execution(pair.vertex, pair.phase,
                                 std::span(deliveries), {}, ready);
      for (auto& r : ready) {
        queue.push_back(std::move(r));
      }
      ++pairs;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
}
BENCHMARK(BM_scheduler_pair_bookkeeping)->Arg(8)->Arg(64)->Arg(512);

/// Same workload through the flat buffer-reuse API the engine uses: spans
/// for deliveries, a caller-owned ready buffer, and the executed bundle
/// recycled into the scheduler's pool (zero allocations at steady state).
void BM_scheduler_pair_bookkeeping_reuse(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const graph::Dag dag = graph::chain(n);
  const graph::Numbering numbering =
      graph::compute_satisfactory_numbering(dag);
  std::uint64_t pairs = 0;
  core::Scheduler scheduler(numbering.m);
  std::vector<event::InputBundle> bundles(1);
  std::vector<core::Scheduler::ReadyPair> queue;
  std::vector<core::Scheduler::ReadyPair> ready;
  std::vector<core::Scheduler::Delivery> deliveries;
  event::PhaseId phase = 0;
  for (auto _ : state) {
    bundles.assign(1, event::InputBundle{});
    scheduler.start_phase(++phase, std::span(bundles), queue);
    while (!queue.empty()) {
      core::Scheduler::ReadyPair pair = std::move(queue.back());
      queue.pop_back();
      deliveries.clear();
      if (pair.vertex < n) {
        deliveries.push_back(core::Scheduler::Delivery{
            pair.vertex + 1, 0, event::Value(1.0)});
      }
      ready.clear();
      scheduler.finish_execution(pair.vertex, pair.phase,
                                 std::span(deliveries),
                                 std::move(pair.bundle), ready);
      for (auto& r : ready) {
        queue.push_back(std::move(r));
      }
      ++pairs;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
}
BENCHMARK(BM_scheduler_pair_bookkeeping_reuse)->Arg(8)->Arg(64)->Arg(512);

/// The staged-delivery drain path: the same chain workload, but with a
/// window of phases in flight so each finish_execution_batch call applies
/// one staged finish per active phase — one frontier/promotion/collect
/// pass amortized over the whole batch, as in Engine::drain_staged.
void BM_scheduler_pair_bookkeeping_staged_batch(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  constexpr std::size_t kWindow = 16;
  const graph::Dag dag = graph::chain(n);
  const graph::Numbering numbering =
      graph::compute_satisfactory_numbering(dag);
  std::uint64_t pairs = 0;
  core::Scheduler scheduler(numbering.m);
  scheduler.reserve_steady_state(kWindow, kWindow * 2);
  std::vector<event::InputBundle> bundles(1);
  std::vector<core::Scheduler::ReadyPair> queue;
  std::vector<core::Scheduler::ReadyPair> ready;
  std::vector<core::Scheduler::StagedFinish> batch;
  event::PhaseId phase = 0;
  for (auto _ : state) {
    // Keep the phase window full: a chain holds one ready pair per active
    // phase, so the batch below carries ~kWindow finishes.
    while (scheduler.active_phase_count() < kWindow) {
      bundles.assign(1, event::InputBundle{});
      scheduler.start_phase(++phase, std::span(bundles), queue);
    }
    batch.clear();
    for (auto& pair : queue) {
      core::Scheduler::StagedFinish staged;
      staged.vertex = pair.vertex;
      staged.phase = pair.phase;
      if (pair.vertex < n) {
        staged.deliveries.push_back(core::Scheduler::Delivery{
            pair.vertex + 1, 0, event::Value(1.0)});
      }
      staged.recycled = std::move(pair.bundle);
      batch.push_back(std::move(staged));
    }
    pairs += batch.size();
    queue.clear();
    ready.clear();
    scheduler.finish_execution_batch(std::span(batch), ready);
    for (auto& r : ready) {
      queue.push_back(std::move(r));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
}
BENCHMARK(BM_scheduler_pair_bookkeeping_staged_batch)
    ->Arg(8)
    ->Arg(64)
    ->Arg(512);

void BM_rng_next_normal(benchmark::State& state) {
  support::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_normal());
  }
}
BENCHMARK(BM_rng_next_normal);

void BM_value_copy_double(benchmark::State& state) {
  const event::Value value(3.14);
  for (auto _ : state) {
    event::Value copy = value;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_value_copy_double);

}  // namespace

int main(int argc, char** argv) {
  return df::bench::run_benchmarks_with_json(argc, argv, "micro");
}
