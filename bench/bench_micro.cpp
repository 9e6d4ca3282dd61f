// A2 — micro-benchmarks of the data structures behind the engine
// (google-benchmark): run-queue operations, lock acquisition, scheduler
// bookkeeping per pair, rng and value plumbing. These quantify the
// "computations performed to maintain the data structures" that the paper's
// speedup prediction is conditioned on. BM_parse_event_csv times the step
// before any phase runs: reading recorded streams into timestamped events.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <deque>
#include <mutex>
#include <string>

#include "bench_gbench_json.hpp"

#include "concurrency/blocking_queue.hpp"
#include "concurrency/sharded_counter.hpp"
#include "core/scheduler.hpp"
#include "event/value.hpp"
#include "graph/generators.hpp"
#include "graph/numbering.hpp"
#include "spec/event_csv.hpp"
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
/// recycled into its inbox (zero allocations at steady state).
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

/// One Listing 1 tail per finish, as every engine worker runs it, with
/// `range(0)` phases kept in flight on a chain,
/// finishing pairs in FIFO order like the run queue. A finish changes one
/// phase's pending set, so the frontier pass visits a constant number of
/// slots (`slots_per_pair`) and the cost per pair stays flat as the window
/// deepens instead of growing with it.
void BM_scheduler_pair_bookkeeping_window(benchmark::State& state) {
  constexpr std::uint32_t kVertices = 8;
  const auto window = static_cast<std::size_t>(state.range(0));
  const graph::Dag dag = graph::chain(kVertices);
  const graph::Numbering numbering =
      graph::compute_satisfactory_numbering(dag);
  std::uint64_t pairs = 0;
  core::Scheduler scheduler(numbering.m);
  scheduler.reserve_steady_state(window);
  std::vector<event::InputBundle> bundles(1);
  std::deque<core::Scheduler::ReadyPair> queue;
  std::vector<core::Scheduler::ReadyPair> ready;
  std::vector<core::Scheduler::Delivery> deliveries;
  event::PhaseId phase = 0;
  const std::uint64_t visits_before = scheduler.frontier_slots_visited();
  for (auto _ : state) {
    while (scheduler.active_phase_count() < window) {
      bundles.assign(1, event::InputBundle{});
      ready.clear();
      scheduler.start_phase(++phase, std::span(bundles), ready);
      for (auto& r : ready) {
        queue.push_back(std::move(r));
      }
    }
    core::Scheduler::ReadyPair pair = std::move(queue.front());
    queue.pop_front();
    deliveries.clear();
    if (pair.vertex < kVertices) {
      deliveries.push_back(core::Scheduler::Delivery{
          pair.vertex + 1, 0, event::Value(1.0)});
    }
    ready.clear();
    scheduler.finish_execution(pair.vertex, pair.phase, std::span(deliveries),
                               std::move(pair.bundle), ready);
    for (auto& r : ready) {
      queue.push_back(std::move(r));
    }
    ++pairs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
  state.counters["slots_per_pair"] =
      pairs == 0 ? 0.0
                 : static_cast<double>(scheduler.frontier_slots_visited() -
                                       visits_before) /
                       static_cast<double>(pairs);
}
BENCHMARK(BM_scheduler_pair_bookkeeping_window)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256);

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

/// Event CSV ingestion in the shape of the benchmark's engine-events
/// workload: 32 double-valued streams s00..s31, each reporting with
/// probability 1/2 per phase (at least one per phase), one timestamp per
/// phase, 8192 phases. Its JSON row reports `ns_per_event`.
void BM_parse_event_csv(benchmark::State& state) {
  constexpr std::uint32_t kStreams = 32;
  constexpr std::uint64_t kPhases = 8192;
  graph::Dag dag;
  char line[64];
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    std::snprintf(line, sizeof line, "s%02u", s);
    dag.add_vertex(line);
  }
  support::Rng rng(7);
  std::string csv = "timestamp,vertex,port,type,value\n";
  for (std::uint64_t p = 1; p <= kPhases; ++p) {
    const auto forced = static_cast<std::uint32_t>(rng.next_below(kStreams));
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      if (s == forced || rng.next_bernoulli(0.5)) {
        std::snprintf(line, sizeof line, "%llu,s%02u,0,double,%.6f\n",
                      static_cast<unsigned long long>(p), s,
                      rng.next_normal(10.0 + s, 1.0));
        csv += line;
      }
    }
  }
  std::size_t events = 0;
  for (auto _ : state) {
    const auto parsed = spec::parse_event_csv(csv, dag);
    events = parsed.size();
    benchmark::DoNotOptimize(parsed.data());
  }
  state.counters["events_per_op"] = static_cast<double>(events);
}
BENCHMARK(BM_parse_event_csv)->Unit(benchmark::kNanosecond);

}  // namespace

int main(int argc, char** argv) {
  return df::bench::run_benchmarks_with_json(argc, argv, "micro");
}
