#include "baseline/lockstep.hpp"

#include <atomic>
#include <optional>

#include "concurrency/thread_pool.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace df::baseline {

LockstepExecutor::LockstepExecutor(const core::Program& program,
                                   std::size_t threads)
    : instance_(program), threads_(threads) {
  DF_CHECK(threads >= 1, "lockstep executor needs at least one thread");
  // Compute topological levels over the internal index space.
  const std::uint32_t n = instance_.n();
  std::vector<std::uint32_t> level(n + 1, 0);
  for (std::uint32_t v = 1; v <= n; ++v) {
    for (std::size_t port = 0; port < instance_.out_port_count(v); ++port) {
      for (const core::Route& r :
           instance_.routes(v, static_cast<graph::Port>(port))) {
        level[r.to_index] = std::max(level[r.to_index], level[v] + 1);
      }
    }
  }
  std::uint32_t depth = 0;
  for (std::uint32_t v = 1; v <= n; ++v) {
    depth = std::max(depth, level[v] + 1);
  }
  levels_.resize(depth);
  for (std::uint32_t v = 1; v <= n; ++v) {
    levels_[level[v]].push_back(v);
  }
}

void LockstepExecutor::run(event::PhaseId num_phases, core::PhaseFeed* feed) {
  core::NullFeed null_feed;
  core::PhaseFeed& source = feed != nullptr ? *feed : null_feed;
  const std::uint32_t n = instance_.n();

  support::Stopwatch wall;
  conc::ThreadPool pool(threads_);
  std::vector<std::optional<event::InputBundle>> pending(n + 1);
  std::vector<core::ExecutionResult> results(n + 1);

  std::atomic<std::uint64_t> compute_ns{0};
  std::atomic<std::uint64_t> executed{0};
  // Numbers the run_on_all rounds, so that every worker's sampled timer
  // draws a fresh sequence in every round.
  std::uint64_t round = 0;

  for (event::PhaseId p = 1; p <= num_phases; ++p) {
    for (const event::ExternalEvent& ev : source.events_for(p)) {
      const std::uint32_t index = instance_.internal_index(ev.vertex);
      DF_CHECK(instance_.is_source(index),
               "external events may only target source vertices");
      if (!pending[index].has_value()) {
        pending[index].emplace();
      }
      pending[index]->push_back(event::Message{ev.port, ev.value});
    }

    for (const std::vector<std::uint32_t>& level : levels_) {
      // Gather the executable vertices of this level.
      std::vector<std::uint32_t> work;
      for (const std::uint32_t v : level) {
        if (instance_.is_source(v) || pending[v].has_value()) {
          work.push_back(v);
        }
      }
      if (work.empty()) {
        continue;
      }

      // Execute the level in parallel; results land in per-vertex slots.
      std::atomic<std::size_t> cursor{0};
      ++round;
      pool.run_on_all([&](std::size_t worker) {
        support::SampledStopwatch compute_timer(round * threads_ + worker);
        for (;;) {
          const std::size_t i = cursor.fetch_add(1);
          if (i >= work.size()) {
            return;
          }
          const std::uint32_t v = work[i];
          const event::InputBundle bundle =
              pending[v].has_value() ? std::move(*pending[v])
                                     : event::InputBundle{};
          pending[v].reset();
          compute_timer.start();
          results[v] = core::execute_vertex(instance_, v, p, bundle);
          compute_ns.fetch_add(compute_timer.stop(),
                               std::memory_order_relaxed);
          executed.fetch_add(1, std::memory_order_relaxed);
        }
      });

      // Route sequentially (barrier already passed): deterministic order.
      for (const std::uint32_t v : work) {
        core::ExecutionResult& result = results[v];
        for (core::ExecutionResult::Delivery& d : result.deliveries) {
          if (!pending[d.to_index].has_value()) {
            pending[d.to_index].emplace();
          }
          pending[d.to_index]->push_back(
              event::Message{d.to_port, std::move(d.value)});
          ++stats_.messages_delivered;
        }
        stats_.sink_records += result.sink_records.size();
        sinks_.record_batch(std::move(result.sink_records));
        result = core::ExecutionResult{};
      }
    }
    ++stats_.phases_completed;
  }
  stats_.executed_pairs = executed.load();
  stats_.compute_ns = compute_ns.load();
  stats_.wall_seconds = wall.elapsed_s();
  stats_.max_inflight_phases = 1;
}

}  // namespace df::baseline
